//! The emulated cache's tag/state/LRU tables — the board's SDRAM arrays.

use std::fmt;

use memories_bus::{Geometry, LineAddr};
use memories_protocol::StateId;

use crate::params::CacheParams;
use crate::replacement::{plru_touch, plru_victim, ReplacementPolicy, XorShift};

/// A line evicted from the tag store to make room for an allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line address (in the store's own line geometry).
    pub line: LineAddr,
    /// The protocol state it held at eviction.
    pub state: StateId,
}

/// The result of one [`TagStore::probe`]: which set `line` maps to, the
/// way holding it (if resident) and its protocol state.
///
/// A probe is a handle for one transition: apply it with
/// [`TagStore::update`] (hit) or [`TagStore::fill`] (allocating miss)
/// before the store changes in any other way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagProbe {
    set: usize,
    way: Option<u32>,
    state: StateId,
}

impl TagProbe {
    /// The set the probed line maps to.
    pub fn set(&self) -> usize {
        self.set
    }

    /// The way holding the line, or `None` on a miss.
    pub fn way(&self) -> Option<u32> {
        self.way
    }

    /// The line's protocol state ([`StateId::INVALID`] on a miss).
    pub fn state(&self) -> StateId {
        self.state
    }

    /// Whether the line was resident.
    pub fn hit(&self) -> bool {
        self.way.is_some()
    }
}

/// One way of a set: `[tag, age << 3 | state]`. Four ways fill one 64 B
/// cache line.
type Way = [u64; 2];

/// Bits of a way's second word that hold the state (`StateId::MAX_STATES`
/// is 8); the replacement age sits above them.
const STATE_BITS: u32 = 3;
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;

fn way_state(way: &Way) -> StateId {
    StateId::new((way[1] & STATE_MASK) as u8)
}

/// The tag, state, and replacement-metadata tables of one emulated cache
/// node — the structure the board keeps in four 64 MB SDRAM DIMMs per node
/// controller (§3).
///
/// The tables are one set-major array: each way is a `[tag, age << 3 |
/// state]` record, and a set's ways sit side by side, so one lookup reads
/// one contiguous run of memory (one 64 B line for a 4-way set). The age
/// is the LRU/FIFO stamp; bit-PLRU keeps one mask byte per set beside it.
/// The array starts as a zeroed allocation (tag 0, age 0, state 0), so
/// sets that are never touched are never faulted in.
///
/// [`TagStore::probe`] reads a set once and returns a [`TagProbe`];
/// [`TagStore::update`] and [`TagStore::fill`] apply a transition through
/// it without searching again. The node controller makes exactly one
/// probe per event. [`state`](TagStore::state),
/// [`touch`](TagStore::touch), [`set_state`](TagStore::set_state),
/// [`allocate`](TagStore::allocate) and
/// [`invalidate`](TagStore::invalidate) are one-probe wrappers over those
/// three calls.
///
/// States are the *programmable* protocol's [`StateId`]s; state 0 means
/// the entry is free. The store never interprets states beyond "state 0 is
/// invalid"; dirtiness is the protocol table's business.
///
/// # Examples
///
/// ```
/// use memories::{CacheParams, TagStore};
/// use memories_protocol::StateId;
///
/// # fn main() -> Result<(), memories::ParamError> {
/// let params = CacheParams::builder().capacity(2 << 20).build()?;
/// let mut store = TagStore::new(&params);
/// let line = store.geometry().line_addr(memories_bus::Address::new(0x1000));
/// let probe = store.probe(line);
/// assert!(!probe.hit());
/// assert!(store.fill(&probe, line, StateId::new(1)).is_none());
///
/// let probe = store.probe(line);
/// assert_eq!(probe.state(), StateId::new(1));
/// store.update(&probe, StateId::new(2), true);
/// assert_eq!(store.state(line), StateId::new(2));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct TagStore {
    geom: Geometry,
    policy: ReplacementPolicy,
    ways: Vec<Way>,
    plru: Vec<u8>,
    rng: XorShift,
    tick: u64,
    resident: u64,
}

impl TagStore {
    /// Creates an empty tag store for the given parameters.
    pub fn new(params: &CacheParams) -> Self {
        let geom = *params.geometry();
        let policy = params.replacement();
        TagStore {
            geom,
            policy,
            // A zeroed allocation: untouched sets stay unfaulted.
            ways: vec![[0u64; 2]; geom.lines() as usize],
            plru: if matches!(policy, ReplacementPolicy::PlruBits) {
                vec![0; geom.sets()]
            } else {
                Vec::new()
            },
            rng: XorShift(0x9E37_79B9_7F4A_7C15),
            tick: 0,
            resident: 0,
        }
    }

    /// The store's line geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of allocated (non-invalid) entries.
    pub fn resident_lines(&self) -> u64 {
        self.resident
    }

    fn base(&self, set: usize) -> usize {
        set * self.geom.ways() as usize
    }

    /// Looks `line` up: one pass over its set.
    pub fn probe(&self, line: LineAddr) -> TagProbe {
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        let base = self.base(set);
        let ways = &self.ways[base..base + self.geom.ways() as usize];
        for (w, way) in ways.iter().enumerate() {
            if way[1] & STATE_MASK != 0 && way[0] == tag {
                return TagProbe {
                    set,
                    way: Some(w as u32),
                    state: way_state(way),
                };
            }
        }
        TagProbe {
            set,
            way: None,
            state: StateId::INVALID,
        }
    }

    /// Reads one word of the set `line` maps to, without searching it: a
    /// read-only touch that brings the set into the host cache ahead of
    /// its [`TagStore::probe`]. The word itself means nothing.
    pub(crate) fn read_set(&self, line: LineAddr) -> u64 {
        self.ways[self.base(self.geom.set_index(line))][1]
    }

    /// Moves the line a hit `probe` found to state `next`; a move to state
    /// 0 frees its way. With `touch`, a line that stays resident also
    /// records a use for the replacement policy (LRU stamp / PLRU bit; no
    /// effect under FIFO or random). A no-op for a miss.
    pub fn update(&mut self, probe: &TagProbe, next: StateId, touch: bool) {
        let Some(way) = probe.way else {
            return;
        };
        let i = self.base(probe.set) + way as usize;
        let entry = &mut self.ways[i];
        entry[1] = (entry[1] & !STATE_MASK) | u64::from(next.value());
        if next.is_invalid() {
            self.resident -= 1;
        } else if touch {
            match self.policy {
                ReplacementPolicy::Lru => {
                    self.tick += 1;
                    entry[1] = (self.tick << STATE_BITS) | u64::from(next.value());
                }
                ReplacementPolicy::PlruBits => {
                    self.plru[probe.set] = plru_touch(self.plru[probe.set], way, self.geom.ways());
                }
                ReplacementPolicy::Fifo | ReplacementPolicy::Random => {}
            }
        }
    }

    /// Allocates `line`, which a miss `probe` did not find, in `state`:
    /// into the lowest free way of its set, or else over the replacement
    /// policy's victim. Returns the victim, if any.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `state` is the invalid state or `probe`
    /// is a hit.
    pub fn fill(
        &mut self,
        probe: &TagProbe,
        line: LineAddr,
        state: StateId,
    ) -> Option<EvictedLine> {
        debug_assert!(
            !state.is_invalid(),
            "cannot allocate into the invalid state"
        );
        debug_assert!(probe.way.is_none(), "fill needs a miss probe");
        debug_assert_eq!(probe.set, self.geom.set_index(line));
        let set = probe.set;
        let ways = self.geom.ways();
        let base = self.base(set);
        let entries = &self.ways[base..base + ways as usize];

        // Prefer a free way.
        let free = entries.iter().position(|w| w[1] & STATE_MASK == 0);
        let (way, victim) = match free {
            Some(w) => {
                self.resident += 1;
                (w as u32, None)
            }
            None => {
                let way = match self.policy {
                    // The lowest way with the smallest age (`min_by_key`
                    // keeps the first of equal minima).
                    ReplacementPolicy::Lru | ReplacementPolicy::Fifo => entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, entry)| entry[1] >> STATE_BITS)
                        .map_or(0, |(w, _)| w as u32),
                    ReplacementPolicy::Random => (self.rng.next() % u64::from(ways)) as u32,
                    ReplacementPolicy::PlruBits => plru_victim(self.plru[set], ways),
                };
                let entry = &entries[way as usize];
                let victim = EvictedLine {
                    line: self.geom.line_from_parts(entry[0], set),
                    state: way_state(entry),
                };
                (way, Some(victim))
            }
        };

        let age = match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                self.tick += 1;
                self.tick
            }
            ReplacementPolicy::PlruBits => {
                self.plru[set] = plru_touch(self.plru[set], way, ways);
                0
            }
            ReplacementPolicy::Random => 0,
        };
        self.ways[base + way as usize] = [
            self.geom.tag(line),
            (age << STATE_BITS) | u64::from(state.value()),
        ];
        victim
    }

    /// The protocol state of `line` ([`StateId::INVALID`] if absent).
    pub fn state(&self, line: LineAddr) -> StateId {
        self.probe(line).state
    }

    /// Whether `line` has an entry.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.probe(line).hit()
    }

    /// Records a use of `line` for the replacement policy (LRU timestamp /
    /// PLRU bit; no effect under FIFO or random). Returns whether the line
    /// was resident.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        let probe = self.probe(line);
        self.update(&probe, probe.state, true);
        probe.hit()
    }

    /// Sets the state of a resident line (no-op when absent); returns the
    /// previous state if resident. A transition back to state 0 frees the
    /// entry.
    pub fn set_state(&mut self, line: LineAddr, state: StateId) -> Option<StateId> {
        let probe = self.probe(line);
        self.update(&probe, state, false);
        probe.hit().then_some(probe.state)
    }

    /// Allocates an entry for `line` in `state`, evicting per the
    /// replacement policy if the set is full. Returns the victim, if any.
    ///
    /// If the line is already resident, only its state is updated (and
    /// the use recorded).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `state` is the invalid state.
    pub fn allocate(&mut self, line: LineAddr, state: StateId) -> Option<EvictedLine> {
        let probe = self.probe(line);
        if probe.hit() {
            debug_assert!(
                !state.is_invalid(),
                "cannot allocate into the invalid state"
            );
            self.update(&probe, state, true);
            return None;
        }
        self.fill(&probe, line, state)
    }

    /// Frees the entry of `line`, returning its old state
    /// ([`StateId::INVALID`] if it was absent).
    pub fn invalidate(&mut self, line: LineAddr) -> StateId {
        let probe = self.probe(line);
        self.update(&probe, StateId::INVALID, false);
        probe.state
    }

    /// Iterates over `(line, state)` for every resident entry (tests and
    /// statistics extraction).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, StateId)> + '_ {
        let ways = self.geom.ways() as usize;
        self.ways
            .iter()
            .enumerate()
            .filter(|(_, w)| w[1] & STATE_MASK != 0)
            .map(move |(i, w)| (self.geom.line_from_parts(w[0], i / ways), way_state(w)))
    }
}

impl fmt::Debug for TagStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TagStore")
            .field("geometry", &self.geom.to_string())
            .field("policy", &self.policy)
            .field("resident", &self.resident)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_bus::Address;

    fn store(ways: u32, policy: ReplacementPolicy) -> TagStore {
        // 2 sets x `ways` x 128 B.
        let params = CacheParams::builder()
            .capacity(u64::from(ways) * 2 * 128)
            .ways(ways)
            .line_size(128)
            .replacement(policy)
            .allow_scaled_down()
            .build()
            .unwrap();
        TagStore::new(&params)
    }

    /// Line n of set 0 (with 2 sets, even line numbers hit set 0).
    fn l(store: &TagStore, n: u64) -> LineAddr {
        store.geometry().line_addr(Address::new(n * 2 * 128))
    }

    #[test]
    fn allocate_lookup_invalidate() {
        let mut t = store(2, ReplacementPolicy::Lru);
        let a = l(&t, 0);
        assert!(t.allocate(a, StateId::new(2)).is_none());
        assert_eq!(t.state(a), StateId::new(2));
        assert_eq!(t.resident_lines(), 1);
        assert_eq!(t.invalidate(a), StateId::new(2));
        assert_eq!(t.state(a), StateId::INVALID);
        assert_eq!(t.resident_lines(), 0);
        assert_eq!(t.invalidate(a), StateId::INVALID);
    }

    #[test]
    fn set_state_to_invalid_frees_entry() {
        let mut t = store(2, ReplacementPolicy::Lru);
        let a = l(&t, 0);
        t.allocate(a, StateId::new(1));
        assert_eq!(t.set_state(a, StateId::INVALID), Some(StateId::new(1)));
        assert_eq!(t.resident_lines(), 0);
        assert!(!t.contains(a));
        assert_eq!(t.set_state(a, StateId::new(3)), None);
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut t = store(2, ReplacementPolicy::Lru);
        let (a, b, c) = (l(&t, 0), l(&t, 1), l(&t, 2));
        t.allocate(a, StateId::new(1));
        t.allocate(b, StateId::new(1));
        t.touch(a);
        let v = t.allocate(c, StateId::new(1)).unwrap();
        assert_eq!(v.line, b);
        assert_eq!(v.state, StateId::new(1));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut t = store(2, ReplacementPolicy::Fifo);
        let (a, b, c) = (l(&t, 0), l(&t, 1), l(&t, 2));
        t.allocate(a, StateId::new(1));
        t.allocate(b, StateId::new(1));
        t.touch(a); // should not save `a` under FIFO
        let v = t.allocate(c, StateId::new(1)).unwrap();
        assert_eq!(v.line, a);
    }

    #[test]
    fn plru_avoids_most_recent() {
        let mut t = store(4, ReplacementPolicy::PlruBits);
        let lines: Vec<LineAddr> = (0..4).map(|n| l(&t, n)).collect();
        for line in &lines {
            t.allocate(*line, StateId::new(1));
        }
        // After filling, way 3 was most recently allocated; victim != line 3.
        let v = t.allocate(l(&t, 4), StateId::new(1)).unwrap();
        assert_ne!(v.line, lines[3]);
    }

    #[test]
    fn random_is_deterministic_across_identical_stores() {
        let mut t1 = store(4, ReplacementPolicy::Random);
        let mut t2 = store(4, ReplacementPolicy::Random);
        let mut evictions1 = Vec::new();
        let mut evictions2 = Vec::new();
        for n in 0..32 {
            if let Some(v) = t1.allocate(l(&t1, n), StateId::new(1)) {
                evictions1.push(v.line);
            }
            if let Some(v) = t2.allocate(l(&t2, n), StateId::new(1)) {
                evictions2.push(v.line);
            }
        }
        assert_eq!(evictions1, evictions2);
        assert!(!evictions1.is_empty());
    }

    #[test]
    fn reallocation_updates_state_without_eviction() {
        let mut t = store(2, ReplacementPolicy::Lru);
        let a = l(&t, 0);
        t.allocate(a, StateId::new(1));
        assert!(t.allocate(a, StateId::new(3)).is_none());
        assert_eq!(t.state(a), StateId::new(3));
        assert_eq!(t.resident_lines(), 1);
    }

    #[test]
    fn iter_lists_resident_entries() {
        let mut t = store(2, ReplacementPolicy::Lru);
        t.allocate(l(&t, 0), StateId::new(1));
        t.allocate(l(&t, 1), StateId::new(2));
        let mut got: Vec<_> = t.iter().collect();
        got.sort_by_key(|(line, _)| line.value());
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1, StateId::new(1));
        assert_eq!(got[1].1, StateId::new(2));
    }

    #[test]
    fn direct_mapped_always_evicts_the_conflicting_way() {
        let mut t = store(1, ReplacementPolicy::Lru);
        let (a, b) = (l(&t, 0), l(&t, 1));
        t.allocate(a, StateId::new(1));
        let v = t.allocate(b, StateId::new(1)).unwrap();
        assert_eq!(v.line, a);
    }
}
