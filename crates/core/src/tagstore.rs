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
/// it without searching again. These three calls are the only way to
/// query or change the store: the node controller makes exactly one probe
/// per event, and the NUMA firmware's directories go through them too.
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
/// assert_eq!(store.probe(line).state(), StateId::new(2));
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

    /// Brings `line` into `state` as the node controller does: one probe,
    /// then `update` (recording a use) on a hit or `fill` on a miss.
    fn allocate(t: &mut TagStore, line: LineAddr, state: StateId) -> Option<EvictedLine> {
        let probe = t.probe(line);
        if probe.hit() {
            t.update(&probe, state, true);
            return None;
        }
        t.fill(&probe, line, state)
    }

    /// Records a use of `line` and keeps its state.
    fn touch(t: &mut TagStore, line: LineAddr) {
        let probe = t.probe(line);
        t.update(&probe, probe.state(), true);
    }

    /// Moves `line` to state `next` without recording a use; returns the
    /// probe that found it.
    fn set_state(t: &mut TagStore, line: LineAddr, next: StateId) -> TagProbe {
        let probe = t.probe(line);
        t.update(&probe, next, false);
        probe
    }

    #[test]
    fn allocate_lookup_invalidate() {
        let mut t = store(2, ReplacementPolicy::Lru);
        let a = l(&t, 0);
        assert!(allocate(&mut t, a, StateId::new(2)).is_none());
        assert_eq!(t.probe(a).state(), StateId::new(2));
        assert_eq!(t.resident_lines(), 1);
        assert_eq!(
            set_state(&mut t, a, StateId::INVALID).state(),
            StateId::new(2)
        );
        assert_eq!(t.probe(a).state(), StateId::INVALID);
        assert_eq!(t.resident_lines(), 0);
        assert_eq!(
            set_state(&mut t, a, StateId::INVALID).state(),
            StateId::INVALID
        );
    }

    #[test]
    fn set_state_to_invalid_frees_entry() {
        let mut t = store(2, ReplacementPolicy::Lru);
        let a = l(&t, 0);
        allocate(&mut t, a, StateId::new(1));
        let probe = set_state(&mut t, a, StateId::INVALID);
        assert_eq!(probe.hit().then_some(probe.state()), Some(StateId::new(1)));
        assert_eq!(t.resident_lines(), 0);
        assert!(!t.probe(a).hit());
        let probe = set_state(&mut t, a, StateId::new(3));
        assert_eq!(probe.hit().then_some(probe.state()), None);
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut t = store(2, ReplacementPolicy::Lru);
        let (a, b, c) = (l(&t, 0), l(&t, 1), l(&t, 2));
        allocate(&mut t, a, StateId::new(1));
        allocate(&mut t, b, StateId::new(1));
        touch(&mut t, a);
        let v = allocate(&mut t, c, StateId::new(1)).unwrap();
        assert_eq!(v.line, b);
        assert_eq!(v.state, StateId::new(1));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut t = store(2, ReplacementPolicy::Fifo);
        let (a, b, c) = (l(&t, 0), l(&t, 1), l(&t, 2));
        allocate(&mut t, a, StateId::new(1));
        allocate(&mut t, b, StateId::new(1));
        touch(&mut t, a); // should not save `a` under FIFO
        let v = allocate(&mut t, c, StateId::new(1)).unwrap();
        assert_eq!(v.line, a);
    }

    #[test]
    fn plru_avoids_most_recent() {
        let mut t = store(4, ReplacementPolicy::PlruBits);
        let lines: Vec<LineAddr> = (0..4).map(|n| l(&t, n)).collect();
        for line in &lines {
            allocate(&mut t, *line, StateId::new(1));
        }
        // After filling, way 3 was most recently allocated; victim != line 3.
        let e = l(&t, 4);
        let v = allocate(&mut t, e, StateId::new(1)).unwrap();
        assert_ne!(v.line, lines[3]);
    }

    #[test]
    fn random_is_deterministic_across_identical_stores() {
        let mut t1 = store(4, ReplacementPolicy::Random);
        let mut t2 = store(4, ReplacementPolicy::Random);
        let mut evictions1 = Vec::new();
        let mut evictions2 = Vec::new();
        for n in 0..32 {
            let (line1, line2) = (l(&t1, n), l(&t2, n));
            if let Some(v) = allocate(&mut t1, line1, StateId::new(1)) {
                evictions1.push(v.line);
            }
            if let Some(v) = allocate(&mut t2, line2, StateId::new(1)) {
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
        allocate(&mut t, a, StateId::new(1));
        assert!(allocate(&mut t, a, StateId::new(3)).is_none());
        assert_eq!(t.probe(a).state(), StateId::new(3));
        assert_eq!(t.resident_lines(), 1);
    }

    #[test]
    fn iter_lists_resident_entries() {
        let mut t = store(2, ReplacementPolicy::Lru);
        let (a, b) = (l(&t, 0), l(&t, 1));
        allocate(&mut t, a, StateId::new(1));
        allocate(&mut t, b, StateId::new(2));
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
        allocate(&mut t, a, StateId::new(1));
        let v = allocate(&mut t, b, StateId::new(1)).unwrap();
        assert_eq!(v.line, a);
    }
}
