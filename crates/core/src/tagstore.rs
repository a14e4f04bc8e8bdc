//! The emulated cache's tag/state/LRU tables — the board's SDRAM arrays.

use std::collections::HashMap;
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

/// Bits of a `meta` byte that hold the state (`StateId::MAX_STATES` is
/// 8); the way's rank sits above them.
const STATE_BITS: u32 = 3;
const STATE_MASK: u8 = (1 << STATE_BITS) - 1;
/// One step of rank in a `meta` byte.
const RANK_ONE: u8 = 1 << STATE_BITS;

// Ranks run `0..ways`, so a `meta` byte holds three bits of rank and
// three of state, and stays below 64.
const _: () = assert!(CacheParams::MAX_WAYS <= 8 && StateId::MAX_STATES <= 8);

/// Decodes the state bits of a `meta` byte, without the range check of
/// `StateId::new` (an out-of-line call from this crate).
const STATES: [StateId; 8] = {
    let mut states = [StateId::INVALID; 8];
    let mut s = 0;
    while s < 8 {
        states[s] = StateId::new_const(s as u8);
        s += 1;
    }
    states
};

fn state_of(meta: u8) -> StateId {
    STATES[usize::from(meta & STATE_MASK)]
}

/// The `tags` word of a way whose `tag + 1` does not fit below it; the
/// way's full tag is in [`TagStore`]'s side map.
const WIDE: u32 = u32::MAX;

/// The `tags` word for `tag`: `tag + 1`, or [`WIDE`].
fn key_of(tag: u64) -> u32 {
    if tag < u64::from(WIDE - 1) {
        tag as u32 + 1
    } else {
        WIDE
    }
}

/// A set's `meta` bytes are handled as one little-endian word, its byte
/// `w` being way `w`. Every `meta` byte is below 64, so a byte-wise
/// compare is one subtraction that never borrows across bytes.
const BYTE_LOW: u64 = 0x0101_0101_0101_0101;
const BYTE_HIGH: u64 = 0x8080_8080_8080_8080;

/// The top bit of every byte of `word` that is at least `v` (at most 128).
fn at_least(word: u64, v: u8) -> u64 {
    ((word | BYTE_HIGH) - BYTE_LOW * u64::from(v)) & BYTE_HIGH
}

/// One rank step in every byte whose top bit is set in `mask`.
fn rank_steps(mask: u64) -> u64 {
    (mask >> 7) * u64::from(RANK_ONE)
}

/// The byte of way `w` in a set's word.
fn byte(word: u64, w: usize) -> u8 {
    (word >> (8 * w)) as u8
}

/// Sets the byte of way `w` in a set's word to `m`.
fn with_byte(word: u64, w: usize, m: u8) -> u64 {
    (word & !(0xFF << (8 * w))) | u64::from(m) << (8 * w)
}

/// Makes way `w` of a set the newest, in `state`. `own` has the top bit
/// of each of the set's bytes. The valid ways newer than `w` move one
/// rank older; an empty `w` counts as older than every valid way.
fn promote(word: u64, own: u64, w: usize, state: StateId) -> u64 {
    let m = byte(word, w);
    let rank = if m == 0 { 8 } else { m >> STATE_BITS };
    let newer = at_least(word, 1) & !at_least(word, rank * RANK_ONE) & own;
    with_byte(word + rank_steps(newer), w, state.value())
}

/// Empties way `w` of a set (`own` as for [`promote`]). The valid ways
/// older than `w` move one rank newer, so the ranks stay dense.
fn release(word: u64, own: u64, w: usize) -> u64 {
    let rank = byte(word, w) >> STATE_BITS;
    let word = with_byte(word, w, 0);
    word - rank_steps(at_least(word, (rank + 1) * RANK_ONE) & own)
}

/// The tag, state, and replacement-metadata tables of one emulated cache
/// node — the structure the board keeps in four 64 MB SDRAM DIMMs per node
/// controller (§3).
///
/// The tables are set-major, and a way takes 5 B:
///
/// * `tags` holds `tag + 1` as a `u32`, so 0 is an empty way. A set's
///   tags sit side by side, so a probe reads `4 * ways` bytes (16 B for a
///   4-way set). A tag whose `tag + 1` is `u32::MAX` or more is stored as
///   the sentinel `u32::MAX`, and its full tag sits in a side map keyed
///   by the way's position. A probe looks the map up only for a way that
///   holds the sentinel when the probed tag is wide too. Emptying a way
///   and filling over it keep the map to exactly the wide ways.
/// * `meta` holds `rank << 3 | state` for the same way, and 0 for an
///   empty way. The rank of a valid way is the number of valid ways of
///   its set that are newer: used more recently under LRU, filled more
///   recently otherwise. A fill or an LRU touch makes the way rank 0 and
///   moves the newer ways one rank older; emptying a way moves the older
///   ones one rank newer, so the ranks stay dense and a full set holds
///   `0..ways`. The bytes of a set are updated together, as one word.
///
/// A fill takes the lowest empty way by position, else the policy's
/// victim: the oldest rank under LRU and FIFO, the mask's choice under
/// bit-PLRU (one byte per set), or the next draw of a xorshift stream
/// under random. Only the order of the fills and touches within a set
/// decides an LRU or FIFO victim, and the ranks are that order, so no
/// store-wide clock is kept (the host's outer store makes the same
/// argument, DESIGN.md §4).
///
/// The tables start as zeroed allocations (all ways empty); the store
/// writes a set only when it is filled.
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
    ways: usize,
    tags: Vec<u32>,
    /// One byte per way, then seven bytes of padding, so that the last
    /// set's word can be read as eight bytes too.
    meta: Vec<u8>,
    /// The top bit of each of a set's bytes in its word.
    own: u64,
    /// The full tag of every way that holds [`WIDE`], keyed by the way's
    /// position (`set * ways + way`). Empty unless some tag is that wide.
    wide: HashMap<usize, u64>,
    plru: Vec<u8>,
    rng: XorShift,
    resident: u64,
}

impl TagStore {
    /// Creates an empty tag store for the given parameters.
    pub fn new(params: &CacheParams) -> Self {
        let geom = *params.geometry();
        let policy = params.replacement();
        let ways = geom.ways() as usize;
        let lines = geom.lines() as usize;
        TagStore {
            geom,
            policy,
            ways,
            tags: vec![0; lines],
            meta: vec![0; lines + 7],
            own: BYTE_HIGH >> (64 - 8 * ways),
            wide: HashMap::new(),
            plru: if matches!(policy, ReplacementPolicy::PlruBits) {
                vec![0; geom.sets()]
            } else {
                Vec::new()
            },
            rng: XorShift(0x9E37_79B9_7F4A_7C15),
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

    /// The position of `set`'s first way in `tags` and `meta`.
    fn first(&self, set: usize) -> usize {
        set * self.ways
    }

    /// The word of the set whose first way is at `first`.
    fn word(&self, first: usize) -> u64 {
        let bytes = &self.meta[first..first + 8];
        u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
    }

    /// Stores the word of the set whose first way is at `first`; the
    /// bytes past the set's ways are written back unchanged.
    fn set_word(&mut self, first: usize, word: u64) {
        self.meta[first..first + 8].copy_from_slice(&word.to_le_bytes());
    }

    /// Looks `line` up: one pass over its set's tags.
    pub fn probe(&self, line: LineAddr) -> TagProbe {
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        let key = key_of(tag);
        let first = self.first(set);
        let tags = &self.tags[first..first + self.ways];
        let way = tags
            .iter()
            .zip(first..)
            .position(|(&t, pos)| t == key && (key != WIDE || self.wide.get(&pos) == Some(&tag)))
            .map(|w| w as u32);
        TagProbe {
            set,
            way,
            state: way.map_or(StateId::INVALID, |w| {
                state_of(self.meta[first + w as usize])
            }),
        }
    }

    /// Reads the first tag word and the first `meta` byte of the set
    /// `line` maps to, without searching it: a read-only touch that brings
    /// what [`TagStore::probe`] reads, and what [`TagStore::update`] or
    /// [`TagStore::fill`] then reads, into the host cache ahead of them.
    /// The value read means nothing.
    pub(crate) fn read_set(&self, line: LineAddr) -> u64 {
        let first = self.first(self.geom.set_index(line));
        u64::from(self.tags[first]) ^ u64::from(self.meta[first])
    }

    /// Moves the line a hit `probe` found to state `next`; a move to state
    /// 0 frees its way. With `touch`, a line that stays resident also
    /// records a use for the replacement policy (LRU rank / PLRU bit; no
    /// effect under FIFO or random). A no-op for a miss.
    pub fn update(&mut self, probe: &TagProbe, next: StateId, touch: bool) {
        let Some(way) = probe.way else {
            return;
        };
        let w = way as usize;
        let first = self.first(probe.set);
        let i = first + w;
        if next.is_invalid() {
            self.resident -= 1;
            if self.tags[i] == WIDE {
                self.wide.remove(&i);
            }
            self.tags[i] = 0;
            self.set_word(first, release(self.word(first), self.own, w));
            return;
        }
        match self.policy {
            ReplacementPolicy::Lru if touch => {
                self.set_word(first, promote(self.word(first), self.own, w, next));
                return;
            }
            ReplacementPolicy::PlruBits if touch => {
                self.plru[probe.set] = plru_touch(self.plru[probe.set], way, self.geom.ways());
            }
            _ => {}
        }
        self.meta[i] = (self.meta[i] & !STATE_MASK) | next.value();
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
        let first = self.first(set);
        let word = self.word(first);

        // Prefer a free way.
        let free = !at_least(word, 1) & self.own;
        let (w, victim) = if free != 0 {
            self.resident += 1;
            (free.trailing_zeros() as usize / 8, None)
        } else {
            let w = match self.policy {
                // A full set holds every rank once: take the oldest.
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    let oldest = at_least(word, (ways - 1) as u8 * RANK_ONE) & self.own;
                    oldest.trailing_zeros() as usize / 8
                }
                ReplacementPolicy::Random => (self.rng.next() % u64::from(ways)) as usize,
                ReplacementPolicy::PlruBits => plru_victim(self.plru[set], ways) as usize,
            };
            let tag = match self.tags[first + w] {
                WIDE => self
                    .wide
                    .remove(&(first + w))
                    .expect("every wide way has its tag in the side map"),
                old => u64::from(old) - 1,
            };
            let victim = EvictedLine {
                line: self.geom.line_from_parts(tag, set),
                state: state_of(byte(word, w)),
            };
            (w, Some(victim))
        };

        if self.policy == ReplacementPolicy::PlruBits {
            self.plru[set] = plru_touch(self.plru[set], w as u32, ways);
        }
        let tag = self.geom.tag(line);
        let key = key_of(tag);
        if key == WIDE {
            self.wide.insert(first + w, tag);
        }
        self.tags[first + w] = key;
        self.set_word(first, promote(word, self.own, w, state));
        victim
    }

    /// Iterates over `(line, state)` for every resident entry (tests and
    /// statistics extraction).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, StateId)> + '_ {
        self.tags
            .iter()
            .zip(&self.meta)
            .enumerate()
            .filter(|(_, (&t, _))| t != 0)
            .map(move |(pos, (&t, &m))| {
                let tag = if t == WIDE {
                    self.wide[&pos]
                } else {
                    u64::from(t) - 1
                };
                (self.geom.line_from_parts(tag, pos / self.ways), state_of(m))
            })
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

    /// Line `n` of set `set` with a tag too wide for the `u32` tag word:
    /// `u32::MAX` (whose `tag + 1` is the sentinel itself) plus `n`.
    fn wide(set: u64, n: u64) -> LineAddr {
        LineAddr::new((u64::from(u32::MAX) + n) << 1 | set)
    }

    #[test]
    fn wide_side_map_empties_when_the_wide_lines_leave() {
        for policy in ReplacementPolicy::ALL {
            let mut t = store(4, policy);
            for set in 0..2 {
                for n in 0..4 {
                    assert!(allocate(&mut t, wide(set, n), StateId::new(1)).is_none());
                }
            }
            assert_eq!(t.wide.len(), 8, "{policy}");
            let mut lines: Vec<u64> = t.iter().map(|(line, _)| line.value()).collect();
            lines.sort_unstable();
            let mut want: Vec<u64> = (0..2)
                .flat_map(|set| (0..4).map(move |n| wide(set, n).value()))
                .collect();
            want.sort_unstable();
            assert_eq!(lines, want, "{policy}");

            // Wide lines filled over wide victims replace their entries.
            for n in 4..8 {
                let victim = allocate(&mut t, wide(0, n), StateId::new(2)).unwrap();
                assert!(victim.line.value() >> 1 >= u64::from(u32::MAX), "{policy}");
            }
            assert_eq!(t.wide.len(), 8, "{policy}");
            // Narrow fills evict wide lines; the map keeps exactly the
            // wide lines still resident.
            let resident_wide = |t: &TagStore| {
                t.iter()
                    .filter(|(line, _)| line.value() >> 1 >= u64::from(u32::MAX))
                    .map(|(line, _)| line)
                    .collect::<Vec<_>>()
            };
            for n in 0..16 {
                let line = l(&t, n);
                allocate(&mut t, line, StateId::new(1));
                assert_eq!(t.wide.len(), resident_wide(&t).len(), "{policy}");
            }
            // The rest leave by invalidation, every other one as an
            // `update` that also records a use.
            for (k, line) in resident_wide(&t).into_iter().enumerate() {
                let probe = t.probe(line);
                assert!(probe.hit(), "{policy}");
                t.update(&probe, StateId::INVALID, k % 2 == 0);
            }
            assert!(t.wide.is_empty(), "{policy}: {:?}", t.wide);
            assert_eq!(t.resident_lines() as usize, t.iter().count(), "{policy}");
        }
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
