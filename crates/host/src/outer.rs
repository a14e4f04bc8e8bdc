//! The machine-wide outer (L2) store: every processor's coherence-point
//! cache in one set-major layout.

use std::collections::HashMap;
use std::fmt;

use memories_bus::{BusOp, Geometry, LineAddr, SnoopResponse};

use crate::cache::Victim;
use crate::mesi::MesiState;

/// Decodes the low two bits of a `meta` byte.
const STATES: [MesiState; 4] = [
    MesiState::Invalid,
    MesiState::Shared,
    MesiState::Exclusive,
    MesiState::Modified,
];

fn state_of(meta: u8) -> MesiState {
    STATES[usize::from(meta & 3)]
}

/// The `tags` word of a way whose `tag + 1` does not fit below it; the
/// way's full tag is in [`OuterStore`]'s side map.
const WIDE: u32 = u32::MAX;

/// The `tags` word for `tag`: `tag + 1`, or [`WIDE`].
fn key_of(tag: u64) -> u32 {
    u32::try_from(tag + 1).unwrap_or(WIDE)
}

/// The most ways a processor's set may have: ages take six bits.
pub(crate) const MAX_WAYS: u32 = 64;

/// Most ways in one chunk: 32 KB of tags and 8 KB of `meta`, below
/// glibc's default mmap threshold (128 KB).
///
/// glibc raises that threshold to the size of each mapped block it frees
/// and then serves smaller requests from a heap it rarely returns to the
/// system. Two 4 MB arrays per machine did that, and a set-up that builds
/// machines repeatedly kept up to 10 MB more resident. Chunks this small
/// come from the heap from the start and leave the threshold alone.
const CHUNK_WAYS: usize = 1 << 13;

/// Every processor's outer (L2) cache, laid out `[set][cpu][way]`.
///
/// On the 6xx bus every L2 looks up the same set on each snoop (§2), so
/// the store keeps that set's tags for all processors side by side. A
/// snoop is one scan of those tags, and only the processors that hold
/// the line change. A way takes 5 B, so an 8-processor, 4-way set's tags
/// are 128 B: two cache lines.
///
/// * `tags` holds `tag + 1`, so 0 is an empty way and a new store is
///   zeroed memory the OS faults in lazily. A tag whose `tag + 1` is
///   `u32::MAX` or more is stored as [`WIDE`], and its full tag sits in
///   `wide`, keyed by the way's position. Scans look `wide` up only for
///   a way that holds [`WIDE`] when the probed tag is wide too.
/// * `meta` holds `age << 2 | MESI` for the same way, and 0 for an empty
///   way. The age of a valid way is the number of that processor's valid
///   ways in the set that were used more recently, so 0 is the most
///   recently used and a full set holds the ages `0..ways`.
///   * A touch or a fill makes the way 0 and ages the valid ways that
///     were younger than it by one.
///   * Every invalidation, local or by snoop, makes the older valid ways
///     one younger, so the ages stay dense.
///   * A fill takes the first empty way by position, else the oldest
///     way. Only the order of the fills and touches within one
///     processor's set decides its victim, and the ages are that order:
///     the same victims as a private per-cache LRU clock.
/// * Both arrays are split into chunks of `1 << chunk_shift` whole sets,
///   at most [`CHUNK_WAYS`] ways each.
///
/// Scans read `tags` only; `meta` is read for the ways that match.
pub(crate) struct OuterStore {
    geom: Geometry,
    ways: usize,
    /// Ways per set across all processors: `cpus * ways`.
    stride: usize,
    chunk_shift: u32,
    tags: Vec<Vec<u32>>,
    meta: Vec<Vec<u8>>,
    /// The full tag of every way that holds [`WIDE`], keyed by
    /// `(chunk, index in chunk)`. Empty unless some tag is that wide.
    wide: HashMap<(usize, usize), u64>,
}

/// One processor's probe of its own ways for a line: the handle that the
/// touch, upgrade or fill after it reuses.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OuterWay {
    set: usize,
    tag: u64,
    key: u32,
    chunk: usize,
    /// Index of the processor's first way of the set in its chunk.
    base: usize,
    /// Index of the way holding the line in its chunk, if resident.
    slot: Option<usize>,
    /// The line's state in this processor's cache.
    pub(crate) state: MesiState,
}

/// Makes way `w` of one processor's ways of a set (`meta`) the most
/// recently used, in `state`. The valid ways used more recently than `w`
/// age by one; an empty `w` counts as older than every valid way.
fn promote(meta: &mut [u8], w: usize, state: MesiState) {
    let age = if meta[w] == 0 { u8::MAX } else { meta[w] >> 2 };
    for m in meta.iter_mut() {
        if *m != 0 && *m >> 2 < age {
            *m += 4;
        }
    }
    meta[w] = state as u8;
}

/// Empties way `w` of one processor's ways of a set (`meta`). The valid
/// ways used less recently than `w` become one younger.
fn release(meta: &mut [u8], w: usize) {
    let age = meta[w] >> 2;
    meta[w] = 0;
    for m in meta.iter_mut() {
        if *m >> 2 > age {
            *m -= 4;
        }
    }
}

impl OuterStore {
    /// An empty store of `cpus` caches of geometry `geom`, which has at
    /// most [`MAX_WAYS`] ways (`HostConfig::validate` checks it).
    pub(crate) fn new(geom: Geometry, cpus: usize) -> Self {
        let ways = geom.ways() as usize;
        let stride = cpus * ways;
        let sets = geom.sets();
        let chunk_sets = (CHUNK_WAYS / stride).clamp(1, sets);
        let chunk_shift = chunk_sets.ilog2();
        let chunk = stride << chunk_shift;
        // Tag and age chunks are allocated in turn: allocating all tag
        // chunks first left `replay-dss` about 1 MB more resident.
        let (tags, meta) = (0..sets >> chunk_shift)
            .map(|_| (vec![0; chunk], vec![0; chunk]))
            .unzip();
        OuterStore {
            geom,
            ways,
            stride,
            chunk_shift,
            tags,
            meta,
            wide: HashMap::new(),
        }
    }

    /// The chunk holding `set`, and the index of the set's first way in
    /// that chunk.
    fn locate(&self, set: usize) -> (usize, usize) {
        let within = set & ((1 << self.chunk_shift) - 1);
        (set >> self.chunk_shift, within * self.stride)
    }

    /// The tag in way `i` of `chunk`, whose `tags` word is the nonzero
    /// `word`.
    fn tag_at(&self, chunk: usize, i: usize, word: u32) -> u64 {
        if word == WIDE {
            *self
                .wide
                .get(&(chunk, i))
                .expect("every wide way has its tag in the side map")
        } else {
            u64::from(word) - 1
        }
    }

    /// The geometry of each processor's cache.
    pub(crate) fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Looks `line` up in processor `cpu`'s ways.
    pub(crate) fn probe(&self, cpu: usize, line: LineAddr) -> OuterWay {
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        let key = key_of(tag);
        let (chunk, first) = self.locate(set);
        let base = first + cpu * self.ways;
        let slot = self.tags[chunk][base..base + self.ways]
            .iter()
            .zip(base..)
            .find(|&(&t, i)| t == key && (key != WIDE || self.wide.get(&(chunk, i)) == Some(&tag)))
            .map(|(_, i)| i);
        OuterWay {
            set,
            tag,
            key,
            chunk,
            base,
            slot,
            state: slot.map_or(MesiState::Invalid, |i| state_of(self.meta[chunk][i])),
        }
    }

    /// Sets the state of a probed resident line.
    pub(crate) fn set_state(&mut self, way: &OuterWay, state: MesiState) {
        let i = way.slot.expect("set_state needs a resident line");
        let meta = &mut self.meta[way.chunk][i];
        *meta = (*meta & !3) | state as u8;
    }

    /// Sets the state of a probed resident line and marks it
    /// most-recently-used.
    pub(crate) fn touch(&mut self, way: &OuterWay, state: MesiState) {
        let i = way.slot.expect("touch needs a resident line");
        let meta = &mut self.meta[way.chunk][way.base..way.base + self.ways];
        promote(meta, i - way.base, state);
    }

    /// Fills a probed absent line with `state` into the processor's first
    /// empty way, else its least-recently-used way. Returns the victim.
    pub(crate) fn fill(&mut self, way: &OuterWay, state: MesiState) -> Option<Victim> {
        debug_assert!(way.slot.is_none(), "fill needs an absent line");
        debug_assert!(state.is_valid(), "cannot fill an invalid line");
        let ways = way.base..way.base + self.ways;
        let tags = &self.tags[way.chunk][ways.clone()];
        let meta = &self.meta[way.chunk][ways.clone()];
        let w = match tags.iter().position(|&t| t == 0) {
            Some(w) => w,
            None => (0..self.ways)
                .max_by_key(|&w| meta[w])
                .expect("every set has at least one way"),
        };
        let i = way.base + w;
        let old = tags[w];
        let victim = (old != 0).then(|| Victim {
            line: self
                .geom
                .line_from_parts(self.tag_at(way.chunk, i, old), way.set),
            state: state_of(meta[w]),
        });
        if old == WIDE {
            self.wide.remove(&(way.chunk, i));
        }
        if way.key == WIDE {
            self.wide.insert((way.chunk, i), way.tag);
        }
        self.tags[way.chunk][i] = way.key;
        promote(&mut self.meta[way.chunk][ways], w, state);
        victim
    }

    /// Drops a probed line from its processor's cache; returns its old
    /// state ([`MesiState::Invalid`] if it was absent).
    pub(crate) fn invalidate(&mut self, way: &OuterWay) -> MesiState {
        if let Some(i) = way.slot {
            if way.key == WIDE {
                self.wide.remove(&(way.chunk, i));
            }
            self.tags[way.chunk][i] = 0;
            let meta = &mut self.meta[way.chunk][way.base..way.base + self.ways];
            release(meta, i - way.base);
        }
        way.state
    }

    /// Applies a snooped `op` on `line` to every processor but
    /// `requester` that holds it, and returns the combined response.
    ///
    /// * `Read`/`DmaRead`: M → S (modified intervention), E → S and S
    ///   respond shared.
    /// * `Rwitm`/`DClaim`/`Flush`/`DmaWrite`: the line is invalidated; a
    ///   modified copy answers with a modified intervention, a clean one
    ///   with a shared intervention.
    /// * Any other operation draws no reaction.
    ///
    /// Every holder supplies an intervention, and `holder(cpu)` is called
    /// once for each. Snoops never change the LRU order of the lines
    /// that stay.
    pub(crate) fn snoop(
        &mut self,
        line: LineAddr,
        op: BusOp,
        requester: Option<usize>,
        mut holder: impl FnMut(usize),
    ) -> SnoopResponse {
        let invalidates = op.invalidates_others();
        if !invalidates && !matches!(op, BusOp::Read | BusOp::DmaRead) {
            return SnoopResponse::Null;
        }
        let tag = self.geom.tag(line);
        let key = key_of(tag);
        let ways = self.ways;
        let (chunk, start) = self.locate(self.geom.set_index(line));
        let wide = &mut self.wide;
        let tags = &mut self.tags[chunk][start..start + self.stride];
        let meta = &mut self.meta[chunk][start..start + self.stride];
        let mut combined = SnoopResponse::Null;
        for (j, t) in tags.iter_mut().enumerate() {
            if *t != key || (key == WIDE && wide.get(&(chunk, start + j)) != Some(&tag)) {
                continue;
            }
            let cpu = j / ways;
            if requester == Some(cpu) {
                continue;
            }
            let dirty = state_of(meta[j]).is_dirty();
            if invalidates {
                if key == WIDE {
                    wide.remove(&(chunk, start + j));
                }
                *t = 0;
                release(&mut meta[cpu * ways..(cpu + 1) * ways], j % ways);
            } else {
                meta[j] = (meta[j] & !3) | MesiState::Shared as u8;
            }
            holder(cpu);
            combined = combined.combine(if dirty {
                SnoopResponse::Modified
            } else {
                SnoopResponse::Shared
            });
        }
        combined
    }

    /// Iterates over `(line, state)` for every line resident in processor
    /// `cpu`'s cache, in set order.
    pub(crate) fn iter(&self, cpu: usize) -> impl Iterator<Item = (LineAddr, MesiState)> + '_ {
        (0..self.geom.sets()).flat_map(move |set| {
            let (chunk, first) = self.locate(set);
            let (tags, meta) = (&self.tags[chunk], &self.meta[chunk]);
            let base = first + cpu * self.ways;
            (base..base + self.ways)
                .filter(|&i| tags[i] != 0)
                .map(move |i| {
                    (
                        self.geom
                            .line_from_parts(self.tag_at(chunk, i, tags[i]), set),
                        state_of(meta[i]),
                    )
                })
        })
    }
}

impl fmt::Debug for OuterStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OuterStore")
            .field("geometry", &self.geom.to_string())
            .field("cpus", &(self.stride / self.ways))
            .finish()
    }
}

/// A read-only view of one processor's outer (L2) cache: its ways of the
/// machine's outer store.
#[derive(Clone, Copy)]
pub struct OuterView<'a> {
    store: &'a OuterStore,
    cpu: usize,
}

impl<'a> OuterView<'a> {
    pub(crate) fn new(store: &'a OuterStore, cpu: usize) -> Self {
        OuterView { store, cpu }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &'a Geometry {
        self.store.geometry()
    }

    /// The MESI state of a line ([`MesiState::Invalid`] if absent).
    pub fn state(&self, line: LineAddr) -> MesiState {
        self.store.probe(self.cpu, line).state
    }

    /// Whether the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.state(line).is_valid()
    }

    /// Iterates over `(line, state)` for every resident line, in no
    /// particular order. Intended for tests and debugging.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, MesiState)> + 'a {
        self.store.iter(self.cpu)
    }
}

impl fmt::Debug for OuterView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OuterView")
            .field("cpu", &self.cpu)
            .field("geometry", &self.store.geometry().to_string())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_bus::Address;

    /// 2 sets x 2 ways x 128 B lines per processor.
    fn tiny(cpus: usize) -> (Geometry, OuterStore) {
        let g = Geometry::new(512, 2, 128).unwrap();
        (g, OuterStore::new(g, cpus))
    }

    fn line(g: &Geometry, n: u64) -> LineAddr {
        g.line_addr(Address::new(n * 128))
    }

    fn fill(s: &mut OuterStore, cpu: usize, l: LineAddr, state: MesiState) -> Option<Victim> {
        let way = s.probe(cpu, l);
        s.fill(&way, state)
    }

    #[test]
    fn caches_of_different_cpus_are_separate() {
        let (g, mut s) = tiny(2);
        let l = line(&g, 0);
        assert_eq!(fill(&mut s, 0, l, MesiState::Exclusive), None);
        assert_eq!(s.probe(0, l).state, MesiState::Exclusive);
        assert_eq!(s.probe(1, l).state, MesiState::Invalid);
        assert_eq!(s.iter(0).collect::<Vec<_>>(), [(l, MesiState::Exclusive)]);
        assert_eq!(s.iter(1).count(), 0);
    }

    #[test]
    fn lru_victim_follows_each_cpus_own_touches() {
        let (g, mut s) = tiny(2);
        // Lines 0, 2, 4 map to set 0.
        let (a, b, d) = (line(&g, 0), line(&g, 2), line(&g, 4));
        fill(&mut s, 0, a, MesiState::Modified);
        fill(&mut s, 0, b, MesiState::Exclusive);
        // Another processor's activity in the same set must not matter.
        fill(&mut s, 1, a, MesiState::Shared);
        let way = s.probe(0, a);
        s.touch(&way, MesiState::Modified);
        let victim = fill(&mut s, 0, d, MesiState::Shared).expect("set full");
        assert_eq!(victim.line, b);
        assert_eq!(victim.state, MesiState::Exclusive);
        assert_eq!(s.probe(0, a).state, MesiState::Modified);
        assert_eq!(s.probe(1, a).state, MesiState::Shared);
    }

    #[test]
    fn invalidated_way_is_refilled_without_victim() {
        let (g, mut s) = tiny(1);
        let (a, b, d) = (line(&g, 0), line(&g, 2), line(&g, 4));
        fill(&mut s, 0, a, MesiState::Shared);
        fill(&mut s, 0, b, MesiState::Shared);
        let way = s.probe(0, a);
        assert_eq!(s.invalidate(&way), MesiState::Shared);
        assert_eq!(fill(&mut s, 0, d, MesiState::Shared), None);
        assert!(!s.probe(0, a).state.is_valid());
    }

    #[test]
    fn chunks_hold_whole_sets() {
        // 1024 sets x 8 cpus x 4 ways: 256 sets per 8192-word chunk.
        let g = Geometry::new(512 << 10, 4, 128).unwrap();
        let mut s = OuterStore::new(g, 8);
        assert_eq!(s.tags.len(), 4);
        let lines: Vec<_> = [0, 255, 256, 1023, 1024 + 511]
            .iter()
            .map(|&n| line(&g, n))
            .collect();
        for (cpu, &l) in lines.iter().enumerate() {
            fill(&mut s, cpu, l, MesiState::Exclusive);
            fill(&mut s, 7, l, MesiState::Shared);
        }
        for (cpu, &l) in lines.iter().enumerate() {
            assert_eq!(s.iter(cpu).collect::<Vec<_>>(), [(l, MesiState::Exclusive)]);
            let mut seen = Vec::new();
            let resp = s.snoop(l, BusOp::Rwitm, Some(6), |c| seen.push(c));
            assert_eq!(resp, SnoopResponse::Shared);
            assert_eq!(seen, [cpu, 7]);
        }
        assert_eq!(s.iter(7).count(), 0);
    }

    #[test]
    fn snoop_reaches_holders_but_not_the_requester() {
        let (g, mut s) = tiny(3);
        let l = line(&g, 1);
        fill(&mut s, 0, l, MesiState::Shared);
        fill(&mut s, 1, l, MesiState::Shared);
        let mut seen = Vec::new();
        let resp = s.snoop(l, BusOp::DClaim, Some(0), |cpu| seen.push(cpu));
        assert_eq!(resp, SnoopResponse::Shared);
        assert_eq!(seen, [1]);
        assert_eq!(s.probe(0, l).state, MesiState::Shared);
        assert_eq!(s.probe(1, l).state, MesiState::Invalid);
    }

    #[test]
    fn snoop_read_downgrades_and_reports_dirty_owner() {
        let (g, mut s) = tiny(2);
        let l = line(&g, 1);
        fill(&mut s, 1, l, MesiState::Modified);
        let resp = s.snoop(l, BusOp::Read, Some(0), |_| {});
        assert_eq!(resp, SnoopResponse::Modified);
        assert_eq!(s.probe(1, l).state, MesiState::Shared);
        assert_eq!(
            s.snoop(l, BusOp::DmaRead, None, |_| {}),
            SnoopResponse::Shared
        );
        assert_eq!(
            s.snoop(l, BusOp::WriteBack, None, |_| {}),
            SnoopResponse::Null
        );
        assert_eq!(s.probe(1, l).state, MesiState::Shared);
    }

    /// Every processor's valid ways in every set hold the ages
    /// `0..valid`, and the side map holds exactly the wide ways.
    fn check_ages(s: &OuterStore) -> Result<(), String> {
        let cpus = s.stride / s.ways;
        for set in 0..s.geom.sets() {
            let (chunk, first) = s.locate(set);
            for cpu in 0..cpus {
                let base = first + cpu * s.ways;
                let ways = base..base + s.ways;
                let tags = &s.tags[chunk][ways.clone()];
                let meta = &s.meta[chunk][ways];
                if tags.iter().zip(meta).any(|(&t, &m)| (t == 0) != (m == 0)) {
                    return Err(format!("set {set} cpu {cpu}: tags {tags:?}, meta {meta:?}"));
                }
                let mut ages: Vec<u8> = meta.iter().filter(|&&m| m != 0).map(|m| m >> 2).collect();
                ages.sort_unstable();
                if ages.iter().zip(0..).any(|(&a, n)| a != n) {
                    return Err(format!("set {set} cpu {cpu}: ages {ages:?}"));
                }
            }
        }
        let wide_ways = s.tags.iter().flatten().filter(|&&t| t == WIDE).count();
        if wide_ways != s.wide.len() {
            return Err(format!(
                "{wide_ways} wide ways, {} side-map entries",
                s.wide.len()
            ));
        }
        Ok(())
    }

    /// Ages only order the ways, so a leak (an age that is not freed when
    /// its way empties) shows up in the victims only once an age wraps
    /// past 63. This walks long random sequences and checks that the
    /// ages stay dense after every step.
    #[test]
    fn ages_stay_dense_under_random_traffic() {
        const OPS: [BusOp; 7] = [
            BusOp::Read,
            BusOp::Rwitm,
            BusOp::DClaim,
            BusOp::Flush,
            BusOp::DmaRead,
            BusOp::DmaWrite,
            BusOp::WriteBack,
        ];
        const VALID: [MesiState; 3] =
            [MesiState::Shared, MesiState::Exclusive, MesiState::Modified];
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for ways in [1u32, 2, 4, 64] {
            let cpus = 3;
            let g = Geometry::new(2 * u64::from(ways) * 128, ways, 128).unwrap();
            let mut s = OuterStore::new(g, cpus);
            let lines = u64::from(ways) * 2 * 3;
            for step in 0..20_000 {
                let n = next(lines);
                // A quarter of the draws take a line whose tag is too wide
                // for a `u32`.
                let l = LineAddr::new(if next(4) == 0 { n | 1 << 50 } else { n });
                let cpu = next(cpus as u64) as usize;
                let state = VALID[next(3) as usize];
                let way = s.probe(cpu, l);
                match next(8) {
                    0..=1 => {
                        let requester = (next(2) == 0).then_some(cpu);
                        s.snoop(l, OPS[next(7) as usize], requester, |_| {});
                    }
                    2 if way.state.is_valid() => {
                        s.invalidate(&way);
                    }
                    3 if way.state.is_valid() => s.set_state(&way, state),
                    _ if way.state.is_valid() => s.touch(&way, state),
                    _ => {
                        s.fill(&way, state);
                    }
                }
                if let Err(e) = check_ages(&s) {
                    panic!("{ways}-way, step {step}: {e}");
                }
            }
        }
    }
}
