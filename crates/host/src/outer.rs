//! The machine-wide outer (L2) store: every processor's coherence-point
//! cache in one set-major layout.

use std::fmt;

use memories_bus::{BusOp, Geometry, LineAddr, SnoopResponse};

use crate::cache::Victim;
use crate::mesi::MesiState;

/// Decodes the low two bits of a `meta` word.
const STATES: [MesiState; 4] = [
    MesiState::Invalid,
    MesiState::Shared,
    MesiState::Exclusive,
    MesiState::Modified,
];

fn state_of(meta: u64) -> MesiState {
    STATES[(meta & 3) as usize]
}

/// Most words in one allocation: 64 KB, below glibc's default mmap
/// threshold (128 KB).
///
/// glibc raises that threshold to the size of each mapped block it frees
/// and then serves smaller requests from a heap it rarely returns to the
/// system. Two 4 MB arrays per machine did that, and a set-up that builds
/// machines repeatedly kept up to 10 MB more resident. Chunks this small
/// come from the heap from the start and leave the threshold alone.
const CHUNK_WORDS: usize = 1 << 13;

/// Every processor's outer (L2) cache, laid out `[set][cpu][way]`.
///
/// On the 6xx bus every L2 looks up the same set on each snoop (§2), so
/// the store keeps that set's tags for all processors side by side. A
/// snoop is one scan of those tags, and only the processors that hold
/// the line change.
///
/// * `tags` holds `tag + 1`, so 0 is an empty way and a new store is
///   zeroed memory the OS faults in lazily.
/// * `meta` holds `tick << 2 | MESI` for the same way.
/// * Both are split into chunks of `1 << chunk_shift` whole sets, at most
///   [`CHUNK_WORDS`] words each.
/// * `tick` is one machine-wide LRU clock. Every fill and touch takes a
///   fresh tick, so within one processor's set the order of the ticks is
///   the order of that processor's fills and touches: the same victims as
///   a private per-cache clock.
///
/// Scans read `tags` only; `meta` is read for the ways that match.
pub(crate) struct OuterStore {
    geom: Geometry,
    ways: usize,
    /// Ways per set across all processors: `cpus * ways`.
    stride: usize,
    chunk_shift: u32,
    tags: Vec<Vec<u64>>,
    meta: Vec<Vec<u64>>,
    tick: u64,
}

/// One processor's probe of its own ways for a line: the handle that the
/// touch, upgrade or fill after it reuses.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OuterWay {
    set: usize,
    key: u64,
    chunk: usize,
    /// Index of the processor's first way of the set in its chunk.
    base: usize,
    /// Index of the way holding the line in its chunk, if resident.
    slot: Option<usize>,
    /// The line's state in this processor's cache.
    pub(crate) state: MesiState,
}

impl OuterStore {
    /// An empty store of `cpus` caches of geometry `geom`.
    pub(crate) fn new(geom: Geometry, cpus: usize) -> Self {
        let ways = geom.ways() as usize;
        let stride = cpus * ways;
        let sets = geom.sets();
        let chunk_sets = (CHUNK_WORDS / stride).clamp(1, sets);
        let chunk_shift = chunk_sets.ilog2();
        let chunk = || vec![0; stride << chunk_shift];
        let (tags, meta) = (0..sets >> chunk_shift).map(|_| (chunk(), chunk())).unzip();
        OuterStore {
            geom,
            ways,
            stride,
            chunk_shift,
            tags,
            meta,
            tick: 0,
        }
    }

    /// The chunk holding `set`, and the index of the set's first way in
    /// that chunk.
    fn locate(&self, set: usize) -> (usize, usize) {
        let within = set & ((1 << self.chunk_shift) - 1);
        (set >> self.chunk_shift, within * self.stride)
    }

    /// The geometry of each processor's cache.
    pub(crate) fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Looks `line` up in processor `cpu`'s ways.
    pub(crate) fn probe(&self, cpu: usize, line: LineAddr) -> OuterWay {
        let set = self.geom.set_index(line);
        let key = self.geom.tag(line) + 1;
        let (chunk, first) = self.locate(set);
        let base = first + cpu * self.ways;
        let slot = self.tags[chunk][base..base + self.ways]
            .iter()
            .position(|&t| t == key)
            .map(|w| base + w);
        OuterWay {
            set,
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
        *meta = (*meta & !3) | state as u64;
    }

    /// Sets the state of a probed resident line and marks it
    /// most-recently-used.
    pub(crate) fn touch(&mut self, way: &OuterWay, state: MesiState) {
        let i = way.slot.expect("touch needs a resident line");
        self.tick += 1;
        self.meta[way.chunk][i] = self.tick << 2 | state as u64;
    }

    /// Fills a probed absent line with `state` into the processor's first
    /// empty way, else its least-recently-used way. Returns the victim.
    pub(crate) fn fill(&mut self, way: &OuterWay, state: MesiState) -> Option<Victim> {
        debug_assert!(way.slot.is_none(), "fill needs an absent line");
        debug_assert!(state.is_valid(), "cannot fill an invalid line");
        self.tick += 1;
        let tags = &mut self.tags[way.chunk];
        let meta = &mut self.meta[way.chunk];
        let ways = way.base..way.base + self.ways;
        let i = match tags[ways.clone()].iter().position(|&t| t == 0) {
            Some(w) => way.base + w,
            None => ways
                .min_by_key(|&i| meta[i])
                .expect("every set has at least one way"),
        };
        let victim = (tags[i] != 0).then(|| Victim {
            line: self.geom.line_from_parts(tags[i] - 1, way.set),
            state: state_of(meta[i]),
        });
        tags[i] = way.key;
        meta[i] = self.tick << 2 | state as u64;
        victim
    }

    /// Drops a probed line from its processor's cache; returns its old
    /// state ([`MesiState::Invalid`] if it was absent).
    pub(crate) fn invalidate(&mut self, way: &OuterWay) -> MesiState {
        if let Some(i) = way.slot {
            self.tags[way.chunk][i] = 0;
            self.meta[way.chunk][i] = 0;
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
    /// once for each. Snoops never change the LRU order.
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
        let key = self.geom.tag(line) + 1;
        let (chunk, start) = self.locate(self.geom.set_index(line));
        let tags = &mut self.tags[chunk][start..start + self.stride];
        let meta = &mut self.meta[chunk][start..start + self.stride];
        let mut combined = SnoopResponse::Null;
        for (j, tag) in tags.iter_mut().enumerate() {
            if *tag != key {
                continue;
            }
            let cpu = j / self.ways;
            if requester == Some(cpu) {
                continue;
            }
            let dirty = state_of(meta[j]).is_dirty();
            if invalidates {
                *tag = 0;
                meta[j] = 0;
            } else {
                meta[j] = (meta[j] & !3) | MesiState::Shared as u64;
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
                        self.geom.line_from_parts(tags[i] - 1, set),
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
}
