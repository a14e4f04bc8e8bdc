//! A set-associative, write-back, LRU, snooping cache: the host's L1.

use std::fmt;

use memories_bus::{BusOp, Geometry, LineAddr, SnoopResponse};

use crate::mesi::MesiState;

/// A line evicted to make room for a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// The evicted line.
    pub line: LineAddr,
    /// Its state at eviction (dirty states need a write-back).
    pub state: MesiState,
}

/// A set-associative write-back cache with per-line MESI state and LRU
/// replacement — each host processor's private inner (L1) cache.
///
/// The outer (L2) caches do not use it: they share one set-major store
/// owned by the [`HostMachine`](crate::HostMachine), read through
/// [`OuterView`](crate::OuterView). [`SnoopCache::snoop`] keeps the
/// per-cache MESI snoop reaction as a standalone model of one L2.
///
/// The cache stores only tags and states (this is a performance model;
/// data values never matter). It is deliberately *not* the board's tag
/// store: the host protocol is fixed MESI, while the board's emulated
/// caches are table-programmable (see the `memories` crate).
///
/// # Examples
///
/// ```
/// use memories_bus::{Address, Geometry};
/// use memories_host::{MesiState, SnoopCache};
///
/// let geom = Geometry::new(64 * 1024, 2, 128).unwrap();
/// let mut cache = SnoopCache::new(geom);
/// let line = geom.line_addr(Address::new(0x4000));
/// assert_eq!(cache.state(line), MesiState::Invalid);
/// cache.fill(line, MesiState::Exclusive);
/// assert_eq!(cache.state(line), MesiState::Exclusive);
/// ```
#[derive(Clone)]
pub struct SnoopCache {
    geom: Geometry,
    tags: Vec<u64>,
    states: Vec<MesiState>,
    stamps: Vec<u64>,
    tick: u64,
    resident: u64,
}

impl SnoopCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geom: Geometry) -> Self {
        let n = geom.lines() as usize;
        SnoopCache {
            geom,
            tags: vec![0; n],
            states: vec![MesiState::Invalid; n],
            stamps: vec![0; n],
            tick: 0,
            resident: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.resident
    }

    fn way_range(&self, set: usize) -> std::ops::Range<usize> {
        let ways = self.geom.ways() as usize;
        set * ways..(set + 1) * ways
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        self.way_range(set)
            .find(|&i| self.states[i].is_valid() && self.tags[i] == tag)
    }

    /// The MESI state of a line ([`MesiState::Invalid`] if absent).
    pub fn state(&self, line: LineAddr) -> MesiState {
        self.find(line)
            .map_or(MesiState::Invalid, |i| self.states[i])
    }

    /// Whether the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Marks the line most-recently-used; true if it was resident.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        if let Some(i) = self.find(line) {
            self.tick += 1;
            self.stamps[i] = self.tick;
            true
        } else {
            false
        }
    }

    /// Changes the state of a resident line; returns the old state, or
    /// `None` if the line is absent (the call is then a no-op).
    pub fn set_state(&mut self, line: LineAddr, state: MesiState) -> Option<MesiState> {
        debug_assert!(state.is_valid(), "use invalidate() to drop lines");
        let i = self.find(line)?;
        let old = self.states[i];
        self.states[i] = state;
        Some(old)
    }

    /// Inserts `line` with `state`, evicting the LRU way of its set if the
    /// set is full. Returns the victim, if any.
    ///
    /// If the line is already resident its state is overwritten and it is
    /// marked most-recently-used (no victim).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `state` is invalid.
    pub fn fill(&mut self, line: LineAddr, state: MesiState) -> Option<Victim> {
        debug_assert!(state.is_valid(), "cannot fill an invalid line");
        self.tick += 1;
        if let Some(i) = self.find(line) {
            self.states[i] = state;
            self.stamps[i] = self.tick;
            return None;
        }
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        // Prefer an invalid way; otherwise evict the LRU way.
        let mut victim_idx = None;
        let mut oldest = u64::MAX;
        for i in self.way_range(set) {
            if !self.states[i].is_valid() {
                victim_idx = Some(i);
                break;
            }
            if self.stamps[i] < oldest {
                oldest = self.stamps[i];
                victim_idx = Some(i);
            }
        }
        let i = victim_idx.expect("every set has at least one way");
        let victim = if self.states[i].is_valid() {
            Some(Victim {
                line: self.geom.line_from_parts(self.tags[i], set),
                state: self.states[i],
            })
        } else {
            self.resident += 1;
            None
        };
        self.tags[i] = tag;
        self.states[i] = state;
        self.stamps[i] = self.tick;
        victim
    }

    /// Drops a line; returns its old state ([`MesiState::Invalid`] if it
    /// was absent).
    pub fn invalidate(&mut self, line: LineAddr) -> MesiState {
        match self.find(line) {
            Some(i) => {
                let old = self.states[i];
                self.states[i] = MesiState::Invalid;
                self.resident -= 1;
                old
            }
            None => MesiState::Invalid,
        }
    }

    /// Reacts to a snooped bus operation from *another* agent, updating
    /// state per MESI and returning this cache's snoop response.
    ///
    /// * `Read`/`DmaRead`: M → S (modified intervention), E → S (shared
    ///   intervention), S responds shared.
    /// * `Rwitm`/`DClaim`/`Flush`/`DmaWrite`: line invalidated; a modified
    ///   copy is surrendered with a modified intervention.
    /// * `WriteBack`: no reaction (another cache is casting out).
    pub fn snoop(&mut self, op: BusOp, line: LineAddr) -> SnoopResponse {
        let Some(i) = self.find(line) else {
            return SnoopResponse::Null;
        };
        let state = self.states[i];
        match op {
            BusOp::Read | BusOp::DmaRead => match state {
                MesiState::Modified => {
                    self.states[i] = MesiState::Shared;
                    SnoopResponse::Modified
                }
                MesiState::Exclusive => {
                    self.states[i] = MesiState::Shared;
                    SnoopResponse::Shared
                }
                MesiState::Shared => SnoopResponse::Shared,
                MesiState::Invalid => SnoopResponse::Null,
            },
            BusOp::Rwitm | BusOp::DClaim | BusOp::Flush | BusOp::DmaWrite => {
                self.states[i] = MesiState::Invalid;
                self.resident -= 1;
                if state.is_dirty() {
                    SnoopResponse::Modified
                } else if state.is_valid() {
                    SnoopResponse::Shared
                } else {
                    SnoopResponse::Null
                }
            }
            _ => SnoopResponse::Null,
        }
    }

    /// Iterates over `(line, state)` for every resident line, in no
    /// particular order. Intended for tests and debugging.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, MesiState)> + '_ {
        let ways = self.geom.ways() as usize;
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_valid())
            .map(move |(i, s)| {
                let set = i / ways;
                (self.geom.line_from_parts(self.tags[i], set), *s)
            })
    }
}

impl fmt::Debug for SnoopCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnoopCache")
            .field("geometry", &self.geom.to_string())
            .field("resident", &self.resident)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_bus::Address;

    fn tiny() -> (Geometry, SnoopCache) {
        // 2 sets x 2 ways x 128 B lines.
        let g = Geometry::new(512, 2, 128).unwrap();
        let c = SnoopCache::new(g);
        (g, c)
    }

    fn line(g: &Geometry, n: u64) -> LineAddr {
        g.line_addr(Address::new(n * 128))
    }

    #[test]
    fn fill_and_lookup() {
        let (g, mut c) = tiny();
        let l0 = line(&g, 0);
        assert_eq!(c.fill(l0, MesiState::Exclusive), None);
        assert_eq!(c.state(l0), MesiState::Exclusive);
        assert!(c.contains(l0));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn refill_overwrites_without_victim() {
        let (g, mut c) = tiny();
        let l0 = line(&g, 0);
        c.fill(l0, MesiState::Shared);
        assert_eq!(c.fill(l0, MesiState::Modified), None);
        assert_eq!(c.state(l0), MesiState::Modified);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        let (g, mut c) = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers with 2 sets).
        let (a, b, d) = (line(&g, 0), line(&g, 2), line(&g, 4));
        c.fill(a, MesiState::Exclusive);
        c.fill(b, MesiState::Exclusive);
        c.touch(a); // b is now LRU
        let victim = c.fill(d, MesiState::Exclusive).expect("set full");
        assert_eq!(victim.line, b);
        assert!(c.contains(a));
        assert!(c.contains(d));
        assert!(!c.contains(b));
    }

    #[test]
    fn victim_reports_dirty_state() {
        let (g, mut c) = tiny();
        let (a, b, d) = (line(&g, 0), line(&g, 2), line(&g, 4));
        c.fill(a, MesiState::Modified);
        c.fill(b, MesiState::Exclusive);
        c.touch(b);
        let victim = c.fill(d, MesiState::Shared).unwrap();
        assert_eq!(victim.line, a);
        assert_eq!(victim.state, MesiState::Modified);
        assert!(victim.state.is_dirty());
    }

    #[test]
    fn invalidate_frees_the_way() {
        let (g, mut c) = tiny();
        let (a, b, d) = (line(&g, 0), line(&g, 2), line(&g, 4));
        c.fill(a, MesiState::Shared);
        c.fill(b, MesiState::Shared);
        assert_eq!(c.invalidate(a), MesiState::Shared);
        assert_eq!(c.resident_lines(), 1);
        // d now fills the freed way without a victim.
        assert_eq!(c.fill(d, MesiState::Shared), None);
        assert_eq!(c.invalidate(line(&g, 6)), MesiState::Invalid);
    }

    #[test]
    fn snoop_read_downgrades_and_intervenes() {
        let (g, mut c) = tiny();
        let l = line(&g, 1);
        c.fill(l, MesiState::Modified);
        assert_eq!(c.snoop(BusOp::Read, l), SnoopResponse::Modified);
        assert_eq!(c.state(l), MesiState::Shared);

        c.fill(l, MesiState::Exclusive);
        assert_eq!(c.snoop(BusOp::Read, l), SnoopResponse::Shared);
        assert_eq!(c.state(l), MesiState::Shared);

        assert_eq!(c.snoop(BusOp::Read, l), SnoopResponse::Shared);
        assert_eq!(c.state(l), MesiState::Shared);
    }

    #[test]
    fn snoop_write_invalidates() {
        let (g, mut c) = tiny();
        let l = line(&g, 1);
        c.fill(l, MesiState::Modified);
        assert_eq!(c.snoop(BusOp::Rwitm, l), SnoopResponse::Modified);
        assert_eq!(c.state(l), MesiState::Invalid);

        c.fill(l, MesiState::Shared);
        assert_eq!(c.snoop(BusOp::DClaim, l), SnoopResponse::Shared);
        assert_eq!(c.state(l), MesiState::Invalid);

        c.fill(l, MesiState::Exclusive);
        assert_eq!(c.snoop(BusOp::DmaWrite, l), SnoopResponse::Shared);
        assert_eq!(c.state(l), MesiState::Invalid);
    }

    #[test]
    fn snoop_misses_and_writebacks_are_null() {
        let (g, mut c) = tiny();
        let l = line(&g, 1);
        assert_eq!(c.snoop(BusOp::Read, l), SnoopResponse::Null);
        c.fill(l, MesiState::Modified);
        assert_eq!(c.snoop(BusOp::WriteBack, l), SnoopResponse::Null);
        assert_eq!(c.state(l), MesiState::Modified);
    }

    #[test]
    fn iter_reports_resident_lines() {
        let (g, mut c) = tiny();
        c.fill(line(&g, 0), MesiState::Shared);
        c.fill(line(&g, 1), MesiState::Modified);
        let mut all: Vec<_> = c.iter().collect();
        all.sort_by_key(|(l, _)| l.value());
        assert_eq!(
            all,
            vec![
                (line(&g, 0), MesiState::Shared),
                (line(&g, 1), MesiState::Modified)
            ]
        );
    }

    #[test]
    fn direct_mapped_conflicts() {
        let g = Geometry::new(256, 1, 128).unwrap(); // 2 sets, direct-mapped
        let mut c = SnoopCache::new(g);
        let a = line(&g, 0);
        let b = line(&g, 2); // conflicts with a
        c.fill(a, MesiState::Exclusive);
        let v = c.fill(b, MesiState::Exclusive).unwrap();
        assert_eq!(v.line, a);
    }
}
