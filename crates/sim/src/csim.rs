//! The trace-driven reference cache simulator ("the C simulator").
//!
//! Functionally equivalent to one board node controller covering all
//! CPUs, but implemented independently (per-set vectors of entries,
//! straight-line code, no FPGA structure) so that agreement between the
//! two is meaningful validation — the same role the paper's C simulator
//! played for the real board.

use std::fmt;

use memories::{CacheParams, NodeCounter, NodeCounters};
use memories_bus::BusOp;
use memories_protocol::{AccessEvent, Action, ProtocolTable, RemoteSummary, StateId};
use memories_trace::TraceRecord;

/// One entry of a set.
#[derive(Clone, Copy, Debug)]
struct Entry {
    tag: u64,
    state: StateId,
    stamp: u64,
}

/// The trace-driven reference simulator.
///
/// # Examples
///
/// ```
/// use memories::CacheParams;
/// use memories_protocol::standard;
/// use memories_sim::CacheSim;
/// use memories_trace::TraceRecord;
/// use memories_bus::{Address, BusOp, ProcId, SnoopResponse};
///
/// # fn main() -> Result<(), memories::ParamError> {
/// let params = CacheParams::builder().capacity(2 << 20).build()?;
/// let mut sim = CacheSim::new(params, standard::mesi());
/// sim.step(&TraceRecord::new(BusOp::Read, ProcId::new(0),
///                            SnoopResponse::Null, Address::new(0x1000)));
/// assert_eq!(sim.counts().get(memories::NodeCounter::ReadMisses), 1);
/// # Ok(())
/// # }
/// ```
pub struct CacheSim {
    params: CacheParams,
    protocol: ProtocolTable,
    sets: Vec<Vec<Entry>>,
    counts: NodeCounters,
    touched: std::collections::HashSet<u64>,
    tick: u64,
}

impl CacheSim {
    /// Creates a simulator for one emulated cache.
    ///
    /// Only LRU replacement is supported (the C simulator of §4.1 was an
    /// LRU validator); construct board configurations with LRU when
    /// comparing.
    pub fn new(params: CacheParams, protocol: ProtocolTable) -> Self {
        let sets = vec![Vec::new(); params.geometry().sets()];
        CacheSim {
            params,
            protocol,
            sets,
            counts: NodeCounters::new(),
            touched: std::collections::HashSet::new(),
            tick: 0,
        }
    }

    /// The simulator's cache parameters.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Accumulated counts.
    pub fn counts(&self) -> &NodeCounters {
        &self.counts
    }

    /// Classifies a bus operation exactly as the board's address filter
    /// does for a single all-CPUs-local node.
    fn classify(op: BusOp) -> Option<AccessEvent> {
        match op {
            BusOp::Read => Some(AccessEvent::LocalRead),
            BusOp::Rwitm => Some(AccessEvent::LocalWrite),
            BusOp::DClaim => Some(AccessEvent::LocalUpgrade),
            BusOp::WriteBack => Some(AccessEvent::LocalCastout),
            BusOp::Flush => Some(AccessEvent::Flush),
            BusOp::DmaRead => Some(AccessEvent::IoRead),
            BusOp::DmaWrite => Some(AccessEvent::IoWrite),
            _ => None,
        }
    }

    /// Processes one trace record.
    pub fn step(&mut self, rec: &TraceRecord) {
        let Some(event) = Self::classify(rec.op) else {
            return;
        };
        self.tick += 1;
        let geom = *self.params.geometry();
        let line = geom.line_addr(rec.addr);
        let set_idx = geom.set_index(line);
        let tag = geom.tag(line);

        let pos = self.sets[set_idx].iter().position(|e| e.tag == tag);
        let state = pos.map_or(StateId::INVALID, |i| self.sets[set_idx][i].state);
        let hit = pos.is_some();
        let t = self.protocol.lookup(event, state, RemoteSummary::None);
        let cold = self.touched.insert(line.value());

        // Figure 12 classification, identical to the node controller's.
        if matches!(event, AccessEvent::LocalRead | AccessEvent::LocalWrite) {
            match rec.resp {
                memories_bus::SnoopResponse::Modified => {
                    self.counts.incr(NodeCounter::DemandFilledL2Modified)
                }
                memories_bus::SnoopResponse::Shared => {
                    self.counts.incr(NodeCounter::DemandFilledL2Shared)
                }
                _ if hit => self.counts.incr(NodeCounter::DemandFilledL3),
                _ => self.counts.incr(NodeCounter::DemandFilledMemory),
            }
        }

        match event {
            AccessEvent::LocalRead => {
                if hit {
                    self.counts.incr(NodeCounter::ReadHits);
                } else {
                    self.counts.incr(NodeCounter::ReadMisses);
                    if cold {
                        self.counts.incr(NodeCounter::ReadColdMisses);
                    }
                }
            }
            AccessEvent::LocalWrite => {
                if hit {
                    self.counts.incr(NodeCounter::WriteHits);
                } else {
                    self.counts.incr(NodeCounter::WriteMisses);
                    if cold {
                        self.counts.incr(NodeCounter::WriteColdMisses);
                    }
                }
            }
            AccessEvent::LocalUpgrade => {
                if hit {
                    self.counts.incr(NodeCounter::UpgradeHits);
                } else {
                    self.counts.incr(NodeCounter::UpgradeMisses);
                }
            }
            AccessEvent::LocalCastout => {
                self.counts.incr(NodeCounter::CastoutsSeen);
                if !hit {
                    self.counts.incr(NodeCounter::CastoutAllocates);
                }
            }
            AccessEvent::IoRead => self.counts.incr(NodeCounter::IoReadsSeen),
            AccessEvent::IoWrite => {
                self.counts.incr(NodeCounter::IoWritesSeen);
                if hit {
                    self.counts.incr(NodeCounter::IoInvalidations);
                }
            }
            AccessEvent::Flush => self.counts.incr(NodeCounter::FlushesSeen),
            AccessEvent::RemoteRead | AccessEvent::RemoteWrite => unreachable!(),
        }

        if t.actions.contains(Action::InterveneShared) {
            self.counts.incr(NodeCounter::InterventionsShared);
        }
        if t.actions.contains(Action::InterveneModified) {
            self.counts.incr(NodeCounter::InterventionsModified);
        }
        if t.actions.contains(Action::Writeback) {
            self.counts.incr(NodeCounter::ProtocolWritebacks);
        }

        let set = &mut self.sets[set_idx];
        if t.next.is_invalid() {
            if let Some(i) = pos {
                set.swap_remove(i);
            }
        } else if let Some(i) = pos {
            set[i].state = t.next;
            if event.is_demand() {
                set[i].stamp = self.tick;
            }
        } else if t.actions.contains(Action::Allocate) {
            if set.len() as u32 >= geom.ways() {
                // Evict LRU.
                let (victim_idx, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.stamp)
                    .expect("set is full, hence nonempty");
                let victim = set.swap_remove(victim_idx);
                self.counts.incr(NodeCounter::VictimEvictions);
                if self.protocol.is_dirty_state(victim.state) {
                    self.counts.incr(NodeCounter::VictimWritebacks);
                }
            }
            set.push(Entry {
                tag,
                state: t.next,
                stamp: self.tick,
            });
        }
    }

    /// Runs an entire trace.
    pub fn run<I: IntoIterator<Item = TraceRecord>>(&mut self, trace: I) -> &NodeCounters {
        for rec in trace {
            self.step(&rec);
        }
        &self.counts
    }
}

impl fmt::Debug for CacheSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheSim")
            .field("params", &self.params.to_string())
            .field("protocol", &self.protocol.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_bus::{Address, ProcId, SnoopResponse};
    use memories_protocol::standard;

    fn params() -> CacheParams {
        CacheParams::builder()
            .capacity(4096)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap()
    }

    fn rec(op: BusOp, addr: u64) -> TraceRecord {
        TraceRecord::new(op, ProcId::new(0), SnoopResponse::Null, Address::new(addr))
    }

    #[test]
    fn basic_hit_miss_sequence() {
        let mut sim = CacheSim::new(params(), standard::mesi());
        sim.step(&rec(BusOp::Read, 0));
        sim.step(&rec(BusOp::Read, 0));
        sim.step(&rec(BusOp::Rwitm, 128));
        assert_eq!(sim.counts().get(NodeCounter::ReadMisses), 1);
        assert_eq!(sim.counts().get(NodeCounter::ReadHits), 1);
        assert_eq!(sim.counts().get(NodeCounter::WriteMisses), 1);
        assert_eq!(sim.counts().get(NodeCounter::ReadColdMisses), 1);
    }

    #[test]
    fn lru_eviction_counts_dirty_writebacks() {
        // 4096/2/128 = 16 sets; lines 0, 16, 32 conflict in set 0.
        let mut sim = CacheSim::new(params(), standard::mesi());
        sim.run([
            rec(BusOp::Rwitm, 0),
            rec(BusOp::Read, 16 * 128),
            rec(BusOp::Read, 32 * 128),
        ]);
        assert_eq!(sim.counts().get(NodeCounter::VictimEvictions), 1);
        assert_eq!(sim.counts().get(NodeCounter::VictimWritebacks), 1);
    }

    #[test]
    fn control_ops_are_ignored() {
        let mut sim = CacheSim::new(params(), standard::mesi());
        sim.run([
            rec(BusOp::Sync, 0),
            rec(BusOp::IoRead, 0),
            rec(BusOp::Interrupt, 0),
        ]);
        let total: u64 = NodeCounter::ALL.iter().map(|c| sim.counts().get(*c)).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn io_write_invalidates() {
        let mut sim = CacheSim::new(params(), standard::mesi());
        sim.run([
            rec(BusOp::Read, 0),
            rec(BusOp::DmaWrite, 0),
            rec(BusOp::Read, 0),
        ]);
        assert_eq!(sim.counts().get(NodeCounter::IoInvalidations), 1);
        assert_eq!(sim.counts().get(NodeCounter::ReadMisses), 2);
    }
}
