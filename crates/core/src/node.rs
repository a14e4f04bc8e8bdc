//! The node controller: one emulated shared-cache node.
//!
//! §3.1: each of the four SMP node controller FPGAs emulates a shared L2,
//! L3, or remote cache, driving its tag/state/LRU tables in SDRAM through
//! a 512-entry transaction buffer, under a protocol loaded as a
//! state-transition table.

use std::collections::HashSet;
use std::fmt;

use memories_bus::{Address, LineAddr, NodeId, SnoopResponse};
use memories_protocol::{AccessEvent, Action, ProtocolTable, RemoteSummary, StateId};

use crate::counters::{NodeCounter, NodeCounters};
use crate::params::CacheParams;
use crate::tagstore::{TagProbe, TagStore};

/// First-touch tracker for cold-miss classification.
///
/// Lines below the cap (2^31 lines, i.e. 256 GB of 128 B lines) are bits
/// in 4 KiB pages, allocated on a page's first touch and found through a
/// directory indexed by the line's high bits, so memory follows the lines
/// actually touched. Touched lines at and above the cap are kept exactly
/// in a set, so no line is miscounted.
#[derive(Clone, Debug, Default)]
struct ColdTracker {
    pages: Vec<Option<Box<[u64; ColdTracker::PAGE_WORDS]>>>,
    beyond_cap: HashSet<u64>,
}

impl ColdTracker {
    /// Lines per page, as a power of two: a page is 4 KiB of bits.
    const PAGE_BITS: u32 = 15;
    const PAGE_WORDS: usize = 1 << (Self::PAGE_BITS - 6);
    const CAP: u64 = 1 << 31;

    /// Marks `line` touched; returns `true` if this was its first touch.
    fn first_touch(&mut self, line: LineAddr) -> bool {
        let bit = line.value();
        if bit >= Self::CAP {
            return self.beyond_cap.insert(bit);
        }
        let page = (bit >> Self::PAGE_BITS) as usize;
        if page >= self.pages.len() {
            self.pages.resize(page + 1, None);
        }
        let words = self.pages[page].get_or_insert_with(|| Box::new([0; Self::PAGE_WORDS]));
        let word = &mut words[(bit / 64) as usize % Self::PAGE_WORDS];
        let mask = 1u64 << (bit % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }
}

/// One emulated shared-cache node: tag store, protocol engine and
/// counters. Its transaction buffer lives in the board's front end
/// ([`BoardFrontEnd`](crate::BoardFrontEnd)), which decides before any
/// snoop whether the node drops an event.
///
/// # Examples
///
/// A node controller is driven only through the board it sits on:
///
/// ```
/// use memories::{BoardConfig, CacheParams, MemoriesBoard, NodeCounter};
/// use memories_bus::{Address, BusListener, BusOp, NodeId, ProcId, SnoopResponse, Transaction};
///
/// # fn main() -> Result<(), memories::BoardError> {
/// let params = CacheParams::builder().capacity(2 << 20).build()?;
/// let mut board = MemoriesBoard::new(BoardConfig::single_node(params, [ProcId::new(0)])?)?;
/// board.on_transaction(&Transaction::new(0, 0, ProcId::new(0), BusOp::Read,
///                                        Address::new(0x1000), SnoopResponse::Null));
/// let node = board.node(NodeId::new(0));
/// assert_eq!(node.counters().get(NodeCounter::ReadColdMisses), 1); // cold miss
/// assert!(!node.probe(Address::new(0x1000)).is_invalid()); // now resident
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct NodeController {
    id: NodeId,
    params: CacheParams,
    protocol: ProtocolTable,
    tags: TagStore,
    counters: NodeCounters,
    cold: ColdTracker,
}

impl NodeController {
    /// Creates a node controller.
    pub fn new(id: NodeId, params: CacheParams, protocol: ProtocolTable) -> Self {
        NodeController {
            id,
            tags: TagStore::new(&params),
            params,
            protocol,
            counters: NodeCounters::new(),
            cold: ColdTracker::default(),
        }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's cache parameters.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// The loaded protocol table.
    pub fn protocol(&self) -> &ProtocolTable {
        &self.protocol
    }

    /// The node's counter bank; its derived statistics (`miss_ratio`,
    /// `fill_breakdown`, ...) are methods of [`NodeCounters`].
    pub fn counters(&self) -> &NodeCounters {
        &self.counters
    }

    /// [`NodeController::counters`] under its older name, kept because
    /// the benchmark crate (`perfbench`) still calls it.
    pub fn stats(&self) -> &NodeCounters {
        &self.counters
    }

    /// The tag store (read-only; for directory inspection).
    pub fn tag_store(&self) -> &TagStore {
        &self.tags
    }

    /// Resets counters (the console's clear-statistics command). Cache
    /// contents are preserved — exactly like the board, where clearing
    /// counters does not flush the SDRAM tables.
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// The protocol state the node's directory currently holds for the
    /// line containing `addr`.
    pub fn probe(&self, addr: Address) -> StateId {
        self.tag_probe(addr).state()
    }

    /// Probes the directory for the line containing `addr`.
    pub(crate) fn tag_probe(&self, addr: Address) -> TagProbe {
        self.tags.probe(self.params.geometry().line_addr(addr))
    }

    /// Reads the directory set [`NodeController::tag_probe`] searches for
    /// `addr`, and nothing else (see [`TagStore::read_set`]).
    pub(crate) fn read_tag_set(&self, addr: Address) -> u64 {
        self.tags.read_set(self.params.geometry().line_addr(addr))
    }

    /// Counts an event that the node's full transaction buffer dropped.
    /// The directory is left as it was.
    pub(crate) fn count_dropped(&mut self) {
        self.counters.incr(NodeCounter::BufferOverflows);
        self.counters.incr(NodeCounter::EventsDropped);
    }

    /// Applies one classified event through a probe of its line: the
    /// node's one transition path. `probe` must come from
    /// [`NodeController::tag_probe`] for `addr`, with no transition applied
    /// to this node since, so the directory is probed exactly once.
    ///
    /// `resp` is the transaction's combined host snoop response, used to
    /// classify where an L2 miss was satisfied (Figure 12): an L2-to-L2
    /// intervention wins over the emulated L3, which wins over memory.
    pub(crate) fn apply(
        &mut self,
        event: AccessEvent,
        addr: Address,
        probe: TagProbe,
        remote: RemoteSummary,
        resp: SnoopResponse,
    ) {
        let line = self.params.geometry().line_addr(addr);
        let state = probe.state();
        let hit = !state.is_invalid();
        let transition = self.protocol.lookup(event, state, remote);
        // A resident line was marked when the miss that filled it was
        // counted (`fill` below is the only way in), so a hit is never a
        // first touch and only misses consult the tracker.
        let first_touch = !hit && self.cold.first_touch(line);

        // Figure 12 classification: where is this L2 miss satisfied?
        if matches!(event, AccessEvent::LocalRead | AccessEvent::LocalWrite) {
            match resp {
                SnoopResponse::Modified => self.counters.incr(NodeCounter::DemandFilledL2Modified),
                SnoopResponse::Shared => self.counters.incr(NodeCounter::DemandFilledL2Shared),
                _ if hit => self.counters.incr(NodeCounter::DemandFilledL3),
                _ => self.counters.incr(NodeCounter::DemandFilledMemory),
            }
        }

        // Event counting.
        match event {
            AccessEvent::LocalRead => {
                if hit {
                    self.counters.incr(NodeCounter::ReadHits);
                } else {
                    self.counters.incr(NodeCounter::ReadMisses);
                    if first_touch {
                        self.counters.incr(NodeCounter::ReadColdMisses);
                    }
                }
            }
            AccessEvent::LocalWrite => {
                if hit {
                    self.counters.incr(NodeCounter::WriteHits);
                } else {
                    self.counters.incr(NodeCounter::WriteMisses);
                    if first_touch {
                        self.counters.incr(NodeCounter::WriteColdMisses);
                    }
                }
            }
            AccessEvent::LocalUpgrade => {
                if hit {
                    self.counters.incr(NodeCounter::UpgradeHits);
                } else {
                    self.counters.incr(NodeCounter::UpgradeMisses);
                }
            }
            AccessEvent::LocalCastout => {
                self.counters.incr(NodeCounter::CastoutsSeen);
                if !hit {
                    self.counters.incr(NodeCounter::CastoutAllocates);
                }
            }
            AccessEvent::RemoteRead => self.counters.incr(NodeCounter::RemoteReadsSeen),
            AccessEvent::RemoteWrite => {
                self.counters.incr(NodeCounter::RemoteWritesSeen);
                if hit && transition.next.is_invalid() {
                    self.counters.incr(NodeCounter::RemoteInvalidations);
                }
            }
            AccessEvent::IoRead => self.counters.incr(NodeCounter::IoReadsSeen),
            AccessEvent::IoWrite => {
                self.counters.incr(NodeCounter::IoWritesSeen);
                if hit {
                    self.counters.incr(NodeCounter::IoInvalidations);
                }
            }
            AccessEvent::Flush => self.counters.incr(NodeCounter::FlushesSeen),
        }

        // Action counting.
        if transition.actions.contains(Action::InterveneShared) {
            self.counters.incr(NodeCounter::InterventionsShared);
        }
        if transition.actions.contains(Action::InterveneModified) {
            self.counters.incr(NodeCounter::InterventionsModified);
        }
        if transition.actions.contains(Action::Writeback) {
            self.counters.incr(NodeCounter::ProtocolWritebacks);
        }

        // State application, through the one probe.
        if hit {
            self.tags.update(&probe, transition.next, event.is_demand());
        } else if !transition.next.is_invalid() && transition.actions.contains(Action::Allocate) {
            if let Some(victim) = self.tags.fill(&probe, line, transition.next) {
                self.counters.incr(NodeCounter::VictimEvictions);
                if self.protocol.is_dirty_state(victim.state) {
                    self.counters.incr(NodeCounter::VictimWritebacks);
                }
            }
        }
        // Miss without allocate: the emulated cache stays unchanged.
    }
}

impl fmt::Debug for NodeController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeController")
            .field("id", &self.id)
            .field("params", &self.params.to_string())
            .field("protocol", &self.protocol.name())
            .field("resident", &self.tags.resident_lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_protocol::{standard, ActionSet};

    /// What one event did to a node controller.
    struct Outcome {
        /// Whether the line was resident before the transition.
        hit: bool,
        /// The protocol actions triggered.
        actions: ActionSet,
        /// The line's state after the transition.
        next: StateId,
    }

    /// One event on `line` through the node's one transition path,
    /// `tag_probe` then `apply`, with a null host snoop response.
    fn process(
        n: &mut NodeController,
        event: AccessEvent,
        line: u64,
        remote: RemoteSummary,
    ) -> Outcome {
        let addr = addr(line);
        let probe = n.tag_probe(addr);
        let transition = n.protocol().lookup(event, probe.state(), remote);
        n.apply(event, addr, probe, remote, SnoopResponse::Null);
        Outcome {
            hit: !probe.state().is_invalid(),
            actions: transition.actions,
            next: transition.next,
        }
    }

    /// The remote summary `n` reports to a sibling node for `addr`.
    fn summarize(n: &NodeController, addr: Address) -> RemoteSummary {
        n.protocol().summarize_state(n.probe(addr))
    }

    fn node() -> NodeController {
        let params = CacheParams::builder()
            .capacity(4 * 1024)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap();
        NodeController::new(NodeId::new(0), params, standard::mesi())
    }

    fn addr(line: u64) -> Address {
        Address::new(line * 128)
    }

    #[test]
    fn read_miss_allocates_then_hits() {
        let mut n = node();
        let out = process(&mut n, AccessEvent::LocalRead, 1, RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.protocol().state_name(out.next), "E");
        assert_eq!(n.counters().get(NodeCounter::ReadMisses), 1);
        assert_eq!(n.counters().get(NodeCounter::ReadColdMisses), 1);

        let out = process(&mut n, AccessEvent::LocalRead, 1, RemoteSummary::None);
        assert!(out.hit);
        assert_eq!(n.counters().get(NodeCounter::ReadHits), 1);
    }

    #[test]
    fn cold_vs_capacity_misses_are_distinguished() {
        let mut n = node();
        // 4 KB / 2-way / 128 B = 16 sets; lines k and k+16 conflict.
        process(&mut n, AccessEvent::LocalRead, 0, RemoteSummary::None);
        process(&mut n, AccessEvent::LocalRead, 16, RemoteSummary::None);
        process(&mut n, AccessEvent::LocalRead, 32, RemoteSummary::None); // evicts line 0
        let out = process(&mut n, AccessEvent::LocalRead, 0, RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.counters().get(NodeCounter::ReadMisses), 4);
        // Only the first three were cold.
        assert_eq!(n.counters().get(NodeCounter::ReadColdMisses), 3);
        assert_eq!(n.counters().get(NodeCounter::VictimEvictions), 2);
    }

    #[test]
    fn write_miss_and_upgrade_paths() {
        let mut n = node();
        let out = process(&mut n, AccessEvent::LocalWrite, 5, RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.protocol().state_name(out.next), "M");
        assert_eq!(n.counters().get(NodeCounter::WriteMisses), 1);

        // A shared line upgraded in place.
        process(&mut n, AccessEvent::LocalRead, 6, RemoteSummary::Shared); // fills S
        let out = process(&mut n, AccessEvent::LocalUpgrade, 6, RemoteSummary::None);
        assert!(out.hit);
        assert_eq!(n.protocol().state_name(out.next), "M");
        assert_eq!(n.counters().get(NodeCounter::UpgradeHits), 1);
    }

    #[test]
    fn upgrade_miss_reflects_passivity_limitation() {
        // The host L2 may still hold a line the emulated cache evicted;
        // its DClaim then arrives for an absent line (§3.4).
        let mut n = node();
        let out = process(&mut n, AccessEvent::LocalUpgrade, 9, RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.counters().get(NodeCounter::UpgradeMisses), 1);
        // MESI allocates it Modified.
        assert_eq!(n.protocol().state_name(out.next), "M");
    }

    #[test]
    fn castout_absorbs_dirty_data() {
        let mut n = node();
        process(&mut n, AccessEvent::LocalRead, 3, RemoteSummary::None); // E
        let out = process(&mut n, AccessEvent::LocalCastout, 3, RemoteSummary::None);
        assert!(out.hit);
        assert_eq!(n.protocol().state_name(out.next), "M");
        assert_eq!(n.counters().get(NodeCounter::CastoutsSeen), 1);
        assert_eq!(n.counters().get(NodeCounter::CastoutAllocates), 0);

        // Castout of a line the emulated cache no longer tracks.
        let out = process(&mut n, AccessEvent::LocalCastout, 7, RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.counters().get(NodeCounter::CastoutAllocates), 1);
    }

    #[test]
    fn remote_write_invalidates_and_counts() {
        let mut n = node();
        process(&mut n, AccessEvent::LocalWrite, 2, RemoteSummary::None); // M
        let out = process(&mut n, AccessEvent::RemoteWrite, 2, RemoteSummary::None);
        assert!(out.next.is_invalid());
        assert!(out.actions.contains(Action::InterveneModified));
        assert_eq!(n.counters().get(NodeCounter::RemoteInvalidations), 1);
        assert_eq!(n.counters().get(NodeCounter::InterventionsModified), 1);
        assert_eq!(n.probe(addr(2)), StateId::INVALID);
    }

    #[test]
    fn io_write_invalidates() {
        let mut n = node();
        process(&mut n, AccessEvent::LocalRead, 4, RemoteSummary::None);
        process(&mut n, AccessEvent::IoWrite, 4, RemoteSummary::None);
        assert_eq!(n.counters().get(NodeCounter::IoInvalidations), 1);
        assert_eq!(n.probe(addr(4)), StateId::INVALID);
    }

    #[test]
    fn victim_writeback_counted_for_dirty_victims() {
        let mut n = node();
        // Fill set 0 (lines 0 and 16) with modified data, then force an
        // eviction with line 32.
        process(&mut n, AccessEvent::LocalWrite, 0, RemoteSummary::None);
        process(&mut n, AccessEvent::LocalWrite, 16, RemoteSummary::None);
        process(&mut n, AccessEvent::LocalRead, 32, RemoteSummary::None);
        assert_eq!(n.counters().get(NodeCounter::VictimEvictions), 1);
        assert_eq!(n.counters().get(NodeCounter::VictimWritebacks), 1);
    }

    #[test]
    fn summarize_reports_remote_view() {
        let mut n = node();
        assert_eq!(summarize(&n, addr(1)), RemoteSummary::None);
        process(&mut n, AccessEvent::LocalRead, 1, RemoteSummary::None); // E: clean
        assert_eq!(summarize(&n, addr(1)), RemoteSummary::Shared);
        process(&mut n, AccessEvent::LocalWrite, 1, RemoteSummary::None); // M: dirty
        assert_eq!(summarize(&n, addr(1)), RemoteSummary::Modified);
    }

    #[test]
    fn reset_counters_preserves_cache_contents() {
        let mut n = node();
        process(&mut n, AccessEvent::LocalRead, 1, RemoteSummary::None);
        n.reset_counters();
        assert_eq!(n.counters().get(NodeCounter::ReadMisses), 0);
        let out = process(&mut n, AccessEvent::LocalRead, 1, RemoteSummary::None);
        assert!(out.hit, "cache contents must survive a counter reset");
    }

    #[test]
    fn cold_tracker_first_touch_semantics() {
        let mut t = ColdTracker::default();
        assert!(t.first_touch(LineAddr::new(5)));
        assert!(!t.first_touch(LineAddr::new(5)));
        assert!(t.first_touch(LineAddr::new(1_000_000)));
        // Beyond the cap: counted exactly, like any other line.
        assert!(t.first_touch(LineAddr::new(u64::MAX)));
        assert!(!t.first_touch(LineAddr::new(u64::MAX)));
        assert!(t.first_touch(LineAddr::new(1 << 31)));
        assert!(!t.first_touch(LineAddr::new(1 << 31)));

        // A touch just below the cap allocates the one 4 KiB page holding
        // its bit, not a bitmap up to it.
        let mut t = ColdTracker::default();
        assert!(t.first_touch(LineAddr::new((1 << 31) - 1)));
        assert!(!t.first_touch(LineAddr::new((1 << 31) - 1)));
        assert!(t.first_touch(LineAddr::new((1 << 31) - 2)));
        let pages: Vec<_> = t.pages.iter().flatten().collect();
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].len() * 8, 4096);
        assert!(t.beyond_cap.is_empty());
    }
}
