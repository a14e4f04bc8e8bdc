//! The node controller: one emulated shared-cache node.
//!
//! §3.1: each of the four SMP node controller FPGAs emulates a shared L2,
//! L3, or remote cache, driving its tag/state/LRU tables in SDRAM through
//! a 512-entry transaction buffer, under a protocol loaded as a
//! state-transition table.

use std::collections::HashSet;
use std::fmt;

use memories_bus::{Address, LineAddr, NodeId, SnoopResponse};
use memories_protocol::{AccessEvent, Action, ActionSet, ProtocolTable, RemoteSummary, StateId};

use crate::counters::{NodeCounter, NodeCounters};
use crate::params::CacheParams;
use crate::stats::NodeStats;
use crate::tagstore::{TagProbe, TagStore};

/// What one event did to a node controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeOutcome {
    /// The classified event.
    pub event: AccessEvent,
    /// Whether the line was resident before the transition (for demand
    /// events this is the hit/miss verdict).
    pub hit: bool,
    /// The protocol actions triggered.
    pub actions: ActionSet,
    /// The line's state after the transition.
    pub next: StateId,
}

/// First-touch tracker for cold-miss classification.
///
/// A growable bitmap over line numbers below the cap (2^31 lines, i.e.
/// 256 GB of 128 B lines); touched lines above it are kept exactly in a
/// set, so the bitmap never grows without bound and no line is miscounted.
#[derive(Clone, Debug, Default)]
struct ColdTracker {
    bits: Vec<u64>,
    beyond_cap: HashSet<u64>,
}

impl ColdTracker {
    const MAX_WORDS: usize = 1 << 25; // 2^31 bits = 256 MiB of bitmap at most

    /// Marks `line` touched; returns `true` if this was its first touch.
    fn first_touch(&mut self, line: LineAddr) -> bool {
        let bit = line.value();
        let word = (bit / 64) as usize;
        if word >= Self::MAX_WORDS {
            return self.beyond_cap.insert(bit);
        }
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << (bit % 64);
        let fresh = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
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
/// ```
/// use memories::{CacheParams, NodeController};
/// use memories_bus::{Address, NodeId};
/// use memories_protocol::{standard, AccessEvent, RemoteSummary};
///
/// # fn main() -> Result<(), memories::ParamError> {
/// let params = CacheParams::builder().capacity(2 << 20).build()?;
/// let mut node = NodeController::new(NodeId::new(0), params, standard::mesi());
/// let out = node.process(AccessEvent::LocalRead, Address::new(0x1000),
///                        RemoteSummary::None);
/// assert!(!out.hit); // cold miss
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

    /// Raw event counters.
    pub fn counters(&self) -> &NodeCounters {
        &self.counters
    }

    /// Derived statistics view.
    pub fn stats(&self) -> NodeStats {
        NodeStats::from_counters(self.counters.clone())
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
        self.tags.state(self.params.geometry().line_addr(addr))
    }

    /// The remote summary this node would report to a sibling node for
    /// `addr` (used as the "resulting state from other cache nodes" table
    /// input).
    pub fn summarize(&self, addr: Address) -> RemoteSummary {
        self.protocol.summarize_state(self.probe(addr))
    }

    /// Processes one classified event, assuming a null host snoop
    /// response (no L2-to-L2 intervention). Equivalent to
    /// [`NodeController::process_with_resp`] with [`SnoopResponse::Null`].
    pub fn process(
        &mut self,
        event: AccessEvent,
        addr: Address,
        remote: RemoteSummary,
    ) -> NodeOutcome {
        self.process_with_resp(event, addr, remote, SnoopResponse::Null)
    }

    /// Processes one classified event.
    ///
    /// `resp` is the transaction's combined host snoop response, used to
    /// classify where an L2 miss was satisfied (Figure 12): an L2-to-L2
    /// intervention wins over the emulated L3, which wins over memory.
    ///
    /// The tag store is probed exactly once; the transition is applied
    /// through that probe.
    pub fn process_with_resp(
        &mut self,
        event: AccessEvent,
        addr: Address,
        remote: RemoteSummary,
        resp: SnoopResponse,
    ) -> NodeOutcome {
        let probe = self.tag_probe(addr);
        self.apply(event, addr, probe, remote, resp)
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

    /// [`NodeController::process_with_resp`] with the directory already
    /// probed: `probe` must come from [`NodeController::tag_probe`] for
    /// `addr`, with no transition applied to this node since.
    pub(crate) fn apply(
        &mut self,
        event: AccessEvent,
        addr: Address,
        probe: TagProbe,
        remote: RemoteSummary,
        resp: SnoopResponse,
    ) -> NodeOutcome {
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

        NodeOutcome {
            event,
            hit,
            actions: transition.actions,
            next: transition.next,
        }
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
    use memories_protocol::standard;

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
        let out = n.process(AccessEvent::LocalRead, addr(1), RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.protocol().state_name(out.next), "E");
        assert_eq!(n.counters().get(NodeCounter::ReadMisses), 1);
        assert_eq!(n.counters().get(NodeCounter::ReadColdMisses), 1);

        let out = n.process(AccessEvent::LocalRead, addr(1), RemoteSummary::None);
        assert!(out.hit);
        assert_eq!(n.counters().get(NodeCounter::ReadHits), 1);
    }

    #[test]
    fn cold_vs_capacity_misses_are_distinguished() {
        let mut n = node();
        // 4 KB / 2-way / 128 B = 16 sets; lines k and k+16 conflict.
        n.process(AccessEvent::LocalRead, addr(0), RemoteSummary::None);
        n.process(AccessEvent::LocalRead, addr(16), RemoteSummary::None);
        n.process(AccessEvent::LocalRead, addr(32), RemoteSummary::None); // evicts line 0
        let out = n.process(AccessEvent::LocalRead, addr(0), RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.counters().get(NodeCounter::ReadMisses), 4);
        // Only the first three were cold.
        assert_eq!(n.counters().get(NodeCounter::ReadColdMisses), 3);
        assert_eq!(n.counters().get(NodeCounter::VictimEvictions), 2);
    }

    #[test]
    fn write_miss_and_upgrade_paths() {
        let mut n = node();
        let out = n.process(AccessEvent::LocalWrite, addr(5), RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.protocol().state_name(out.next), "M");
        assert_eq!(n.counters().get(NodeCounter::WriteMisses), 1);

        // A shared line upgraded in place.
        n.process(AccessEvent::LocalRead, addr(6), RemoteSummary::Shared); // fills S
        let out = n.process(AccessEvent::LocalUpgrade, addr(6), RemoteSummary::None);
        assert!(out.hit);
        assert_eq!(n.protocol().state_name(out.next), "M");
        assert_eq!(n.counters().get(NodeCounter::UpgradeHits), 1);
    }

    #[test]
    fn upgrade_miss_reflects_passivity_limitation() {
        // The host L2 may still hold a line the emulated cache evicted;
        // its DClaim then arrives for an absent line (§3.4).
        let mut n = node();
        let out = n.process(AccessEvent::LocalUpgrade, addr(9), RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.counters().get(NodeCounter::UpgradeMisses), 1);
        // MESI allocates it Modified.
        assert_eq!(n.protocol().state_name(out.next), "M");
    }

    #[test]
    fn castout_absorbs_dirty_data() {
        let mut n = node();
        n.process(AccessEvent::LocalRead, addr(3), RemoteSummary::None); // E
        let out = n.process(AccessEvent::LocalCastout, addr(3), RemoteSummary::None);
        assert!(out.hit);
        assert_eq!(n.protocol().state_name(out.next), "M");
        assert_eq!(n.counters().get(NodeCounter::CastoutsSeen), 1);
        assert_eq!(n.counters().get(NodeCounter::CastoutAllocates), 0);

        // Castout of a line the emulated cache no longer tracks.
        let out = n.process(AccessEvent::LocalCastout, addr(7), RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.counters().get(NodeCounter::CastoutAllocates), 1);
    }

    #[test]
    fn remote_write_invalidates_and_counts() {
        let mut n = node();
        n.process(AccessEvent::LocalWrite, addr(2), RemoteSummary::None); // M
        let out = n.process(AccessEvent::RemoteWrite, addr(2), RemoteSummary::None);
        assert!(out.next.is_invalid());
        assert!(out.actions.contains(Action::InterveneModified));
        assert_eq!(n.counters().get(NodeCounter::RemoteInvalidations), 1);
        assert_eq!(n.counters().get(NodeCounter::InterventionsModified), 1);
        assert_eq!(n.probe(addr(2)), StateId::INVALID);
    }

    #[test]
    fn io_write_invalidates() {
        let mut n = node();
        n.process(AccessEvent::LocalRead, addr(4), RemoteSummary::None);
        n.process(AccessEvent::IoWrite, addr(4), RemoteSummary::None);
        assert_eq!(n.counters().get(NodeCounter::IoInvalidations), 1);
        assert_eq!(n.probe(addr(4)), StateId::INVALID);
    }

    #[test]
    fn victim_writeback_counted_for_dirty_victims() {
        let mut n = node();
        // Fill set 0 (lines 0 and 16) with modified data, then force an
        // eviction with line 32.
        n.process(AccessEvent::LocalWrite, addr(0), RemoteSummary::None);
        n.process(AccessEvent::LocalWrite, addr(16), RemoteSummary::None);
        n.process(AccessEvent::LocalRead, addr(32), RemoteSummary::None);
        assert_eq!(n.counters().get(NodeCounter::VictimEvictions), 1);
        assert_eq!(n.counters().get(NodeCounter::VictimWritebacks), 1);
    }

    #[test]
    fn summarize_reports_remote_view() {
        let mut n = node();
        assert_eq!(n.summarize(addr(1)), RemoteSummary::None);
        n.process(AccessEvent::LocalRead, addr(1), RemoteSummary::None); // E: clean
        assert_eq!(n.summarize(addr(1)), RemoteSummary::Shared);
        n.process(AccessEvent::LocalWrite, addr(1), RemoteSummary::None); // M: dirty
        assert_eq!(n.summarize(addr(1)), RemoteSummary::Modified);
    }

    #[test]
    fn reset_counters_preserves_cache_contents() {
        let mut n = node();
        n.process(AccessEvent::LocalRead, addr(1), RemoteSummary::None);
        n.reset_counters();
        assert_eq!(n.counters().get(NodeCounter::ReadMisses), 0);
        let out = n.process(AccessEvent::LocalRead, addr(1), RemoteSummary::None);
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
    }
}
