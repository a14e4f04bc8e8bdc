//! The correctness gate: every timed or traced run's final board must
//! match the serial reference for the same seed, counter for counter.

use memories::{FilterStats, MemoriesBoard, NodeCounters};
use memories_bus::BusOp;

/// Every statistic a run's final board reports: per-node counters,
/// global counters, filter statistics and posted retries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    nodes: Vec<NodeCounters>,
    transactions: u64,
    by_op: Vec<u64>,
    span: (Option<u64>, u64),
    filter: FilterStats,
    retries_posted: u64,
}

impl Fingerprint {
    /// Reads the fingerprint off a finished board.
    pub fn of(board: &MemoriesBoard) -> Fingerprint {
        let global = board.global();
        Fingerprint {
            nodes: board.nodes().map(|n| n.counters().clone()).collect(),
            transactions: global.transactions(),
            by_op: BusOp::ALL.iter().map(|op| global.count(*op)).collect(),
            span: (global.first_cycle(), global.last_cycle()),
            filter: *board.filter().stats(),
            retries_posted: board.retries_posted(),
        }
    }

    /// Only the per-node counters: what a board fed an already-filtered
    /// stream must still agree on.
    pub fn nodes(&self) -> &[NodeCounters] {
        &self.nodes
    }

    /// `None` if `run` matches this reference, else a description of the
    /// first difference.
    pub fn mismatch(&self, run: &Fingerprint) -> Option<String> {
        if self == run {
            return None;
        }
        if let Some(i) = (0..self.nodes.len().max(run.nodes.len()))
            .find(|&i| self.nodes.get(i) != run.nodes.get(i))
        {
            return Some(format!("node{i} counters differ from the serial reference"));
        }
        if self.retries_posted != run.retries_posted {
            return Some(format!(
                "retries posted {} differ from the serial reference's {}",
                run.retries_posted, self.retries_posted
            ));
        }
        Some("global counters or filter statistics differ from the serial reference".to_owned())
    }
}
