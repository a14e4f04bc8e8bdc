//! Mid-run counter snapshots — the board's defining "online" feature.
//!
//! The physical board's 400+ counters are readable by the console *while
//! the workload runs*; the §5 long-trace case study works because an
//! operator can watch miss rates evolve instead of waiting for a
//! post-mortem dump. [`BoardSnapshot`] is the software equivalent: a
//! cheap, counter-only copy of everything the console can read —
//! [`GlobalCounters`], [`FilterStats`], per-node [`NodeCounters`], and
//! the retry count — taken without perturbing directories or tag stores.
//!
//! A whole board snapshots directly ([`MemoriesBoard::snapshot`]); the
//! engine, serial or parallel, assembles the same view from a front-end
//! copy plus per-shard counter reports collected at a snapshot barrier
//! (see `memories-sim`). Because every piece is a commutative monoid
//! under merge, the assembled snapshot is bit-identical to what a whole
//! board would have shown at the same stream position.
//!
//! [`MemoriesBoard::snapshot`]: crate::MemoriesBoard::snapshot

use crate::board::GlobalCounters;
use crate::counters::NodeCounters;
use crate::filter::FilterStats;

/// A point-in-time copy of every counter the console can read.
///
/// Produced by [`MemoriesBoard::snapshot`](crate::MemoriesBoard::snapshot)
/// (a whole board) or assembled by an engine from shard reports.
/// Snapshots are plain data: comparing, storing, and diffing them never
/// touches the live board.
#[derive(Clone, Debug, Default)]
pub struct BoardSnapshot {
    /// The global events FPGA's bus-level counters.
    pub global: GlobalCounters,
    /// Address-filter statistics (seen / forwarded / dropped classes).
    pub filter: FilterStats,
    /// Retries the board had posted (or, for batched engines, accounted)
    /// at the snapshot point.
    pub retries_posted: u64,
    /// Per-node counter banks, indexed by node id.
    pub nodes: Vec<NodeCounters>,
}

impl BoardSnapshot {
    /// Assembles a snapshot from a front-end view plus per-shard node
    /// reports `(node id, counters)` — the engine's path. Parts
    /// may arrive in any order; missing nodes read as zero banks.
    pub fn assemble<I>(
        global: GlobalCounters,
        filter: FilterStats,
        retries_posted: u64,
        node_count: usize,
        parts: I,
    ) -> Self
    where
        I: IntoIterator<Item = (u8, NodeCounters)>,
    {
        let mut nodes = vec![NodeCounters::new(); node_count];
        for (id, counters) in parts {
            if let Some(slot) = nodes.get_mut(usize::from(id)) {
                *slot = counters;
            }
        }
        BoardSnapshot {
            global,
            filter,
            retries_posted,
            nodes,
        }
    }

    /// Transactions the filter admitted to the node controllers — the
    /// x-axis of time-series sampling ("every N admitted transactions").
    pub fn admitted(&self) -> u64 {
        self.filter.forwarded
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::NodeCounter;

    #[test]
    fn assemble_places_parts_by_node_id() {
        let mut n2 = NodeCounters::new();
        n2.add(NodeCounter::ReadMisses, 7);
        let mut n0 = NodeCounters::new();
        n0.add(NodeCounter::ReadHits, 3);
        let snap = BoardSnapshot::assemble(
            GlobalCounters::default(),
            FilterStats::default(),
            0,
            3,
            vec![(2, n2), (0, n0)],
        );
        assert_eq!(snap.node_count(), 3);
        assert_eq!(snap.nodes[0].get(NodeCounter::ReadHits), 3);
        assert_eq!(snap.nodes[1].get(NodeCounter::ReadHits), 0);
        assert_eq!(snap.nodes[2].get(NodeCounter::ReadMisses), 7);
        assert_eq!(snap.nodes[2].demand_misses(), 7);
    }

    #[test]
    fn admitted_reads_the_filter_forward_count() {
        let snap = BoardSnapshot {
            filter: FilterStats {
                seen: 10,
                forwarded: 6,
                ..FilterStats::default()
            },
            ..BoardSnapshot::default()
        };
        assert_eq!(snap.admitted(), 6);
    }
}
