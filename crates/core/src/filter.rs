//! The address filter FPGA: transaction filtering and node partitioning.
//!
//! §3.1: "The address filter FPGA is responsible for interfacing with the
//! 6xx bus, filtering out non-emulation related transactions (like retries
//! on the bus), grouping the transactions based on the bus ids and
//! forwarding the transactions to the global events counter FPGA."

use std::fmt;

use memories_bus::{Address, BusOp, NodeId, OpClass, ProcId, SnoopResponse, Transaction};
use memories_protocol::AccessEvent;

use crate::error::BoardError;
use crate::params::CacheParams;

/// How a transaction's requester relates to one emulated node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Locality {
    /// The requester is one of the node's own processors.
    Local,
    /// The requester belongs to another node of the same coherence domain
    /// (the same emulated target machine).
    Remote,
    /// The requester belongs to no node of this node's domain; the node
    /// ignores its traffic.
    Unrelated,
}

/// The CPU-id to emulated-node mapping.
///
/// "The CPU IDs on the memory bus of the host machine are partitioned to
/// emulate a variety of target machines" (§2). Each node slot has a
/// coherence *domain*: nodes in the same domain form one emulated target
/// machine and exchange remote events; nodes in different domains are
/// independent parallel experiments (Figure 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodePartition {
    /// Per node: (domain, local-cpu bitmask over ProcId indices).
    nodes: Vec<(u8, u64)>,
    /// Per node: union mask of all CPUs in the node's domain.
    domain_masks: Vec<u64>,
}

impl NodePartition {
    /// Builds a partition from per-node `(domain, local cpus)` slots, in
    /// node-id order.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] if there are zero or more than four slots, a
    /// slot is empty or oversized, or a CPU is claimed twice within one
    /// domain.
    pub fn new<I, C>(slots: I) -> Result<Self, BoardError>
    where
        I: IntoIterator<Item = (u8, C)>,
        C: IntoIterator<Item = ProcId>,
    {
        let mut nodes: Vec<(u8, u64)> = Vec::new();
        for (domain, cpus) in slots {
            let node = NodeId::new(nodes.len().min(NodeId::MAX_NODES - 1) as u8);
            if nodes.len() >= NodeId::MAX_NODES {
                return Err(BoardError::TooManyNodes {
                    requested: nodes.len() + 1,
                });
            }
            let mut mask = 0u64;
            let mut count = 0usize;
            for cpu in cpus {
                mask |= 1 << cpu.index();
                count += 1;
            }
            if mask == 0 {
                return Err(BoardError::EmptyNode { node });
            }
            if count > CacheParams::MAX_PROCS_PER_NODE {
                return Err(BoardError::TooManyCpusPerNode { node, cpus: count });
            }
            // Overlap check within the same domain.
            for (i, (d, m)) in nodes.iter().enumerate() {
                if *d == domain && m & mask != 0 {
                    let cpu = ProcId::new((m & mask).trailing_zeros() as u8);
                    return Err(BoardError::OverlappingCpus {
                        cpu,
                        first: NodeId::new(i as u8),
                        second: node,
                    });
                }
            }
            nodes.push((domain, mask));
        }
        if nodes.is_empty() {
            return Err(BoardError::NoNodes);
        }
        let domain_masks = nodes
            .iter()
            .map(|(d, _)| {
                nodes
                    .iter()
                    .filter(|(d2, _)| d2 == d)
                    .fold(0u64, |acc, (_, m)| acc | m)
            })
            .collect();
        Ok(NodePartition {
            nodes,
            domain_masks,
        })
    }

    /// Marks extra CPUs as *remote* members of `domain` even though no
    /// configured node owns them.
    ///
    /// This models partial emulation of a larger target machine: the
    /// board has four node controllers, so an eight-node target (e.g. the
    /// one-processor-per-L3 point of Figure 9) emulates four of the
    /// nodes and must still see the other processors' traffic as remote
    /// coherence events rather than ignoring it.
    pub fn add_domain_remotes<I: IntoIterator<Item = ProcId>>(&mut self, domain: u8, cpus: I) {
        let mut mask = 0u64;
        for cpu in cpus {
            mask |= 1 << cpu.index();
        }
        for (i, (d, _)) in self.nodes.iter().enumerate() {
            if *d == domain {
                self.domain_masks[i] |= mask;
            }
        }
    }

    /// Number of node slots.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The coherence domain of a node.
    pub fn domain(&self, node: NodeId) -> u8 {
        self.nodes[node.index()].0
    }

    /// How `proc`'s traffic relates to `node`.
    pub fn locality(&self, node: NodeId, proc: ProcId) -> Locality {
        let bit = 1u64 << proc.index();
        let (_, local_mask) = self.nodes[node.index()];
        if local_mask & bit != 0 {
            Locality::Local
        } else if self.domain_masks[node.index()] & bit != 0 {
            Locality::Remote
        } else {
            Locality::Unrelated
        }
    }

    /// The protocol event `txn` produces at `node`, if any.
    ///
    /// Local traffic maps to `Local*` events, same-domain remote traffic
    /// to `Remote*` events, DMA to `Io*` events at every node; a remote
    /// node's castouts and unrelated domains produce nothing.
    ///
    /// Classification depends only on the partition (not on filter state)
    /// and on the transaction's op and CPU, so a board tabulates it once
    /// and every shard reads its members' columns of that table.
    pub fn event_for(&self, node: NodeId, txn: &Transaction) -> Option<AccessEvent> {
        match txn.op {
            BusOp::DmaRead => return Some(AccessEvent::IoRead),
            BusOp::DmaWrite => return Some(AccessEvent::IoWrite),
            _ => {}
        }
        match (self.locality(node, txn.proc), txn.op) {
            (Locality::Local, BusOp::Read) => Some(AccessEvent::LocalRead),
            (Locality::Local, BusOp::Rwitm) => Some(AccessEvent::LocalWrite),
            (Locality::Local, BusOp::DClaim) => Some(AccessEvent::LocalUpgrade),
            (Locality::Local, BusOp::WriteBack) => Some(AccessEvent::LocalCastout),
            (Locality::Local, BusOp::Flush) | (Locality::Remote, BusOp::Flush) => {
                Some(AccessEvent::Flush)
            }
            (Locality::Remote, BusOp::Read) => Some(AccessEvent::RemoteRead),
            (Locality::Remote, BusOp::Rwitm) | (Locality::Remote, BusOp::DClaim) => {
                Some(AccessEvent::RemoteWrite)
            }
            (Locality::Remote, BusOp::WriteBack) => None,
            (Locality::Unrelated, _) => None,
            _ => None,
        }
    }
}

/// [`NodePartition::event_for`] tabulated over the only parts of a
/// transaction it reads, its op and CPU: the address filter's one
/// classification of each transaction, built once per board. A lookup
/// keeps the admission loop and the snoop free of the classification's
/// data-dependent branches.
#[derive(Clone, Debug)]
pub(crate) struct EventTable {
    /// Entry [`EventTable::index`]: the event at every node, in node-id
    /// order (`None` past the last node).
    rows: Vec<[Option<AccessEvent>; NodeId::MAX_NODES]>,
    /// Per row: the nodes with an event, bit `i` for node `i`.
    nodes: Vec<u8>,
}

impl EventTable {
    pub(crate) fn new(partition: &NodePartition) -> Self {
        let mut rows = vec![[None; NodeId::MAX_NODES]; BusOp::ALL.len() * ProcId::MAX_IDS];
        for op in BusOp::ALL {
            for cpu in 0..ProcId::MAX_IDS {
                let txn = Transaction::new(
                    0,
                    0,
                    ProcId::new(cpu as u8),
                    op,
                    Address::new(0),
                    SnoopResponse::Null,
                );
                let row = &mut rows[Self::index(&txn)];
                for (i, event) in row.iter_mut().take(partition.node_count()).enumerate() {
                    *event = partition.event_for(NodeId::new(i as u8), &txn);
                }
            }
        }
        let nodes = rows
            .iter()
            .map(|row| {
                (0..NodeId::MAX_NODES)
                    .filter(|&i| row[i].is_some())
                    .fold(0, |nodes, i| nodes | 1 << i)
            })
            .collect();
        EventTable { rows, nodes }
    }

    /// The row of `txn`'s op and CPU.
    pub(crate) fn index(txn: &Transaction) -> usize {
        txn.op.index() * ProcId::MAX_IDS + txn.proc.index()
    }

    /// The nodes where `txn` makes an event, bit `i` for node `i`.
    pub(crate) fn nodes(&self, txn: &Transaction) -> u8 {
        self.nodes[Self::index(txn)]
    }

    /// Every row, in [`EventTable::index`] order.
    pub(crate) fn rows(&self) -> &[[Option<AccessEvent>; NodeId::MAX_NODES]] {
        &self.rows
    }
}

/// Address filter configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FilterConfig {
    /// Whether DMA memory traffic is forwarded to the node controllers
    /// (true on the board: "effect of I/O on hit ratio" is measured).
    pub pass_dma: bool,
    /// Optional inclusive address window; traffic outside it is filtered.
    pub address_window: Option<(Address, Address)>,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            pass_dma: true,
            address_window: None,
        }
    }
}

/// Filter statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Transactions observed on the bus.
    pub seen: u64,
    /// Control-class transactions dropped (I/O registers, syncs,
    /// interrupts).
    pub control_filtered: u64,
    /// Bus-level retries dropped (the transaction will reappear).
    pub retries_filtered: u64,
    /// DMA transactions dropped because `pass_dma` is off.
    pub dma_filtered: u64,
    /// Transactions outside the address window.
    pub window_filtered: u64,
    /// Transactions forwarded to the node controllers.
    pub forwarded: u64,
}

/// The address filter: decides which transactions reach the emulation
/// pipeline and classifies requesters into emulated nodes.
#[derive(Clone, Debug)]
pub struct AddressFilter {
    config: FilterConfig,
    partition: NodePartition,
    stats: FilterStats,
}

impl AddressFilter {
    /// Creates a filter.
    pub fn new(config: FilterConfig, partition: NodePartition) -> Self {
        AddressFilter {
            config,
            partition,
            stats: FilterStats::default(),
        }
    }

    /// The node partition.
    pub fn partition(&self) -> &NodePartition {
        &self.partition
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &FilterStats {
        &self.stats
    }

    /// Zeroes the filter statistics.
    pub fn reset_stats(&mut self) {
        self.stats = FilterStats::default();
    }

    /// Filters one transaction. Returns `true` if it should be forwarded
    /// to the global-events FPGA and node controllers.
    pub fn admit(&mut self, txn: &Transaction) -> bool {
        self.stats.seen += 1;
        if txn.resp == SnoopResponse::Retry {
            self.stats.retries_filtered += 1;
            return false;
        }
        match txn.op.class() {
            OpClass::Control => {
                self.stats.control_filtered += 1;
                return false;
            }
            OpClass::IoMemory if !self.config.pass_dma => {
                self.stats.dma_filtered += 1;
                return false;
            }
            _ => {}
        }
        if let Some((lo, hi)) = self.config.address_window {
            if txn.addr < lo || txn.addr > hi {
                self.stats.window_filtered += 1;
                return false;
            }
        }
        self.stats.forwarded += 1;
        true
    }

    /// The protocol event `txn` produces at `node`, if any.
    ///
    /// Delegates to [`NodePartition::event_for`].
    pub fn event_for(&self, node: NodeId, txn: &Transaction) -> Option<AccessEvent> {
        self.partition.event_for(node, txn)
    }
}

impl fmt::Display for FilterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "filter: {} seen, {} forwarded ({} control, {} retries, {} dma, {} window dropped)",
            self.seen,
            self.forwarded,
            self.control_filtered,
            self.retries_filtered,
            self.dma_filtered,
            self.window_filtered
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_partition() -> NodePartition {
        NodePartition::new([
            (0u8, (0..4).map(ProcId::new).collect::<Vec<_>>()),
            (0u8, (4..8).map(ProcId::new).collect::<Vec<_>>()),
        ])
        .unwrap()
    }

    fn txn(proc: u8, op: BusOp) -> Transaction {
        Transaction::new(
            0,
            0,
            ProcId::new(proc),
            op,
            Address::new(0x1000),
            SnoopResponse::Null,
        )
    }

    #[test]
    fn partition_locality() {
        let p = two_node_partition();
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.locality(NodeId::new(0), ProcId::new(2)), Locality::Local);
        assert_eq!(p.locality(NodeId::new(0), ProcId::new(6)), Locality::Remote);
        assert_eq!(p.locality(NodeId::new(1), ProcId::new(6)), Locality::Local);
        assert_eq!(
            p.locality(NodeId::new(0), ProcId::new(12)),
            Locality::Unrelated
        );
    }

    #[test]
    fn partition_rejects_overlap_in_same_domain() {
        let err = NodePartition::new([
            (0u8, vec![ProcId::new(0), ProcId::new(1)]),
            (0u8, vec![ProcId::new(1)]),
        ])
        .unwrap_err();
        assert!(matches!(err, BoardError::OverlappingCpus { .. }));
    }

    #[test]
    fn partition_allows_overlap_across_domains() {
        // Figure 4: the same CPUs feed two parallel configurations.
        let p = NodePartition::new([
            (0u8, (0..8).map(ProcId::new).collect::<Vec<_>>()),
            (1u8, (0..8).map(ProcId::new).collect::<Vec<_>>()),
        ])
        .unwrap();
        assert_eq!(p.locality(NodeId::new(0), ProcId::new(3)), Locality::Local);
        assert_eq!(p.locality(NodeId::new(1), ProcId::new(3)), Locality::Local);
    }

    #[test]
    fn partition_rejects_degenerate_shapes() {
        assert!(matches!(
            NodePartition::new(std::iter::empty::<(u8, Vec<ProcId>)>()),
            Err(BoardError::NoNodes)
        ));
        assert!(matches!(
            NodePartition::new([(0u8, Vec::<ProcId>::new())]),
            Err(BoardError::EmptyNode { .. })
        ));
        let nine: Vec<ProcId> = (0..9).map(ProcId::new).collect();
        assert!(matches!(
            NodePartition::new([(0u8, nine)]),
            Err(BoardError::TooManyCpusPerNode { cpus: 9, .. })
        ));
        let five: Vec<(u8, Vec<ProcId>)> = (0..5).map(|i| (i, vec![ProcId::new(i)])).collect();
        assert!(matches!(
            NodePartition::new(five),
            Err(BoardError::TooManyNodes { .. })
        ));
    }

    #[test]
    fn filter_drops_control_and_retries() {
        let mut f = AddressFilter::new(FilterConfig::default(), two_node_partition());
        assert!(f.admit(&txn(0, BusOp::Read)));
        assert!(!f.admit(&txn(0, BusOp::Sync)));
        assert!(!f.admit(&txn(0, BusOp::IoRead)));
        assert!(!f.admit(&txn(0, BusOp::Interrupt)));
        let mut retried = txn(0, BusOp::Read);
        retried.resp = SnoopResponse::Retry;
        assert!(!f.admit(&retried));
        let s = f.stats();
        assert_eq!(s.seen, 5);
        assert_eq!(s.forwarded, 1);
        assert_eq!(s.control_filtered, 3);
        assert_eq!(s.retries_filtered, 1);
    }

    #[test]
    fn filter_dma_and_window_options() {
        let cfg = FilterConfig {
            pass_dma: false,
            address_window: Some((Address::new(0x1000), Address::new(0x1fff))),
        };
        let mut f = AddressFilter::new(cfg, two_node_partition());
        assert!(!f.admit(&txn(0, BusOp::DmaWrite)));
        assert_eq!(f.stats().dma_filtered, 1);

        let mut out = txn(0, BusOp::Read);
        out.addr = Address::new(0x2000);
        assert!(!f.admit(&out));
        assert_eq!(f.stats().window_filtered, 1);
        assert!(f.admit(&txn(0, BusOp::Read))); // 0x1000 inside window
    }

    #[test]
    fn event_classification_per_node() {
        let f = AddressFilter::new(FilterConfig::default(), two_node_partition());
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        assert_eq!(
            f.event_for(n0, &txn(0, BusOp::Read)),
            Some(AccessEvent::LocalRead)
        );
        assert_eq!(
            f.event_for(n1, &txn(0, BusOp::Read)),
            Some(AccessEvent::RemoteRead)
        );
        assert_eq!(
            f.event_for(n0, &txn(0, BusOp::Rwitm)),
            Some(AccessEvent::LocalWrite)
        );
        assert_eq!(
            f.event_for(n1, &txn(0, BusOp::DClaim)),
            Some(AccessEvent::RemoteWrite)
        );
        assert_eq!(
            f.event_for(n0, &txn(0, BusOp::WriteBack)),
            Some(AccessEvent::LocalCastout)
        );
        assert_eq!(f.event_for(n1, &txn(0, BusOp::WriteBack)), None);
        assert_eq!(
            f.event_for(n0, &txn(9, BusOp::DmaRead)),
            Some(AccessEvent::IoRead)
        );
        assert_eq!(
            f.event_for(n1, &txn(9, BusOp::DmaWrite)),
            Some(AccessEvent::IoWrite)
        );
        assert_eq!(
            f.event_for(n0, &txn(0, BusOp::Flush)),
            Some(AccessEvent::Flush)
        );
        // Unrelated CPU (id 12 not in any slot).
        assert_eq!(f.event_for(n0, &txn(12, BusOp::Read)), None);
    }
}
