//! Shardable node-controller groups: the unit of parallel emulation.
//!
//! The physical board runs its four node-controller FPGAs in lock step
//! (§3.1); the software model can instead fan the admitted transaction
//! stream out to several [`NodeShard`]s, each owning a disjoint subset of
//! the node controllers, and snoop them on separate threads.
//!
//! Bit-identical parallelism rests on one structural fact: nodes interact
//! only *within* a coherence domain (the remote-summary scan in phase 1
//! is restricted to same-domain siblings, and cross-domain traffic
//! classifies as `Unrelated`). A shard therefore always owns *whole
//! domains* — every same-domain sibling of each of its nodes — so its
//! snoop sees exactly the state the serial board would, and produces
//! exactly the counters and directory transitions the serial board would.
//! [`MemoriesBoard::split`](crate::MemoriesBoard::split) enforces this
//! grouping; the serial board itself is just the single full shard.

use memories_bus::{NodeId, Transaction};
use memories_protocol::{AccessEvent, RemoteSummary};

use crate::filter::NodePartition;
use crate::node::NodeController;
use crate::tagstore::TagProbe;

/// A group of node controllers that snoops the admitted transaction
/// stream independently of every other shard.
///
/// Obtained from [`MemoriesBoard::split`](crate::MemoriesBoard::split);
/// give each shard to one worker thread (it is `Send`: controllers own
/// all their state), feed every admitted transaction to
/// [`NodeShard::snoop`] in stream order, then hand the shards back to
/// [`MemoriesBoard::assemble`](crate::MemoriesBoard::assemble).
#[derive(Clone, Debug)]
pub struct NodeShard {
    /// The full board partition (classification needs global node ids).
    partition: NodePartition,
    /// Global node ids of the members, parallel to `nodes`, ascending.
    indices: Vec<u8>,
    /// The owned controllers.
    nodes: Vec<NodeController>,
}

impl NodeShard {
    pub(crate) fn new(
        partition: NodePartition,
        indices: Vec<u8>,
        nodes: Vec<NodeController>,
    ) -> Self {
        debug_assert_eq!(indices.len(), nodes.len());
        NodeShard {
            partition,
            indices,
            nodes,
        }
    }

    /// Number of node controllers in this shard.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the shard owns no controllers.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The global node ids of this shard's members, ascending.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.indices.iter().map(|i| NodeId::new(*i))
    }

    /// The member with global id `id`, if this shard owns it.
    pub fn node(&self, id: NodeId) -> Option<&NodeController> {
        let pos = self
            .indices
            .iter()
            .position(|i| usize::from(*i) == id.index())?;
        Some(&self.nodes[pos])
    }

    pub(crate) fn node_at(&self, pos: usize) -> &NodeController {
        &self.nodes[pos]
    }

    pub(crate) fn nodes(&self) -> &[NodeController] {
        &self.nodes
    }

    pub(crate) fn nodes_mut(&mut self) -> &mut [NodeController] {
        &mut self.nodes
    }

    pub(crate) fn into_members(self) -> impl Iterator<Item = (u8, NodeController)> {
        self.indices.into_iter().zip(self.nodes)
    }

    /// Copies every member's counter bank as `(global node id, counters)`
    /// pairs — the shard's contribution to a mid-run
    /// [`BoardSnapshot`](crate::BoardSnapshot). Counters only; tag
    /// stores and directories are not touched.
    pub fn counters_snapshot(&self) -> Vec<(u8, crate::NodeCounters)> {
        self.indices
            .iter()
            .zip(&self.nodes)
            .map(|(id, n)| (*id, n.counters().clone()))
            .collect()
    }

    /// Snoops one *admitted* transaction in lock step across this shard's
    /// controllers, exactly as the serial board does: phase 1 classifies
    /// each member and snapshots remote summaries from pre-transaction
    /// directory state (same-domain siblings only), phase 2 applies every
    /// transition. Returns whether any member's buffer overflowed.
    ///
    /// Each member's directory is probed at most once, in phase 1, and
    /// phase 2 applies the member's transition through that probe. The
    /// snoop makes no heap allocation.
    ///
    /// The caller is responsible for admission filtering (the address
    /// filter runs once, on the producer side) and for turning overflow
    /// into a bus retry.
    pub fn snoop(&mut self, txn: &Transaction) -> bool {
        let n = self.nodes.len();
        let mut events: [Option<AccessEvent>; NodeId::MAX_NODES] = [None; NodeId::MAX_NODES];
        let mut domains = [0u8; NodeId::MAX_NODES];
        let mut probes: [Option<TagProbe>; NodeId::MAX_NODES] = [None; NodeId::MAX_NODES];
        let mut summaries = [RemoteSummary::None; NodeId::MAX_NODES];

        // Lock step, phase 1: classify, then probe every member whose
        // domain has an event, from pre-transaction directory state.
        for pos in 0..n {
            let id = NodeId::new(self.indices[pos]);
            domains[pos] = self.partition.domain(id);
            events[pos] = self.partition.event_for(id, txn);
        }
        for pos in 0..n {
            if !(0..n).any(|j| domains[j] == domains[pos] && events[j].is_some()) {
                continue;
            }
            let node = &self.nodes[pos];
            let probe = node.tag_probe(txn.addr);
            summaries[pos] = node.protocol().summarize_state(probe.state());
            probes[pos] = Some(probe);
        }

        // Phase 2: apply transitions, each seeing its same-domain
        // siblings' phase-1 summaries.
        let mut overflow = false;
        for pos in 0..n {
            let (Some(event), Some(probe)) = (events[pos], probes[pos]) else {
                continue;
            };
            let remote = (0..n)
                .filter(|&j| j != pos && domains[j] == domains[pos])
                .map(|j| summaries[j])
                .max()
                .unwrap_or(RemoteSummary::None);
            let outcome =
                self.nodes[pos].apply(event, txn.addr, probe, txn.cycle, remote, txn.resp);
            if !outcome.accepted {
                overflow = true;
            }
        }
        overflow
    }
}

/// Groups the node ids `0..count` into whole-domain clusters, in order of
/// each domain's first node, then deals the clusters round-robin over
/// `shards` piles. Returns the per-pile id lists (empty piles dropped).
pub(crate) fn plan_shards(partition: &NodePartition, shards: usize) -> Vec<Vec<u8>> {
    let count = partition.node_count();
    let mut clusters: Vec<(u8, Vec<u8>)> = Vec::new();
    for i in 0..count {
        let domain = partition.domain(NodeId::new(i as u8));
        match clusters.iter_mut().find(|(d, _)| *d == domain) {
            Some((_, ids)) => ids.push(i as u8),
            None => clusters.push((domain, vec![i as u8])),
        }
    }
    let shards = shards.clamp(1, clusters.len().max(1));
    let mut piles: Vec<Vec<u8>> = vec![Vec::new(); shards];
    for (n, (_, ids)) in clusters.into_iter().enumerate() {
        piles[n % shards].extend(ids);
    }
    piles.retain(|p| !p.is_empty());
    for pile in &mut piles {
        pile.sort_unstable();
    }
    piles
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_bus::ProcId;

    fn partition(domains: &[u8]) -> NodePartition {
        // One distinct CPU per node, to keep shapes valid.
        NodePartition::new(
            domains
                .iter()
                .enumerate()
                .map(|(i, d)| (*d, [ProcId::new(i as u8)])),
        )
        .unwrap()
    }

    #[test]
    fn plan_keeps_domains_whole() {
        // Nodes 0,2 in domain 0; nodes 1,3 in domain 1.
        let p = partition(&[0, 1, 0, 1]);
        let piles = plan_shards(&p, 2);
        assert_eq!(piles, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn plan_clamps_to_cluster_count() {
        let p = partition(&[0, 0, 0, 0]);
        // One domain: everything is one cluster no matter how many shards.
        assert_eq!(plan_shards(&p, 8), vec![vec![0, 1, 2, 3]]);
        // Zero shards is treated as one.
        assert_eq!(plan_shards(&p, 0), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn plan_deals_clusters_round_robin() {
        let p = partition(&[0, 1, 2, 3]);
        assert_eq!(plan_shards(&p, 2), vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(plan_shards(&p, 4), vec![vec![0], vec![1], vec![2], vec![3]]);
    }
}
