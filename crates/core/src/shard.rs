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

use crate::filter::{EventTable, NodePartition};
use crate::node::NodeController;
use crate::tagstore::TagProbe;

/// Transactions per group in [`NodeShard::snoop_block`]: the directory
/// sets of the next group are read before this group is snooped.
const GROUP: usize = 8;

/// A group of node controllers that snoops the admitted transaction
/// stream independently of every other shard.
///
/// Obtained from [`MemoriesBoard::split`](crate::MemoriesBoard::split);
/// give each shard to one worker thread (it is `Send`: controllers own
/// all their state), feed every admitted transaction, with the front
/// end's drop list, to [`NodeShard::snoop_block`] in stream order, then
/// hand the shards back to
/// [`MemoriesBoard::assemble`](crate::MemoriesBoard::assemble).
#[derive(Clone, Debug)]
pub struct NodeShard {
    /// Global node ids of the members, parallel to `nodes`, ascending.
    indices: Vec<u8>,
    /// The owned controllers.
    nodes: Vec<NodeController>,
    /// Per member: the positions of its same-domain members, itself
    /// included, as a bit mask.
    mates: [u8; NodeId::MAX_NODES],
    /// The members' columns of the board's [`EventTable`], row for row.
    events: Vec<Classified>,
}

/// One transaction's classification at a shard's members.
#[derive(Clone, Copy, Debug, Default)]
struct Classified {
    /// The event at each member, by position.
    events: [Option<AccessEvent>; NodeId::MAX_NODES],
    /// The members that probe, as a bit mask of positions: those with a
    /// same-domain member that has an event.
    probing: u8,
}

impl NodeShard {
    pub(crate) fn new(
        partition: &NodePartition,
        table: &EventTable,
        indices: Vec<u8>,
        nodes: Vec<NodeController>,
    ) -> Self {
        debug_assert_eq!(indices.len(), nodes.len());
        let mut mates = [0u8; NodeId::MAX_NODES];
        for (pos, &i) in indices.iter().enumerate() {
            let domain = partition.domain(NodeId::new(i));
            for (j, &k) in indices.iter().enumerate() {
                if partition.domain(NodeId::new(k)) == domain {
                    mates[pos] |= 1 << j;
                }
            }
        }
        let events = table
            .rows()
            .iter()
            .map(|row| {
                let mut c = Classified::default();
                for (pos, &i) in indices.iter().enumerate() {
                    c.events[pos] = row[usize::from(i)];
                }
                let with_event = (0..indices.len())
                    .filter(|&pos| c.events[pos].is_some())
                    .fold(0u8, |m, pos| m | 1 << pos);
                c.probing = (0..indices.len())
                    .filter(|&pos| mates[pos] & with_event != 0)
                    .fold(0u8, |m, pos| m | 1 << pos);
                c
            })
            .collect();
        NodeShard {
            indices,
            nodes,
            mates,
            events,
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

    /// Snoops a block of *admitted* transactions in stream order, each in
    /// lock step across this shard's controllers, exactly as the serial
    /// board does.
    ///
    /// `drops` lists, in ascending index order, the transactions of
    /// `txns` that some node buffers dropped, as `(index, nodes)` pairs
    /// where bit `i` of `nodes` is global node `i` (see
    /// [`BoardFrontEnd::admit`](crate::BoardFrontEnd::admit)). A member
    /// that drops a transaction counts the overflow and skips its
    /// transition; its directory still feeds its siblings' summaries. An
    /// entry with an empty mask drops nothing. The list is empty in
    /// healthy runs.
    ///
    /// The block goes in groups of eight. Before a group is snooped, the
    /// shard reads the directory set each member will search for every
    /// transaction of the *next* group, so those host cache misses are in
    /// flight together instead of one probe at a time (the board's node
    /// controllers likewise keep many SDRAM accesses open through their
    /// transaction buffers, §3.1). The reads change nothing, so the
    /// outcome is that of snooping the transactions one by one.
    ///
    /// Admission filtering, buffer occupancy and retries are the front
    /// end's; the shard only snoops.
    pub fn snoop_block(&mut self, txns: &[Transaction], drops: &[(usize, u8)]) {
        let mut drops = drops.iter().peekable();
        let mut groups = txns.chunks(GROUP);
        let mut next = groups.next();
        let mut start = 0;
        while let Some(group) = next {
            next = groups.next();
            if let Some(ahead) = next {
                std::hint::black_box(self.read_sets(ahead));
            }
            for (i, txn) in group.iter().enumerate() {
                let dropped = drops.next_if(|d| d.0 == start + i).map_or(0, |d| d.1);
                self.snoop_one(txn, dropped);
            }
            start += group.len();
        }
    }

    /// Reads the directory set that every member which probes a
    /// transaction of `group` will search, and folds the words read into
    /// one value so the reads stay in the program.
    fn read_sets(&self, group: &[Transaction]) -> u64 {
        let mut sink = 0;
        for txn in group {
            let mut probing = self.events[EventTable::index(txn)].probing;
            while probing != 0 {
                let pos = probing.trailing_zeros() as usize;
                sink ^= self.nodes[pos].read_tag_set(txn.addr);
                probing &= probing - 1;
            }
        }
        sink
    }

    /// One transaction in lock step: phase 1 looks up the transaction's
    /// classification at every member and snapshots remote summaries from
    /// pre-transaction directory state (same-domain siblings only), phase
    /// 2 applies every transition except at the members whose global id
    /// is set in `dropped`, which count the drop instead.
    ///
    /// Each member's directory is probed at most once, in phase 1, and
    /// phase 2 applies the member's transition through that probe. The
    /// snoop makes no heap allocation.
    fn snoop_one(&mut self, txn: &Transaction, dropped: u8) {
        let n = self.nodes.len();
        let Classified { events, probing } = self.events[EventTable::index(txn)];
        let mut probes: [Option<TagProbe>; NodeId::MAX_NODES] = [None; NodeId::MAX_NODES];
        let mut summaries = [RemoteSummary::None; NodeId::MAX_NODES];

        // Lock step, phase 1: probe every member whose domain has an
        // event, from pre-transaction directory state.
        for pos in 0..n {
            if probing & 1 << pos == 0 {
                continue;
            }
            let node = &self.nodes[pos];
            let probe = node.tag_probe(txn.addr);
            summaries[pos] = node.protocol().summarize_state(probe.state());
            probes[pos] = Some(probe);
        }

        // Phase 2: apply transitions, each seeing its same-domain
        // siblings' phase-1 summaries.
        for pos in 0..n {
            let (Some(event), Some(probe)) = (events[pos], probes[pos]) else {
                continue;
            };
            if dropped != 0 && dropped & 1 << self.indices[pos] != 0 {
                self.nodes[pos].count_dropped();
                continue;
            }
            let mut siblings = self.mates[pos] & !(1 << pos);
            let mut remote = RemoteSummary::None;
            while siblings != 0 {
                remote = remote.max(summaries[siblings.trailing_zeros() as usize]);
                siblings &= siblings - 1;
            }
            self.nodes[pos].apply(event, txn.addr, probe, remote, txn.resp);
        }
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
    use crate::board::tests::random_board;
    use crate::{
        BoardConfig, BoardFrontEnd, CacheParams, MemoriesBoard, NodeCounter, NodeSlot, TimingConfig,
    };
    use memories_bus::{Address, BusOp, ProcId, SnoopResponse};

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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every shard's columns are its members' columns of the board's
        /// event table, and a shard probes exactly the members with a
        /// same-domain member that has an event.
        #[test]
        fn shard_columns_equal_the_board_table(
            slots in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(0u8..12, 1..5)),
                1..5,
            ),
            remotes in proptest::collection::vec(
                (0usize..4, proptest::collection::vec(0u8..16, 1..4)),
                0..3,
            ),
            shards in 1usize..5,
        ) {
            let board = MemoriesBoard::new(random_board(&slots, &remotes)).unwrap();
            let partition = board.filter().partition().clone();
            let (front, split) = board.split(shards);
            for (index, row) in front.events.rows().iter().enumerate() {
                for shard in &split {
                    let c = shard.events[index];
                    for (pos, &i) in shard.indices.iter().enumerate() {
                        proptest::prop_assert_eq!(c.events[pos], row[usize::from(i)]);
                        let probes = shard.indices.iter().any(|&k| {
                            partition.domain(NodeId::new(k)) == partition.domain(NodeId::new(i))
                                && row[usize::from(k)].is_some()
                        });
                        proptest::prop_assert_eq!(c.probing & 1 << pos != 0, probes);
                    }
                    for pos in shard.len()..NodeId::MAX_NODES {
                        proptest::prop_assert_eq!(c.events[pos], None);
                        proptest::prop_assert_eq!(c.probing & 1 << pos, 0);
                    }
                }
            }
        }
    }

    /// Two two-node domains behind 2-entry buffers, as one shard, and the
    /// front end that decides its drops.
    fn overflowing_board() -> (BoardFrontEnd, NodeShard) {
        let params = CacheParams::builder()
            .capacity(4096)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap();
        let slot = |cpus: std::ops::Range<u8>, domain| {
            NodeSlot::new(params, cpus.map(ProcId::new)).in_domain(domain)
        };
        let mut cfg = BoardConfig::from_slots(vec![
            slot(0..2, 0),
            slot(2..4, 0),
            slot(0..2, 1),
            slot(2..4, 1),
        ])
        .unwrap();
        cfg.timing = TimingConfig { buffer_capacity: 2 };
        let (front, mut shards) = MemoriesBoard::new(cfg).unwrap().split(1);
        (front, shards.pop().unwrap())
    }

    #[test]
    fn block_snoop_with_a_drop_list_equals_per_transaction_snoops() {
        // 8k + 3 transactions in same-cycle bursts of five, with DMA mixed in.
        let ops = [
            BusOp::Read,
            BusOp::Rwitm,
            BusOp::DClaim,
            BusOp::WriteBack,
            BusOp::DmaWrite,
        ];
        let txns: Vec<Transaction> = (0..8 * 64 + 3u64)
            .map(|i| {
                Transaction::new(
                    i,
                    i / 5 * 40,
                    ProcId::new((i * 3 % 4) as u8),
                    ops[(i % 5) as usize],
                    Address::new(i * 11 % 96 * 128),
                    SnoopResponse::Null,
                )
            })
            .collect();

        let (mut front, mut single) = overflowing_board();
        let mut block = single.clone();
        let mut drops = Vec::new();
        for (i, t) in txns.iter().enumerate() {
            let dropped = front.admit(t).expect("every transaction is admitted");
            single.snoop_block(std::slice::from_ref(t), &[(0, dropped)]);
            if dropped != 0 {
                drops.push((i, dropped));
            }
        }
        block.snoop_block(&txns, &drops);

        assert!(
            !drops.is_empty() && drops.len() < txns.len(),
            "test needs some drops"
        );
        let dropped_events: u64 = drops.iter().map(|d| u64::from(d.1.count_ones())).sum();
        let overflows: u64 = (0..block.len())
            .map(|pos| {
                block
                    .node_at(pos)
                    .counters()
                    .get(NodeCounter::BufferOverflows)
            })
            .sum();
        assert_eq!(overflows, dropped_events);
        for pos in 0..block.len() {
            let (a, b) = (single.node_at(pos), block.node_at(pos));
            assert_eq!(a.counters(), b.counters(), "member {pos}");
            assert!(
                a.counters().get(NodeCounter::RemoteWritesSeen) > 0,
                "member {pos}"
            );
            for t in &txns {
                assert_eq!(
                    a.probe(t.addr),
                    b.probe(t.addr),
                    "member {pos} at {:?}",
                    t.addr
                );
            }
        }
    }
}
