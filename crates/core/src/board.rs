//! The assembled MemorIES board.

use std::fmt;

use memories_bus::{
    BusListener, BusOp, ListenerReaction, NodeId, ProcId, Transaction, TransactionBlock,
};
use memories_protocol::{standard, ProtocolTable};

use crate::counters::Counter40;
use crate::error::BoardError;
use crate::filter::{AddressFilter, EventTable, FilterConfig, NodePartition};
use crate::node::NodeController;
use crate::params::CacheParams;
use crate::shard::{plan_shards, NodeShard};
use crate::timing::{TimingConfig, TransactionBuffer};

/// Configuration of one emulated shared-cache node (one node-controller
/// FPGA plus its SDRAM and protocol table).
#[derive(Clone, Debug)]
pub struct NodeSlot {
    /// Cache parameters (Table 2).
    pub params: CacheParams,
    /// The coherence protocol loaded into this controller. Different
    /// slots may carry different protocols (§3.2).
    pub protocol: ProtocolTable,
    /// Coherence domain: slots sharing a domain form one emulated target
    /// machine; distinct domains are independent parallel experiments
    /// (Figure 4).
    pub domain: u8,
    /// The host CPUs whose traffic is local to this node.
    pub cpus: Vec<ProcId>,
    /// Extra CPUs whose traffic is *remote* to this node's domain even
    /// though no configured slot owns them — used when the emulated
    /// target machine has more nodes than the board's four controllers.
    pub remote_cpus: Vec<ProcId>,
}

impl NodeSlot {
    /// Creates a slot with the MESI protocol in domain 0.
    pub fn new<I: IntoIterator<Item = ProcId>>(params: CacheParams, cpus: I) -> Self {
        NodeSlot {
            params,
            protocol: standard::mesi(),
            domain: 0,
            cpus: cpus.into_iter().collect(),
            remote_cpus: Vec::new(),
        }
    }

    /// Marks extra CPUs as remote members of this slot's domain.
    #[must_use]
    pub fn with_remote_cpus<I: IntoIterator<Item = ProcId>>(mut self, cpus: I) -> Self {
        self.remote_cpus = cpus.into_iter().collect();
        self
    }

    /// Replaces the protocol table.
    #[must_use]
    pub fn with_protocol(mut self, protocol: ProtocolTable) -> Self {
        self.protocol = protocol;
        self
    }

    /// Places the slot in a coherence domain.
    #[must_use]
    pub fn in_domain(mut self, domain: u8) -> Self {
        self.domain = domain;
        self
    }
}

/// Full board configuration: up to four node slots plus filter and timing
/// settings.
#[derive(Clone, Debug)]
pub struct BoardConfig {
    /// The node slots, in node-id order.
    pub slots: Vec<NodeSlot>,
    /// The address filter, whose behaviour is fixed (see [`FilterConfig`]).
    pub filter: FilterConfig,
    /// SDRAM/buffer timing settings.
    pub timing: TimingConfig,
    /// Whether a full node buffer posts a bus retry (the board's real
    /// behaviour) or silently drops the event. The board's one retry
    /// switch.
    pub allow_retry: bool,
}

impl BoardConfig {
    /// A single emulated node covering `cpus` (Figure 3's single-node L3
    /// emulation), with MESI.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] if the slot is invalid.
    pub fn single_node<I: IntoIterator<Item = ProcId>>(
        params: CacheParams,
        cpus: I,
    ) -> Result<Self, BoardError> {
        BoardConfig::from_slots(vec![NodeSlot::new(params, cpus)])
    }

    /// Multiple nodes of one target machine: `partitions[i]` lists the
    /// CPUs local to node `i`; all nodes share `params`, MESI, domain 0.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] if the partitioning is invalid.
    pub fn multi_node(
        params: CacheParams,
        partitions: Vec<Vec<ProcId>>,
    ) -> Result<Self, BoardError> {
        BoardConfig::from_slots(
            partitions
                .into_iter()
                .map(|cpus| NodeSlot::new(params, cpus))
                .collect(),
        )
    }

    /// Parallel evaluation of several cache configurations over the *same*
    /// CPUs (Figure 4): each configuration gets its own coherence domain.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] if there are more configurations than node
    /// controllers.
    pub fn parallel_configs(
        configs: Vec<CacheParams>,
        cpus: Vec<ProcId>,
    ) -> Result<Self, BoardError> {
        BoardConfig::from_slots(
            configs
                .into_iter()
                .enumerate()
                .map(|(i, params)| NodeSlot::new(params, cpus.clone()).in_domain(i as u8))
                .collect(),
        )
    }

    /// Builds a configuration from explicit slots.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::TooManyNodes`] / [`BoardError::NoNodes`] for
    /// a bad slot count (per-slot validation happens at board build).
    pub fn from_slots(slots: Vec<NodeSlot>) -> Result<Self, BoardError> {
        if slots.is_empty() {
            return Err(BoardError::NoNodes);
        }
        if slots.len() > NodeId::MAX_NODES {
            return Err(BoardError::TooManyNodes {
                requested: slots.len(),
            });
        }
        Ok(BoardConfig {
            slots,
            filter: FilterConfig,
            timing: TimingConfig::default(),
            allow_retry: true,
        })
    }
}

/// The global events counter FPGA: bus-level counters and run span.
#[derive(Clone, Debug, Default)]
pub struct GlobalCounters {
    transactions: Counter40,
    by_op: [Counter40; BusOp::ALL.len()],
    first_cycle: Option<u64>,
    last_cycle: u64,
}

impl GlobalCounters {
    /// Records one raw bus transaction.
    pub fn observe(&mut self, txn: &Transaction) {
        self.transactions.incr();
        self.by_op[txn.op.index()].incr();
        self.first_cycle = Some(match self.first_cycle {
            Some(c) => c.min(txn.cycle),
            None => txn.cycle,
        });
        self.last_cycle = self.last_cycle.max(txn.cycle);
    }

    /// Folds another bank into this one.
    ///
    /// Every field is a commutative monoid (counts sum with saturation,
    /// the run span takes min/max), so observing a transaction stream in
    /// arbitrary disjoint pieces and merging gives bit-identical counters
    /// to observing it serially — the property the parallel engine's
    /// barrier merge relies on.
    pub fn merge(&mut self, other: &GlobalCounters) {
        self.transactions.merge(other.transactions);
        for (mine, theirs) in self.by_op.iter_mut().zip(&other.by_op) {
            mine.merge(*theirs);
        }
        self.first_cycle = match (self.first_cycle, other.first_cycle) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_cycle = self.last_cycle.max(other.last_cycle);
    }

    /// Total transactions observed (before filtering).
    pub fn transactions(&self) -> u64 {
        self.transactions.value()
    }

    /// Transactions of one kind.
    pub fn count(&self, op: BusOp) -> u64 {
        self.by_op[op.index()].value()
    }

    /// Whether any global counter saturated (the 40-bit ceiling).
    pub fn any_saturated(&self) -> bool {
        self.transactions.saturated() || self.by_op.iter().any(|c| c.saturated())
    }

    /// Bus cycle of the first observed transaction (`None` before any).
    pub fn first_cycle(&self) -> Option<u64> {
        self.first_cycle
    }

    /// Bus cycle of the most recent observed transaction (0 before any).
    pub fn last_cycle(&self) -> u64 {
        self.last_cycle
    }

    /// Bus cycles between the first and last observed transaction.
    pub fn observed_span_cycles(&self) -> u64 {
        self.last_cycle - self.first_cycle.unwrap_or(self.last_cycle)
    }

    /// Zeroes everything.
    pub fn reset(&mut self) {
        *self = GlobalCounters::default();
    }
}

/// The board's bus-facing stage: address filter, global event counters,
/// every node's transaction buffer, and retry accounting.
///
/// On the board the buffers sit between the bus and the cache control
/// logic, and a full one makes the address filter post a retry during the
/// address tenure, before any tag is read (§3.3). The front end works the
/// same way. Buffer occupancy depends only on arrival cycles and on which
/// nodes a transaction makes an event at, never on cache contents, so the
/// front end decides alone, per admitted transaction, which nodes drop it
/// and whether a retry is posted. The node shards behind it only apply
/// the drops they are told about.
///
/// [`MemoriesBoard::split`] separates a board into one front end plus
/// node shards. The front end stays with the transaction producer: it
/// observes and admits each raw transaction exactly once, so filter,
/// global and retry statistics are those of a serial run however many
/// shards snoop behind it.
#[derive(Clone, Debug)]
pub struct BoardFrontEnd {
    filter: AddressFilter,
    global: GlobalCounters,
    /// One transaction buffer per node, in node-id order.
    buffers: Vec<TransactionBuffer>,
    /// The classification of the filter's partition.
    pub(crate) events: EventTable,
    allow_retry: bool,
    retries_posted: u64,
}

impl BoardFrontEnd {
    /// Observes one raw bus transaction and, if the filter admits it,
    /// offers it to the buffer of every node it makes an event at
    /// ([`NodePartition::event_for`]).
    ///
    /// Returns `None` if the filter drops the transaction. Otherwise
    /// returns the nodes whose full buffer drops the event, as a bit mask
    /// with bit `i` for node `i`: 0 in healthy runs. A transaction that
    /// any buffer drops counts one posted retry if the board posts them.
    pub fn admit(&mut self, txn: &Transaction) -> Option<u8> {
        self.global.observe(txn);
        if !self.filter.admit(txn) {
            return None;
        }
        let nodes = self.events.nodes(txn);
        let mut dropped = 0u8;
        for (i, buffer) in self.buffers.iter_mut().enumerate() {
            if nodes & 1 << i != 0 && !buffer.arrive(txn.cycle) {
                dropped |= 1 << i;
            }
        }
        if dropped != 0 && self.allow_retry {
            self.retries_posted += 1;
        }
        Some(dropped)
    }

    /// [`BoardFrontEnd::admit`] without the drop mask: returns whether the
    /// transaction is admitted to the node controllers.
    pub fn observe(&mut self, txn: &Transaction) -> bool {
        self.admit(txn).is_some()
    }

    /// Admits a whole raw block **in place**: every transaction passes
    /// through [`BoardFrontEnd::admit`] exactly once, and the block is
    /// left holding only the admitted ones, in stream order, with no
    /// allocation. For each kept transaction that some buffer dropped,
    /// `(its index in the filtered block, drop mask)` is pushed on
    /// `drops`, ready for [`NodeShard::snoop_block`].
    pub fn admit_block(&mut self, block: &mut TransactionBlock, drops: &mut Vec<(usize, u8)>) {
        let mut kept = 0;
        block.retain(|txn| {
            let Some(dropped) = self.admit(txn) else {
                return false;
            };
            if dropped != 0 {
                drops.push((kept, dropped));
            }
            kept += 1;
            true
        });
    }

    /// [`BoardFrontEnd::admit_block`] for a caller that snoops nothing:
    /// the drops are counted as retries and otherwise discarded.
    pub fn filter_block(&mut self, block: &mut TransactionBlock) {
        self.admit_block(block, &mut Vec::new());
    }

    /// Retries posted so far.
    pub fn retries_posted(&self) -> u64 {
        self.retries_posted
    }

    /// The address filter (partition and filter statistics).
    pub fn filter(&self) -> &AddressFilter {
        &self.filter
    }

    /// The global event counters.
    pub fn global(&self) -> &GlobalCounters {
        &self.global
    }
}

/// The MemorIES board: address filter, global event counters, and up to
/// four lock-stepped node controllers.
///
/// The board is a [`BusListener`]: attach it to a host machine's bus and
/// it passively emulates its configured caches over the live transaction
/// stream. Its only possible effect on the host is the buffer-overflow
/// retry (§3.3/§3.4), surfaced as [`ListenerReaction::Retry`] and counted.
/// The front end decides the retry when it admits the transaction, before
/// the snoop.
///
/// Lock-step semantics (§3.1): for each admitted transaction, all remote
/// summaries are computed from the *pre-transaction* directory states,
/// then every node controller applies its transition — matching the
/// hardware, where the four FPGAs run in lock step.
///
/// Internally the board is a [`BoardFrontEnd`] (filter, global counters
/// and transaction buffers) in front of a single [`NodeShard`] holding
/// every controller; the snoop path is *the same code* the engine runs
/// per shard in both of its modes, and [`MemoriesBoard::split`] /
/// [`MemoriesBoard::assemble`] convert between the two shapes losslessly.
pub struct MemoriesBoard {
    front: BoardFrontEnd,
    shard: NodeShard,
    /// The raw chunk in hand, admitted in place, reused across blocks.
    block: TransactionBlock,
    /// The drop list of `block`, reused likewise.
    drops: Vec<(usize, u8)>,
}

/// Raw transactions [`MemoriesBoard::observe_block`] admits at a time
/// before snooping what it admitted, which bounds its scratch block.
const ADMIT_CHUNK: usize = 1024;

impl MemoriesBoard {
    /// Builds a board from its configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] for invalid slot shapes or parameters.
    pub fn new(config: BoardConfig) -> Result<Self, BoardError> {
        let mut partition = NodePartition::new(
            config
                .slots
                .iter()
                .map(|s| (s.domain, s.cpus.iter().copied())),
        )?;
        for slot in &config.slots {
            if !slot.remote_cpus.is_empty() {
                partition.add_domain_remotes(slot.domain, slot.remote_cpus.iter().copied());
            }
        }
        let nodes: Vec<NodeController> = config
            .slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                NodeController::new(NodeId::new(i as u8), slot.params, slot.protocol.clone())
            })
            .collect();
        let indices = (0..nodes.len() as u8).collect();
        let events = EventTable::new(&partition);
        let buffers = vec![TransactionBuffer::new(&config.timing); nodes.len()];
        let shard = NodeShard::new(&partition, &events, indices, nodes);
        Ok(MemoriesBoard {
            front: BoardFrontEnd {
                filter: AddressFilter::new(partition),
                global: GlobalCounters::default(),
                buffers,
                events,
                allow_retry: config.allow_retry,
                retries_posted: 0,
            },
            shard,
            block: TransactionBlock::with_capacity(ADMIT_CHUNK),
            drops: Vec::new(),
        })
    }

    /// Separates the board into its bus-facing front end and `shards`
    /// independent node groups for parallel snooping.
    ///
    /// Shards own whole coherence domains (see [`NodeShard`]), so the
    /// effective shard count is capped at the number of domains; at least
    /// one shard is always returned. Feed every transaction through
    /// [`BoardFrontEnd::admit`] once, give each admitted transaction and
    /// its drop mask to *every* shard's [`NodeShard::snoop_block`] in
    /// stream order, then rebuild the board with
    /// [`MemoriesBoard::assemble`].
    pub fn split(self, shards: usize) -> (BoardFrontEnd, Vec<NodeShard>) {
        let partition = self.front.filter.partition();
        let piles = plan_shards(partition, shards);
        let mut members: Vec<Option<NodeController>> =
            self.shard.into_members().map(|(_, n)| Some(n)).collect();
        let shards = piles
            .into_iter()
            .map(|ids| {
                let nodes = ids
                    .iter()
                    .map(|i| {
                        members[usize::from(*i)]
                            .take()
                            .expect("plan_shards assigns each node exactly once")
                    })
                    .collect();
                NodeShard::new(partition, &self.front.events, ids, nodes)
            })
            .collect();
        (self.front, shards)
    }

    /// Reassembles a board from a front end and the shards produced by
    /// [`MemoriesBoard::split`] (in any order).
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::ShardAssembly`] if the shards do not cover
    /// the front end's partition exactly (a node missing, duplicated, or
    /// foreign).
    pub fn assemble(front: BoardFrontEnd, shards: Vec<NodeShard>) -> Result<Self, BoardError> {
        let count = front.filter.partition().node_count();
        let mut slots: Vec<Option<NodeController>> = (0..count).map(|_| None).collect();
        for shard in shards {
            for (id, node) in shard.into_members() {
                let slot =
                    slots
                        .get_mut(usize::from(id))
                        .ok_or_else(|| BoardError::ShardAssembly {
                            detail: format!(
                                "shard carries node{id} outside the {count}-node board"
                            ),
                        })?;
                if slot.replace(node).is_some() {
                    return Err(BoardError::ShardAssembly {
                        detail: format!("node{id} appears in two shards"),
                    });
                }
            }
        }
        let nodes: Vec<NodeController> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.ok_or_else(|| BoardError::ShardAssembly {
                    detail: format!("node{i} missing from the assembled shards"),
                })
            })
            .collect::<Result<_, _>>()?;
        let indices = (0..nodes.len() as u8).collect();
        let shard = NodeShard::new(front.filter.partition(), &front.events, indices, nodes);
        Ok(MemoriesBoard {
            front,
            shard,
            block: TransactionBlock::with_capacity(ADMIT_CHUNK),
            drops: Vec::new(),
        })
    }

    /// The address filter (partition and filter statistics).
    pub fn filter(&self) -> &AddressFilter {
        self.front.filter()
    }

    /// The global event counters.
    pub fn global(&self) -> &GlobalCounters {
        self.front.global()
    }

    /// Number of configured nodes.
    pub fn node_count(&self) -> usize {
        self.shard.len()
    }

    /// One node controller.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a configured node.
    pub fn node(&self, id: NodeId) -> &NodeController {
        self.shard.node_at(id.index())
    }

    /// Iterates over the node controllers.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeController> {
        self.shard.nodes().iter()
    }

    /// Retries the board posted on the bus (should stay zero in healthy
    /// runs — §3.3).
    pub fn retries_posted(&self) -> u64 {
        self.front.retries_posted
    }

    /// A point-in-time copy of every counter the console can read while
    /// the workload keeps running — the live-monitoring primitive (§3's
    /// "counters readable while the workload runs"). Copies counters
    /// only; directories and tag stores are untouched, so a snapshot
    /// never perturbs the emulation.
    pub fn snapshot(&self) -> crate::snapshot::BoardSnapshot {
        crate::snapshot::BoardSnapshot {
            global: self.front.global.clone(),
            filter: *self.front.filter.stats(),
            retries_posted: self.front.retries_posted,
            nodes: self
                .shard
                .nodes()
                .iter()
                .map(|n| n.counters().clone())
                .collect(),
        }
    }

    /// Renders a full statistics report — the console software's
    /// statistics-extraction dump: global transaction counts, filter
    /// activity, and every node's derived statistics and raw counters.
    pub fn statistics_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "board: {} bus transactions observed over {} cycles, {} retries posted",
            self.front.global.transactions(),
            self.front.global.observed_span_cycles(),
            self.front.retries_posted
        )
        .expect("writing to String cannot fail");
        writeln!(out, "{}", self.front.filter.stats()).expect("infallible");
        for node in self.shard.nodes() {
            let c = node.counters();
            writeln!(
                out,
                "\n{} [{} | {}]: {} refs, miss ratio {:.4} (cold {:.2}%), interventions {}shr/{}mod",
                node.id(),
                node.params(),
                node.protocol().name(),
                c.demand_references(),
                c.miss_ratio(),
                c.cold_fraction() * 100.0,
                c.interventions_shared(),
                c.interventions_modified()
            )
            .expect("infallible");
            write!(out, "{c}").expect("infallible");
        }
        out
    }

    /// Clears all statistics (global, filter, and node counters) while
    /// preserving emulated cache contents — the console's
    /// statistics-extraction reset.
    pub fn reset_statistics(&mut self) {
        self.front.global.reset();
        self.front.filter.reset_stats();
        for n in self.shard.nodes_mut() {
            n.reset_counters();
        }
        self.front.retries_posted = 0;
    }

    fn observe(&mut self, txn: &Transaction) -> ListenerReaction {
        let Some(dropped) = self.front.admit(txn) else {
            return ListenerReaction::Proceed;
        };
        self.shard
            .snoop_block(std::slice::from_ref(txn), &[(0, dropped)]);
        self.reaction(dropped != 0)
    }

    /// The bus reaction after a transaction or block of which some buffer
    /// `dropped` an event, or none did.
    fn reaction(&self, dropped: bool) -> ListenerReaction {
        if dropped && self.front.allow_retry {
            ListenerReaction::Retry
        } else {
            ListenerReaction::Proceed
        }
    }

    /// Batched ingest: observes every transaction of `txns` in stream
    /// order through the same admit/snoop pipeline as
    /// [`BusListener::on_transaction`] — counters, tag directories, and
    /// retry accounting are bit-identical — with one virtual call per
    /// block instead of one per transaction.
    ///
    /// Returns [`ListenerReaction::Retry`] if any transaction in the block
    /// overflowed a node buffer (and the board is configured to post
    /// retries). The reaction necessarily covers the block as a whole:
    /// batched delivery trades per-transaction retry feedback for
    /// throughput, which §3.3 reports is how the board behaved in practice
    /// (no retry ever posted in months of lab use).
    pub fn observe_block(&mut self, txns: &[Transaction]) -> ListenerReaction {
        let mut any_dropped = false;
        for chunk in txns.chunks(ADMIT_CHUNK) {
            self.block.clear();
            for txn in chunk {
                self.block.push(*txn);
            }
            self.drops.clear();
            self.front.admit_block(&mut self.block, &mut self.drops);
            any_dropped |= !self.drops.is_empty();
            self.shard.snoop_block(&self.block, &self.drops);
        }
        self.reaction(any_dropped)
    }
}

impl BusListener for MemoriesBoard {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        self.observe(txn)
    }

    fn on_block(&mut self, block: &TransactionBlock) -> ListenerReaction {
        self.observe_block(block.as_slice())
    }
}

impl fmt::Debug for MemoriesBoard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoriesBoard")
            .field("nodes", &self.shard.nodes())
            .field("transactions", &self.front.global.transactions())
            .field("retries_posted", &self.front.retries_posted)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::counters::NodeCounter;
    use memories_bus::{Address, SnoopResponse};
    use memories_protocol::StateId;

    fn params(capacity: u64) -> CacheParams {
        CacheParams::builder()
            .capacity(capacity)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap()
    }

    fn txn(seq: u64, proc: u8, op: BusOp, addr: u64) -> Transaction {
        // Space transactions out in time so buffers drain.
        Transaction::new(
            seq,
            seq * 60,
            ProcId::new(proc),
            op,
            Address::new(addr),
            SnoopResponse::Null,
        )
    }

    #[test]
    fn single_node_counts_demand_traffic() {
        let cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        b.on_transaction(&txn(0, 0, BusOp::Read, 0x0));
        b.on_transaction(&txn(1, 1, BusOp::Read, 0x0));
        b.on_transaction(&txn(2, 2, BusOp::Rwitm, 0x1000));
        let s = b.node(NodeId::new(0)).counters();
        assert_eq!(s.demand_references(), 3);
        assert_eq!(s.demand_misses(), 2);
        assert_eq!(s.demand_hits(), 1);
        assert_eq!(b.global().transactions(), 3);
    }

    #[test]
    fn control_traffic_never_reaches_nodes() {
        let cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        b.on_transaction(&txn(0, 0, BusOp::Sync, 0x0));
        b.on_transaction(&txn(1, 0, BusOp::IoWrite, 0x0));
        b.on_transaction(&txn(2, 0, BusOp::Interrupt, 0x0));
        assert_eq!(b.node(NodeId::new(0)).counters().demand_references(), 0);
        assert_eq!(b.global().transactions(), 3);
        assert_eq!(b.filter().stats().control_filtered, 3);
    }

    #[test]
    fn multi_node_remote_traffic_invalidates() {
        let cfg = BoardConfig::multi_node(
            params(4096),
            vec![
                (0..4).map(ProcId::new).collect(),
                (4..8).map(ProcId::new).collect(),
            ],
        )
        .unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        // CPU 0 (node 0) writes a line; CPU 4 (node 1) then writes it.
        b.on_transaction(&txn(0, 0, BusOp::Rwitm, 0x2000));
        assert!(!b
            .node(NodeId::new(0))
            .probe(Address::new(0x2000))
            .is_invalid());
        b.on_transaction(&txn(1, 4, BusOp::Rwitm, 0x2000));
        assert!(b
            .node(NodeId::new(0))
            .probe(Address::new(0x2000))
            .is_invalid());
        assert!(!b
            .node(NodeId::new(1))
            .probe(Address::new(0x2000))
            .is_invalid());
        let n0 = b.node(NodeId::new(0)).counters();
        assert_eq!(n0.get(NodeCounter::RemoteInvalidations), 1);
        assert_eq!(n0.interventions_modified(), 1);
    }

    #[test]
    fn remote_summary_feeds_fill_state() {
        // With MESI, a read miss while another node holds the line shared
        // must fill S, not E.
        let cfg = BoardConfig::multi_node(
            params(4096),
            vec![
                (0..4).map(ProcId::new).collect(),
                (4..8).map(ProcId::new).collect(),
            ],
        )
        .unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        b.on_transaction(&txn(0, 0, BusOp::Read, 0x3000)); // node0: E
        b.on_transaction(&txn(1, 4, BusOp::Read, 0x3000)); // node1 sees remote Shared
        let n1 = b.node(NodeId::new(1));
        let state = n1.probe(Address::new(0x3000));
        assert_eq!(n1.protocol().state_name(state), "S");
        // And node0 was downgraded by the remote read.
        let n0 = b.node(NodeId::new(0));
        assert_eq!(
            n0.protocol().state_name(n0.probe(Address::new(0x3000))),
            "S"
        );
    }

    #[test]
    fn parallel_configs_are_isolated() {
        // Figure 4 mode: same CPUs, two cache sizes, independent domains.
        let cfg = BoardConfig::parallel_configs(
            vec![params(4096), params(8192)],
            (0..8).map(ProcId::new).collect(),
        )
        .unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        for i in 0..64u64 {
            b.on_transaction(&txn(i, (i % 8) as u8, BusOp::Read, i * 128));
        }
        let s0 = b.node(NodeId::new(0)).counters();
        let s1 = b.node(NodeId::new(1)).counters();
        // Both nodes saw every reference as local demand traffic.
        assert_eq!(s0.demand_references(), 64);
        assert_eq!(s1.demand_references(), 64);
        // No cross-domain interventions or invalidations.
        assert_eq!(s0.get(NodeCounter::RemoteReadsSeen), 0);
        assert_eq!(s1.get(NodeCounter::RemoteReadsSeen), 0);
        // The bigger cache can only do better.
        assert!(s1.demand_misses() <= s0.demand_misses());
    }

    #[test]
    fn identical_parallel_configs_agree_exactly() {
        let cfg = BoardConfig::parallel_configs(
            vec![params(4096), params(4096)],
            (0..8).map(ProcId::new).collect(),
        )
        .unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        for i in 0..500u64 {
            let op = match i % 3 {
                0 => BusOp::Read,
                1 => BusOp::Rwitm,
                _ => BusOp::WriteBack,
            };
            b.on_transaction(&txn(i, (i % 8) as u8, op, (i * 7 % 64) * 128));
        }
        let s0 = b.node(NodeId::new(0)).counters();
        let s1 = b.node(NodeId::new(1)).counters();
        assert_eq!(s0, s1);
    }

    #[test]
    fn board_posts_retry_only_on_overflow() {
        let mut cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        cfg.timing = TimingConfig { buffer_capacity: 4 };
        let mut b = MemoriesBoard::new(cfg).unwrap();
        // Back-to-back transactions in the same cycle overflow a 4-deep
        // buffer.
        let mut retried = false;
        for i in 0..16u64 {
            let t = Transaction::new(
                i,
                0,
                ProcId::new(0),
                BusOp::Read,
                Address::new(i * 128),
                SnoopResponse::Null,
            );
            if b.on_transaction(&t) == ListenerReaction::Retry {
                retried = true;
            }
        }
        assert!(retried);
        assert!(b.retries_posted() > 0);
    }

    #[test]
    fn buffer_overflow_drops_events() {
        let mut cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        cfg.timing = TimingConfig { buffer_capacity: 2 };
        let mut b = MemoriesBoard::new(cfg).unwrap();
        // All arrivals in the same cycle: only 2 fit.
        let mut retried = 0;
        for i in 0..5u64 {
            let t = Transaction::new(
                i,
                0,
                ProcId::new(0),
                BusOp::Read,
                Address::new(i * 128),
                SnoopResponse::Null,
            );
            if b.on_transaction(&t) == ListenerReaction::Retry {
                retried += 1;
            }
        }
        assert_eq!(retried, 3);
        assert_eq!(b.retries_posted(), 3);
        let n = b.node(NodeId::new(0));
        assert_eq!(n.counters().get(NodeCounter::BufferOverflows), 3);
        assert_eq!(n.counters().get(NodeCounter::EventsDropped), 3);
        // Dropped events changed no cache state.
        assert_eq!(n.tag_store().resident_lines(), 2);
    }

    #[test]
    fn board_never_retries_at_paper_utilization() {
        let cfg = BoardConfig::single_node(params(65536), (0..8).map(ProcId::new)).unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        // 20% utilization spacing (60 cycles between 12-cycle txns).
        for i in 0..50_000u64 {
            let t = txn(i, (i % 8) as u8, BusOp::Read, (i % 512) * 128);
            assert_eq!(b.on_transaction(&t), ListenerReaction::Proceed);
        }
        assert_eq!(b.retries_posted(), 0);
    }

    #[test]
    fn reset_statistics_preserves_directories() {
        let cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        b.on_transaction(&txn(0, 0, BusOp::Read, 0x0));
        b.reset_statistics();
        assert_eq!(b.global().transactions(), 0);
        assert_eq!(b.node(NodeId::new(0)).counters().demand_references(), 0);
        assert_ne!(
            b.node(NodeId::new(0)).probe(Address::new(0x0)),
            StateId::INVALID
        );
    }

    #[test]
    fn statistics_report_covers_every_node() {
        let cfg = BoardConfig::parallel_configs(
            vec![params(4096), params(8192)],
            (0..8).map(ProcId::new).collect(),
        )
        .unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        b.on_transaction(&txn(0, 0, BusOp::Read, 0x0));
        let report = b.statistics_report();
        assert!(report.contains("node0"));
        assert!(report.contains("node1"));
        assert!(report.contains("mesi"));
        assert!(report.contains("read-misses"));
        assert!(report.contains("filter"));
    }

    /// The one-line summary each node gets in the statistics report, as
    /// the console has always printed it.
    #[test]
    fn statistics_report_pins_each_nodes_summary_line() {
        let cfg = BoardConfig::multi_node(
            params(4096),
            vec![
                (0..4).map(ProcId::new).collect(),
                (4..8).map(ProcId::new).collect(),
            ],
        )
        .unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        let ops = [
            BusOp::Read,
            BusOp::Rwitm,
            BusOp::Read,
            BusOp::DClaim,
            BusOp::WriteBack,
        ];
        for i in 0..400u64 {
            let op = ops[(i % 5) as usize];
            b.on_transaction(&txn(i, (i * 3 % 8) as u8, op, (i % 36) * 128));
        }
        let report = b.statistics_report();
        let summaries: Vec<&str> = report.lines().filter(|l| l.contains(" refs, ")).collect();
        assert_eq!(
            summaries,
            [
                "node0 [4KB/2-way/128B lru | mesi]: 160 refs, miss ratio 0.5500 (cold 17.05%), \
                 interventions 0shr/84mod",
                "node1 [4KB/2-way/128B lru | mesi]: 160 refs, miss ratio 0.5500 (cold 15.91%), \
                 interventions 0shr/81mod",
            ]
        );
    }

    fn mixed_stream(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                let op = match i % 4 {
                    0 => BusOp::Read,
                    1 => BusOp::Rwitm,
                    2 => BusOp::DClaim,
                    _ => BusOp::WriteBack,
                };
                txn(i, (i % 8) as u8, op, (i * 13 % 128) * 128)
            })
            .collect()
    }

    /// Drives the same stream serially and through split shards; both
    /// boards must end bit-identical.
    fn assert_split_matches_serial(cfg: BoardConfig, shards: usize) {
        let stream = mixed_stream(2_000);
        let mut serial = MemoriesBoard::new(cfg.clone()).unwrap();
        for t in &stream {
            serial.on_transaction(t);
        }

        let (mut front, mut shard_vec) = MemoriesBoard::new(cfg).unwrap().split(shards);
        for t in &stream {
            let Some(dropped) = front.admit(t) else {
                continue;
            };
            for s in &mut shard_vec {
                s.snoop_block(std::slice::from_ref(t), &[(0, dropped)]);
            }
        }
        let parallel = MemoriesBoard::assemble(front, shard_vec).unwrap();

        assert_eq!(serial.statistics_report(), parallel.statistics_report());
        for i in 0..serial.node_count() {
            let id = NodeId::new(i as u8);
            assert_eq!(serial.node(id).counters(), parallel.node(id).counters());
        }
        assert_eq!(serial.retries_posted(), parallel.retries_posted());
    }

    #[test]
    fn split_shards_match_serial_for_parallel_configs() {
        let cfg = || {
            BoardConfig::parallel_configs(
                vec![params(4096), params(8192), params(16384)],
                (0..8).map(ProcId::new).collect(),
            )
            .unwrap()
        };
        for shards in [1, 2, 3, 8] {
            assert_split_matches_serial(cfg(), shards);
        }
    }

    #[test]
    fn split_keeps_coherent_domains_together() {
        // A four-node single-domain machine cannot shard below one group.
        let cfg = BoardConfig::multi_node(
            params(4096),
            (0..4)
                .map(|n| ((n * 2)..(n * 2 + 2)).map(ProcId::new).collect())
                .collect(),
        )
        .unwrap();
        let (_, shards) = MemoriesBoard::new(cfg.clone()).unwrap().split(4);
        assert_eq!(shards.len(), 1, "one domain must stay one shard");
        assert_split_matches_serial(cfg, 4);
    }

    #[test]
    fn assemble_rejects_missing_and_duplicated_nodes() {
        let cfg = BoardConfig::parallel_configs(
            vec![params(4096), params(8192)],
            (0..8).map(ProcId::new).collect(),
        )
        .unwrap();
        let (front, mut shards) = MemoriesBoard::new(cfg).unwrap().split(2);
        let dropped = shards.pop().unwrap();
        let err = MemoriesBoard::assemble(front.clone(), shards.clone()).unwrap_err();
        assert!(matches!(err, BoardError::ShardAssembly { .. }));

        shards.push(dropped.clone());
        shards.push(dropped);
        let err = MemoriesBoard::assemble(front, shards).unwrap_err();
        assert!(matches!(err, BoardError::ShardAssembly { .. }));
    }

    #[test]
    fn global_counters_merge_matches_serial_observation() {
        let stream = mixed_stream(999);
        let mut serial = GlobalCounters::default();
        for t in &stream {
            serial.observe(t);
        }
        // Round-robin the stream over three banks, then merge.
        let mut banks = vec![GlobalCounters::default(); 3];
        for (i, t) in stream.iter().enumerate() {
            banks[i % 3].observe(t);
        }
        let mut merged = GlobalCounters::default();
        for b in &banks {
            merged.merge(b);
        }
        assert_eq!(merged.transactions(), serial.transactions());
        for op in BusOp::ALL {
            assert_eq!(merged.count(op), serial.count(op));
        }
        assert_eq!(merged.observed_span_cycles(), serial.observed_span_cycles());
    }

    #[test]
    fn global_merge_preserves_saturation() {
        // A shard-local bank whose transaction counter saturated must
        // yield a saturated merged counter even when the re-summed value
        // lands exactly on the 40-bit ceiling (merge into a zero bank).
        let mut saturated_txns = Counter40::of(Counter40::MAX);
        saturated_txns.add(1);
        let part = GlobalCounters {
            transactions: saturated_txns,
            ..GlobalCounters::default()
        };
        assert!(part.any_saturated());
        let mut merged = GlobalCounters::default();
        merged.merge(&part);
        assert_eq!(merged.transactions(), Counter40::MAX);
        assert!(
            merged.any_saturated(),
            "merge silently re-summed a saturated counter"
        );
    }

    #[test]
    fn snapshot_is_consistent_with_live_counters() {
        let cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        for i in 0..100u64 {
            b.on_transaction(&txn(i, (i % 8) as u8, BusOp::Read, (i % 16) * 128));
        }
        let snap = b.snapshot();
        assert_eq!(snap.global.transactions(), 100);
        assert_eq!(snap.filter, *b.filter().stats());
        assert_eq!(snap.nodes.len(), 1);
        assert_eq!(&snap.nodes[0], b.node(NodeId::new(0)).counters());
        assert_eq!(
            snap.nodes[0].demand_references(),
            b.node(NodeId::new(0)).counters().demand_references()
        );
        // Snapshots are passive: the board keeps running unchanged.
        b.on_transaction(&txn(100, 0, BusOp::Read, 0));
        assert_eq!(snap.global.transactions(), 100);
        assert_eq!(b.global().transactions(), 101);
    }

    #[test]
    fn config_constructors_validate() {
        assert!(matches!(
            BoardConfig::from_slots(vec![]),
            Err(BoardError::NoNodes)
        ));
        let five = (0..5)
            .map(|_| NodeSlot::new(params(4096), [ProcId::new(0)]))
            .collect();
        assert!(matches!(
            BoardConfig::from_slots(five),
            Err(BoardError::TooManyNodes { requested: 5 })
        ));
    }

    /// One slot per entry of `slots`, `(domain, CPUs)`, with 2 KB 2-way
    /// caches. A CPU already claimed in the slot's domain is dropped; a
    /// slot left with none takes the lowest CPU its domain has free.
    pub(crate) fn random_board(
        slots: &[(u8, Vec<u8>)],
        remotes: &[(usize, Vec<u8>)],
    ) -> BoardConfig {
        let params = CacheParams::builder()
            .capacity(2048)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap();
        let mut claimed = [0u64; 4];
        let mut built: Vec<NodeSlot> = slots
            .iter()
            .map(|(domain, cpus)| {
                let taken = &mut claimed[usize::from(*domain)];
                let mut mine = 0u64;
                for &c in cpus {
                    mine |= 1 << c & !*taken;
                }
                if mine == 0 {
                    mine = 1 << (!*taken).trailing_zeros();
                }
                *taken |= mine;
                let cpus = (0..64u8).filter(|c| mine & 1 << c != 0).map(ProcId::new);
                NodeSlot::new(params, cpus).in_domain(*domain)
            })
            .collect();
        for (slot, cpus) in remotes {
            let slot = &mut built[slot % slots.len()];
            *slot = slot
                .clone()
                .with_remote_cpus(cpus.iter().copied().map(ProcId::new));
        }
        BoardConfig::from_slots(built).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The board's event table gives `event_for` for every (op, CPU,
        /// node), DMA ops included, on random partitions with domain
        /// remotes, and its node mask names exactly the nodes with an
        /// event.
        #[test]
        fn event_table_equals_event_for(
            slots in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(0u8..12, 1..5)),
                1..5,
            ),
            remotes in proptest::collection::vec(
                (0usize..4, proptest::collection::vec(0u8..16, 1..4)),
                0..3,
            ),
        ) {
            let board = MemoriesBoard::new(random_board(&slots, &remotes)).unwrap();
            let partition = board.filter().partition();
            let table = &board.front.events;
            for op in BusOp::ALL {
                for cpu in 0..ProcId::MAX_IDS as u8 {
                    let txn = Transaction::new(
                        0,
                        0,
                        ProcId::new(cpu),
                        op,
                        Address::new(0),
                        SnoopResponse::Null,
                    );
                    let row = table.rows()[EventTable::index(&txn)];
                    let nodes = table.nodes(&txn);
                    for (i, &event) in row.iter().enumerate() {
                        let want = if i < partition.node_count() {
                            partition.event_for(NodeId::new(i as u8), &txn)
                        } else {
                            None
                        };
                        proptest::prop_assert_eq!(event, want);
                        proptest::prop_assert_eq!(nodes & 1 << i != 0, want.is_some());
                    }
                }
            }
        }
    }
}
