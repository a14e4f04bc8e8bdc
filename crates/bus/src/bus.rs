//! The system bus: transaction minting, cycle accounting, passive listeners.

use std::fmt;

use crate::addr::{Address, ProcId};
use crate::block::{BlockPool, PooledBlock, TransactionBlock};
use crate::op::BusOp;
use crate::stats::BusStats;
use crate::transaction::{SnoopResponse, Transaction};

/// Bus clock of the S7A's 6xx memory bus: 100 MHz (§5).
pub const BUS_HZ: u64 = 100_000_000;

/// Cycles of every transaction's address tenure.
const ADDRESS_CYCLES: u64 = 4;

/// Bus cycles of a data-bearing transaction: the address tenure plus one
/// beat per 16 bytes of the 128-byte line (8 beats).
pub const DATA_TRANSACTION_CYCLES: u64 = ADDRESS_CYCLES + 128 / 16;

/// Timing of the host memory bus: the S7A's 100 MHz 6xx bus, whose
/// numbers are the constants [`BUS_HZ`] and [`DATA_TRANSACTION_CYCLES`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusConfig;

impl BusConfig {
    /// Cycle cost of one transaction of kind `op`.
    pub fn transaction_cycles(&self, op: BusOp) -> u64 {
        if op.carries_data() {
            DATA_TRANSACTION_CYCLES
        } else {
            ADDRESS_CYCLES
        }
    }

    /// Converts a cycle count to seconds at the bus frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / BUS_HZ as f64
    }
}

/// How a passive listener reacts to a transaction.
///
/// MemorIES can in principle post a retry when its ingress buffers are full
/// (§3.3), which is the only way the board can perturb the host. The paper
/// reports this never happened in months of lab use; the model makes the
/// reaction observable so that claim can be tested.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ListenerReaction {
    /// The listener absorbed the transaction.
    #[default]
    Proceed,
    /// The listener requests the transaction be retried on the bus.
    Retry,
}

/// A passive bus agent: sees every completed transaction (with its combined
/// snoop response) but supplies no data and holds no coherence state that
/// the host depends on.
///
/// The MemorIES board, trace collectors, and debug probes implement this.
pub trait BusListener {
    /// Called for every transaction placed on the bus, in order.
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction;

    /// Called with a whole block of transactions, in stream order, when
    /// the bus (or another block-native producer) delivers batched.
    ///
    /// The default implementation folds
    /// [`on_transaction`](Self::on_transaction) over the block —
    /// [`ListenerReaction::Retry`]
    /// if any transaction asked for one — so existing listeners keep
    /// working unchanged. Block-native listeners override this to consume
    /// the whole slice at once; the reaction necessarily arrives after the
    /// fact (§3.3 passivity: the board never retried in practice, and
    /// batched delivery institutionalises that).
    fn on_block(&mut self, block: &TransactionBlock) -> ListenerReaction {
        let mut reaction = ListenerReaction::Proceed;
        for txn in block.as_slice() {
            if self.on_transaction(txn) == ListenerReaction::Retry {
                reaction = ListenerReaction::Retry;
            }
        }
        reaction
    }
}

impl<L: BusListener + ?Sized> BusListener for Box<L> {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        (**self).on_transaction(txn)
    }

    fn on_block(&mut self, block: &TransactionBlock) -> ListenerReaction {
        (**self).on_block(block)
    }
}

impl<L: BusListener + ?Sized> BusListener for &mut L {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        (**self).on_transaction(txn)
    }

    fn on_block(&mut self, block: &TransactionBlock) -> ListenerReaction {
        (**self).on_block(block)
    }
}

/// The shared memory bus: mints transactions, accounts cycles, and fans
/// completed transactions out to passive listeners.
///
/// Active coherence (which caches respond, who supplies data) is resolved
/// by the machine model *before* calling [`SystemBus::transact`]; the bus
/// records the outcome. This mirrors reality: the combined snoop response
/// is computed on dedicated response lines, and observers like MemorIES see
/// the finished result.
///
/// # Examples
///
/// ```
/// use memories_bus::{Address, BusOp, ProcId, SnoopResponse, SystemBus};
///
/// let mut bus = SystemBus::default();
/// bus.transact(ProcId::new(0), BusOp::Read, Address::new(0x80), SnoopResponse::Null);
/// bus.idle(100);
/// assert!(bus.stats().utilization() < 0.2);
/// ```
pub struct SystemBus {
    config: BusConfig,
    next_seq: u64,
    stats: BusStats,
    listeners: Vec<Box<dyn BusListener>>,
    batcher: Option<Batcher>,
}

/// Batched-delivery state: transactions accumulate in a pooled block and
/// listeners see them via [`BusListener::on_block`] when it fills. The
/// same block is reused after every delivery, so steady-state batched
/// delivery performs no allocation at all.
struct Batcher {
    block: PooledBlock,
}

impl SystemBus {
    /// Creates a bus with the given timing configuration.
    pub fn new(config: BusConfig) -> Self {
        SystemBus {
            config,
            next_seq: 0,
            stats: BusStats::default(),
            listeners: Vec::new(),
            batcher: None,
        }
    }

    /// The timing configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Attaches a passive listener; it will see every subsequent
    /// transaction in issue order.
    pub fn attach(&mut self, listener: Box<dyn BusListener>) {
        self.listeners.push(listener);
    }

    /// Detaches and returns all listeners (e.g. to read their statistics).
    ///
    /// Any batched transactions still buffered are flushed to the
    /// listeners first, so none are lost.
    pub fn detach_all(&mut self) -> Vec<Box<dyn BusListener>> {
        self.flush_block();
        std::mem::take(&mut self.listeners)
    }

    /// Switches the bus to batched listener delivery: subsequent
    /// transactions accumulate in blocks from `pool` and reach listeners
    /// through [`BusListener::on_block`] whenever a block fills (and on
    /// [`flush_block`](Self::flush_block) / [`detach_all`](Self::detach_all)).
    ///
    /// In batched mode a listener's reaction arrives after the
    /// transactions have completed, so [`transact`](Self::transact) can no
    /// longer upgrade an individual response to retry — the §3.3 caveat:
    /// the board is passive in healthy operation, and callers that need
    /// live retry feedback must stay on per-transaction delivery.
    pub fn deliver_batched(&mut self, pool: BlockPool) {
        let block = pool.take();
        self.batcher = Some(Batcher { block });
    }

    /// Delivers any buffered partial block to the listeners now.
    ///
    /// Returns the combined reaction ([`ListenerReaction::Retry`] if any
    /// listener asked for one); `Proceed` when nothing was buffered.
    pub fn flush_block(&mut self) -> ListenerReaction {
        let mut reaction = ListenerReaction::Proceed;
        if let Some(batcher) = self.batcher.as_mut() {
            if !batcher.block.is_empty() {
                for listener in &mut self.listeners {
                    if listener.on_block(&batcher.block) == ListenerReaction::Retry {
                        reaction = ListenerReaction::Retry;
                    }
                }
                batcher.block.clear();
            }
        }
        reaction
    }

    /// Places a transaction on the bus.
    ///
    /// `resp` is the combined snoop response already resolved among the
    /// *active* agents (host caches/memory controller). Passive listeners
    /// observe the transaction; if any listener asks for a retry, the
    /// returned transaction's response is upgraded to
    /// [`SnoopResponse::Retry`] and the caller is expected to re-issue.
    ///
    /// Under [`deliver_batched`](Self::deliver_batched) the transaction
    /// instead lands in the current block (delivered when full) and the
    /// response is returned as resolved — listeners cannot upgrade it.
    pub fn transact(
        &mut self,
        proc: ProcId,
        op: BusOp,
        addr: Address,
        resp: SnoopResponse,
    ) -> Transaction {
        let cost = self.config.transaction_cycles(op);
        let mut txn = Transaction::new(self.next_seq, self.current_cycle(), proc, op, addr, resp);
        self.next_seq += 1;

        if let Some(batcher) = self.batcher.as_mut() {
            batcher.block.push(txn);
            let full = batcher.block.is_full();
            self.stats.record(op, txn.resp, cost);
            if full {
                self.flush_block();
            }
            return txn;
        }

        let mut retry = false;
        for listener in &mut self.listeners {
            if listener.on_transaction(&txn) == ListenerReaction::Retry {
                retry = true;
            }
        }
        if retry {
            txn.resp = SnoopResponse::Retry;
        }
        self.stats.record(op, txn.resp, cost);
        txn
    }

    /// Advances the bus clock by `cycles` idle cycles.
    pub fn idle(&mut self, cycles: u64) {
        self.stats.idle(cycles);
    }

    /// The current bus cycle.
    pub fn current_cycle(&self) -> u64 {
        self.stats.cycles
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }
}

impl Default for SystemBus {
    fn default() -> Self {
        SystemBus::new(BusConfig)
    }
}

impl fmt::Debug for SystemBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemBus")
            .field("config", &self.config)
            .field("next_seq", &self.next_seq)
            .field("stats", &self.stats)
            .field("listeners", &self.listeners.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingListener {
        seen: u64,
        retry_after: Option<u64>,
    }

    impl BusListener for CountingListener {
        fn on_transaction(&mut self, _txn: &Transaction) -> ListenerReaction {
            self.seen += 1;
            match self.retry_after {
                Some(n) if self.seen > n => ListenerReaction::Retry,
                _ => ListenerReaction::Proceed,
            }
        }
    }

    /// Records the sequence numbers it saw and how many block deliveries
    /// carried them, via the default `on_block` fallback.
    #[derive(Default)]
    struct SeqRecorder {
        seqs: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
        blocks: std::rc::Rc<std::cell::RefCell<u64>>,
    }

    impl BusListener for SeqRecorder {
        fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
            self.seqs.borrow_mut().push(txn.seq);
            ListenerReaction::Proceed
        }

        fn on_block(&mut self, block: &TransactionBlock) -> ListenerReaction {
            *self.blocks.borrow_mut() += 1;
            for txn in block {
                self.seqs.borrow_mut().push(txn.seq);
            }
            ListenerReaction::Proceed
        }
    }

    #[test]
    fn transaction_costs() {
        let cfg = BusConfig;
        // Address-only op: 4 cycles. Data op: 4 + 128/16 = 12 cycles.
        assert_eq!(cfg.transaction_cycles(BusOp::DClaim), 4);
        assert_eq!(cfg.transaction_cycles(BusOp::Read), 12);
        assert_eq!(cfg.transaction_cycles(BusOp::WriteBack), 12);
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let mut bus = SystemBus::default();
        for i in 0..5 {
            let t = bus.transact(
                ProcId::new(0),
                BusOp::Read,
                Address::new(i * 128),
                SnoopResponse::Null,
            );
            assert_eq!(t.seq, i);
        }
        assert_eq!(bus.stats().transactions, 5);
    }

    #[test]
    fn listeners_see_every_transaction_in_order() {
        let mut bus = SystemBus::default();
        bus.attach(Box::new(CountingListener {
            seen: 0,
            retry_after: None,
        }));
        for i in 0..10u64 {
            bus.transact(
                ProcId::new(1),
                BusOp::Read,
                Address::new(i),
                SnoopResponse::Null,
            );
        }
        let listeners = bus.detach_all();
        assert_eq!(listeners.len(), 1);
        // Can't downcast trait objects without Any; verify via stats instead.
        assert_eq!(bus.stats().transactions, 10);
        assert!(bus.detach_all().is_empty());
    }

    #[test]
    fn listener_retry_upgrades_response() {
        let mut bus = SystemBus::default();
        bus.attach(Box::new(CountingListener {
            seen: 0,
            retry_after: Some(1),
        }));
        let first = bus.transact(
            ProcId::new(0),
            BusOp::Read,
            Address::new(0),
            SnoopResponse::Null,
        );
        assert_eq!(first.resp, SnoopResponse::Null);
        let second = bus.transact(
            ProcId::new(0),
            BusOp::Read,
            Address::new(128),
            SnoopResponse::Null,
        );
        assert_eq!(second.resp, SnoopResponse::Retry);
        assert_eq!(bus.stats().retries, 1);
    }

    #[test]
    fn default_on_block_folds_on_transaction() {
        struct RetrySecond {
            seen: u64,
        }
        impl BusListener for RetrySecond {
            fn on_transaction(&mut self, _txn: &Transaction) -> ListenerReaction {
                self.seen += 1;
                if self.seen == 2 {
                    ListenerReaction::Retry
                } else {
                    ListenerReaction::Proceed
                }
            }
        }
        let pool = BlockPool::new(4);
        let mut block = pool.take();
        for i in 0..3u64 {
            block.push(Transaction::new(
                i,
                i,
                ProcId::new(0),
                BusOp::Read,
                Address::new(i * 128),
                SnoopResponse::Null,
            ));
        }
        let mut listener = RetrySecond { seen: 0 };
        assert_eq!(listener.on_block(&block), ListenerReaction::Retry);
        assert_eq!(listener.seen, 3);
    }

    #[test]
    fn batched_delivery_preserves_order_and_loses_nothing() {
        let recorder = SeqRecorder::default();
        let seqs = recorder.seqs.clone();
        let blocks = recorder.blocks.clone();

        let mut bus = SystemBus::default();
        bus.attach(Box::new(recorder));
        bus.deliver_batched(BlockPool::new(4));
        for i in 0..10u64 {
            bus.transact(
                ProcId::new(1),
                BusOp::Read,
                Address::new(i * 128),
                SnoopResponse::Null,
            );
        }
        // 10 transactions, blocks of 4: two full deliveries so far.
        assert_eq!(*blocks.borrow(), 2);
        // The partial tail is flushed on detach.
        bus.detach_all();
        assert_eq!(*blocks.borrow(), 3);
        assert_eq!(*seqs.borrow(), (0..10).collect::<Vec<_>>());
        assert_eq!(bus.stats().transactions, 10);
    }

    #[test]
    fn idle_cycles_lower_utilization() {
        let mut bus = SystemBus::default();
        bus.transact(
            ProcId::new(0),
            BusOp::Read,
            Address::new(0),
            SnoopResponse::Null,
        );
        let busy_only = bus.stats().utilization();
        assert!((busy_only - 1.0).abs() < 1e-12);
        bus.idle(88);
        assert!((bus.stats().utilization() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn elapsed_time_tracks_frequency() {
        let mut bus = SystemBus::default();
        bus.idle(100_000_000);
        let elapsed = bus.config().cycles_to_seconds(bus.current_cycle());
        assert!((elapsed - 1.0).abs() < 1e-9);
    }
}
