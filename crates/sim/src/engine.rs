//! The emulation engine: one transaction stream, one front end, N node
//! shards.
//!
//! The physical board keeps up with the bus because its four node
//! controllers are parallel hardware, fed by one address filter with its
//! transaction buffers (§3.1, §3.3). The engine has the same shape in
//! both modes. The calling thread admits every transaction exactly once
//! through the board's [`BoardFrontEnd`], which holds the address filter,
//! the global counters and every node's transaction buffer, so it alone
//! decides which nodes drop an event and counts the retries. The engine
//! takes the stream as pooled blocks, the one ingest unit of the data
//! path: the front end filters each block in place, and the admitted
//! remainder, with its sparse list of drops (empty in healthy runs), is
//! handed to the [`NodeShard`]s (whole-domain groups of node controllers
//! — see `memories::NodeShard` for why that makes per-shard snooping
//! exact). In serial mode the one shard snoops the block on the calling
//! thread; in parallel mode the block *is* the batch broadcast to worker
//! threads that each own one shard. Nothing copies or re-batches the
//! stream between the filter and the shards, as on the board, where the
//! filter hands each admitted transaction straight to the node
//! controllers' buffers.
//!
//! At [`finish`] the shards are reassembled into a [`MemoriesBoard`]
//! whose every counter and directory entry is **bit-identical** to a
//! per-transaction run of the same stream.
//!
//! # Online monitoring
//!
//! The board's console reads counters *while the workload runs*; the
//! engine recovers that with **snapshot barriers**. In parallel mode
//! [`barrier`] sends every worker a snapshot request over the same queue
//! as the batches; every admitted block is already queued, so there is
//! nothing to flush. Because each worker processes its queue in order,
//! its reply — a copy of its node counters — reflects exactly the
//! admitted stream so far. In serial mode the one shard is copied in
//! place. Either way the engine assembles the shard reports with the
//! front end's own counters and retry count into a [`BoardSnapshot`]
//! that is bit-identical to what a per-transaction board would show at
//! the same stream position.
//!
//! The engine has no sampling schedule of its own: the console
//! pipeline's sampler and the live source's profile windows decide
//! *when* to call [`barrier`], and cut their blocks so each barrier lands
//! at an exact stream position. Cuts change where batches end, but results are
//! block-size-invariant, so an observed run's final board is still
//! bit-identical to an unobserved one.
//!
//! The engine consumes an already-recorded transaction stream (replay,
//! synthetic generators, capture files). It does not feed retries back
//! into a live host bus — it returns no per-transaction reaction — which
//! matches the board's healthy operating point of zero retries (§3.3);
//! the count is still exact.
//!
//! [`finish`]: EmulationEngine::finish
//! [`barrier`]: EmulationEngine::barrier

use std::fmt;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use memories::{BoardFrontEnd, BoardSnapshot, Error, MemoriesBoard, NodeCounters, NodeShard};
use memories_bus::PooledBlock;
use memories_obs::{EngineTelemetry, ShardTelemetry};

/// How the engine drives the node controllers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// Snoop in the calling thread: the one serial backend. The board is
    /// split into its front end and one shard holding every node
    /// controller, and each admitted block is snooped in place.
    Serial,
    /// Fan admitted transactions out to up to `shards` worker threads.
    /// The effective count is capped at the board's coherence-domain
    /// count (a domain cannot be split).
    Parallel {
        /// Requested worker count.
        shards: usize,
    },
}

/// How an engine is built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Serial or parallel operation.
    pub mode: EngineMode,
}

impl EngineConfig {
    /// A serial configuration.
    pub fn serial() -> Self {
        EngineConfig {
            mode: EngineMode::Serial,
        }
    }

    /// A parallel configuration with `shards` workers.
    pub fn parallel(shards: usize) -> Self {
        EngineConfig {
            mode: EngineMode::Parallel { shards },
        }
    }
}

/// Everything a finished run produced besides the board itself.
#[derive(Clone, Debug, Default)]
pub struct MonitorReport {
    /// The engine's own performance counters.
    pub telemetry: EngineTelemetry,
}

/// One broadcast batch, shared by every worker.
struct Batch {
    /// The admitted part of a fed block, still on loan from the caller's
    /// pool: the last worker to drop the batch recycles the buffer.
    txns: PooledBlock,
    /// The front end's drop list for `txns` (see
    /// [`NodeShard::snoop_block`]); empty, and unallocated, in healthy
    /// runs.
    drops: Vec<(usize, u8)>,
}

/// Every node's counters in a shard, as `(global node id, counters)`.
type ShardReport = Vec<(u8, NodeCounters)>;

/// What a worker returns when its queue closes.
struct WorkerDone {
    shard: NodeShard,
    snooped: u64,
    busy: Duration,
}

enum Request {
    Batch(Arc<Batch>),
    Snapshot(SyncSender<ShardReport>),
}

struct Worker {
    sender: SyncSender<Request>,
    handle: JoinHandle<WorkerDone>,
    nodes: usize,
}

/// Who snoops the blocks the front end admits.
enum Snoopers {
    /// Serial mode: the calling thread snoops the one shard.
    Inline(NodeShard),
    /// Parallel mode: one worker thread per shard.
    Workers(Vec<Worker>),
}

/// A running emulation over one transaction stream.
///
/// Feed pooled blocks of transactions in stream order with
/// [`EmulationEngine::feed_pooled`], observe the exact mid-stream state
/// with
/// [`EmulationEngine::barrier`], then call [`EmulationEngine::finish`]
/// (or [`EmulationEngine::finish_monitored`] to also collect the
/// telemetry) to get the final board back. The result is bit-identical
/// across modes, shard counts, block sizes and barrier positions.
///
/// # Examples
///
/// ```
/// use memories::{BoardConfig, CacheParams, MemoriesBoard};
/// use memories_bus::{Address, BlockPool, BusOp, ProcId, SnoopResponse, Transaction};
/// use memories_sim::{EmulationEngine, EngineConfig};
///
/// # fn main() -> Result<(), memories::Error> {
/// let params = CacheParams::builder()
///     .capacity(4096).ways(2).line_size(128).allow_scaled_down().build()?;
/// let config = BoardConfig::parallel_configs(
///     vec![params, params], (0..8).map(ProcId::new).collect())?;
/// let mut engine = EmulationEngine::new(
///     MemoriesBoard::new(config)?, EngineConfig::parallel(2));
/// let pool = BlockPool::new(250);
/// for chunk in 0..4u64 {
///     let mut block = pool.take();
///     for i in chunk * 250..(chunk + 1) * 250 {
///         block.push(Transaction::new(
///             i, i * 60, ProcId::new((i % 8) as u8), BusOp::Read,
///             Address::new((i % 64) * 128), SnoopResponse::Null));
///     }
///     engine.feed_pooled(block);
///     if chunk == 0 {
///         let live = engine.barrier()?; // exact counters after 250 transactions
///         assert_eq!(live.global.transactions(), 250);
///     }
/// }
/// let (board, report) = engine.finish_monitored()?;
/// assert_eq!(board.global().transactions(), 1000);
/// assert_eq!(report.telemetry.snapshots, 1);
/// # Ok(())
/// # }
/// ```
pub struct EmulationEngine {
    front: BoardFrontEnd,
    snoopers: Snoopers,
    started: Instant,
    batches: u64,
    producer_stalls: u64,
    snapshots: u64,
}

impl EmulationEngine {
    /// Starts an engine over `board`, split into its front end and
    /// whole-domain shards.
    ///
    /// In serial mode the board becomes one shard, snooped on the calling
    /// thread. In parallel mode one worker thread is spawned per shard
    /// immediately, even for a single shard, so admission overlaps
    /// snooping.
    pub fn new(board: MemoriesBoard, config: EngineConfig) -> Self {
        let (front, snoopers) = match config.mode {
            EngineMode::Serial => {
                let (front, mut shards) = board.split(1);
                let shard = shards.pop().expect("split returns at least one shard");
                (front, Snoopers::Inline(shard))
            }
            EngineMode::Parallel { shards } => {
                let (front, shards) = board.split(shards);
                let workers = shards.into_iter().map(spawn_worker).collect();
                (front, Snoopers::Workers(workers))
            }
        };
        EmulationEngine {
            front,
            snoopers,
            started: Instant::now(),
            batches: 0,
            producer_stalls: 0,
            snapshots: 0,
        }
    }

    /// Transactions the filter has admitted so far.
    pub fn admitted(&self) -> u64 {
        self.front.filter().stats().forwarded
    }

    /// Feeds a pooled block of transactions, in stream order — the
    /// engine's one entry point.
    ///
    /// Any block size gives the same result — a block of one is the
    /// per-transaction reference — because the filter, counters and
    /// retry accounting all see the same stream. The front end filters
    /// the block **in place**; in serial mode the one shard then snoops
    /// what it admitted, and in parallel mode that is broadcast to the
    /// workers as one batch. Either way the transactions are never copied
    /// between the source and the shards. The buffer returns to its pool
    /// once the last snooper is done with it.
    pub fn feed_pooled(&mut self, mut block: PooledBlock) {
        let mut drops = Vec::new();
        self.front.admit_block(&mut block, &mut drops);
        if block.is_empty() {
            return;
        }
        self.batches += 1;
        match &mut self.snoopers {
            Snoopers::Inline(shard) => shard.snoop_block(&block, &drops),
            Snoopers::Workers(workers) => {
                let batch = Batch { txns: block, drops };
                self.producer_stalls += broadcast(workers, Arc::new(batch));
            }
        }
    }

    /// Takes a counter snapshot of the emulation *right now*. In
    /// parallel mode this is a snapshot barrier: every worker reports its
    /// counters once it has snooped every block fed so far. Both modes
    /// assemble the shard reports with the front end's counters, so the
    /// result is bit-identical to what a per-transaction board would show
    /// at the same stream position. The retry count comes from the front
    /// end, which is always exact.
    ///
    /// # Errors
    ///
    /// Never fails at present; the `Result` keeps the signature of a
    /// monitoring primitive that callers propagate with `?`.
    ///
    /// # Panics
    ///
    /// Propagates a worker thread's panic.
    pub fn barrier(&mut self) -> Result<BoardSnapshot, Error> {
        self.snapshots += 1;
        let node_count = self.front.filter().partition().node_count();
        let parts = match &mut self.snoopers {
            Snoopers::Inline(shard) => shard.counters_snapshot(),
            Snoopers::Workers(workers) => {
                let (reply, reports) = sync_channel::<ShardReport>(workers.len());
                for w in workers.iter() {
                    if w.sender.send(Request::Snapshot(reply.clone())).is_err() {
                        propagate_worker_failure(std::mem::take(workers));
                    }
                }
                drop(reply);
                let mut parts = Vec::with_capacity(node_count);
                for _ in 0..workers.len() {
                    match reports.recv() {
                        Ok(report) => parts.extend(report),
                        Err(_) => propagate_worker_failure(std::mem::take(workers)),
                    }
                }
                parts
            }
        };
        Ok(BoardSnapshot::assemble(
            self.front.global().clone(),
            *self.front.filter().stats(),
            self.front.retries_posted(),
            node_count,
            parts,
        ))
    }

    /// Joins the workers, if any, once they have drained their queues,
    /// and reassembles the board.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Board`] if shard reassembly fails (cannot happen
    /// for shards produced by this engine).
    ///
    /// # Panics
    ///
    /// Propagates a worker thread's panic.
    pub fn finish(self) -> Result<MemoriesBoard, Error> {
        self.finish_monitored().map(|(board, _)| board)
    }

    /// Like [`EmulationEngine::finish`], but also returns the engine's
    /// own telemetry.
    ///
    /// # Errors
    ///
    /// As [`EmulationEngine::finish`].
    ///
    /// # Panics
    ///
    /// Propagates a worker thread's panic.
    pub fn finish_monitored(self) -> Result<(MemoriesBoard, MonitorReport), Error> {
        let mut telemetry = EngineTelemetry {
            batches: self.batches,
            producer_stalls: self.producer_stalls,
            snapshots: self.snapshots,
            ..EngineTelemetry::default()
        };
        let shards = match self.snoopers {
            Snoopers::Inline(shard) => vec![shard],
            Snoopers::Workers(workers) => {
                let mut shards = Vec::with_capacity(workers.len());
                for (i, worker) in workers.into_iter().enumerate() {
                    // Closes the channel; the worker drains it and exits.
                    drop(worker.sender);
                    let done = worker
                        .handle
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p));
                    telemetry.shards.push(ShardTelemetry {
                        shard: i,
                        nodes: worker.nodes,
                        snooped: done.snooped,
                        busy: done.busy,
                    });
                    shards.push(done.shard);
                }
                shards
            }
        };
        telemetry.seen = self.front.filter().stats().seen;
        telemetry.admitted = self.front.filter().stats().forwarded;
        let board = MemoriesBoard::assemble(self.front, shards)?;
        telemetry.wall = self.started.elapsed();
        Ok((board, MonitorReport { telemetry }))
    }
}

impl fmt::Debug for EmulationEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.snoopers {
            Snoopers::Inline(_) => f.debug_struct("EmulationEngine(serial)").finish(),
            Snoopers::Workers(workers) => f
                .debug_struct("EmulationEngine(parallel)")
                .field("shards", &workers.len())
                .finish(),
        }
    }
}

/// Batch-queue slots per worker: a couple of batches of backpressure
/// keeps the producer and workers overlapped without unbounded queueing.
const QUEUE_CAPACITY: usize = 4;

/// Sends `batch` to every worker, counting backpressure stalls. If a
/// worker has hung up (its thread died), joins all workers to surface the
/// panic instead of poisoning the stream silently.
fn broadcast(workers: &mut Vec<Worker>, batch: Arc<Batch>) -> u64 {
    let mut stalls = 0;
    for i in 0..workers.len() {
        match workers[i]
            .sender
            .try_send(Request::Batch(Arc::clone(&batch)))
        {
            Ok(()) => {}
            Err(TrySendError::Full(req)) => {
                stalls += 1;
                if workers[i].sender.send(req).is_err() {
                    propagate_worker_failure(std::mem::take(workers));
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                propagate_worker_failure(std::mem::take(workers));
            }
        }
    }
    stalls
}

/// A worker hung up mid-run: join everyone and re-raise the panic that
/// killed it (a worker never exits on its own while senders are live).
fn propagate_worker_failure(workers: Vec<Worker>) -> ! {
    join_and_unwind(workers.into_iter().map(|w| w.handle).collect())
}

fn join_and_unwind(handles: Vec<JoinHandle<WorkerDone>>) -> ! {
    let mut first_panic = None;
    for handle in handles {
        if let Err(p) = handle.join() {
            first_panic.get_or_insert(p);
        }
    }
    match first_panic {
        Some(p) => std::panic::resume_unwind(p),
        None => unreachable!("a worker hung up without panicking"),
    }
}

fn spawn_worker(mut shard: NodeShard) -> Worker {
    let nodes = shard.len();
    let (sender, receiver) = sync_channel::<Request>(QUEUE_CAPACITY);
    let handle = std::thread::spawn(move || {
        let mut snooped: u64 = 0;
        let mut busy = Duration::ZERO;
        while let Ok(request) = receiver.recv() {
            match request {
                Request::Batch(batch) => {
                    let t0 = Instant::now();
                    shard.snoop_block(&batch.txns, &batch.drops);
                    busy += t0.elapsed();
                    snooped += batch.txns.len() as u64;
                }
                Request::Snapshot(reply) => {
                    // If the engine dropped the reply receiver it is
                    // already unwinding; keep draining until close.
                    let _ = reply.send(shard.counters_snapshot());
                }
            }
        }
        WorkerDone {
            shard,
            snooped,
            busy,
        }
    });
    Worker {
        sender,
        handle,
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories::{BoardConfig, CacheParams, TimingConfig};
    use memories_bus::{Address, BlockPool, BusOp, NodeId, ProcId, SnoopResponse, Transaction};

    fn params(capacity: u64) -> CacheParams {
        CacheParams::builder()
            .capacity(capacity)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap()
    }

    fn stream(n: u64, spacing: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                let op = match i % 5 {
                    0 | 3 => BusOp::Read,
                    1 => BusOp::Rwitm,
                    2 => BusOp::DClaim,
                    _ => BusOp::WriteBack,
                };
                Transaction::new(
                    i,
                    i * spacing,
                    ProcId::new((i % 8) as u8),
                    op,
                    Address::new((i * 17 % 256) * 128),
                    SnoopResponse::Null,
                )
            })
            .collect()
    }

    fn four_domain_config() -> BoardConfig {
        BoardConfig::parallel_configs(
            vec![params(4096), params(8192), params(16384), params(32768)],
            (0..8).map(ProcId::new).collect(),
        )
        .unwrap()
    }

    /// Feeds `txns` in stream order as blocks taken from `pool`, each
    /// filled to the pool's block capacity (the last one may be short).
    fn feed(engine: &mut EmulationEngine, pool: &BlockPool, txns: &[Transaction]) {
        for chunk in txns.chunks(pool.block_capacity()) {
            let mut block = pool.take();
            for t in chunk {
                block.push(*t);
            }
            engine.feed_pooled(block);
        }
    }

    fn run(cfg: &BoardConfig, engine_cfg: EngineConfig, txns: &[Transaction]) -> MemoriesBoard {
        let mut engine = EmulationEngine::new(MemoriesBoard::new(cfg.clone()).unwrap(), engine_cfg);
        feed(&mut engine, &BlockPool::new(4096), txns);
        engine.finish().unwrap()
    }

    /// The per-transaction reference: a plain board, one
    /// `on_transaction` per bus operation.
    fn reference(cfg: &BoardConfig, txns: &[Transaction]) -> MemoriesBoard {
        use memories_bus::BusListener as _;
        let mut board = MemoriesBoard::new(cfg.clone()).unwrap();
        for t in txns {
            board.on_transaction(t);
        }
        board
    }

    fn assert_boards_identical(a: &MemoriesBoard, b: &MemoriesBoard) {
        assert_eq!(a.statistics_report(), b.statistics_report());
        for i in 0..a.node_count() {
            let id = NodeId::new(i as u8);
            assert_eq!(a.node(id).counters(), b.node(id).counters());
        }
        assert_eq!(a.retries_posted(), b.retries_posted());
        assert_eq!(a.filter().stats(), b.filter().stats());
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let cfg = four_domain_config();
        let txns = stream(20_000, 60);
        let serial = reference(&cfg, &txns);
        assert_boards_identical(&serial, &run(&cfg, EngineConfig::serial(), &txns));
        for shards in [1, 2, 3, 4, 8] {
            let parallel = run(&cfg, EngineConfig::parallel(shards), &txns);
            assert_boards_identical(&serial, &parallel);
        }
    }

    #[test]
    fn small_batches_and_partial_tail_are_exact() {
        let cfg = four_domain_config();
        let txns = stream(1_237, 60); // deliberately not a block multiple
        let serial = run(&cfg, EngineConfig::serial(), &txns);
        for block in [1, 7, 64, 100_000] {
            let mut parallel = EmulationEngine::new(
                MemoriesBoard::new(cfg.clone()).unwrap(),
                EngineConfig::parallel(4),
            );
            feed(&mut parallel, &BlockPool::new(block), &txns);
            assert_boards_identical(&serial, &parallel.finish().unwrap());
        }
    }

    #[test]
    fn overflow_retries_merge_exactly() {
        // Back-to-back transactions into a tiny buffer force overflows.
        let mut cfg = four_domain_config();
        cfg.timing = TimingConfig { buffer_capacity: 4 };
        let txns = stream(5_000, 0);
        let serial = reference(&cfg, &txns);
        assert!(serial.retries_posted() > 0, "test needs overflow pressure");
        let parallel = run(&cfg, EngineConfig::parallel(4), &txns);
        assert_boards_identical(&serial, &parallel);
    }

    #[test]
    fn shard_count_respects_domains() {
        let engine = EmulationEngine::new(
            MemoriesBoard::new(four_domain_config()).unwrap(),
            EngineConfig::parallel(2),
        );
        let (_, report) = engine.finish_monitored().unwrap();
        assert_eq!(report.telemetry.shards.len(), 2);
        // One-domain boards cannot shard.
        let single = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        let engine = EmulationEngine::new(
            MemoriesBoard::new(single).unwrap(),
            EngineConfig::parallel(8),
        );
        // Workers must still shut down cleanly with no traffic.
        let (_, report) = engine.finish_monitored().unwrap();
        assert_eq!(report.telemetry.shards.len(), 1);
    }

    #[test]
    fn barriers_are_bit_identical_and_monotone() {
        let cfg = four_domain_config();
        let txns = stream(20_000, 60);
        let plain = reference(&cfg, &txns);

        for engine_cfg in [EngineConfig::serial(), EngineConfig::parallel(4)] {
            let mut engine =
                EmulationEngine::new(MemoriesBoard::new(cfg.clone()).unwrap(), engine_cfg);
            let pool = BlockPool::new(1000);
            let mut snaps = Vec::new();
            for slice in txns.chunks(1000) {
                feed(&mut engine, &pool, slice);
                snaps.push(engine.barrier().unwrap());
            }
            let (board, report) = engine.finish_monitored().unwrap();
            assert_boards_identical(&plain, &board);
            // Snapshots are monotone in admitted count and end at the total.
            for pair in snaps.windows(2) {
                assert!(pair[0].admitted() < pair[1].admitted());
            }
            let final_admitted = board.filter().stats().forwarded;
            assert_eq!(snaps.last().unwrap().admitted(), final_admitted);
            assert_eq!(report.telemetry.admitted, final_admitted);
            assert_eq!(report.telemetry.seen, 20_000);
            assert_eq!(report.telemetry.snapshots, 20);
        }
    }

    #[test]
    fn mid_run_snapshot_matches_serial_board_at_same_position() {
        // Run a serial reference over the first half only; the engine's
        // barrier snapshot at that point must agree exactly, in both
        // modes.
        let cfg = four_domain_config();
        let txns = stream(10_000, 60);
        let half = &txns[..5_000];
        let want = reference(&cfg, half).snapshot();

        for engine_cfg in [EngineConfig::serial(), EngineConfig::parallel(4)] {
            let mut engine =
                EmulationEngine::new(MemoriesBoard::new(cfg.clone()).unwrap(), engine_cfg);
            let pool = BlockPool::new(512);
            feed(&mut engine, &pool, half);
            let got = engine.barrier().unwrap();

            assert_eq!(got.filter, want.filter);
            assert_eq!(got.retries_posted, want.retries_posted);
            assert_eq!(got.global.transactions(), want.global.transactions());
            assert_eq!(got.nodes, want.nodes);
            // The engine still finishes exactly after an explicit barrier.
            feed(&mut engine, &pool, &txns[5_000..]);
            let board = engine.finish().unwrap();
            assert_eq!(board.global().transactions(), 10_000);
        }
    }

    #[test]
    fn snapshot_barrier_keeps_retry_accounting_exact() {
        // Overflow pressure plus frequent barriers: the retries read at
        // each barrier must end at the serial retry count.
        let mut cfg = four_domain_config();
        cfg.timing = TimingConfig { buffer_capacity: 4 };
        let txns = stream(5_000, 0);
        let serial = reference(&cfg, &txns);
        assert!(serial.retries_posted() > 0);

        for engine_cfg in [EngineConfig::serial(), EngineConfig::parallel(4)] {
            let mut engine =
                EmulationEngine::new(MemoriesBoard::new(cfg.clone()).unwrap(), engine_cfg);
            let pool = BlockPool::new(128);
            let mut retries = Vec::new();
            for slice in txns.chunks(700) {
                feed(&mut engine, &pool, slice);
                retries.push(engine.barrier().unwrap().retries_posted);
            }
            let board = engine.finish().unwrap();
            assert_boards_identical(&serial, &board);
            // Retries at the barriers never decrease and end at the total.
            for pair in retries.windows(2) {
                assert!(pair[0] <= pair[1]);
            }
            assert_eq!(*retries.last().unwrap(), board.retries_posted());
        }
    }

    /// A Worker whose thread dies with `message` instead of serving its
    /// queue — for exercising the failure paths deterministically.
    fn dead_worker(message: &'static str) -> Worker {
        let (sender, receiver) = sync_channel::<Request>(QUEUE_CAPACITY);
        let handle = std::thread::spawn(move || -> WorkerDone {
            drop(receiver);
            panic!("{message}");
        });
        while !handle.is_finished() {
            std::thread::yield_now();
        }
        Worker {
            sender,
            handle,
            nodes: 1,
        }
    }

    #[test]
    fn broadcast_propagates_worker_panic() {
        // A send to a dead worker must join it and re-raise the original
        // panic payload instead of panicking on the channel error.
        let mut workers = vec![dead_worker("snoop worker exploded")];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let batch = Batch {
                txns: BlockPool::new(1).take(),
                drops: Vec::new(),
            };
            broadcast(&mut workers, Arc::new(batch));
        }));
        let payload = result.expect_err("worker panic must propagate");
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert_eq!(text, "snoop worker exploded");
    }

    #[test]
    fn snapshot_barrier_propagates_worker_panic() {
        // The snapshot request path hits the same failure mode.
        let workers = vec![dead_worker("barrier victim")];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (reply, _reports) = sync_channel::<ShardReport>(1);
            let mut workers = workers;
            if workers[0].sender.send(Request::Snapshot(reply)).is_err() {
                propagate_worker_failure(std::mem::take(&mut workers));
            }
            unreachable!("send to a dead worker must fail");
        }));
        let payload = result.expect_err("worker panic must propagate");
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert_eq!(text, "barrier victim");
    }

    #[test]
    fn any_block_size_is_bit_identical_to_per_transaction_feeding() {
        let cfg = four_domain_config();
        let txns = stream(9_973, 60);
        let serial = reference(&cfg, &txns);
        for engine_cfg in [
            EngineConfig::serial(),
            EngineConfig::parallel(2),
            EngineConfig::parallel(4),
        ] {
            for chunk in [1usize, 7, 300, 512, 4096] {
                let mut engine =
                    EmulationEngine::new(MemoriesBoard::new(cfg.clone()).unwrap(), engine_cfg);
                feed(&mut engine, &BlockPool::new(chunk), &txns);
                let board = engine.finish().unwrap();
                assert_boards_identical(&serial, &board);
            }
        }
    }

    #[test]
    fn broadcast_batches_recycle_through_the_pool() {
        let cfg = four_domain_config();
        let txns = stream(8_000, 60);
        let mut engine =
            EmulationEngine::new(MemoriesBoard::new(cfg).unwrap(), EngineConfig::parallel(4));
        let pool = BlockPool::new(100);
        feed(&mut engine, &pool, &txns);
        let (_, report) = engine.finish_monitored().unwrap();
        let t = &report.telemetry;
        let stats = pool.stats();
        // Every batch is a block off the caller's pool, broadcast as fed;
        // in-flight blocks bound the fresh allocations (queue slots + one
        // per worker in progress + the one being filtered), so a long
        // run is dominated by recycled buffers.
        let takes = stats.hits + stats.fresh;
        assert_eq!(takes, t.batches, "takes {takes} vs batches {}", t.batches);
        let in_flight_bound = (t.shards.len() * (QUEUE_CAPACITY + 1) + 2) as u64;
        assert!(
            stats.fresh <= in_flight_bound,
            "{} fresh allocations exceed the in-flight bound {in_flight_bound}",
            stats.fresh
        );
        assert!(stats.hits > 0, "a long run must recycle blocks");
    }

    #[test]
    fn telemetry_counts_batches_and_shards() {
        let cfg = four_domain_config();
        let txns = stream(4_000, 60);
        for engine_cfg in [EngineConfig::serial(), EngineConfig::parallel(4)] {
            let mut engine =
                EmulationEngine::new(MemoriesBoard::new(cfg.clone()).unwrap(), engine_cfg);
            feed(&mut engine, &BlockPool::new(100), &txns);
            let (board, report) = engine.finish_monitored().unwrap();
            let admitted = board.filter().stats().forwarded;
            let t = &report.telemetry;
            assert_eq!(t.admitted, admitted);
            // One batch per fed block that kept an admitted transaction:
            // the filter admits this whole stream, so every block of 100
            // counts.
            assert_eq!(t.batches, admitted.div_ceil(100));
            if engine_cfg == EngineConfig::serial() {
                // The calling thread snoops: there are no worker shards.
                assert!(t.shards.is_empty());
            } else {
                assert_eq!(t.shards.len(), 4);
                for s in &t.shards {
                    assert_eq!(s.snooped, admitted);
                }
            }
            assert!(t.wall > Duration::ZERO);
        }
    }
}
