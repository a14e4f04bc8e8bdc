//! The unified execution pipeline: a [`TransactionSource`] streaming into
//! an [`ExecutionBackend`] through optional observation stages.
//!
//! Every way of exercising the board — driving a live workload through
//! the host machine, replaying a captured trace, pushing synthetic
//! transactions — reduces to the same shape: a *source* produces one bus
//! transaction stream; a *backend* consumes it; observation stages watch
//! the stream in between. [`Pipeline`] is that shape made concrete:
//!
//! ```text
//!   TransactionSource ──feed──▶ [sampler] ──▶ [profiler] ──▶ ExecutionBackend
//!   (live / trace / stream)        │              │          (serial board or
//!                                  └── barrier ───┘           sharded engine)
//! ```
//!
//! Both stages observe exclusively through
//! [`ExecutionBackend::barrier`] — an exact counter snapshot of the
//! stream position so far. Because a barrier is bit-identical to a
//! serial board at the same position regardless of backend parallelism,
//! *every* pipeline composition (plain, sampled, profiled) produces
//! bit-identical boards at any shard count; the differential suite
//! enforces this.
//!
//! Sources are single-shot: [`TransactionSource::drive`] consumes the
//! stream and hands the pipeline back together with whatever statistics
//! the source itself collected (host machine counters for live runs).
//! [`ChunkedTraceSource`] streams records straight off a reader in
//! fixed-size batches, so replaying a multi-gigabyte trace holds peak
//! memory to O(chunk) — never a whole-trace `Vec`.

use std::error::Error as StdError;
use std::fmt;
use std::io::Read;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};

use memories::{BoardSnapshot, Error, MemoriesBoard, NodeStats};
use memories_bus::{
    BlockPool, BusListener, BusStats, ListenerReaction, NodeId, PoolStats, PooledBlock,
    Transaction, TransactionBlock,
};
use memories_host::{AccessKind, HostConfig, HostMachine, MachineStats};
use memories_obs::{EngineTelemetry, TimeSeries};
use memories_sim::ExecutionBackend;
use memories_trace::{TraceReader, TraceRecord};
use memories_workloads::{RefKind, Workload, WorkloadEvent};

use crate::result::ProfilePoint;
use crate::shared::Shared;

/// Pipeline misuse, distinct from board/trace errors (which keep their
/// own [`memories::Error`] variants).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// A single-shot source was driven a second time.
    SourceExhausted,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::SourceExhausted => {
                write!(
                    f,
                    "this transaction source was already driven; sources are single-shot"
                )
            }
        }
    }
}

impl StdError for PipelineError {}

impl From<PipelineError> for Error {
    fn from(e: PipelineError) -> Self {
        Error::other(e)
    }
}

/// What a pipeline should observe while the stream flows.
///
/// The default observes nothing: transactions flow straight to the
/// backend, which is exactly [`EmulationSession::run`] /
/// [`EmulationSession::replay`].
///
/// [`EmulationSession::run`]: crate::EmulationSession::run
/// [`EmulationSession::replay`]: crate::EmulationSession::replay
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecutionOptions {
    /// Take a windowed miss-ratio [`ProfilePoint`] every this many
    /// source units (workload references / trace records); 0 disables
    /// profiling.
    pub window_refs: u64,
    /// Record a counter sample into the time series every this many
    /// *admitted* transactions; `None` disables sampling. A period of 0
    /// is treated as 1.
    pub sample_every: Option<u64>,
}

impl ExecutionOptions {
    /// Observe nothing (the plain-run configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the profiling window ([`window_refs`](Self::window_refs)).
    #[must_use]
    pub fn window_refs(mut self, window: u64) -> Self {
        self.window_refs = window;
        self
    }

    /// Sets the sampling period ([`sample_every`](Self::sample_every)).
    #[must_use]
    pub fn sample_every(mut self, period: Option<u64>) -> Self {
        self.sample_every = period;
        self
    }
}

/// Statistics a source collected on its own side of the pipeline while
/// driving the stream.
#[derive(Debug, Default)]
pub struct SourceStats {
    /// Source units produced: workload references for live sources,
    /// records for trace sources, transactions for raw streams.
    pub units: u64,
    /// Host machine counters (live sources only).
    pub machine: Option<MachineStats>,
    /// Host bus statistics (live sources only).
    pub bus: Option<BusStats>,
    /// Producer-stage counters (pipelined sources only); folded into the
    /// run's [`EngineTelemetry`] by [`Pipeline::finish`].
    pub producer: Option<ProducerStats>,
}

/// What a pipelined producer stage counted while running ahead of the
/// consumer.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProducerStats {
    /// Blocks the producer shipped over the bounded queue.
    pub blocks: u64,
    /// Times the producer found the block queue full and had to block —
    /// the pipelined counterpart of the engine's `producer_stalls`.
    pub stalls: u64,
    /// The producer-side block pool's allocation counters.
    pub pool: PoolStats,
}

/// Everything a finished pipeline hands back.
#[derive(Debug)]
pub struct PipelineRun {
    /// The board after consuming the whole stream.
    pub board: MemoriesBoard,
    /// Per-node derived statistics, indexed by node id.
    pub node_stats: Vec<NodeStats>,
    /// Retries the board posted (zero in healthy runs — §3.3).
    pub retries_posted: u64,
    /// Windowed miss-ratio profile (empty unless
    /// [`ExecutionOptions::window_refs`] was set).
    pub profile: Vec<ProfilePoint>,
    /// Counter samples (empty unless
    /// [`ExecutionOptions::sample_every`] was set).
    pub series: TimeSeries,
    /// The backend's own performance telemetry.
    pub telemetry: EngineTelemetry,
    /// Source units driven (see [`SourceStats::units`]).
    pub units: u64,
    /// Host machine counters (live sources only).
    pub machine: Option<MachineStats>,
    /// Host bus statistics (live sources only).
    pub bus: Option<BusStats>,
}

/// Counter-sampling stage: replicate the engine's auto-sampling contract
/// — after each feed, if `admitted >= next_at`, take a barrier, record
/// it, and re-arm at `admitted + period`.
#[derive(Debug)]
struct Sampler {
    period: u64,
    next_at: u64,
    series: TimeSeries,
}

/// Windowed-profiling stage: every `window` source units, take a barrier
/// and turn per-node demand hit/miss deltas into a [`ProfilePoint`].
#[derive(Debug)]
struct Profiler {
    window: u64,
    next_at: u64,
    /// Cumulative (demand hits, demand misses) per node at the previous
    /// window boundary; sized lazily from the first snapshot.
    prev: Vec<(u64, u64)>,
    points: Vec<ProfilePoint>,
}

impl Profiler {
    fn record(&mut self, units: u64, cycle: u64, snap: &BoardSnapshot) {
        self.next_at += self.window;
        if self.prev.len() < snap.node_count() {
            self.prev.resize(snap.node_count(), (0, 0));
        }
        let mut ratios = Vec::with_capacity(snap.node_count());
        for (i, slot) in self.prev.iter_mut().enumerate() {
            let s = snap.node_stats(i);
            let (h, m) = (s.demand_hits(), s.demand_misses());
            let (dh, dm) = (h - slot.0, m - slot.1);
            *slot = (h, m);
            let total = dh + dm;
            ratios.push(if total == 0 {
                0.0
            } else {
                dm as f64 / total as f64
            });
        }
        self.points.push(ProfilePoint {
            end_ref: units,
            bus_cycle: cycle,
            window_miss_ratio: ratios,
        });
    }
}

/// A backend plus its observation stages, ready to be driven by a
/// [`TransactionSource`].
///
/// Barrier failures inside [`feed`](Self::feed) / [`end_unit`](Self::end_unit)
/// cannot surface there (sources push unconditionally), so they are
/// parked and returned by [`finish`](Self::finish) — matching the
/// engine's own deferred-error contract.
pub struct Pipeline {
    backend: Box<dyn ExecutionBackend>,
    sampler: Option<Sampler>,
    profiler: Option<Profiler>,
    units: u64,
    deferred: Option<Error>,
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("shards", &self.backend.shard_count())
            .field("admitted", &self.backend.admitted())
            .field("units", &self.units)
            .field("sampler", &self.sampler)
            .field("profiler", &self.profiler)
            .finish_non_exhaustive()
    }
}

impl Pipeline {
    /// Wraps a backend in the stages `options` asks for.
    pub fn new(backend: Box<dyn ExecutionBackend>, options: &ExecutionOptions) -> Self {
        let sampler = options.sample_every.map(|period| {
            let period = period.max(1);
            Sampler {
                period,
                next_at: backend.admitted() + period,
                series: TimeSeries::new(),
            }
        });
        let profiler = (options.window_refs > 0).then(|| Profiler {
            window: options.window_refs,
            next_at: options.window_refs,
            prev: Vec::new(),
            points: Vec::new(),
        });
        Pipeline {
            backend,
            sampler,
            profiler,
            units: 0,
            deferred: None,
        }
    }

    /// Feeds one bus transaction, in stream order, then runs the
    /// sampling stage.
    pub fn feed(&mut self, txn: &Transaction) {
        self.backend.feed(txn);
        let due = self
            .sampler
            .as_ref()
            .is_some_and(|s| self.backend.admitted() >= s.next_at);
        if due {
            self.take_sample();
        }
    }

    /// Takes the armed sample: barrier, record, re-arm. On barrier
    /// failure the error is parked and the sampler disabled (don't
    /// repeat the failure).
    fn take_sample(&mut self) {
        match self.backend.barrier() {
            Ok(snap) => {
                let admitted = self.backend.admitted();
                let s = self.sampler.as_mut().expect("sampler armed by caller");
                s.series.record(snap);
                s.next_at = admitted + s.period;
            }
            Err(e) => {
                self.deferred.get_or_insert(e);
                self.sampler = None;
            }
        }
    }

    /// Feeds a whole block of transactions, in stream order.
    ///
    /// Bit-identical to calling [`feed`](Self::feed) once per
    /// transaction: when the sampling stage is armed, the block is fed
    /// in sub-slices sized to the next sample position (admitted count
    /// grows by at most one per transaction, so every sample lands at
    /// exactly the position the per-transaction path would have picked).
    /// Without a sampler the whole block goes to the backend in one
    /// dispatch.
    pub fn feed_block(&mut self, txns: &[Transaction]) {
        let mut rest = txns;
        while !rest.is_empty() {
            let Some(next_at) = self.sampler.as_ref().map(|s| s.next_at) else {
                self.backend.feed_block(rest);
                return;
            };
            let admitted = self.backend.admitted();
            if admitted >= next_at {
                self.take_sample();
                continue;
            }
            let need = usize::try_from(next_at - admitted).unwrap_or(usize::MAX);
            let k = need.min(rest.len());
            self.backend.feed_block(&rest[..k]);
            rest = &rest[k..];
            if self.backend.admitted() >= next_at {
                self.take_sample();
            }
        }
    }

    /// Feeds an already-pooled block, handing the buffer itself to the
    /// backend when no sampling stage needs to split it (the zero-copy
    /// fast path).
    pub fn feed_pooled(&mut self, block: PooledBlock) {
        if self.sampler.is_some() {
            self.feed_block(block.as_slice());
        } else {
            self.backend.feed_pooled(block);
        }
    }

    /// Whether any stage needs per-unit [`end_unit`](Self::end_unit)
    /// boundaries (the windowed profiler does). Sources that can batch
    /// check this to decide between the block path and the exact
    /// per-unit path.
    pub fn wants_unit_boundaries(&self) -> bool {
        self.profiler.is_some()
    }

    /// Marks the end of one source unit (a workload reference, a trace
    /// record) at the given bus cycle, then runs the profiling stage.
    pub fn end_unit(&mut self, cycle: u64) {
        self.units += 1;
        let due = self
            .profiler
            .as_ref()
            .is_some_and(|p| self.units >= p.next_at);
        if due {
            match self.backend.barrier() {
                Ok(snap) => {
                    let p = self.profiler.as_mut().expect("profiler checked above");
                    p.record(self.units, cycle, &snap);
                }
                Err(e) => {
                    self.deferred.get_or_insert(e);
                    self.profiler = None;
                }
            }
        }
    }

    /// Source units fed so far.
    pub fn units(&self) -> u64 {
        self.units
    }

    /// Tears the backend down and collects everything, folding in the
    /// statistics the source gathered on its side.
    ///
    /// # Errors
    ///
    /// Surfaces any barrier error parked during the run, then any
    /// backend teardown error.
    pub fn finish(self, stats: SourceStats) -> Result<PipelineRun, Error> {
        if let Some(e) = self.deferred {
            return Err(e);
        }
        let (board, mut telemetry) = self.backend.finish()?;
        if let Some(p) = stats.producer {
            // In a pipelined run the *source* is the producer stage: its
            // queue stalls take the producer_stalls slot, and the
            // engine's own worker-queue backpressure (what the feed loop
            // would have absorbed in an alternating run) moves to
            // consumer_stalls.
            telemetry.consumer_stalls = telemetry.producer_stalls;
            telemetry.producer_stalls = p.stalls;
            telemetry.producer_blocks = p.blocks;
            telemetry.pool_hits += p.pool.hits;
            telemetry.pool_allocs += p.pool.fresh;
        }
        Ok(PipelineRun {
            node_stats: (0..board.node_count())
                .map(|i| board.node_stats(NodeId::new(i as u8)))
                .collect(),
            retries_posted: board.retries_posted(),
            profile: self.profiler.map(|p| p.points).unwrap_or_default(),
            series: self.sampler.map(|s| s.series).unwrap_or_default(),
            telemetry,
            units: stats.units.max(self.units),
            machine: stats.machine,
            bus: stats.bus,
            board,
        })
    }
}

/// A producer of one bus-transaction stream — the other half of the
/// pipeline.
///
/// `drive` consumes the whole stream, pushing every transaction through
/// [`Pipeline::feed`] and closing each source unit with
/// [`Pipeline::end_unit`], then returns the pipeline together with the
/// source's own statistics. Sources are single-shot.
pub trait TransactionSource {
    /// Drives the entire stream through `pipeline`.
    ///
    /// # Errors
    ///
    /// Source-specific: host construction failures, trace decoding
    /// errors, or [`PipelineError::SourceExhausted`] on reuse.
    fn drive(&mut self, pipeline: Pipeline) -> Result<(Pipeline, SourceStats), Error>;
}

/// Adapts the pipeline to the bus-listener interface for live runs:
/// every transaction is fed through the stages; the reaction is always
/// `Proceed` (buffered backends cannot retry the live bus — healthy runs
/// post zero retries, and the retry *count* stays exact either way).
struct PipelineFeed(Shared<Pipeline>);

impl BusListener for PipelineFeed {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        self.0.with_mut(|p| p.feed(txn));
        ListenerReaction::Proceed
    }

    fn on_block(&mut self, block: &TransactionBlock) -> ListenerReaction {
        self.0.with_mut(|p| p.feed_block(block.as_slice()));
        ListenerReaction::Proceed
    }
}

/// Executes one workload event on the host machine: a reference, an
/// instruction tick, or a DMA transfer. Returns whether it was a memory
/// reference, the unit every live run counts.
///
/// This is the one event loop body of the live sources and of host-only
/// runs.
pub fn apply_event(machine: &mut HostMachine, event: WorkloadEvent) -> bool {
    match event {
        WorkloadEvent::Ref(r) => {
            let kind = match r.kind {
                RefKind::Load => AccessKind::Load,
                RefKind::Store => AccessKind::Store,
            };
            machine.access(r.cpu, kind, r.addr);
            true
        }
        WorkloadEvent::Instructions { cpu, count } => {
            machine.tick_instructions(cpu, count);
            false
        }
        WorkloadEvent::Dma { write: true, addr } => {
            machine.dma_write(addr);
            false
        }
        WorkloadEvent::Dma { write: false, addr } => {
            machine.dma_read(addr);
            false
        }
    }
}

/// A live source: builds the host machine, snoops its bus into the
/// pipeline, and pumps `refs` workload references through it (plus any
/// interleaved instruction ticks and DMA the workload emits). One
/// source unit = one memory reference, closed at the bus cycle the
/// reference completed on — exactly the windowing the classic profiled
/// runner used.
pub struct LiveSource<'w> {
    host: HostConfig,
    workload: &'w mut dyn Workload,
    refs: u64,
}

impl<'w> LiveSource<'w> {
    /// Block capacity for batched bus delivery on unprofiled runs.
    pub const BLOCK_CAPACITY: usize = 4096;

    /// A source driving `refs` references of `workload` through a host
    /// built from `host`.
    pub fn new(host: HostConfig, workload: &'w mut dyn Workload, refs: u64) -> Self {
        LiveSource {
            host,
            workload,
            refs,
        }
    }
}

impl fmt::Debug for LiveSource<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveSource")
            .field("host", &self.host)
            .field("refs", &self.refs)
            .finish()
    }
}

impl TransactionSource for LiveSource<'_> {
    fn drive(&mut self, pipeline: Pipeline) -> Result<(Pipeline, SourceStats), Error> {
        let mut machine = HostMachine::new(self.host.clone()).map_err(Error::host)?;
        // The windowed profiler needs an end_unit barrier after every
        // reference, so a profiled run keeps per-transaction delivery;
        // everything else takes the batched block path.
        let batched = !pipeline.wants_unit_boundaries();
        let shared = Shared::new(pipeline);
        machine.attach_listener(Box::new(PipelineFeed(shared.handle())));
        if batched {
            machine.deliver_batched(BlockPool::new(Self::BLOCK_CAPACITY));
        }

        let mut done: u64 = 0;
        while done < self.refs {
            if apply_event(&mut machine, self.workload.next_event()) {
                done += 1;
                if !batched {
                    let cycle = machine.bus().current_cycle();
                    shared.with_mut(|p| p.end_unit(cycle));
                }
            }
        }

        let machine_stats = machine.stats();
        let bus = machine.bus().stats().clone();
        drop(machine.detach_listeners());
        let pipeline = shared
            .try_unwrap()
            .map_err(|_| ())
            .expect("source holds the last pipeline handle after detaching listeners");
        Ok((
            pipeline,
            SourceStats {
                units: done,
                machine: Some(machine_stats),
                bus: Some(bus),
                ..SourceStats::default()
            },
        ))
    }
}

/// How a pipelined producer hands blocks to the consumer loop.
struct BlockShipper {
    pool: BlockPool,
    block: PooledBlock,
    tx: SyncSender<PooledBlock>,
    blocks: u64,
    stalls: u64,
    /// Set when the consumer side dropped its receiver (it panicked or
    /// bailed); the producer stops generating as soon as it notices.
    disconnected: bool,
}

impl BlockShipper {
    fn ship(&mut self, full: PooledBlock) {
        self.blocks += 1;
        match self.tx.try_send(full) {
            Ok(()) => {}
            Err(TrySendError::Full(b)) => {
                self.stalls += 1;
                if self.tx.send(b).is_err() {
                    self.disconnected = true;
                }
            }
            Err(TrySendError::Disconnected(_)) => self.disconnected = true,
        }
    }

    fn flush(&mut self) {
        if !self.block.is_empty() {
            let partial = std::mem::replace(&mut self.block, self.pool.take());
            self.ship(partial);
        }
    }
}

impl BusListener for BlockShipper {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        self.block.push(*txn);
        if self.block.is_full() {
            let full = std::mem::replace(&mut self.block, self.pool.take());
            self.ship(full);
        }
        ListenerReaction::Proceed
    }
}

/// What the producer thread hands back when it drains.
struct ProducerSide {
    units: u64,
    machine: MachineStats,
    bus: BusStats,
    stats: ProducerStats,
}

/// A live source with its own producer stage: host MESI simulation runs
/// on a dedicated thread, filling pooled transaction blocks and shipping
/// them over a bounded queue, while the calling thread drains the queue
/// into the pipeline. Host simulation and board emulation overlap
/// instead of alternating, and the handoff is whole blocks — the
/// software analogue of the board snooping the bus in real time while
/// the host runs ahead (§2.1).
///
/// Results are bit-identical to [`LiveSource`]: the stream order is
/// fixed by the producer, and the pipeline is batch-size-invariant.
/// Profiled runs (which need per-reference unit boundaries) are not
/// supported — drive them through [`LiveSource`].
pub struct PipelinedLiveSource<'w> {
    host: HostConfig,
    workload: &'w mut (dyn Workload + Send),
    refs: u64,
    queue_depth: usize,
    block_capacity: usize,
}

impl<'w> PipelinedLiveSource<'w> {
    /// Bounded block-queue depth between producer and consumer.
    pub const DEFAULT_QUEUE_DEPTH: usize = 4;

    /// Transactions per shipped block.
    pub const DEFAULT_BLOCK_CAPACITY: usize = 4096;

    /// A pipelined source driving `refs` references of `workload`
    /// through a host built from `host`.
    pub fn new(host: HostConfig, workload: &'w mut (dyn Workload + Send), refs: u64) -> Self {
        PipelinedLiveSource {
            host,
            workload,
            refs,
            queue_depth: Self::DEFAULT_QUEUE_DEPTH,
            block_capacity: Self::DEFAULT_BLOCK_CAPACITY,
        }
    }

    /// Overrides the block-queue depth (0 is treated as 1).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Overrides the shipped-block capacity (0 is treated as 1).
    #[must_use]
    pub fn with_block_capacity(mut self, capacity: usize) -> Self {
        self.block_capacity = capacity.max(1);
        self
    }
}

impl fmt::Debug for PipelinedLiveSource<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelinedLiveSource")
            .field("host", &self.host)
            .field("refs", &self.refs)
            .field("queue_depth", &self.queue_depth)
            .field("block_capacity", &self.block_capacity)
            .finish()
    }
}

impl TransactionSource for PipelinedLiveSource<'_> {
    fn drive(&mut self, mut pipeline: Pipeline) -> Result<(Pipeline, SourceStats), Error> {
        let host = self.host.clone();
        let refs = self.refs;
        let pool = BlockPool::new(self.block_capacity);
        let (tx, rx) = sync_channel::<PooledBlock>(self.queue_depth);
        let workload = &mut *self.workload;

        let produced = std::thread::scope(|scope| {
            // Own the receiver inside the scope: if the consumer loop
            // panics, unwinding drops it, the producer's next send
            // fails, and the scope can join the producer instead of
            // deadlocking on a full queue.
            let rx = rx;
            let producer = scope.spawn(move || -> Result<ProducerSide, Error> {
                let mut machine = HostMachine::new(host).map_err(Error::host)?;
                let shipper = Shared::new(BlockShipper {
                    block: pool.take(),
                    pool: pool.clone(),
                    tx,
                    blocks: 0,
                    stalls: 0,
                    disconnected: false,
                });
                machine.attach_listener(Box::new(shipper.handle()));

                let mut done: u64 = 0;
                while done < refs && !shipper.with(|s| s.disconnected) {
                    done += u64::from(apply_event(&mut machine, workload.next_event()));
                }

                let machine_stats = machine.stats();
                let bus = machine.bus().stats().clone();
                drop(machine.detach_listeners());
                let mut shipper = shipper
                    .try_unwrap()
                    .map_err(|_| ())
                    .expect("producer holds the last shipper handle after detaching");
                shipper.flush();
                let stats = ProducerStats {
                    blocks: shipper.blocks,
                    stalls: shipper.stalls,
                    pool: pool.stats(),
                };
                // Dropping the shipper here drops the sender; the
                // consumer's recv loop then ends cleanly.
                Ok(ProducerSide {
                    units: done,
                    machine: machine_stats,
                    bus,
                    stats,
                })
            });

            while let Ok(block) = rx.recv() {
                pipeline.feed_pooled(block);
            }
            producer.join()
        });

        let side = produced.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        Ok((
            pipeline,
            SourceStats {
                units: side.units,
                machine: Some(side.machine),
                bus: Some(side.bus),
                producer: Some(side.stats),
            },
        ))
    }
}

/// An offline trace source over any record iterator, re-timed at
/// `cycle_spacing` bus cycles per record (60 ≈ the paper's 20%
/// utilization point). One source unit = one record.
#[derive(Debug)]
pub struct TraceSource<I> {
    records: Option<I>,
    cycle_spacing: u64,
}

impl<I> TraceSource<I> {
    /// A source replaying `records` at `cycle_spacing` cycles apart.
    pub fn new(records: I, cycle_spacing: u64) -> Self {
        TraceSource {
            records: Some(records),
            cycle_spacing,
        }
    }
}

impl<I, E> TransactionSource for TraceSource<I>
where
    I: IntoIterator<Item = Result<TraceRecord, E>>,
    E: Into<Error>,
{
    fn drive(&mut self, mut pipeline: Pipeline) -> Result<(Pipeline, SourceStats), Error> {
        let records = self.records.take().ok_or(PipelineError::SourceExhausted)?;
        let mut n = 0u64;
        for rec in records {
            let rec = rec.map_err(Into::into)?;
            let cycle = n * self.cycle_spacing;
            pipeline.feed(&rec.to_transaction(n, cycle));
            pipeline.end_unit(cycle);
            n += 1;
        }
        Ok((
            pipeline,
            SourceStats {
                units: n,
                ..SourceStats::default()
            },
        ))
    }
}

/// A *streaming* trace source: decodes records straight off a byte
/// reader in fixed-size chunks via [`TraceReader::read_chunk`], so the
/// whole-trace `Vec<TraceRecord>` never exists. Peak memory is
/// O(chunk) no matter how long the trace is — the software face of the
/// board's billion-reference trace memory (§2.3).
#[derive(Debug)]
pub struct ChunkedTraceSource<R: Read> {
    reader: Option<TraceReader<R>>,
    cycle_spacing: u64,
    chunk: usize,
}

impl<R: Read> ChunkedTraceSource<R> {
    /// Records decoded per chunk by default.
    pub const DEFAULT_CHUNK: usize = 4096;

    /// Opens `reader` as a trace (validating the header) and prepares to
    /// stream it at `cycle_spacing` cycles per record.
    ///
    /// # Errors
    ///
    /// Propagates header validation failures (bad magic, unsupported
    /// version, short file).
    pub fn new(reader: R, cycle_spacing: u64) -> Result<Self, Error> {
        Ok(ChunkedTraceSource {
            reader: Some(TraceReader::new(reader)?),
            cycle_spacing,
            chunk: Self::DEFAULT_CHUNK,
        })
    }

    /// Overrides the chunk size (records per read; 0 is treated as 1).
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }
}

impl<R: Read> TransactionSource for ChunkedTraceSource<R> {
    fn drive(&mut self, mut pipeline: Pipeline) -> Result<(Pipeline, SourceStats), Error> {
        let mut reader = self.reader.take().ok_or(PipelineError::SourceExhausted)?;
        let mut n = 0u64;
        if pipeline.wants_unit_boundaries() {
            // Profiled replay: the windowed profiler needs an end_unit
            // boundary after every record, so decode and feed per record.
            let mut buf = Vec::new();
            loop {
                let got = reader.read_chunk(&mut buf, self.chunk)?;
                if got == 0 {
                    break;
                }
                for rec in &buf {
                    let cycle = n * self.cycle_spacing;
                    pipeline.feed(&rec.to_transaction(n, cycle));
                    pipeline.end_unit(cycle);
                    n += 1;
                }
            }
        } else {
            // Block-native replay: decode straight into pooled blocks
            // and hand each buffer to the pipeline whole. Numbering and
            // timing are identical to the per-record path.
            let pool = BlockPool::new(self.chunk);
            loop {
                let mut block = pool.take();
                let got = reader.read_block(&mut block, n, self.cycle_spacing)?;
                if got == 0 {
                    break;
                }
                n += got as u64;
                pipeline.feed_pooled(block);
            }
        }
        Ok((
            pipeline,
            SourceStats {
                units: n,
                ..SourceStats::default()
            },
        ))
    }
}

/// A raw transaction stream — synthetic generators, captured
/// [`Transaction`] vectors, anything already in bus form. Transactions
/// are fed exactly as given (sequence numbers and cycles included); one
/// source unit = one transaction, closed at the transaction's own cycle.
#[derive(Debug)]
pub struct StreamSource<I> {
    txns: Option<I>,
}

impl<I> StreamSource<I> {
    /// A source feeding `txns` verbatim.
    pub fn new(txns: I) -> Self {
        StreamSource { txns: Some(txns) }
    }
}

impl<I: IntoIterator<Item = Transaction>> TransactionSource for StreamSource<I> {
    fn drive(&mut self, mut pipeline: Pipeline) -> Result<(Pipeline, SourceStats), Error> {
        let txns = self.txns.take().ok_or(PipelineError::SourceExhausted)?;
        let mut n = 0u64;
        for txn in txns {
            pipeline.feed(&txn);
            pipeline.end_unit(txn.cycle);
            n += 1;
        }
        Ok((
            pipeline,
            SourceStats {
                units: n,
                ..SourceStats::default()
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories::{BoardConfig, CacheParams};
    use memories_bus::{Address, BusOp, ProcId, SnoopResponse};
    use memories_sim::{EmulationEngine, EngineConfig};
    use memories_trace::TraceWriter;

    fn board() -> MemoriesBoard {
        let params = CacheParams::builder()
            .capacity(16 << 10)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap();
        let cfg =
            BoardConfig::parallel_configs(vec![params, params], (0..4).map(ProcId::new).collect())
                .unwrap();
        MemoriesBoard::new(cfg).unwrap()
    }

    fn txn(i: u64) -> Transaction {
        Transaction::new(
            i,
            i * 60,
            ProcId::new((i % 4) as u8),
            if i.is_multiple_of(3) {
                BusOp::Rwitm
            } else {
                BusOp::Read
            },
            Address::new((i % 64) * 128),
            SnoopResponse::Null,
        )
    }

    fn backend(shards: usize) -> Box<dyn ExecutionBackend> {
        let cfg = if shards <= 1 {
            EngineConfig::serial()
        } else {
            EngineConfig::parallel(shards).with_batch(128)
        };
        Box::new(EmulationEngine::new(board(), cfg))
    }

    /// Profiling and sampling stages run through barriers, so a pipeline
    /// with both stages stays bit-identical to a bare serial board at
    /// any parallelism.
    #[test]
    fn observed_pipelines_stay_bit_identical_at_any_parallelism() {
        let mut reference = board();
        for i in 0..3_000 {
            use memories_bus::BusListener as _;
            reference.on_transaction(&txn(i));
        }

        let options = ExecutionOptions::new()
            .window_refs(500)
            .sample_every(Some(700));
        let mut runs = Vec::new();
        for shards in [1, 2] {
            let mut source = StreamSource::new((0..3_000).map(txn));
            let pipeline = Pipeline::new(backend(shards), &options);
            let (pipeline, stats) = source.drive(pipeline).unwrap();
            let run = pipeline.finish(stats).unwrap();
            assert_eq!(
                run.board.statistics_report(),
                reference.statistics_report(),
                "{shards}-shard pipeline diverged"
            );
            assert_eq!(run.units, 3_000);
            assert_eq!(run.profile.len(), 6);
            assert_eq!(run.profile.last().unwrap().end_ref, 3_000);
            assert!(!run.series.is_empty());
            runs.push(run);
        }
        // The observations themselves are identical across parallelism.
        assert_eq!(runs[0].profile, runs[1].profile);
        assert_eq!(runs[0].series.len(), runs[1].series.len());
        for (a, b) in runs[0].series.points().iter().zip(runs[1].series.points()) {
            assert_eq!(a.cumulative, b.cumulative);
        }
    }

    /// Chunked streaming replay is record-for-record identical to the
    /// buffered iterator source.
    #[test]
    fn chunked_source_matches_buffered_source() {
        let records: Vec<TraceRecord> = (0..1_500)
            .map(|i| TraceRecord::from_transaction(&txn(i)))
            .collect();
        let mut bytes = Vec::new();
        let mut w = TraceWriter::new(&mut bytes).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap();

        let mut buffered = TraceSource::new(records.into_iter().map(Ok::<_, Error>), 60);
        let (p, stats) = buffered
            .drive(Pipeline::new(backend(1), &ExecutionOptions::new()))
            .unwrap();
        let want = p.finish(stats).unwrap();

        let mut streamed = ChunkedTraceSource::new(bytes.as_slice(), 60)
            .unwrap()
            .with_chunk(64);
        let (p, stats) = streamed
            .drive(Pipeline::new(backend(2), &ExecutionOptions::new()))
            .unwrap();
        let got = p.finish(stats).unwrap();

        assert_eq!(want.units, 1_500);
        assert_eq!(got.units, 1_500);
        assert_eq!(
            want.board.statistics_report(),
            got.board.statistics_report()
        );

        // Single-shot: a second drive reports exhaustion, not silence.
        let err = streamed
            .drive(Pipeline::new(backend(1), &ExecutionOptions::new()))
            .unwrap_err();
        assert!(err.to_string().contains("single-shot"), "{err}");
    }
}
