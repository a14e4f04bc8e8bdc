//! The unified execution pipeline: a [`TransactionSource`] streaming
//! pooled blocks into an [`EmulationEngine`] through one optional
//! observation stage, the counter sampler.
//!
//! Every way of exercising the board — driving a live workload through
//! the host machine, replaying a captured trace, pushing synthetic
//! transactions — reduces to the same shape: a *source* packs one bus
//! transaction stream into pooled blocks; the *engine* (serial or
//! sharded) consumes them; the sampler watches the stream in between.
//! [`Pipeline`] is that shape made concrete:
//!
//! ```text
//!   TransactionSource ──PooledBlock──▶ [sampler] ──▶ EmulationEngine
//!   (live / trace / stream)                          (serial or sharded)
//! ```
//!
//! The block is the only thing that moves: [`Pipeline::feed_pooled`] is
//! the one entry point, and it hands blocks on to the engine's one entry
//! point, [`EmulationEngine::feed_pooled`]. The sampler cuts a block at
//! its sample positions with [`PooledBlock::split_off`].
//!
//! The sampler observes exclusively through [`EmulationEngine::barrier`]
//! — an exact counter snapshot of the stream position so far. Because a
//! barrier is bit-identical to a serial board at the same position
//! regardless of parallelism, every pipeline composition produces
//! bit-identical boards at any shard count; the differential suite
//! enforces this.
//!
//! A source is consumed when driven: [`TransactionSource::drive`] takes
//! it by value, streams it through, and hands the pipeline back together
//! with whatever statistics the source itself collected. The live source
//! reports its host machine and bus counters there, and its windowed
//! miss-ratio profile ([`PipelinedLiveSource::profile_every`]): its unit
//! is the workload reference, not the transaction, so it is the one
//! source that cuts its blocks at window ends and takes a
//! [`Pipeline::barrier`] at each. [`ChunkedTraceSource`] streams records
//! straight off a reader in fixed-size blocks, so replaying a
//! multi-gigabyte trace holds peak memory to O(chunk) — never a
//! whole-trace `Vec`.

use std::any::Any;
use std::fmt;
use std::io::Read;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

use memories::{BoardSnapshot, Error, MemoriesBoard, NodeCounters};
use memories_bus::{
    BlockPool, BusListener, BusStats, ListenerReaction, PoolStats, PooledBlock, Transaction,
};
use memories_host::{AccessKind, HostConfig, HostMachine, MachineStats};
use memories_obs::{EngineTelemetry, TimeSeries};
use memories_sim::EmulationEngine;
use memories_trace::TraceReader;
use memories_workloads::{RefKind, Workload, WorkloadEvent};

use crate::result::ProfilePoint;
use crate::session::SessionError;
use crate::shared::Shared;

/// What a pipeline should observe while the stream flows.
///
/// The default observes nothing: blocks flow straight to the engine,
/// which is exactly [`EmulationSession::run`] /
/// [`EmulationSession::replay_stream`].
///
/// [`EmulationSession::run`]: crate::EmulationSession::run
/// [`EmulationSession::replay_stream`]: crate::EmulationSession::replay_stream
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecutionOptions {
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
    /// Windowed miss-ratio profile (live sources with
    /// [`PipelinedLiveSource::profile_every`] set; empty otherwise).
    pub profile: Vec<ProfilePoint>,
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
    /// Per-node counter banks, indexed by node id; their derived
    /// statistics are methods of [`NodeCounters`].
    pub node_stats: Vec<NodeCounters>,
    /// Retries the board posted (zero in healthy runs — §3.3).
    pub retries_posted: u64,
    /// Windowed miss-ratio profile (see [`SourceStats::profile`]).
    pub profile: Vec<ProfilePoint>,
    /// Counter samples (empty unless
    /// [`ExecutionOptions::sample_every`] was set).
    pub series: TimeSeries,
    /// The engine's own performance telemetry.
    pub telemetry: EngineTelemetry,
    /// Source units driven (see [`SourceStats::units`]).
    pub units: u64,
    /// Host machine counters (live sources only).
    pub machine: Option<MachineStats>,
    /// Host bus statistics (live sources only).
    pub bus: Option<BusStats>,
}

/// Counter-sampling stage: when `admitted >= next_at`, take a barrier,
/// record it, and re-arm at `admitted + period`.
#[derive(Debug)]
struct Sampler {
    period: u64,
    next_at: u64,
    series: TimeSeries,
}

/// The engine plus its sampling stage, ready to be driven by a
/// [`TransactionSource`].
pub struct Pipeline {
    engine: EmulationEngine,
    sampler: Option<Sampler>,
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("engine", &self.engine)
            .field("admitted", &self.engine.admitted())
            .field("sampler", &self.sampler)
            .finish_non_exhaustive()
    }
}

impl Pipeline {
    /// Wraps an engine in the sampling stage `options` asks for.
    pub fn new(engine: EmulationEngine, options: &ExecutionOptions) -> Self {
        let sampler = options.sample_every.map(|period| {
            let period = period.max(1);
            Sampler {
                period,
                next_at: engine.admitted() + period,
                series: TimeSeries::new(),
            }
        });
        Pipeline { engine, sampler }
    }

    /// Feeds one pooled block of transactions, in stream order — the
    /// pipeline's one entry point.
    ///
    /// The block itself goes to the engine. With a sampling stage, a
    /// block that reaches past the next sample position is first cut
    /// there with [`PooledBlock::split_off`]: the admitted count grows by
    /// at most one per transaction, so after the head is fed the sample
    /// is either due, or the filter dropped part of the head and the
    /// tail is cut again. Every sample lands at exactly the position a
    /// block of one transaction at a time would have picked.
    ///
    /// # Errors
    ///
    /// Propagates a sampling barrier's failure.
    pub fn feed_pooled(&mut self, mut block: PooledBlock) -> Result<(), Error> {
        loop {
            // A sample re-arms past the admitted count, so `next_at` is
            // always ahead here and a cut is never empty.
            let admitted = self.engine.admitted();
            let tail = self
                .sampler
                .as_ref()
                .map(|s| usize::try_from(s.next_at - admitted).unwrap_or(usize::MAX))
                .filter(|&need| need < block.len())
                .map(|need| block.split_off(need));
            self.engine.feed_pooled(block);
            if self
                .sampler
                .as_ref()
                .is_some_and(|s| self.engine.admitted() >= s.next_at)
            {
                self.take_sample()?;
            }
            match tail {
                Some(rest) => block = rest,
                None => return Ok(()),
            }
        }
    }

    /// Takes the armed sample: barrier, record, re-arm.
    fn take_sample(&mut self) -> Result<(), Error> {
        let snap = self.engine.barrier()?;
        let admitted = self.engine.admitted();
        let s = self.sampler.as_mut().expect("sampler armed by caller");
        s.series.record(snap);
        s.next_at = admitted + s.period;
        Ok(())
    }

    /// An exact counter snapshot at the stream position fed so far (see
    /// [`EmulationEngine::barrier`]) — how a source observes the board
    /// between its own blocks.
    ///
    /// # Errors
    ///
    /// Propagates the barrier's failure.
    pub fn barrier(&mut self) -> Result<BoardSnapshot, Error> {
        self.engine.barrier()
    }

    /// Tears the engine down and collects everything, folding in the
    /// statistics the source gathered on its side.
    ///
    /// # Errors
    ///
    /// Surfaces an engine teardown error.
    pub fn finish(self, stats: SourceStats) -> Result<PipelineRun, Error> {
        let (board, report) = self.engine.finish_monitored()?;
        let mut telemetry = report.telemetry;
        if let Some(p) = stats.producer {
            // In a pipelined run the *source* is the producer stage: its
            // queue stalls take the producer_stalls slot, and the
            // engine's own worker-queue backpressure moves to
            // consumer_stalls.
            telemetry.consumer_stalls = telemetry.producer_stalls;
            telemetry.producer_stalls = p.stalls;
            telemetry.producer_blocks = p.blocks;
            telemetry.pool_hits += p.pool.hits;
            telemetry.pool_allocs += p.pool.fresh;
        }
        Ok(PipelineRun {
            node_stats: board.nodes().map(|n| n.counters().clone()).collect(),
            retries_posted: board.retries_posted(),
            profile: stats.profile,
            series: self.sampler.map(|s| s.series).unwrap_or_default(),
            telemetry,
            units: stats.units,
            machine: stats.machine,
            bus: stats.bus,
            board,
        })
    }
}

/// A producer of one bus-transaction stream — the other half of the
/// pipeline.
///
/// `drive` consumes the whole stream, packing it into pooled blocks for
/// [`Pipeline::feed_pooled`], then returns the pipeline together with the
/// source's own statistics. Driving consumes the source.
pub trait TransactionSource {
    /// Drives the entire stream through `pipeline`.
    ///
    /// # Errors
    ///
    /// Source-specific: host construction failures or trace decoding
    /// errors.
    fn drive(self, pipeline: Pipeline) -> Result<(Pipeline, SourceStats), Error>;
}

/// Transactions per pooled block for the sources that pack their own
/// blocks.
const BLOCK_CAPACITY: usize = 4096;

/// Executes one workload event on the host machine: a reference, an
/// instruction tick, or a DMA transfer. Returns whether it was a memory
/// reference, the unit every live run counts.
///
/// This is the one event loop body of the live source and of host-only
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

/// One hand-off over the producer queue: a block of bus transactions,
/// and the profile window it closes as `(units, cycle)`, if any.
struct Shipment {
    block: PooledBlock,
    closes: Option<(u64, u64)>,
}

/// How the producer hands blocks to the consumer loop.
struct BlockShipper {
    pool: BlockPool,
    block: PooledBlock,
    tx: SyncSender<Shipment>,
    blocks: u64,
    stalls: u64,
    /// Set when the consumer side dropped its receiver (it panicked or
    /// bailed); the producer stops generating as soon as it notices.
    disconnected: bool,
}

impl BlockShipper {
    /// Ships the block in hand, closing the profile window `closes` after
    /// it. An empty block is shipped only to carry a window mark.
    fn ship(&mut self, closes: Option<(u64, u64)>) {
        if self.block.is_empty() && closes.is_none() {
            return;
        }
        let block = std::mem::replace(&mut self.block, self.pool.take());
        self.blocks += 1;
        match self.tx.try_send(Shipment { block, closes }) {
            Ok(()) => {}
            Err(TrySendError::Full(shipment)) => {
                self.stalls += 1;
                if self.tx.send(shipment).is_err() {
                    self.disconnected = true;
                }
            }
            Err(TrySendError::Disconnected(_)) => self.disconnected = true,
        }
    }
}

impl BusListener for BlockShipper {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        self.block.push(*txn);
        if self.block.is_full() {
            self.ship(None);
        }
        ListenerReaction::Proceed
    }
}

/// The live source: builds the host machine and pumps `refs` workload
/// references through it (plus any interleaved instruction ticks and DMA
/// the workload emits), with the board snooping its bus through the
/// pipeline.
///
/// Host MESI simulation runs on a dedicated producer thread, filling
/// pooled transaction blocks and shipping them over a bounded queue,
/// while the calling thread drains the queue into the pipeline. Host
/// simulation and board emulation overlap instead of alternating, and
/// the handoff is whole blocks — the software analogue of the board
/// snooping the bus in real time while the host runs ahead (§2.1).
///
/// One source unit is one memory reference. On a profiled run
/// ([`profile_every`](Self::profile_every)) the producer cuts its block
/// after every `window`-th reference, and the window mark — the
/// reference count and the bus cycle it completed on — travels with that
/// block over the queue. The consumer takes a [`Pipeline::barrier`] at
/// each mark and turns the per-node demand hit/miss deltas since the
/// previous mark into a [`ProfilePoint`] of [`SourceStats::profile`].
///
/// The board never retries the live bus (the shipper always reacts
/// `Proceed`), so the stream order is fixed by the producer alone and
/// results are bit-identical to a board attached straight to the bus in
/// every run without retries (§3.3).
pub struct PipelinedLiveSource<'w> {
    host: HostConfig,
    workload: &'w mut dyn Workload,
    refs: u64,
    window: u64,
}

impl<'w> PipelinedLiveSource<'w> {
    /// Bounded block-queue depth between producer and consumer.
    pub const DEFAULT_QUEUE_DEPTH: usize = 4;

    /// Transactions per shipped block.
    pub const DEFAULT_BLOCK_CAPACITY: usize = BLOCK_CAPACITY;

    /// A live source driving `refs` references of `workload` through a
    /// host built from `host`.
    pub fn new(host: HostConfig, workload: &'w mut dyn Workload, refs: u64) -> Self {
        PipelinedLiveSource {
            host,
            workload,
            refs,
            window: 0,
        }
    }

    /// Records a windowed miss-ratio [`ProfilePoint`] every `window`
    /// references (the Figure 10 series); 0 records none.
    #[must_use]
    pub fn profile_every(mut self, window: u64) -> Self {
        self.window = window;
        self
    }
}

impl fmt::Debug for PipelinedLiveSource<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelinedLiveSource")
            .field("host", &self.host)
            .field("refs", &self.refs)
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

impl TransactionSource for PipelinedLiveSource<'_> {
    fn drive(self, mut pipeline: Pipeline) -> Result<(Pipeline, SourceStats), Error> {
        let PipelinedLiveSource {
            host,
            workload,
            refs,
            window,
        } = self;
        let pool = BlockPool::new(Self::DEFAULT_BLOCK_CAPACITY);
        let (tx, rx) = sync_channel::<Shipment>(Self::DEFAULT_QUEUE_DEPTH);

        let (consumed, produced) = std::thread::scope(|scope| {
            let producer = scope.spawn(move || -> Result<SourceStats, Error> {
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
                    if apply_event(&mut machine, workload.next_event()) {
                        done += 1;
                        if window > 0 && done.is_multiple_of(window) {
                            let cycle = machine.bus().current_cycle();
                            shipper.with_mut(|s| s.ship(Some((done, cycle))));
                        }
                    }
                }

                let machine_stats = machine.stats();
                let bus = machine.bus().stats().clone();
                drop(machine.detach_listeners());
                let mut shipper = shipper
                    .try_unwrap()
                    .map_err(|_| ())
                    .expect("producer holds the last shipper handle after detaching");
                shipper.ship(None);
                // Dropping the shipper here drops the sender; the
                // consumer's recv loop then ends cleanly.
                Ok(SourceStats {
                    units: done,
                    machine: Some(machine_stats),
                    bus: Some(bus),
                    producer: Some(ProducerStats {
                        blocks: shipper.blocks,
                        stalls: shipper.stalls,
                        pool: pool.stats(),
                    }),
                    profile: Vec::new(),
                })
            });

            // The consumer loop owns the receiver. When it returns early
            // or unwinds, the receiver drops, the producer's next send
            // fails, and the join ends instead of deadlocking on a full
            // queue. A panicked producer is joined here too, so the
            // scope never re-raises its panic.
            let consumed = consume(&mut pipeline, rx);
            (consumed, producer.join())
        });

        let mut stats = match produced {
            Ok(stats) => stats?,
            Err(panic) => {
                return Err(SessionError::ProducerPanicked {
                    admitted: pipeline.engine.admitted(),
                    message: panic_message(panic.as_ref()),
                }
                .into())
            }
        };
        stats.profile = consumed?;
        Ok((pipeline, stats))
    }
}

/// The live source's consumer loop: feeds every shipped block to the
/// pipeline and records a profile point at each window mark the blocks
/// carry, until the producer hangs up or the pipeline fails.
fn consume(pipeline: &mut Pipeline, rx: Receiver<Shipment>) -> Result<Vec<ProfilePoint>, Error> {
    let mut profile = Vec::new();
    // Cumulative (demand hits, demand misses) per node at the previous
    // window mark.
    let mut prev: Vec<(u64, u64)> = Vec::new();
    while let Ok(Shipment { block, closes }) = rx.recv() {
        pipeline.feed_pooled(block)?;
        let Some((end_ref, bus_cycle)) = closes else {
            continue;
        };
        let snap = pipeline.barrier()?;
        prev.resize(snap.node_count(), (0, 0));
        let window_miss_ratio = prev
            .iter_mut()
            .zip(&snap.nodes)
            .map(|(slot, s)| {
                let (h, m) = (s.demand_hits(), s.demand_misses());
                let (dh, dm) = (h - slot.0, m - slot.1);
                *slot = (h, m);
                let total = dh + dm;
                if total == 0 {
                    0.0
                } else {
                    dm as f64 / total as f64
                }
            })
            .collect();
        profile.push(ProfilePoint {
            end_ref,
            bus_cycle,
            window_miss_ratio,
        });
    }
    Ok(profile)
}

/// The text of a panic payload: the `&str` or `String` that `panic!`
/// formats, or a placeholder for any other payload type.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// A *streaming* trace source: decodes records straight off a byte
/// reader into pooled blocks of 4096 records via
/// [`TraceReader::read_block`], so the whole-trace
/// `Vec<TraceRecord>` never exists. Peak memory is O(chunk) no matter how
/// long the trace is — the software face of the board's
/// billion-reference trace memory (§2.3). Record `n` is re-timed to bus
/// cycle `n * cycle_spacing` (60 ≈ the paper's 20% utilization point);
/// one source unit = one record.
#[derive(Debug)]
pub struct ChunkedTraceSource<R: Read> {
    reader: TraceReader<R>,
    cycle_spacing: u64,
}

impl<R: Read> ChunkedTraceSource<R> {
    /// Opens `reader` as a trace (validating the header) and prepares to
    /// stream it at `cycle_spacing` cycles per record.
    ///
    /// # Errors
    ///
    /// Propagates header validation failures (bad magic, unsupported
    /// version, short file).
    pub fn new(reader: R, cycle_spacing: u64) -> Result<Self, Error> {
        Ok(ChunkedTraceSource {
            reader: TraceReader::new(reader)?,
            cycle_spacing,
        })
    }
}

impl<R: Read> TransactionSource for ChunkedTraceSource<R> {
    fn drive(mut self, mut pipeline: Pipeline) -> Result<(Pipeline, SourceStats), Error> {
        let pool = BlockPool::new(BLOCK_CAPACITY);
        let mut n = 0u64;
        loop {
            let mut block = pool.take();
            let got = self.reader.read_block(&mut block, n, self.cycle_spacing)?;
            if got == 0 {
                break;
            }
            n += got as u64;
            pipeline.feed_pooled(block)?;
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
/// [`Transaction`] vectors, anything already in bus form — packed into
/// pooled blocks. Transactions are fed exactly as given (sequence numbers
/// and cycles included); one source unit = one transaction.
#[derive(Debug)]
pub struct StreamSource<I> {
    txns: I,
}

impl<I> StreamSource<I> {
    /// A source feeding `txns` verbatim.
    pub fn new(txns: I) -> Self {
        StreamSource { txns }
    }
}

impl<I: IntoIterator<Item = Transaction>> TransactionSource for StreamSource<I> {
    fn drive(self, mut pipeline: Pipeline) -> Result<(Pipeline, SourceStats), Error> {
        let pool = BlockPool::new(BLOCK_CAPACITY);
        let mut block = pool.take();
        let mut units = 0u64;
        for txn in self.txns {
            block.push(txn);
            units += 1;
            if block.is_full() {
                pipeline.feed_pooled(std::mem::replace(&mut block, pool.take()))?;
            }
        }
        pipeline.feed_pooled(block)?;
        Ok((
            pipeline,
            SourceStats {
                units,
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
    use memories_sim::EngineConfig;
    use memories_trace::{TraceRecord, TraceWriter};

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

    fn engine(shards: usize) -> EmulationEngine {
        let cfg = if shards <= 1 {
            EngineConfig::serial()
        } else {
            EngineConfig::parallel(shards)
        };
        EmulationEngine::new(board(), cfg)
    }

    /// The sampling stage runs through barriers, so a sampled pipeline
    /// stays bit-identical to a bare serial board at any parallelism.
    #[test]
    fn observed_pipelines_stay_bit_identical_at_any_parallelism() {
        let mut reference = board();
        for i in 0..3_000 {
            use memories_bus::BusListener as _;
            reference.on_transaction(&txn(i));
        }

        let options = ExecutionOptions::new().sample_every(Some(700));
        let mut runs = Vec::new();
        for shards in [1, 2] {
            let source = StreamSource::new((0..3_000).map(txn));
            let pipeline = Pipeline::new(engine(shards), &options);
            let (pipeline, stats) = source.drive(pipeline).unwrap();
            let run = pipeline.finish(stats).unwrap();
            assert_eq!(
                run.board.statistics_report(),
                reference.statistics_report(),
                "{shards}-shard pipeline diverged"
            );
            assert_eq!(run.units, 3_000);
            assert!(!run.series.is_empty());
            runs.push(run);
        }
        // The observations themselves are identical across parallelism.
        assert_eq!(runs[0].series.len(), runs[1].series.len());
        for (a, b) in runs[0].series.points().iter().zip(runs[1].series.points()) {
            assert_eq!(a.cumulative, b.cumulative);
        }
    }

    /// Chunked streaming replay is record-for-record identical to the
    /// same records fed as an in-memory transaction stream.
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

        let options = ExecutionOptions::new();
        let buffered = StreamSource::new(
            (0u64..)
                .zip(records)
                .map(|(n, r)| r.to_transaction(n, n * 60)),
        );
        let (p, stats) = buffered.drive(Pipeline::new(engine(1), &options)).unwrap();
        let want = p.finish(stats).unwrap();

        let streamed = ChunkedTraceSource::new(bytes.as_slice(), 60).unwrap();
        let (p, stats) = streamed.drive(Pipeline::new(engine(2), &options)).unwrap();
        let got = p.finish(stats).unwrap();

        assert_eq!(want.units, 1_500);
        assert_eq!(got.units, 1_500);
        assert_eq!(
            want.board.statistics_report(),
            got.board.statistics_report()
        );
    }
}
