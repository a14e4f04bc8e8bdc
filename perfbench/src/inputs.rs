//! The benchmark's workloads: boards, seeded inputs and the floors each
//! input must clear. The timed runs, the traced run and the tests all
//! build their inputs here, so they always measure the same traffic.

use std::error::Error as StdError;
use std::time::Instant;

use memories::{BoardConfig, CacheParams, MemoriesBoard, NodeCounter, NodeSlot, TraceCapture};
use memories_bus::{Address, BusOp, ProcId, SnoopResponse, Transaction};
use memories_console::{
    ChunkedTraceSource, EmulationSession, ExecutionOptions, Shared, StreamSource,
};
use memories_host::{AccessKind, HostConfig, HostMachine};
use memories_obs::EngineTelemetry;
use memories_workloads::{
    DssConfig, DssWorkload, OltpConfig, OltpWorkload, RefKind, Workload, WorkloadEvent,
};

/// Error type of the benchmark: library errors and the benchmark's own
/// rejections (floors, gate setup) in one box.
pub type BenchResult<T> = Result<T, Box<dyn StdError>>;

/// Snoop shards of every timed run: `nproc` on the 2-core reference host.
pub const PARALLELISM: usize = 2;
/// Counter-sampling period of the live run, in admitted transactions.
pub const SAMPLE_EVERY: u64 = 4096;
/// Bus cycles between replayed records and stream transactions (the
/// paper's 20% utilization point).
pub const CYCLE_SPACING: u64 = 60;
/// Emulated cache line size on both boards.
const LINE: u64 = 128;
/// Footprint of the `stream-shared` stream: fits every emulated node.
pub const SHARED_FOOTPRINT: u64 = 1 << 20;

/// One benchmark workload: a board, a product path and its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `run_monitored_pipelined` of an OLTP workload on `sweep4`.
    LiveOltp,
    /// `execute(StreamSource)` of an in-memory bus stream on `numa2x2`.
    StreamShared,
    /// `replay_stream` of a captured DSS trace on `sweep4`.
    ReplayDss,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::LiveOltp, Kind::StreamShared, Kind::ReplayDss];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LiveOltp => "live-oltp",
            Kind::StreamShared => "stream-shared",
            Kind::ReplayDss => "replay-dss",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The board the workload runs on.
    pub fn board_name(self) -> &'static str {
        match self {
            Kind::LiveOltp | Kind::ReplayDss => "sweep4",
            Kind::StreamShared => "numa2x2",
        }
    }

    /// What one source unit is.
    pub fn unit_name(self) -> &'static str {
        match self {
            Kind::LiveOltp => "workload references",
            Kind::StreamShared => "transactions",
            Kind::ReplayDss => "records",
        }
    }

    /// Whether the product path samples the counters (`live-oltp` runs
    /// with `sample_every(4096)`).
    pub fn samples(self) -> bool {
        self == Kind::LiveOltp
    }

    fn board(self) -> BenchResult<BoardConfig> {
        match self {
            Kind::LiveOltp | Kind::ReplayDss => sweep4(),
            Kind::StreamShared => numa2x2(),
        }
    }
}

/// How much work one product-path run does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// References per `live-oltp` run.
    pub oltp_refs: u64,
    /// Transactions in the `stream-shared` stream.
    pub shared_txns: u64,
    /// DSS references driven to capture the `replay-dss` trace.
    pub dss_refs: u64,
}

impl Sizes {
    /// The sizes the command line runs.
    pub const FULL: Sizes = Sizes {
        oltp_refs: 1_500_000,
        shared_txns: 2_000_000,
        dss_refs: 6_000_000,
    };

    /// Short runs for the benchmark's own tests; every floor still holds.
    pub const TINY: Sizes = Sizes {
        oltp_refs: 120_000,
        shared_txns: 60_000,
        dss_refs: 150_000,
    };
}

fn cache(capacity: u64) -> BenchResult<CacheParams> {
    Ok(CacheParams::builder()
        .capacity(capacity)
        .ways(4)
        .line_size(LINE)
        .allow_scaled_down()
        .build()?)
}

fn all_cpus() -> Vec<ProcId> {
    (0..8).map(ProcId::new).collect()
}

/// Figure 4's parallel-config sweep: four single-node domains of 2, 8, 32
/// and 128 MB, 4-way, 128 B lines, all 8 CPUs.
///
/// # Errors
///
/// Never for these constants; propagates parameter validation.
pub fn sweep4() -> BenchResult<BoardConfig> {
    let configs = [2u64, 8, 32, 128]
        .into_iter()
        .map(|mb| cache(mb << 20))
        .collect::<BenchResult<Vec<_>>>()?;
    Ok(BoardConfig::parallel_configs(configs, all_cpus())?)
}

/// Two coherence domains, each a 2-node target machine (CPUs 0–3 and
/// 4–7): 2 MB nodes in domain 0, 8 MB nodes in domain 1.
///
/// # Errors
///
/// Never for these constants; propagates parameter validation.
pub fn numa2x2() -> BenchResult<BoardConfig> {
    let mut slots = Vec::new();
    for (domain, mb) in [(0u8, 2u64), (1, 8)] {
        for half in [0u8..4, 4..8] {
            slots.push(NodeSlot::new(cache(mb << 20)?, half.map(ProcId::new)).in_domain(domain));
        }
    }
    Ok(BoardConfig::from_slots(slots)?)
}

/// The host machine of the live and captured runs: the S7A preset.
pub fn host() -> HostConfig {
    HostConfig::s7a()
}

/// Derives an independent per-purpose seed from the workload seed.
fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The `live-oltp` workload: TPC-C-like, 256 MB Zipf database, 30%
/// writes, journal bursts.
pub fn oltp(seed: u64) -> OltpWorkload {
    OltpWorkload::new(OltpConfig {
        seed: derive(seed, 1),
        ..OltpConfig::scaled_default()
    })
}

/// The DSS workload whose trace `replay-dss` replays.
pub fn dss(seed: u64) -> DssWorkload {
    DssWorkload::new(DssConfig {
        seed: derive(seed, 2),
        ..DssConfig::scaled_default()
    })
}

/// SplitMix64: a small, fast, seedable generator for the synthetic
/// stream.
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Generator of the `stream-shared` stream: 8 CPUs over a 1 MB shared
/// footprint; 55% Read, 20% RWITM, 10% DClaim, 10% WriteBack and 5% Sync
/// (control traffic the filter drops), one transaction every
/// [`CYCLE_SPACING`] cycles.
#[derive(Clone, Debug)]
pub struct SharedStream {
    rng: SplitMix64,
    seq: u64,
}

impl SharedStream {
    /// The stream for workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        SharedStream {
            rng: SplitMix64(derive(seed, 3)),
            seq: 0,
        }
    }
}

impl Iterator for SharedStream {
    type Item = Transaction;

    fn next(&mut self) -> Option<Transaction> {
        let op = match self.rng.below(100) {
            0..=54 => BusOp::Read,
            55..=74 => BusOp::Rwitm,
            75..=84 => BusOp::DClaim,
            85..=94 => BusOp::WriteBack,
            _ => BusOp::Sync,
        };
        let cpu = ProcId::new(self.rng.below(8) as u8);
        let addr = Address::new(self.rng.below(SHARED_FOOTPRINT / LINE) * LINE);
        let seq = self.seq;
        self.seq += 1;
        Some(Transaction::new(
            seq,
            seq * CYCLE_SPACING,
            cpu,
            op,
            addr,
            SnoopResponse::Null,
        ))
    }
}

/// Executes one workload event on the host; returns whether it was a
/// memory reference.
pub fn apply(machine: &mut HostMachine, event: WorkloadEvent) -> bool {
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
        WorkloadEvent::Dma { write, addr } => {
            if write {
                machine.dma_write(addr);
            } else {
                machine.dma_read(addr);
            }
            false
        }
    }
}

/// Drives `refs` references of `workload` through `machine`, the same
/// event loop the live sources run.
fn drive(machine: &mut HostMachine, workload: &mut dyn Workload, refs: u64) {
    let mut done = 0;
    while done < refs {
        if apply(machine, workload.next_event()) {
            done += 1;
        }
    }
}

/// The paper's §2.3 capture-then-replay flow: a live DSS run with a
/// `TraceCapture` listener on the host bus, dumped to an in-memory trace.
///
/// # Errors
///
/// Host construction or trace encoding failures, or a capture that
/// dropped records.
pub fn capture_dss(seed: u64, refs: u64) -> BenchResult<Vec<u8>> {
    let mut machine = HostMachine::new(host())?;
    let capture = Shared::new(TraceCapture::new(TraceCapture::BOARD_CAPACITY));
    machine.attach_listener(Box::new(capture.handle()));
    drive(&mut machine, &mut dss(seed), refs);
    drop(machine.detach_listeners());
    let capture = capture
        .try_unwrap()
        .map_err(|_| "trace capture still attached after detaching listeners")?;
    if capture.dropped() > 0 {
        return Err(format!("trace capture dropped {} records", capture.dropped()).into());
    }
    let mut bytes = Vec::new();
    capture.dump(&mut bytes)?;
    Ok(bytes)
}

/// A workload's input, built from its seed.
#[derive(Debug)]
pub enum Source {
    /// A live run of this many references (the workload itself is
    /// rebuilt from the seed for every run).
    Live {
        /// References per run.
        refs: u64,
    },
    /// An in-memory bus stream.
    Stream(Vec<Transaction>),
    /// An in-memory encoded trace.
    Trace(Vec<u8>),
}

/// Everything one workload needs to run: its board and its input.
#[derive(Debug)]
pub struct Input {
    /// Which workload.
    pub kind: Kind,
    /// The workload seed the input was built from.
    pub seed: u64,
    /// The board configuration.
    pub board: BoardConfig,
    /// The input.
    pub source: Source,
}

/// What one product-path run hands back.
#[derive(Debug)]
pub struct ProductRun {
    /// The final board.
    pub board: MemoriesBoard,
    /// Source units driven.
    pub units: u64,
    /// Host seconds spent inside the product-path call.
    pub secs: f64,
    /// The run's engine telemetry (default for `replay_stream`, which
    /// reports none).
    pub telemetry: EngineTelemetry,
    /// Counter samples taken during the run.
    pub samples: usize,
}

impl Input {
    /// Builds the input of `kind` for `seed`.
    ///
    /// # Errors
    ///
    /// Board validation or trace capture failures.
    pub fn build(kind: Kind, seed: u64, sizes: Sizes) -> BenchResult<Input> {
        let source = match kind {
            Kind::LiveOltp => Source::Live {
                refs: sizes.oltp_refs,
            },
            Kind::StreamShared => Source::Stream(
                SharedStream::new(seed)
                    .take(usize::try_from(sizes.shared_txns)?)
                    .collect(),
            ),
            Kind::ReplayDss => Source::Trace(capture_dss(seed, sizes.dss_refs)?),
        };
        Ok(Input {
            kind,
            seed,
            board: kind.board()?,
            source,
        })
    }

    /// A session for this input at `parallelism` shards, sampling the
    /// counters every [`SAMPLE_EVERY`] admitted transactions if `sample`.
    ///
    /// # Errors
    ///
    /// Session validation failures.
    pub fn session(&self, parallelism: usize, sample: bool) -> BenchResult<EmulationSession> {
        let builder = EmulationSession::builder()
            .host(host())
            .board(self.board.clone())
            .parallelism(parallelism);
        let builder = if sample {
            builder.sample_every(SAMPLE_EVERY)
        } else {
            builder
        };
        Ok(builder.build()?)
    }

    /// Runs the workload's product path at `parallelism` shards, with
    /// counter sampling if `sample`, and times the product-path call
    /// alone (session construction stays off the clock).
    ///
    /// # Errors
    ///
    /// Whatever the product path returns.
    pub fn run(&self, parallelism: usize, sample: bool) -> BenchResult<ProductRun> {
        let session = self.session(parallelism, sample)?;
        let options = ExecutionOptions::new().sample_every(sample.then_some(SAMPLE_EVERY));
        let start = Instant::now();
        let run = match &self.source {
            Source::Live { refs } => {
                let mut workload = oltp(self.seed);
                let run = session.run_monitored_pipelined(&mut workload, *refs)?;
                return Ok(ProductRun {
                    secs: start.elapsed().as_secs_f64(),
                    units: *refs,
                    samples: run.series.len(),
                    telemetry: run.telemetry,
                    board: run.result.board,
                });
            }
            Source::Stream(txns) => {
                session.execute(StreamSource::new(txns.iter().copied()), options)?
            }
            Source::Trace(bytes) if sample => session.execute(
                ChunkedTraceSource::new(bytes.as_slice(), CYCLE_SPACING)?,
                options,
            )?,
            Source::Trace(bytes) => {
                let replay = session.replay_stream(bytes.as_slice(), CYCLE_SPACING)?;
                return Ok(ProductRun {
                    secs: start.elapsed().as_secs_f64(),
                    board: replay.board,
                    units: replay.records,
                    telemetry: EngineTelemetry::default(),
                    samples: 0,
                });
            }
        };
        Ok(ProductRun {
            secs: start.elapsed().as_secs_f64(),
            units: run.units,
            samples: run.series.len(),
            telemetry: run.telemetry,
            board: run.board,
        })
    }

    /// The serial (`parallelism(1)`) end-to-end run of this input,
    /// without sampling: the correctness reference, and the denominator
    /// of `layers.sum_over_serial`. `live-oltp` takes the alternating
    /// `run` path, with the workload generated inline.
    ///
    /// # Errors
    ///
    /// Whatever the product path returns.
    pub fn serial(&self) -> BenchResult<ProductRun> {
        let Source::Live { refs } = self.source else {
            return self.run(1, false);
        };
        let session = self.session(1, false)?;
        let mut workload = oltp(self.seed);
        let start = Instant::now();
        let result = session.run(&mut workload, refs)?;
        Ok(ProductRun {
            secs: start.elapsed().as_secs_f64(),
            units: refs,
            telemetry: EngineTelemetry::default(),
            samples: 0,
            board: result.board,
        })
    }
}

/// The traffic certificate of a finished board: what the floors check and
/// the traced run reports as exact counts.
#[derive(Clone, Debug, PartialEq)]
pub struct Traffic {
    /// Demand hit ratio of every node, by node id.
    pub hit_ratio: Vec<f64>,
    /// Victim evictions per 1000 admitted transactions, all nodes.
    pub evictions_per_ktxn: f64,
    /// Shared plus modified interventions per 1000 admitted
    /// transactions, all nodes.
    pub interventions_per_ktxn: f64,
}

impl Traffic {
    /// Reads the certificate off a board's final counters.
    pub fn of(board: &MemoriesBoard) -> Traffic {
        let admitted = board.filter().stats().forwarded.max(1) as f64;
        let sum = |counters: &[NodeCounter]| -> f64 {
            board
                .nodes()
                .map(|n| counters.iter().map(|c| n.counters().get(*c)).sum::<u64>())
                .sum::<u64>() as f64
        };
        Traffic {
            hit_ratio: board.nodes().map(|n| n.stats().hit_ratio()).collect(),
            evictions_per_ktxn: 1000.0 * sum(&[NodeCounter::VictimEvictions]) / admitted,
            interventions_per_ktxn: 1000.0
                * sum(&[
                    NodeCounter::InterventionsShared,
                    NodeCounter::InterventionsModified,
                ])
                / admitted,
        }
    }

    /// Rejects traffic that no longer exercises what `kind` claims:
    /// `live-oltp` and `replay-dss` must evict, `stream-shared` must
    /// intervene, and no workload may be all hits.
    ///
    /// # Errors
    ///
    /// A message naming the floor that failed.
    pub fn check_floors(&self, kind: Kind) -> BenchResult<()> {
        let name = kind.name();
        match kind {
            Kind::LiveOltp | Kind::ReplayDss if self.evictions_per_ktxn <= 0.0 => {
                return Err(format!(
                    "{name} input fails its floor: no evictions, so it no longer exercises the miss and eviction path"
                )
                .into());
            }
            Kind::StreamShared if self.interventions_per_ktxn <= 0.0 => {
                return Err(format!(
                    "{name} input fails its floor: no interventions, so it no longer exercises the sharing path"
                )
                .into());
            }
            _ => {}
        }
        if !self.hit_ratio.iter().any(|&h| h < 0.9) {
            return Err(format!(
                "{name} input fails its floor: every node hits at least 90% ({:?}), so it no longer exercises misses",
                self.hit_ratio
            )
            .into());
        }
        Ok(())
    }
}
