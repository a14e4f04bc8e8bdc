//! The unified emulation session: one builder, one error type, one
//! execution pipeline — serial or sharded.
//!
//! [`EmulationSession`] is the single front door to the board:
//!
//! ```
//! use memories::{BoardConfig, CacheParams, NodeSlot};
//! use memories_bus::ProcId;
//! use memories_console::EmulationSession;
//! use memories_host::HostConfig;
//! use memories_protocol::standard;
//! use memories_workloads::micro::UniformRandom;
//!
//! # fn main() -> Result<(), memories::Error> {
//! let params = CacheParams::builder()
//!     .capacity(1 << 20).allow_scaled_down().build()?;
//! let slot = NodeSlot::new(params, (0..2).map(ProcId::new)).with_protocol(standard::msi());
//! let session = EmulationSession::builder()
//!     .host(HostConfig { num_cpus: 2, ..HostConfig::s7a() })
//!     .board(BoardConfig::from_slots(vec![slot])?)
//!     .parallelism(2)
//!     .build()?;
//! let mut workload = UniformRandom::new(2, 8 << 20, 0.3, 1);
//! let result = session.run(&mut workload, 10_000)?;
//! assert!(result.node_stats[0].demand_references() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! The board comes as one [`BoardConfig`], as one console description
//! programs every node FPGA. Every public entry point —
//! [`run`](EmulationSession::run),
//! [`run_monitored_pipelined`](EmulationSession::run_monitored_pipelined)
//! and [`replay_stream`](EmulationSession::replay_stream) — is a thin
//! composition over [`execute`](EmulationSession::execute): pick a
//! [`TransactionSource`], pick whether to sample, drive the pipeline.
//! Live runs all use the one [`PipelinedLiveSource`]; custom sources or
//! observation mixes (a sampled replay, or a live source built with
//! [`profile_every`](PipelinedLiveSource::profile_every) for a windowed
//! miss-ratio profile) call `execute` directly. Sampling and profiling
//! act through snapshot barriers, so every mode works at any parallelism
//! and produces bit-identical counters (see [`crate::pipeline`]).
//!
//! Every failure converts into the workspace-wide [`memories::Error`]
//! (`enum Error` in the `memories` crate), so callers thread one error
//! type end to end.

use std::error::Error as StdError;
use std::fmt;
use std::io::Read;

use memories::{BoardConfig, Error, MemoriesBoard};
use memories_host::{HostConfig, HostMachine};
use memories_obs::{EngineTelemetry, TimeSeries};
use memories_sim::{EmulationEngine, EngineConfig};
use memories_workloads::Workload;

use crate::pipeline::{
    ChunkedTraceSource, ExecutionOptions, Pipeline, PipelineRun, PipelinedLiveSource,
    TransactionSource,
};
use crate::result::ExperimentResult;

/// Session-builder misuse and live-run failures, distinct from
/// configuration validation (which the component crates report
/// themselves).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// `run` needs a host machine; call `.host(...)` on the builder.
    MissingHost,
    /// The builder never got a board; call `.board(config)`.
    NoNodes,
    /// A live run's producer thread (host simulation and workload)
    /// panicked. The run stops at the panic; the board had admitted
    /// `admitted` transactions of the stream when it did.
    ProducerPanicked {
        /// Transactions the pipeline's front end had admitted when the
        /// producer's panic was collected.
        admitted: u64,
        /// The panic message.
        message: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::MissingHost => {
                write!(
                    f,
                    "running a workload needs a host machine: call .host(config)"
                )
            }
            SessionError::NoNodes => write!(f, "no board: call .board(config)"),
            SessionError::ProducerPanicked { admitted, message } => write!(
                f,
                "the live run's producer panicked after {admitted} admitted transactions: {message}"
            ),
        }
    }
}

impl StdError for SessionError {}

impl From<SessionError> for Error {
    fn from(e: SessionError) -> Self {
        Error::other(e)
    }
}

/// Builder for [`EmulationSession`] — the console's power-up flow as a
/// fluent API: host settings, the board configuration (node slots with
/// their protocols and domains) and execution parallelism.
#[derive(Clone, Debug, Default)]
pub struct EmulationSessionBuilder {
    host: Option<HostConfig>,
    board: Option<BoardConfig>,
    parallelism: usize,
    sample_every: Option<u64>,
}

impl EmulationSessionBuilder {
    /// Sets the host machine configuration (required for live runs; a
    /// replay-only session can omit it).
    #[must_use]
    pub fn host(mut self, config: HostConfig) -> Self {
        self.host = Some(config);
        self
    }

    /// Sets the board configuration (required): the node slots with
    /// their CPUs, protocols and coherence domains, plus the filter,
    /// timing and retry settings.
    #[must_use]
    pub fn board(mut self, config: BoardConfig) -> Self {
        self.board = Some(config);
        self
    }

    /// Number of parallel snoop shards (default 1 = serial). Values above
    /// the board's coherence-domain count are capped; see
    /// [`EmulationEngine`].
    #[must_use]
    pub fn parallelism(mut self, shards: usize) -> Self {
        self.parallelism = shards;
        self
    }

    /// Enables live counter sampling for monitored runs: every `period`
    /// admitted transactions the pipeline snapshots the board's counters
    /// into the time series that
    /// [`run_monitored_pipelined`](EmulationSession::run_monitored_pipelined)
    /// returns. A `period` of 0 is treated as 1. Without this call,
    /// monitored runs still return telemetry but an empty series.
    #[must_use]
    pub fn sample_every(mut self, period: u64) -> Self {
        self.sample_every = Some(period.max(1));
        self
    }

    /// Validates everything and produces a runnable session.
    ///
    /// # Errors
    ///
    /// Returns [`memories::Error`] for a missing board, an invalid board
    /// shape, or an invalid host configuration.
    pub fn build(self) -> Result<EmulationSession, Error> {
        let board = self.board.ok_or(SessionError::NoNodes)?;
        // Validate both configurations eagerly: a session that builds,
        // runs.
        MemoriesBoard::new(board.clone())?;
        if let Some(host) = &self.host {
            HostMachine::new(host.clone()).map_err(Error::host)?;
        }
        Ok(EmulationSession {
            host: self.host,
            board,
            parallelism: self.parallelism.max(1),
            sample_every: self.sample_every,
        })
    }
}

/// The outcome of [`EmulationSession::replay_stream`].
#[derive(Debug)]
pub struct ReplayResult {
    /// The board after replaying the whole trace.
    pub board: MemoriesBoard,
    /// Trace records replayed.
    pub records: u64,
}

/// The outcome of [`EmulationSession::run_monitored_pipelined`]: the usual
/// experiment statistics plus the live counter series and the engine's
/// own telemetry.
#[derive(Debug)]
pub struct MonitoredRun {
    /// The same statistics [`EmulationSession::run`] returns.
    pub result: ExperimentResult,
    /// Counter samples taken every
    /// [`sample_every`](EmulationSessionBuilder::sample_every) admitted
    /// transactions (empty if sampling was not enabled).
    pub series: TimeSeries,
    /// Engine performance counters: batches, stalls, per-shard
    /// throughput, wall time.
    pub telemetry: EngineTelemetry,
}

/// A validated emulation setup, ready to run a live workload or replay a
/// captured trace, serially or across parallel snoop shards.
///
/// Built by [`EmulationSession::builder`]. Every run mode flows through
/// the same [`TransactionSource`] → [`Pipeline`] →
/// [`EmulationEngine`] path; sampling and profiling observe through
/// snapshot barriers, so results are bit-identical at any
/// [`parallelism`](EmulationSessionBuilder::parallelism) (see
/// [`EmulationEngine`]).
#[derive(Clone, Debug)]
pub struct EmulationSession {
    host: Option<HostConfig>,
    board: BoardConfig,
    parallelism: usize,
    sample_every: Option<u64>,
}

impl EmulationSession {
    /// Starts a session builder.
    pub fn builder() -> EmulationSessionBuilder {
        EmulationSessionBuilder::default()
    }

    /// The engine configuration this session's parallelism implies.
    fn engine_config(&self) -> EngineConfig {
        if self.parallelism <= 1 {
            EngineConfig::serial()
        } else {
            EngineConfig::parallel(self.parallelism)
        }
    }

    /// Drives an arbitrary [`TransactionSource`] through this session's
    /// engine with the given sampling stage — the primitive every
    /// run/replay method composes.
    ///
    /// # Errors
    ///
    /// Propagates source failures (host construction, trace decoding)
    /// and any pipeline barrier/teardown failure.
    pub fn execute<S: TransactionSource>(
        &self,
        source: S,
        options: ExecutionOptions,
    ) -> Result<PipelineRun, Error> {
        let engine = EmulationEngine::new(
            MemoriesBoard::new(self.board.clone())?,
            self.engine_config(),
        );
        let (pipeline, stats) = source.drive(Pipeline::new(engine, &options))?;
        pipeline.finish(stats)
    }

    /// Builds a live source for this session's host, or reports that the
    /// builder never got one.
    fn live_source<'w>(
        &self,
        workload: &'w mut dyn Workload,
        refs: u64,
    ) -> Result<PipelinedLiveSource<'w>, Error> {
        let host = self.host.clone().ok_or(SessionError::MissingHost)?;
        Ok(PipelinedLiveSource::new(host, workload, refs))
    }

    /// Drives `refs` workload references through the host machine with
    /// the board snooping, and returns the collected statistics.
    ///
    /// Host simulation runs on its own producer thread (see
    /// [`PipelinedLiveSource`]) and overlaps board emulation; the
    /// workload moves to that thread for the duration of the call.
    /// The board snoops through the pipeline, so its buffer-overflow
    /// retry cannot feed back into the live bus; healthy runs post zero
    /// retries (§3.3), and the retry *count* is exact either way.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::MissingHost`] (as [`memories::Error`]) if
    /// the builder never got a host configuration.
    pub fn run(&self, workload: &mut dyn Workload, refs: u64) -> Result<ExperimentResult, Error> {
        Ok(experiment_result(self.execute(
            self.live_source(workload, refs)?,
            ExecutionOptions::new(),
        )?))
    }

    /// Like [`EmulationSession::run`], but also returns the live counter
    /// series (sampled every
    /// [`sample_every`](EmulationSessionBuilder::sample_every) admitted
    /// transactions — the board console's "watch the counters while it
    /// runs" mode) and the engine's own telemetry, including the
    /// producer's block and stall counters.
    ///
    /// With sampling disabled the pipeline takes no barriers, so the
    /// final counters are bit-identical to [`EmulationSession::run`];
    /// with sampling enabled they still are, because the block cuts at
    /// sample positions don't change results (see [`EmulationEngine`]).
    ///
    /// # Errors
    ///
    /// As [`EmulationSession::run`], plus any sampling-barrier failure.
    pub fn run_monitored_pipelined(
        &self,
        workload: &mut dyn Workload,
        refs: u64,
    ) -> Result<MonitoredRun, Error> {
        let source = self.live_source(workload, refs)?;
        let mut run = self.execute(
            source,
            ExecutionOptions::new().sample_every(self.sample_every),
        )?;
        let series = std::mem::take(&mut run.series);
        let telemetry = std::mem::take(&mut run.telemetry);
        Ok(MonitoredRun {
            series,
            telemetry,
            result: experiment_result(run),
        })
    }

    /// Replays a captured trace through a fresh board offline — the
    /// paper's repeatable off-line analysis path (§1). Takes the trace as
    /// a *stream*: any [`Read`] positioned at a trace file header,
    /// decoded in fixed-size chunks, so peak memory stays O(chunk) no
    /// matter how long the trace is (the board can capture a billion
    /// references — §2.3). Records are re-timed at `cycle_spacing` bus
    /// cycles apart (60 ≈ the paper's 20% utilization point). Uses the
    /// configured parallelism.
    ///
    /// # Errors
    ///
    /// Propagates header validation and record decoding errors; a
    /// truncated or corrupt trace fails cleanly without panicking.
    pub fn replay_stream<R: Read>(
        &self,
        reader: R,
        cycle_spacing: u64,
    ) -> Result<ReplayResult, Error> {
        let run = self.execute(
            ChunkedTraceSource::new(reader, cycle_spacing)?,
            ExecutionOptions::new(),
        )?;
        Ok(ReplayResult {
            board: run.board,
            records: run.units,
        })
    }
}

/// Converts a live-source pipeline run into the classic result shape.
///
/// # Panics
///
/// Panics if the run did not come from a live source (no machine/bus
/// statistics).
fn experiment_result(run: PipelineRun) -> ExperimentResult {
    ExperimentResult {
        node_stats: run.node_stats,
        machine: run.machine.expect("live sources report machine statistics"),
        bus: run.bus.expect("live sources report bus statistics"),
        retries_posted: run.retries_posted,
        board: run.board,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::Shared;
    use memories::CacheParams;
    use memories_bus::{NodeId, ProcId};
    use memories_host::AccessKind;
    use memories_protocol::ProtocolTable;
    use memories_workloads::micro::{Sequential, UniformRandom};
    use memories_workloads::{RefKind, WorkloadEvent};

    fn params(capacity: u64) -> CacheParams {
        CacheParams::builder()
            .capacity(capacity)
            .ways(2)
            .allow_scaled_down()
            .build()
            .unwrap()
    }

    /// One node of `params(capacity)` snooping CPUs 0 and 1.
    fn one_node(capacity: u64) -> BoardConfig {
        BoardConfig::single_node(params(capacity), (0..2).map(ProcId::new)).unwrap()
    }

    fn host(cpus: usize) -> HostConfig {
        HostConfig {
            num_cpus: cpus,
            inner_cache: None,
            outer_cache: memories_bus::Geometry::new(64 << 10, 2, 128).unwrap(),
            ..HostConfig::s7a()
        }
    }

    #[test]
    fn builder_misuse_is_reported_at_build() {
        let err = EmulationSession::builder()
            .host(host(2))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("no board"), "{err}");

        let err = Error::from(ProtocolTable::parse_map_file("garbage").unwrap_err());
        assert!(matches!(err, Error::Protocol(_)), "{err:?}");

        let err = EmulationSession::builder()
            .board(one_node(1 << 20))
            .build()
            .unwrap()
            .run(&mut UniformRandom::new(2, 1 << 20, 0.3, 1), 10)
            .unwrap_err();
        assert!(err.to_string().contains("host machine"), "{err}");
    }

    /// The pipeline path must reproduce the classic hand-rolled harness
    /// (board attached straight to the bus) bit for bit.
    #[test]
    fn session_run_matches_a_directly_attached_board() {
        let cfg = one_node(1 << 20);

        // Classic path: board as a plain bus listener, pumped by hand.
        let board = Shared::new(MemoriesBoard::new(cfg.clone()).unwrap());
        let mut machine = HostMachine::new(host(2)).unwrap();
        machine.attach_listener(Box::new(board.handle()));
        let mut w1 = UniformRandom::new(2, 16 << 20, 0.3, 5);
        let mut done = 0;
        while done < 20_000 {
            match w1.next_event() {
                WorkloadEvent::Ref(r) => {
                    let kind = match r.kind {
                        RefKind::Load => AccessKind::Load,
                        RefKind::Store => AccessKind::Store,
                    };
                    machine.access(r.cpu, kind, r.addr);
                    done += 1;
                }
                WorkloadEvent::Instructions { cpu, count } => {
                    machine.tick_instructions(cpu, count);
                }
                _ => {}
            }
        }
        let classic_loads = machine.stats().total_loads();
        drop(machine.detach_listeners());
        let classic = board.try_unwrap().map_err(|_| ()).unwrap();

        let session = EmulationSession::builder()
            .host(host(2))
            .board(one_node(1 << 20))
            .build()
            .unwrap();
        let mut w2 = UniformRandom::new(2, 16 << 20, 0.3, 5);
        let new = session.run(&mut w2, 20_000).unwrap();

        assert_eq!(classic.retries_posted(), new.retries_posted);
        assert_eq!(classic.statistics_report(), new.board.statistics_report());
        assert_eq!(classic_loads, new.machine.total_loads());
    }

    #[test]
    fn run_collects_consistent_statistics() {
        let session = EmulationSession::builder()
            .host(host(2))
            .board(one_node(1 << 20))
            .build()
            .unwrap();
        let mut w = UniformRandom::new(2, 16 << 20, 0.3, 5);
        let result = session.run(&mut w, 20_000).unwrap();
        assert_eq!(
            result.machine.total_loads() + result.machine.total_stores(),
            20_000
        );
        // The board sees exactly the machine's L2 miss/upgrade traffic.
        let demand = result.node_stats[0].demand_references();
        let expected = result.machine.outer_misses() + result.machine.total().upgrades;
        assert_eq!(demand, expected);
        assert_eq!(result.retries_posted, 0);
        assert!(result.bus.utilization() > 0.0);
    }

    #[test]
    fn profile_windows_cover_the_run() {
        let session = EmulationSession::builder()
            .host(host(2))
            .board(one_node(1 << 20))
            .build()
            .unwrap();
        let mut w = UniformRandom::new(2, 16 << 20, 0.3, 6);
        let source = session.live_source(&mut w, 10_000).unwrap();
        let result = session
            .execute(source.profile_every(2_000), ExecutionOptions::new())
            .unwrap();
        assert_eq!(result.profile.len(), 5);
        assert_eq!(result.profile.last().unwrap().end_ref, 10_000);
        for p in &result.profile {
            assert_eq!(p.window_miss_ratio.len(), 1);
            assert!((0.0..=1.0).contains(&p.window_miss_ratio[0]));
        }
        // Bus cycles increase monotonically across windows.
        for w in result.profile.windows(2) {
            assert!(w[1].bus_cycle >= w[0].bus_cycle);
        }
    }

    /// Profiled runs no longer force the serial path: the telemetry
    /// proves the shards actually ran, and the windows are identical to
    /// the serial profile.
    #[test]
    fn profiled_runs_use_the_configured_parallelism() {
        let configs = vec![params(1 << 20), params(2 << 20)];
        let cpus: Vec<ProcId> = (0..2).map(ProcId::new).collect();
        let board = BoardConfig::parallel_configs(configs, cpus).unwrap();

        let profile_at = |parallelism: usize| {
            let session = EmulationSession::builder()
                .host(host(2))
                .board(board.clone())
                .parallelism(parallelism)
                .build()
                .unwrap();
            let mut w = UniformRandom::new(2, 16 << 20, 0.3, 7);
            let source = session.live_source(&mut w, 12_000).unwrap();
            let run = session
                .execute(source.profile_every(3_000), ExecutionOptions::new())
                .unwrap();
            assert_eq!(run.profile.len(), 4);
            run
        };

        let serial = profile_at(1);
        assert!(serial.telemetry.shards.is_empty());
        let parallel = profile_at(2);
        assert_eq!(
            parallel.telemetry.shards.len(),
            2,
            "profiled run must keep its shards"
        );
        assert_eq!(serial.profile, parallel.profile);
        assert_eq!(
            serial.board.statistics_report(),
            parallel.board.statistics_report()
        );
    }

    #[test]
    fn sequential_workload_hits_after_warmup() {
        let session = EmulationSession::builder()
            .host(host(2))
            .board(one_node(1 << 20))
            .build()
            .unwrap();
        // Footprint 128 KB per cpu fits the 1 MB emulated cache: after the
        // first lap everything hits (in the *emulated* cache; the host L2
        // keeps missing since 64 KB < footprint).
        let mut w = Sequential::new(2, 128 << 10, 128);
        let result = session.run(&mut w, 8_000).unwrap();
        let stats = &result.node_stats[0];
        assert!(stats.demand_references() > 2_000);
        assert!(
            stats.hit_ratio() > 0.4,
            "emulated hit ratio {:.3} too low after warmup",
            stats.hit_ratio()
        );
    }

    #[test]
    fn parallel_session_matches_serial_bit_for_bit() {
        let configs = vec![params(1 << 20), params(2 << 20), params(4 << 20)];
        let cpus: Vec<ProcId> = (0..2).map(ProcId::new).collect();
        let board = BoardConfig::parallel_configs(configs, cpus).unwrap();

        let run = |parallelism: usize| {
            let session = EmulationSession::builder()
                .host(host(2))
                .board(board.clone())
                .parallelism(parallelism)
                .build()
                .unwrap();
            let mut w = UniformRandom::new(2, 16 << 20, 0.3, 9);
            session.run(&mut w, 20_000).unwrap()
        };

        let serial = run(1);
        assert_eq!(serial.retries_posted, 0, "healthy run must not retry");
        for shards in [2, 3] {
            let par = run(shards);
            assert_eq!(
                serial.board.statistics_report(),
                par.board.statistics_report(),
                "{shards}-shard run diverged from serial"
            );
            assert_eq!(serial.bus.transactions, par.bus.transactions);
        }
    }

    #[test]
    fn monitored_run_matches_plain_run_and_samples() {
        let configs = vec![params(1 << 20), params(2 << 20)];
        let cpus: Vec<ProcId> = (0..2).map(ProcId::new).collect();
        let board = BoardConfig::parallel_configs(configs, cpus).unwrap();

        for parallelism in [1, 2] {
            let make = |sample: Option<u64>| {
                let mut b = EmulationSession::builder()
                    .host(host(2))
                    .board(board.clone())
                    .parallelism(parallelism);
                if let Some(n) = sample {
                    b = b.sample_every(n);
                }
                b.build().unwrap()
            };
            let mut w = UniformRandom::new(2, 16 << 20, 0.3, 9);
            let plain = make(None).run(&mut w, 20_000).unwrap();

            // Sampling disabled: bit-identical to run().
            let mut w = UniformRandom::new(2, 16 << 20, 0.3, 9);
            let silent = make(None).run_monitored_pipelined(&mut w, 20_000).unwrap();
            assert_eq!(
                plain.board.statistics_report(),
                silent.result.board.statistics_report()
            );
            assert!(silent.series.is_empty());
            assert!(silent.telemetry.seen > 0);

            // Sampling enabled: still bit-identical, series populated.
            let mut w = UniformRandom::new(2, 16 << 20, 0.3, 9);
            let monitored = make(Some(1_000))
                .run_monitored_pipelined(&mut w, 20_000)
                .unwrap();
            assert_eq!(
                plain.board.statistics_report(),
                monitored.result.board.statistics_report()
            );
            assert!(
                monitored.series.len() >= 5,
                "parallelism {parallelism}: expected samples, got {}",
                monitored.series.len()
            );
            let last = monitored.series.last().unwrap();
            assert!(last.cumulative.demand_references > 0);
        }
    }

    #[test]
    fn replay_matches_a_live_run() {
        use memories::TraceCapture;
        use memories_trace::TraceWriter;

        let cfg = one_node(1 << 20);
        let board = Shared::new(MemoriesBoard::new(cfg.clone()).unwrap());
        let capture = Shared::new(TraceCapture::new(1 << 20));
        let mut machine = HostMachine::new(host(2)).unwrap();
        machine.attach_listener(Box::new(board.handle()));
        machine.attach_listener(Box::new(capture.handle()));
        let mut w = UniformRandom::new(2, 8 << 20, 0.3, 3);
        let mut done = 0;
        while done < 5_000 {
            if let WorkloadEvent::Ref(r) = w.next_event() {
                let kind = match r.kind {
                    RefKind::Load => AccessKind::Load,
                    RefKind::Store => AccessKind::Store,
                };
                machine.access(r.cpu, kind, r.addr);
                done += 1;
            }
        }
        drop(machine.detach_listeners());

        let mut bytes = Vec::new();
        let mut writer = TraceWriter::new(&mut bytes).unwrap();
        capture.with(|c| {
            for r in c.records() {
                writer.write_record(r).unwrap();
            }
        });
        writer.finish().unwrap();
        for parallelism in [1, 2] {
            let session = EmulationSession::builder()
                .board(cfg.clone())
                .parallelism(parallelism)
                .build()
                .unwrap();
            let result = session.replay_stream(bytes.as_slice(), 60).unwrap();
            assert!(result.records > 0);
            board.with(|live| {
                assert_eq!(
                    live.node(NodeId::new(0)).counters(),
                    result.board.node(NodeId::new(0)).counters(),
                    "replay (parallelism {parallelism}) diverged from the live run"
                );
            });
        }
    }

    /// `replay_stream` decodes off the reader in chunks and lands on the
    /// same board as the decoded records fed as an in-memory stream;
    /// damaged streams error out cleanly and leave the session reusable.
    #[test]
    fn replay_stream_matches_replay_and_survives_damage() {
        use crate::pipeline::StreamSource;
        use memories_trace::{TraceError, TraceRecord, TraceWriter};

        let cfg = one_node(64 << 10);
        let session = EmulationSession::builder()
            .board(cfg)
            .parallelism(2)
            .build()
            .unwrap();

        let records: Vec<TraceRecord> = (0..4_000)
            .map(|i| {
                TraceRecord::from_transaction(&memories_bus::Transaction::new(
                    i,
                    i * 60,
                    ProcId::new((i % 2) as u8),
                    memories_bus::BusOp::Read,
                    memories_bus::Address::new((i % 512) * 128),
                    memories_bus::SnoopResponse::Null,
                ))
            })
            .collect();
        let mut bytes = Vec::new();
        let mut w = TraceWriter::new(&mut bytes).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap();

        let txns = (0u64..)
            .zip(&records)
            .map(|(n, r)| r.to_transaction(n, n * 60));
        let buffered = session
            .execute(StreamSource::new(txns), ExecutionOptions::new())
            .unwrap();
        let streamed = session.replay_stream(bytes.as_slice(), 60).unwrap();
        assert_eq!(streamed.records, 4_000);
        assert_eq!(
            buffered.board.statistics_report(),
            streamed.board.statistics_report()
        );

        // Truncated mid-record: error, not panic.
        let err = session
            .replay_stream(&bytes[..bytes.len() - 3], 60)
            .unwrap_err();
        assert!(
            matches!(&err, Error::Trace(TraceError::TruncatedRecord { .. })),
            "{err:?}"
        );
        // Corrupt header: rejected before any record flows.
        let err = session.replay_stream(&b"JUNKJUNK"[..], 60).unwrap_err();
        assert!(
            matches!(&err, Error::Trace(TraceError::BadMagic { .. })),
            "{err:?}"
        );
        // The session itself is stateless across calls: a good replay
        // still works after the failures.
        let again = session.replay_stream(bytes.as_slice(), 60).unwrap();
        assert_eq!(again.records, 4_000);
    }
}
