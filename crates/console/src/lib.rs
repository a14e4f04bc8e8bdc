//! The console software: programming the board and running experiments.
//!
//! The real console is "an IBM PC running Windows 95/98, which provides a
//! programming interface to the MemorIES board using an AMCC parallel
//! port control card. The console software is used for power-up
//! initialization of the MemorIES board, cache parameter setting, and
//! statistics extraction" (§2). Here the console is a library:
//!
//! * [`EmulationSession`] — the unified front door: one builder takes
//!   the board as one [`BoardConfig`](memories::BoardConfig) (node
//!   parameters, protocol tables, coherence domains) and the host, then
//!   `.run(...)` drives a live workload — serially or across parallel
//!   snoop shards — and `.replay_stream(...)` re-runs a captured trace
//!   straight off its encoded bytes. Errors unify under
//!   [`memories::Error`].
//! * [`pipeline`] — the machinery underneath: every run mode is a
//!   [`TransactionSource`] (the pipelined live source, streaming trace
//!   replay, raw transaction streams) packing pooled blocks into a
//!   [`Pipeline`], whose optional sampling stage observes via snapshot
//!   barriers of the one consumer,
//!   [`EmulationEngine`](memories_sim::EmulationEngine). Custom sources
//!   and observation mixes — a live source with a windowed miss-ratio
//!   profile for the Figure 10 style plots, say — compose through
//!   [`EmulationSession::execute`].
//! * [`ExperimentResult`] — the statistics extracted from a run.
//! * [`report`] — ASCII table and CSV rendering for the `repro` harness.
//!
//! # Examples
//!
//! ```
//! use memories::{BoardConfig, CacheParams};
//! use memories_bus::ProcId;
//! use memories_console::EmulationSession;
//! use memories_host::HostConfig;
//! use memories_workloads::micro::UniformRandom;
//!
//! # fn main() -> Result<(), memories::Error> {
//! let params = CacheParams::builder()
//!     .capacity(1 << 20).allow_scaled_down().build()?;
//! let session = EmulationSession::builder()
//!     .host(HostConfig { num_cpus: 2, ..HostConfig::s7a() })
//!     .board(BoardConfig::single_node(params, (0..2).map(ProcId::new))?)
//!     .build()?;
//! let mut workload = UniformRandom::new(2, 8 << 20, 0.3, 1);
//! let result = session.run(&mut workload, 10_000)?;
//! assert!(result.node_stats[0].demand_references() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod pipeline;
pub mod report;
mod result;
mod session;
mod shared;

pub use pipeline::{
    apply_event, ChunkedTraceSource, ExecutionOptions, Pipeline, PipelineRun, PipelinedLiveSource,
    ProducerStats, SourceStats, StreamSource, TransactionSource,
};
pub use result::{ExperimentResult, ProfilePoint};
pub use session::{
    EmulationSession, EmulationSessionBuilder, MonitoredRun, ReplayResult, SessionError,
};
pub use shared::Shared;
