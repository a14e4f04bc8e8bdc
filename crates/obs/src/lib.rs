//! Online monitoring for the MemorIES board model.
//!
//! The physical board's console reads the 400+ event counters *while the
//! workload runs* (§4: "the user can monitor the emulation process in
//! real time"); nothing stops, nothing is perturbed, and the §5 case
//! studies fall out of watching miss rates evolve over hours-long runs
//! rather than waiting for a post-mortem dump. This crate is the software
//! equivalent of that console view:
//!
//! * [`TimeSeries`] / [`SamplePoint`] — a sequence of
//!   [`BoardSnapshot`](memories::BoardSnapshot)s taken every N admitted
//!   transactions, each carrying both cumulative and windowed (delta)
//!   statistics: miss rate, intervention rate, bus utilization, retries.
//! * [`EngineTelemetry`] / [`ShardTelemetry`] — how the *emulator itself*
//!   is doing: batches broadcast, producer stalls, per-shard throughput,
//!   and the emulated-time vs wall-time ratio against an
//!   [`SdramModel`](memories::SdramModel) (the board ran in real time;
//!   the software model reports how far from that it is).
//! * [`export`] — JSONL and CSV serialization of a series, hand-rolled so
//!   the workspace stays dependency-free.
//!
//! The crate is pure data plumbing: it depends only on `memories` (core)
//! and never touches engine internals. `memories-sim` produces these
//! types from its snapshot barrier; `memories-console` surfaces them per
//! session.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
mod series;
mod telemetry;

pub use series::{SamplePoint, SampleStats, TimeSeries};
pub use telemetry::{EngineTelemetry, ShardTelemetry};
