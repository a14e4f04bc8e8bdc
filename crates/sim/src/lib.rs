//! Baseline simulators and time models.
//!
//! The paper positions MemorIES against two software baselines:
//!
//! * A **trace-driven C simulator**, "used as one of the methods to
//!   validate the MemorIES design" (§4.1, Table 3). [`CacheSim`] is that
//!   simulator: an independently-implemented functional model of one
//!   emulated cache, driven from trace records. Differential tests check
//!   that the board and the simulator agree *exactly*; the Table 3 bench
//!   measures its wall-clock against the board's real-time model.
//! * **Augmint**, an execution-driven simulator (§4.2, Table 4).
//!   [`AugmintModel`] is a cost model of such a simulator: execution time
//!   is host time multiplied by a fixed slowdown (900×, the ratio
//!   implied by every row of Table 4).
//!
//! [`CSimTimeModel`] extrapolates measured simulator throughput to the
//! paper's huge trace sizes. The board's own cost needs no model here: it
//! runs in real time, so its cost is the host's run time
//! (`memories_host::HostConfig::seconds_for_instructions`).
//!
//! [`EmulationEngine`] is the one stream consumer, serial or sharded:
//! it takes the stream in pooled blocks, admits each in place through
//! the board's one front end, and hands what it admitted to whole-domain
//! groups of node controllers — snooped on the calling thread in serial
//! mode, on one worker thread per group in parallel mode — producing a
//! board bit-identical to a per-transaction run. Its [`barrier`] is an exact
//! mid-stream counter snapshot — the only observation primitive the
//! console pipeline's sampler and profiler use — and
//! [`finish_monitored`] returns a [`MonitorReport`] carrying the
//! engine's own telemetry (`memories-obs`). It is the execution half of
//! the console's `TransactionSource → Pipeline → EmulationEngine`
//! pipeline (DESIGN.md §8).
//!
//! [`barrier`]: EmulationEngine::barrier
//! [`finish_monitored`]: EmulationEngine::finish_monitored

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augmint;
mod compare;
mod csim;
mod engine;
mod multinode;
mod timing;

pub use augmint::AugmintModel;
pub use compare::{compare_counts, CompareReport};
pub use csim::CacheSim;
pub use engine::{EmulationEngine, EngineConfig, EngineMode, MonitorReport};
pub use multinode::MultiNodeSim;
pub use timing::CSimTimeModel;
