//! A seeded performance benchmark for the MemorIES reproduction.
//!
//! Three workloads drive three product paths of `EmulationSession`:
//! `live-oltp` (a pipelined, monitored live run), `stream-shared` (a raw
//! in-memory bus stream) and `replay-dss` (a streaming trace replay). A
//! plain run reports end-to-end metrics; a traced run times each layer
//! in isolation on the same input. See `README.md` beside this crate.

pub mod calibrate;
pub mod gate;
pub mod inputs;
pub mod report;
pub mod timed;
pub mod traced;
