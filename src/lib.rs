//! Workspace root of the MemorIES reproduction.
//!
//! This crate exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`), which use the member crates
//! directly:
//!
//! * `memories` — the board model (the paper's contribution).
//! * `memories-bus` — the 6xx-style bus substrate.
//! * `memories-host` — the host SMP machine.
//! * `memories-protocol` — programmable coherence protocol tables.
//! * `memories-trace` — bus trace records and files.
//! * `memories-workloads` — synthetic TPC-C / TPC-H / SPLASH2 drivers.
//! * `memories-sim` — baseline simulators and time models.
//! * `memories-console` — board programming and experiment running.

#![forbid(unsafe_code)]
