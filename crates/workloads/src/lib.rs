//! Deterministic synthetic workloads for the MemorIES reproduction.
//!
//! The paper's case studies run *live* commercial and scientific
//! workloads on the host SMP: TPC-C (150 GB) and TPC-H (100 GB) databases
//! (§5.1, §5.2) and SPLASH2 applications at realistic problem sizes
//! (§5.3, Tables 5–6). Those exact systems are unavailable, so this crate
//! provides seeded generators that reproduce the *memory reference
//! properties* the case studies depend on:
//!
//! * [`OltpWorkload`] — TPC-C-like: Zipf-skewed row access over a large
//!   database, 70/30 read/write mix, per-thread working sets, shared lock
//!   metadata, and periodic journaling bursts (the Figure 10 spikes).
//! * [`DssWorkload`] — TPC-H-like: streaming scans over huge tables plus
//!   hash-join probe tables.
//! * [`splash`] — per-application access-pattern kernels: FFT (all-to-all
//!   transpose), Ocean (stencil sweeps), Barnes-Hut (tree walks), Water
//!   (neighbor lists), FMM (heavily shared cell data).
//! * [`micro`] — sequential / uniform / Zipf microworkloads for tests and
//!   calibration.
//!
//! Every workload implements [`Workload`]: an infinite, deterministic
//! stream of [`WorkloadEvent`]s (memory references, instruction ticks,
//! and DMA) that a host machine executes.
//!
//! # Examples
//!
//! ```
//! use memories_workloads::{micro::Sequential, Workload, WorkloadEvent};
//!
//! let mut w = Sequential::new(2, 1 << 20, 64);
//! match w.next_event() {
//!     WorkloadEvent::Instructions { cpu, count } => assert!(count > 0 && cpu < 2),
//!     WorkloadEvent::Ref(r) => assert!(r.cpu < 2),
//!     WorkloadEvent::Dma { .. } => {}
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dss;
mod event;
pub mod micro;
mod oltp;
pub mod splash;
mod zipf;

pub use dss::{DssConfig, DssWorkload};
pub use event::{MemRef, RefKind, WorkloadEvent};
pub use oltp::{JournalConfig, OltpConfig, OltpWorkload};

/// An infinite, deterministic stream of memory-system events.
///
/// Workloads are seeded at construction; two instances built with the
/// same parameters and seed produce identical streams. The stream is
/// infinite — drivers consume as many references as the experiment needs.
///
/// Workloads hold plain data and are `Send`: a live run generates events
/// on its host-simulation producer thread.
pub trait Workload: Send {
    /// A short display name (e.g. `"tpcc"`, `"fft"`).
    fn name(&self) -> &str;

    /// Number of processors the workload drives.
    fn num_cpus(&self) -> usize;

    /// The total bytes of distinct memory the workload can touch.
    fn footprint_bytes(&self) -> u64;

    /// Produces the next event.
    fn next_event(&mut self) -> WorkloadEvent;
}

/// Object-safe convenience: iterate events with `by_ref().take(n)`-style
/// adapters.
pub struct Events<'a, W: ?Sized>(&'a mut W);

impl<W: Workload + ?Sized> Iterator for Events<'_, W> {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        Some(self.0.next_event())
    }
}

/// Extension adapter for [`Workload`].
pub trait WorkloadExt: Workload {
    /// An infinite event iterator borrowing the workload.
    fn events(&mut self) -> Events<'_, Self> {
        Events(self)
    }
}

impl<W: Workload + ?Sized> WorkloadExt for W {}
