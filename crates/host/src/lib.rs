//! The host SMP machine substrate.
//!
//! The paper's experiments run on an 8-way IBM RS/6000 S7A: 262 MHz
//! Northstar processors with private L1 and L2 caches (boot-time
//! configurable between 8 MB 4-way and 1 MB direct-mapped L2s), kept
//! coherent by snooping on a 100 MHz 6xx memory bus (§5). MemorIES only
//! ever *observes* that machine's bus, so the substrate's job is to turn
//! per-processor memory reference streams into a faithful bus transaction
//! stream: reads, read-with-intent-to-modify, upgrades, castouts, DMA, and
//! the combined snoop responses (shared/modified interventions) between
//! the private caches.
//!
//! * [`MesiState`] — the fixed MESI protocol of the host's private caches.
//! * [`SnoopCache`] — a set-associative, write-back, LRU cache: each
//!   processor's private inner (L1) cache.
//! * [`HostMachine`] — the bus, processors, I/O bridge, and memory
//!   controller wired together; passive listeners (the MemorIES board)
//!   attach to its bus. Each processor holds its L1 and its counters.
//!   The outer (L2) caches of all processors share one set-major store
//!   that the machine owns: every L2 on the 6xx bus looks up the same set
//!   on a snoop, so a snoop scans that set's tags once and changes only
//!   the processors that hold the line.
//! * [`CpuView`] and [`OuterView`] — read-only views of one processor
//!   and of its outer cache, from [`HostMachine::cpu`].
//! * [`HostConfig`] — CPU count and cache geometry, with an
//!   [`HostConfig::s7a`] preset. The clocks are not settings: every
//!   processor runs at the S7A's 262 MHz and CPI 1.5 on the 100 MHz bus,
//!   and [`HostConfig::seconds_for_instructions`] turns an instruction
//!   count into host run time (Tables 4 and 5).
//!
//! # Examples
//!
//! ```
//! use memories_bus::Address;
//! use memories_host::{HostConfig, HostMachine};
//!
//! let mut machine = HostMachine::new(HostConfig::s7a()).unwrap();
//! machine.load(0, Address::new(0x10_0000));
//! machine.store(0, Address::new(0x10_0000));
//! machine.tick_instructions(0, 100);
//! assert_eq!(machine.stats().total_loads(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod cpu;
mod machine;
mod memctrl;
mod mesi;
mod outer;
mod stats;

pub use cache::{SnoopCache, Victim};
pub use config::{ConfigError, HostConfig};
pub use cpu::{AccessKind, CpuView, ProcessorCounters};
pub use machine::HostMachine;
pub use memctrl::MemoryController;
pub use mesi::MesiState;
pub use outer::OuterView;
pub use stats::MachineStats;
