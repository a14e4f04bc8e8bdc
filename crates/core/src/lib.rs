//! The MemorIES board: a software model of the Memory Instrumentation and
//! Emulation System (Nanda et al., ASPLOS 2000).
//!
//! The real board plugs into a 100 MHz 6xx SMP memory bus and *passively*
//! emulates up to four shared caches (L2/L3/remote) in real time while the
//! host runs live workloads: seven FPGAs implement an address filter, a
//! global event counter, and four node controllers whose tag/state/LRU
//! tables live in 1 GB of SDRAM. Coherence behaviour is programmable via
//! state-transition lookup tables; more than 400 40-bit counters record
//! hit/miss and intervention events.
//!
//! This crate reproduces the board as a deterministic state machine over
//! the bus transaction stream:
//!
//! * [`CacheParams`] — Table 2 parameter validation (2 MB–8 GB, direct
//!   mapped to 8-way, 128 B–16 KB lines, 1–8 processors per node).
//! * [`TagStore`] + [`ReplacementPolicy`] — the SDRAM tag/state tables
//!   with LRU / FIFO / random / tree-PLRU victim selection.
//! * [`NodeController`] — one emulated shared-cache node: protocol engine
//!   and counters.
//! * [`AddressFilter`] / [`NodePartition`] — transaction filtering and
//!   CPU-id to emulated-node mapping.
//! * [`BoardFrontEnd`] — filter, global counters, and every node's
//!   512-entry [`TransactionBuffer`] drained at the SDRAM service rate:
//!   it decides drops and retries when it admits a transaction.
//! * [`MemoriesBoard`] — the assembled board; a
//!   [`BusListener`](memories_bus::BusListener) you attach to a host
//!   machine's bus.
//! * Alternate firmware (§2.3): [`HotSpotProfiler`], [`TraceCapture`], and
//!   [`NumaEmulator`] (sparse-directory + remote-cache emulation).
//!
//! The data path mirrors the physical block diagram (Figure 7 of the
//! paper):
//!
//! ```text
//!            6xx memory bus (100 MHz)
//!  ═══════════╦══════════════════════════════════
//!             ▼ every transaction
//!   ┌──────────────────┐   filtered: io-regs, syncs,
//!   │  Address Filter  │── interrupts, retried ops
//!   │  + NodePartition │
//!   └────────┬─────────┘
//!            ▼ classified (local/remote/io per node)
//!   ┌──────────────────┐
//!   │  Global Events   │  bus-level counters,
//!   │  counter + FIFO  │  burst buffering
//!   └────────┬─────────┘
//!      ┌─────┼─────┬─────────┐   lock step
//!      ▼     ▼     ▼         ▼
//!   ┌─────┐┌─────┐┌─────┐┌─────┐  each: protocol table,
//!   │node0││node1││node2││node3│  tag/state/LRU store,
//!   └─────┘└─────┘└─────┘└─────┘  512-entry buffer,
//!      4 x 256 MB SDRAM tables    40-bit counters
//! ```
//!
//! # Examples
//!
//! ```
//! use memories::{BoardConfig, CacheParams, MemoriesBoard};
//! use memories_bus::{Address, BusOp, ProcId, SnoopResponse, Transaction};
//! use memories_bus::BusListener;
//!
//! # fn main() -> Result<(), memories::BoardError> {
//! let params = CacheParams::builder()
//!     .capacity(64 << 20)
//!     .ways(4)
//!     .line_size(1024)
//!     .build()?;
//! let config = BoardConfig::single_node(params, (0..8).map(ProcId::new))?;
//! let mut board = MemoriesBoard::new(config)?;
//!
//! let txn = Transaction::new(0, 0, ProcId::new(0), BusOp::Read,
//!                            Address::new(0x10000), SnoopResponse::Null);
//! board.on_transaction(&txn);
//! assert_eq!(board.node_stats(memories_bus::NodeId::new(0)).demand_misses(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod board;
mod counters;
mod error;
mod filter;
mod hotspot;
mod node;
mod params;
mod replacement;
mod shard;
mod snapshot;
mod stats;
mod tagstore;
mod timing;

pub mod numa;
pub mod tracecap;

pub use board::{BoardConfig, BoardFrontEnd, GlobalCounters, MemoriesBoard, NodeSlot};
pub use counters::{Counter40, NodeCounter, NodeCounters};
pub use error::{BoardError, Error};
pub use filter::{AddressFilter, FilterConfig, FilterStats, NodePartition};
pub use hotspot::{Granularity, HotSpotProfiler, HotSpotReport};
pub use node::{NodeController, NodeOutcome};
pub use numa::NumaEmulator;
pub use params::{CacheParams, CacheParamsBuilder, ParamError};
pub use replacement::ReplacementPolicy;
pub use shard::NodeShard;
pub use snapshot::BoardSnapshot;
pub use stats::{FillBreakdown, NodeStats};
pub use tagstore::{EvictedLine, TagProbe, TagStore};
pub use timing::{SdramModel, TimingConfig, TransactionBuffer};
pub use tracecap::TraceCapture;
