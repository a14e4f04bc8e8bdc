//! A software model of a 6xx-style SMP memory bus.
//!
//! The MemorIES board ([MemorIES, ASPLOS 2000]) plugs into the 100 MHz 6xx
//! memory bus of an IBM RS/6000 S7A server and passively snoops every
//! transaction. This crate provides the shared vocabulary for the whole
//! reproduction:
//!
//! * [`Address`], [`ProcId`], [`NodeId`] — newtypes for physical addresses
//!   and bus/node identifiers.
//! * [`Geometry`] — power-of-two cache geometry math (line, set, tag).
//! * [`BusOp`], [`SnoopResponse`], [`Transaction`] — the bus protocol
//!   vocabulary.
//! * [`SystemBus`] — a cycle-counted transaction recorder with attached
//!   passive listeners (the slot the MemorIES board plugs into).
//!
//! # Examples
//!
//! ```
//! use memories_bus::{Address, BusOp, ProcId, SnoopResponse, SystemBus};
//!
//! let mut bus = SystemBus::default();
//! let txn = bus.transact(ProcId::new(0), BusOp::Read, Address::new(0x1000),
//!                        SnoopResponse::Null);
//! assert_eq!(txn.seq, 0);
//! assert!(bus.stats().transactions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod block;
mod bus;
mod error;
pub mod interposer;
mod op;
mod stats;
mod transaction;

pub use addr::{Address, Geometry, LineAddr, NodeId, ProcId};
pub use block::{BlockPool, PoolStats, PooledBlock, TransactionBlock};
pub use bus::{
    BusConfig, BusListener, ListenerReaction, SystemBus, BUS_HZ, DATA_TRANSACTION_CYCLES,
};
pub use error::GeometryError;
pub use op::{BusOp, OpClass};
pub use stats::BusStats;
pub use transaction::{SnoopResponse, Transaction};
