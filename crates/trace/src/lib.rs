//! Bus trace records and trace files.
//!
//! MemorIES can use its on-board memory to "collect traces containing up to
//! 1 billion 8-byte wide bus references at a time" (§2.3). This crate
//! implements that record format in software:
//!
//! * [`TraceRecord`] — one bus reference packed into 8 bytes (operation,
//!   requester id, snoop response, address).
//! * [`TraceWriter`] / [`TraceReader`] — buffered, validated file I/O over
//!   any [`std::io::Write`] / [`std::io::Read`] (pass `&mut reader` if you
//!   need the reader back). [`TraceReader::read_block`] decodes records
//!   straight into fixed-size transaction blocks at O(block) peak memory,
//!   so traces of any length replay without ever materializing a
//!   whole-trace `Vec` — the `memories-console` replay pipeline is built
//!   on it.
//!
//! # Examples
//!
//! ```
//! use memories_bus::{Address, BusOp, ProcId, SnoopResponse, Transaction};
//! use memories_trace::{TraceReader, TraceRecord, TraceWriter};
//!
//! # fn main() -> Result<(), memories_trace::TraceError> {
//! let txn = Transaction::new(0, 0, ProcId::new(2), BusOp::Read,
//!                            Address::new(0x8000), SnoopResponse::Shared);
//! let mut buf = Vec::new();
//! let mut writer = TraceWriter::new(&mut buf)?;
//! writer.write_transaction(&txn)?;
//! writer.finish()?;
//!
//! let mut reader = TraceReader::new(buf.as_slice())?;
//! let rec = reader.next().expect("one record")?;
//! assert_eq!(rec.addr, Address::new(0x8000));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod io;
mod record;

pub use error::TraceError;
pub use io::{TraceReader, TraceWriter, TRACE_MAGIC, TRACE_VERSION};
pub use record::TraceRecord;
