//! Hot-spot identification firmware (§2.3).
//!
//! "The FPGAs can be programmed to treat their private 256MB memory as a
//! table of memory read/write frequency counters either on cache line
//! basis or page basis. These counters help to identify hot spots in cache
//! lines or in memory pages."

use std::collections::HashMap;
use std::fmt;

use memories_bus::{Address, BusListener, ListenerReaction, Transaction};

/// Counting granularity for the hot-spot table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// Per cache line.
    Line {
        /// Line size in bytes (power of two).
        line_size: u64,
    },
    /// Per memory page.
    Page {
        /// Page size in bytes (power of two).
        page_size: u64,
    },
}

impl Granularity {
    fn unit(self) -> u64 {
        match self {
            Granularity::Line { line_size } => line_size,
            Granularity::Page { page_size } => page_size,
        }
    }
}

/// Read/write frequency counts of one unit (line or page).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotSpotCounts {
    /// Read-class references.
    pub reads: u64,
    /// Write-class references.
    pub writes: u64,
}

impl HotSpotCounts {
    /// Total references.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// One row of a hot-spot report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotSpotReport {
    /// Base address of the unit.
    pub base: Address,
    /// Its frequency counts.
    pub counts: HotSpotCounts,
}

/// The hot-spot profiler: an alternate board firmware that turns the
/// node controllers' private memory into a frequency-counter table.
///
/// The table is capacity-bounded like the 256 MB SDRAM it models; once
/// full, references to *new* units are counted as dropped rather than
/// growing the table.
///
/// # Examples
///
/// ```
/// use memories::{Granularity, HotSpotProfiler};
/// use memories_bus::{Address, BusListener, BusOp, ProcId, SnoopResponse, Transaction};
///
/// let mut prof = HotSpotProfiler::new(Granularity::Page { page_size: 4096 }, 1_000_000);
/// let txn = Transaction::new(0, 0, ProcId::new(0), BusOp::Read,
///                            Address::new(0x1234), SnoopResponse::Null);
/// prof.on_transaction(&txn);
/// assert_eq!(prof.top(1)[0].counts.reads, 1);
/// ```
#[derive(Clone, Debug)]
pub struct HotSpotProfiler {
    granularity: Granularity,
    capacity: usize,
    table: HashMap<u64, HotSpotCounts>,
    dropped: u64,
    total: u64,
}

impl HotSpotProfiler {
    /// Creates a profiler holding at most `capacity` distinct units.
    ///
    /// # Panics
    ///
    /// Panics if the granularity unit is not a power of two or `capacity`
    /// is zero.
    pub fn new(granularity: Granularity, capacity: usize) -> Self {
        assert!(
            granularity.unit().is_power_of_two(),
            "granularity must be a power of two"
        );
        assert!(capacity > 0, "capacity must be nonzero");
        HotSpotProfiler {
            granularity,
            capacity,
            table: HashMap::new(),
            dropped: 0,
            total: 0,
        }
    }

    /// The counting granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Distinct units currently tracked.
    pub fn tracked_units(&self) -> usize {
        self.table.len()
    }

    /// References to units that no longer fit in the table.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total memory references profiled.
    pub fn total_references(&self) -> u64 {
        self.total
    }

    /// The counts for the unit containing `addr`, if tracked.
    pub fn counts_for(&self, addr: Address) -> Option<HotSpotCounts> {
        self.table
            .get(&(addr.value() / self.granularity.unit()))
            .copied()
    }

    /// The `n` hottest units, sorted by total references descending (ties
    /// broken by address for determinism).
    pub fn top(&self, n: usize) -> Vec<HotSpotReport> {
        let unit = self.granularity.unit();
        let mut rows: Vec<HotSpotReport> = self
            .table
            .iter()
            .map(|(k, v)| HotSpotReport {
                base: Address::new(k * unit),
                counts: *v,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.counts
                .total()
                .cmp(&a.counts.total())
                .then(a.base.value().cmp(&b.base.value()))
        });
        rows.truncate(n);
        rows
    }
}

impl BusListener for HotSpotProfiler {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        if !txn.op.is_memory() {
            return ListenerReaction::Proceed;
        }
        self.total += 1;
        let key = txn.addr.value() / self.granularity.unit();
        if let Some(counts) = self.table.get_mut(&key) {
            if txn.op.is_store_class() {
                counts.writes += 1;
            } else {
                counts.reads += 1;
            }
        } else if self.table.len() < self.capacity {
            let counts = if txn.op.is_store_class() {
                HotSpotCounts {
                    reads: 0,
                    writes: 1,
                }
            } else {
                HotSpotCounts {
                    reads: 1,
                    writes: 0,
                }
            };
            self.table.insert(key, counts);
        } else {
            self.dropped += 1;
        }
        ListenerReaction::Proceed
    }
}

impl fmt::Display for HotSpotProfiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hotspot: {} refs over {} units ({} dropped)",
            self.total,
            self.table.len(),
            self.dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_bus::{BusOp, ProcId, SnoopResponse};

    fn txn(op: BusOp, addr: u64) -> Transaction {
        Transaction::new(
            0,
            0,
            ProcId::new(0),
            op,
            Address::new(addr),
            SnoopResponse::Null,
        )
    }

    #[test]
    fn counts_reads_and_writes_per_page() {
        let mut p = HotSpotProfiler::new(Granularity::Page { page_size: 4096 }, 100);
        p.on_transaction(&txn(BusOp::Read, 0x0));
        p.on_transaction(&txn(BusOp::Read, 0x800)); // same page
        p.on_transaction(&txn(BusOp::Rwitm, 0xFFF)); // same page, write
        p.on_transaction(&txn(BusOp::Read, 0x1000)); // next page
        let c = p.counts_for(Address::new(0x123)).unwrap();
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(p.tracked_units(), 2);
        assert_eq!(p.total_references(), 4);
    }

    #[test]
    fn control_traffic_is_ignored() {
        let mut p = HotSpotProfiler::new(Granularity::Line { line_size: 128 }, 100);
        p.on_transaction(&txn(BusOp::Sync, 0x0));
        p.on_transaction(&txn(BusOp::IoRead, 0x0));
        assert_eq!(p.total_references(), 0);
        assert_eq!(p.tracked_units(), 0);
    }

    #[test]
    fn top_orders_by_heat() {
        let mut p = HotSpotProfiler::new(Granularity::Line { line_size: 128 }, 100);
        for _ in 0..5 {
            p.on_transaction(&txn(BusOp::Read, 0x100));
        }
        for _ in 0..2 {
            p.on_transaction(&txn(BusOp::Rwitm, 0x200));
        }
        p.on_transaction(&txn(BusOp::Read, 0x300));
        let top = p.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].base, Address::new(0x100));
        assert_eq!(top[0].counts.total(), 5);
        assert_eq!(top[1].base, Address::new(0x200));
    }

    #[test]
    fn capacity_bound_drops_new_units() {
        let mut p = HotSpotProfiler::new(Granularity::Line { line_size: 128 }, 2);
        p.on_transaction(&txn(BusOp::Read, 0x000));
        p.on_transaction(&txn(BusOp::Read, 0x080));
        p.on_transaction(&txn(BusOp::Read, 0x100)); // table full: dropped
        p.on_transaction(&txn(BusOp::Read, 0x000)); // existing unit: fine
        assert_eq!(p.tracked_units(), 2);
        assert_eq!(p.dropped(), 1);
        assert_eq!(p.counts_for(Address::new(0x0)).unwrap().reads, 2);
    }

    #[test]
    fn dma_counts_as_memory_traffic() {
        let mut p = HotSpotProfiler::new(Granularity::Line { line_size: 128 }, 10);
        p.on_transaction(&txn(BusOp::DmaWrite, 0x0));
        assert_eq!(p.counts_for(Address::new(0x0)).unwrap().writes, 1);
    }
}
