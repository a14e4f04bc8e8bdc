//! A host processor: its private L1 and its counters, plus the read-only
//! [`CpuView`] that adds the processor's ways of the machine's outer (L2)
//! store.

use std::fmt;

use memories_bus::{LineAddr, ProcId};

use crate::cache::SnoopCache;
use crate::config::HostConfig;
use crate::mesi::MesiState;
use crate::outer::{OuterStore, OuterView};

/// The kind of a processor memory reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (read) reference.
    Load,
    /// A store (write) reference.
    Store,
}

impl AccessKind {
    /// Whether this is a store.
    pub const fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
        })
    }
}

/// Event counters of one processor, in the spirit of the S7A's on-chip L2
/// controller counters used for Table 6 of the paper.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcessorCounters {
    /// Instructions retired (driven by the workload's instruction ticks).
    pub instructions: u64,
    /// Load references issued.
    pub loads: u64,
    /// Store references issued.
    pub stores: u64,
    /// References satisfied by the inner (L1) cache.
    pub inner_hits: u64,
    /// References satisfied by the outer (L2) cache.
    pub outer_hits: u64,
    /// Outer-cache read misses (bus `Read`s issued).
    pub outer_read_misses: u64,
    /// Outer-cache write misses (bus `Rwitm`s issued).
    pub outer_write_misses: u64,
    /// Ownership upgrades (bus `DClaim`s issued).
    pub upgrades: u64,
    /// Dirty castouts (bus `WriteBack`s issued).
    pub writebacks: u64,
    /// Misses satisfied by another cache's shared intervention.
    pub misses_filled_shared: u64,
    /// Misses satisfied by another cache's modified intervention.
    pub misses_filled_modified: u64,
    /// Misses satisfied by memory.
    pub misses_filled_memory: u64,
    /// Interventions this processor's cache supplied to others.
    pub interventions_supplied: u64,
}

impl ProcessorCounters {
    /// All outer-cache misses (read + write).
    pub fn outer_misses(&self) -> u64 {
        self.outer_read_misses + self.outer_write_misses
    }

    /// Demand references (loads + stores).
    pub fn references(&self) -> u64 {
        self.loads + self.stores
    }

    /// Outer-cache miss ratio: misses over references that reached the
    /// outer cache.
    pub fn outer_miss_ratio(&self) -> f64 {
        let reached = self.outer_hits + self.outer_misses();
        if reached == 0 {
            0.0
        } else {
            self.outer_misses() as f64 / reached as f64
        }
    }

    /// Misses per thousand instructions — the Table 6 metric.
    pub fn miss_rate_per_kilo_instructions(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.outer_misses() as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &ProcessorCounters) {
        self.instructions += other.instructions;
        self.loads += other.loads;
        self.stores += other.stores;
        self.inner_hits += other.inner_hits;
        self.outer_hits += other.outer_hits;
        self.outer_read_misses += other.outer_read_misses;
        self.outer_write_misses += other.outer_write_misses;
        self.upgrades += other.upgrades;
        self.writebacks += other.writebacks;
        self.misses_filled_shared += other.misses_filled_shared;
        self.misses_filled_modified += other.misses_filled_modified;
        self.misses_filled_memory += other.misses_filled_memory;
        self.interventions_supplied += other.interventions_supplied;
    }
}

/// One host processor: an optional inner (L1) cache and counters.
///
/// The outer (L2) caches of all processors live in the machine's one
/// set-major store, and the processor holds no orchestration logic: the
/// [`HostMachine`](crate::HostMachine) drives accesses because coherence
/// requires touching *other* processors' caches.
#[derive(Debug)]
pub(crate) struct Processor {
    pub(crate) id: ProcId,
    pub(crate) inner: Option<SnoopCache>,
    pub(crate) counters: ProcessorCounters,
}

impl Processor {
    /// Creates a processor per the machine configuration.
    pub(crate) fn new(id: ProcId, config: &HostConfig) -> Self {
        Processor {
            id,
            inner: config.inner_cache.map(SnoopCache::new),
            counters: ProcessorCounters::default(),
        }
    }

    /// Enforces inclusion: drops `line` from the inner cache (no-op when
    /// absent or when there is no inner cache).
    pub(crate) fn invalidate_inner(&mut self, line: LineAddr) {
        if let Some(inner) = &mut self.inner {
            inner.invalidate(line);
        }
    }
}

/// A read-only view of one host processor: its inner (L1) cache, its
/// counters, and its outer (L2) cache.
///
/// Returned by [`HostMachine::cpu`](crate::HostMachine::cpu).
#[derive(Clone, Copy, Debug)]
pub struct CpuView<'a> {
    cpu: &'a Processor,
    outer: OuterView<'a>,
}

impl<'a> CpuView<'a> {
    pub(crate) fn new(cpu: &'a Processor, outer: &'a OuterStore, index: usize) -> Self {
        CpuView {
            cpu,
            outer: OuterView::new(outer, index),
        }
    }

    /// This processor's bus id.
    pub fn id(&self) -> ProcId {
        self.cpu.id
    }

    /// This processor's counters.
    pub fn counters(&self) -> &'a ProcessorCounters {
        &self.cpu.counters
    }

    /// Read-only view of the outer cache (tests, inclusion checks).
    pub fn outer_cache(&self) -> OuterView<'a> {
        self.outer
    }

    /// Read-only view of the inner cache, if configured.
    pub fn inner_cache(&self) -> Option<&'a SnoopCache> {
        self.cpu.inner.as_ref()
    }

    /// The MESI state of `line` in the outer cache.
    pub fn outer_state(&self, line: LineAddr) -> MesiState {
        self.outer.state(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_derived_metrics() {
        let c = ProcessorCounters {
            instructions: 10_000,
            loads: 700,
            stores: 300,
            outer_hits: 60,
            outer_read_misses: 30,
            outer_write_misses: 10,
            ..ProcessorCounters::default()
        };
        assert_eq!(c.outer_misses(), 40);
        assert_eq!(c.references(), 1000);
        assert!((c.outer_miss_ratio() - 0.4).abs() < 1e-12);
        assert!((c.miss_rate_per_kilo_instructions() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_have_zero_ratios() {
        let c = ProcessorCounters::default();
        assert_eq!(c.outer_miss_ratio(), 0.0);
        assert_eq!(c.miss_rate_per_kilo_instructions(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ProcessorCounters {
            loads: 1,
            stores: 2,
            ..Default::default()
        };
        let b = ProcessorCounters {
            loads: 10,
            writebacks: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.loads, 11);
        assert_eq!(a.stores, 2);
        assert_eq!(a.writebacks, 5);
    }
}
