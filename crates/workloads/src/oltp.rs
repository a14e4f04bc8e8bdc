//! A TPC-C-like OLTP workload generator.
//!
//! TPC-C on the paper's host is a 150 GB database run for hours (§5.1,
//! §5.2). The properties the case studies depend on are: a working set
//! much larger than any L3 under study, Zipf-skewed row popularity, a
//! 70/30 read/write mix, per-thread private state, contended shared
//! metadata, and — for Figure 10 — periodic OS journaling activity that
//! shows up as miss-ratio spikes at every cache size.

use memories_bus::Address;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event::{MemRef, WorkloadEvent};
use crate::zipf::ZipfSampler;
use crate::Workload;

/// Periodic journaling behaviour (the Figure 10 spike source).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalConfig {
    /// Instructions between journaling bursts (the paper observed spikes
    /// about every 5 minutes of wall clock).
    pub period_instructions: u64,
    /// Memory references per burst.
    pub burst_refs: u64,
    /// Size of the journal region streamed during a burst.
    pub region_bytes: u64,
}

/// Page granularity of row placement.
const PAGE_BYTES: u64 = 4096;
/// Warehouses the database is partitioned into (TPC-C assigns each
/// terminal a home warehouse).
const WAREHOUSES: u64 = 8;
/// Fraction of database references that stay in the issuing CPU's home
/// warehouse (TPC-C: the large majority).
const HOME_FRACTION: f64 = 0.8;
/// Store fraction of database references (~0.3 for OLTP).
const DB_WRITE_FRACTION: f64 = 0.3;
/// Shared lock/metadata region size.
const METADATA_BYTES: u64 = 64 << 10;

/// OLTP generator parameters.
#[derive(Clone, Debug)]
pub struct OltpConfig {
    /// Processors driven.
    pub cpus: usize,
    /// Database size in bytes (the paper's runs: 150 GB, scaled down for
    /// software experiments).
    pub db_bytes: u64,
    /// Zipf skew of page popularity (within a warehouse).
    pub theta: f64,
    /// Private per-CPU working set (stack, locals, connection state).
    pub private_bytes_per_cpu: u64,
    /// Optional journaling bursts.
    pub journal: Option<JournalConfig>,
    /// Instructions per memory reference.
    pub instructions_per_ref: u64,
    /// RNG seed.
    pub seed: u64,
}

impl OltpConfig {
    /// A scaled-down default suitable for software runs: 256 MB database,
    /// 8 CPUs, journaling on.
    pub fn scaled_default() -> Self {
        OltpConfig {
            cpus: 8,
            db_bytes: 256 << 20,
            theta: 0.8,
            private_bytes_per_cpu: 256 << 10,
            journal: Some(JournalConfig {
                period_instructions: 2_000_000,
                burst_refs: 20_000,
                region_bytes: 4 << 20,
            }),
            instructions_per_ref: 4,
            seed: 0x7C1C_0C0C,
        }
    }
}

/// Region layout offsets.
#[derive(Clone, Copy, Debug)]
struct Layout {
    db_base: u64,
    private_base: u64,
    metadata_base: u64,
    journal_base: u64,
}

/// The TPC-C-like generator. See [`OltpConfig`] for knobs.
#[derive(Clone, Debug)]
pub struct OltpWorkload {
    config: OltpConfig,
    layout: Layout,
    zipf: ZipfSampler,
    rng: SmallRng,
    cpu: usize,
    tick_next: bool,
    instructions_issued: u64,
    next_journal_at: u64,
    journal_refs_left: u64,
    journal_offset: u64,
}

impl OltpWorkload {
    /// Builds the generator.
    ///
    /// # Panics
    ///
    /// Panics if region sizes or CPU count are zero.
    pub fn new(config: OltpConfig) -> Self {
        assert!(config.cpus > 0 && config.db_bytes > 0 && config.private_bytes_per_cpu > 0);
        let warehouse_pages = config.db_bytes / PAGE_BYTES / WAREHOUSES;
        let layout = Layout {
            db_base: 0,
            private_base: config.db_bytes,
            metadata_base: config.db_bytes + config.private_bytes_per_cpu * config.cpus as u64,
            journal_base: config.db_bytes
                + config.private_bytes_per_cpu * config.cpus as u64
                + METADATA_BYTES,
        };
        let next_journal_at = config.journal.map_or(u64::MAX, |j| j.period_instructions);
        OltpWorkload {
            zipf: ZipfSampler::new(warehouse_pages.max(1), config.theta),
            rng: SmallRng::seed_from_u64(config.seed),
            layout,
            config,
            cpu: 0,
            tick_next: true,
            instructions_issued: 0,
            next_journal_at,
            journal_refs_left: 0,
            journal_offset: 0,
        }
    }

    fn journal_ref(&mut self) -> MemRef {
        let j = self
            .config
            .journal
            .expect("burst only runs with journaling configured");
        let addr = self.layout.journal_base + self.journal_offset;
        self.journal_offset = (self.journal_offset + 128) % j.region_bytes;
        self.journal_refs_left -= 1;
        // Journaling is OS writeback activity on one CPU.
        MemRef::store(0, Address::new(addr))
    }

    fn transaction_ref(&mut self, cpu: usize) -> MemRef {
        let roll: f64 = self.rng.random();
        if roll < 0.60 {
            // Database row access: home (or occasionally remote)
            // warehouse, Zipf page within it, random line inside.
            let warehouse = if self.rng.random_bool(HOME_FRACTION) {
                cpu as u64 % WAREHOUSES
            } else {
                self.rng.random_range(0..WAREHOUSES)
            };
            let warehouse_bytes = self.config.db_bytes / WAREHOUSES;
            // Rotate each warehouse's popularity ranking so the hot pages
            // of different warehouses sit at different offsets (warehouse
            // regions are otherwise power-of-two aligned and their rank-k
            // pages would alias into the same cache sets).
            let rank = self.zipf.sample(&mut self.rng);
            let page = (rank + warehouse * 13) % self.zipf.len();
            let within = self.rng.random_range(0..PAGE_BYTES) & !7;
            let addr = Address::new(
                self.layout.db_base + warehouse * warehouse_bytes + page * PAGE_BYTES + within,
            );
            if self.rng.random_bool(DB_WRITE_FRACTION) {
                MemRef::store(cpu, addr)
            } else {
                MemRef::load(cpu, addr)
            }
        } else if roll < 0.85 {
            // Private working set: very high locality.
            let within = self.rng.random_range(0..self.config.private_bytes_per_cpu) & !7;
            let addr = Address::new(
                self.layout.private_base + cpu as u64 * self.config.private_bytes_per_cpu + within,
            );
            if self.rng.random_bool(0.3) {
                MemRef::store(cpu, addr)
            } else {
                MemRef::load(cpu, addr)
            }
        } else {
            // Shared lock metadata: contended, write-heavy.
            let within = self.rng.random_range(0..METADATA_BYTES) & !7;
            let addr = Address::new(self.layout.metadata_base + within);
            if self.rng.random_bool(0.5) {
                MemRef::store(cpu, addr)
            } else {
                MemRef::load(cpu, addr)
            }
        }
    }
}

impl Workload for OltpWorkload {
    fn name(&self) -> &str {
        "tpcc"
    }

    fn num_cpus(&self) -> usize {
        self.config.cpus
    }

    fn footprint_bytes(&self) -> u64 {
        self.layout.journal_base + self.config.journal.map_or(0, |j| j.region_bytes)
    }

    fn next_event(&mut self) -> WorkloadEvent {
        if self.tick_next {
            self.tick_next = false;
            self.instructions_issued += self.config.instructions_per_ref;
            if self.instructions_issued >= self.next_journal_at {
                if let Some(j) = self.config.journal {
                    self.journal_refs_left = j.burst_refs;
                    self.next_journal_at += j.period_instructions;
                }
            }
            return WorkloadEvent::Instructions {
                cpu: self.cpu,
                count: self.config.instructions_per_ref,
            };
        }
        self.tick_next = true;
        let cpu = self.cpu;
        self.cpu = (self.cpu + 1) % self.config.cpus;
        let r = if self.journal_refs_left > 0 {
            self.journal_ref()
        } else {
            self.transaction_ref(cpu)
        };
        WorkloadEvent::Ref(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadExt;

    fn small_config() -> OltpConfig {
        OltpConfig {
            cpus: 4,
            db_bytes: 1 << 20,
            theta: 0.8,
            private_bytes_per_cpu: 64 << 10,
            journal: None,
            instructions_per_ref: 4,
            seed: 99,
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = OltpWorkload::new(small_config());
        let mut b = OltpWorkload::new(small_config());
        let ea: Vec<WorkloadEvent> = a.events().take(500).collect();
        let eb: Vec<WorkloadEvent> = b.events().take(500).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn mix_has_reads_and_writes_across_cpus() {
        let mut w = OltpWorkload::new(small_config());
        let refs: Vec<MemRef> = w
            .events()
            .filter_map(|e| e.as_ref_event().copied())
            .take(2000)
            .collect();
        let stores = refs.iter().filter(|r| r.kind.is_store()).count();
        assert!(stores > 200 && stores < 1500, "stores {stores}");
        let cpus: std::collections::HashSet<usize> = refs.iter().map(|r| r.cpu).collect();
        assert_eq!(cpus.len(), 4);
        // All addresses inside the declared footprint.
        let fp = w.footprint_bytes();
        assert!(refs.iter().all(|r| r.addr.value() < fp));
    }

    #[test]
    fn journal_bursts_fire_on_schedule() {
        let mut cfg = small_config();
        cfg.journal = Some(JournalConfig {
            period_instructions: 4000, // 1000 refs at 4 instr/ref
            burst_refs: 50,
            region_bytes: 64 << 10,
        });
        let mut w = OltpWorkload::new(cfg);
        let mut journal_stores = 0;
        let mut first_burst_ref_index = None;
        for (i, e) in w.events().take(8000).enumerate() {
            if let WorkloadEvent::Ref(r) = e {
                if r.addr.value() >= 1 << 20 && r.cpu == 0 && r.kind.is_store() {
                    // Journal region starts above the db+private+meta.
                    let journal_base = (1 << 20) + 4 * (64 << 10) + METADATA_BYTES;
                    if r.addr.value() >= journal_base {
                        journal_stores += 1;
                        first_burst_ref_index.get_or_insert(i);
                    }
                }
            }
        }
        assert!(journal_stores >= 50, "journal stores {journal_stores}");
        // The first burst starts after roughly 1000 references (2000 events).
        let idx = first_burst_ref_index.unwrap();
        assert!(idx > 1500 && idx < 3000, "first journal ref at event {idx}");
    }

    #[test]
    fn db_pages_are_zipf_hot_within_warehouses() {
        let mut w = OltpWorkload::new(small_config());
        let mut hot_pages = 0u64;
        let mut db_refs = 0u64;
        let warehouse_bytes = (1u64 << 20) / WAREHOUSES;
        let pages_per_warehouse = warehouse_bytes / PAGE_BYTES;
        for e in w.events().take(20_000) {
            if let WorkloadEvent::Ref(r) = e {
                if r.addr.value() < 1 << 20 {
                    db_refs += 1;
                    // Warehouse w's hottest page is rank 0 rotated by 13w.
                    let warehouse = r.addr.value() / warehouse_bytes;
                    let page = r.addr.value() % warehouse_bytes / PAGE_BYTES;
                    if page == warehouse * 13 % pages_per_warehouse {
                        hot_pages += 1;
                    }
                }
            }
        }
        // 32 pages per warehouse: the eight hot pages should carry far
        // more than 8/256 of the database traffic.
        assert!(
            hot_pages * 8 > db_refs,
            "hot pages carried {hot_pages}/{db_refs}"
        );
    }

    #[test]
    fn home_warehouse_locality_dominates() {
        let mut w = OltpWorkload::new(small_config());
        let warehouse_bytes = (1u64 << 20) / WAREHOUSES;
        let mut home = 0u64;
        let mut away = 0u64;
        for e in w.events().take(40_000) {
            if let WorkloadEvent::Ref(r) = e {
                if r.addr.value() < 1 << 20 {
                    let warehouse = r.addr.value() / warehouse_bytes;
                    if warehouse == r.cpu as u64 % WAREHOUSES {
                        home += 1;
                    } else {
                        away += 1;
                    }
                }
            }
        }
        // HOME_FRACTION 0.8 plus 1/8 of the remote rolls landing home.
        let frac = home as f64 / (home + away) as f64;
        assert!((0.75..0.95).contains(&frac), "home fraction {frac:.3}");
    }
}
