//! A TPC-H-like decision-support (DSS) workload generator.
//!
//! TPC-H in the paper is a 100 GB database driven for 10^10–4×10^11
//! references (Figure 8, right). DSS traffic is scan-dominated, but a
//! real schema is not one giant table: queries sweep the huge fact table
//! *and* repeatedly re-scan a hierarchy of much smaller dimension tables,
//! probe hash-join tables, and keep small hot aggregation state. The
//! table-size hierarchy is what gives larger caches a progressive
//! benefit: each doubling of cache captures the next dimension table's
//! re-scans.

use memories_bus::Address;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event::{MemRef, RefKind, WorkloadEvent};
use crate::Workload;

/// Total scanned table bytes (the paper's runs: 100 GB, scaled down),
/// split into [`TABLE_COUNT`] tables of doubling size, 2–64 MB, smallest
/// first — the dimension-to-fact hierarchy.
const TABLE_BYTES: u64 = 126 << 20;
/// Number of tables in the doubling hierarchy.
const TABLE_COUNT: usize = 6;
/// Hash-join probe table bytes (random access).
const HASH_BYTES: u64 = 16 << 20;
/// Per-CPU aggregation state (hot).
const AGG_BYTES_PER_CPU: u64 = 64 << 10;
/// Fraction of references that probe the hash table.
const HASH_FRACTION: f64 = 0.25;
/// Fraction of references that touch aggregation state.
const AGG_FRACTION: f64 = 0.15;

/// DSS generator parameters. The schema is fixed: 126 MB of tables
/// (2–64 MB, doubling) and a 16 MB hash table.
#[derive(Clone, Debug)]
pub struct DssConfig {
    /// Processors driven.
    pub cpus: usize,
    /// Instructions per memory reference.
    pub instructions_per_ref: u64,
    /// RNG seed.
    pub seed: u64,
}

impl DssConfig {
    /// Scaled-down defaults: 8 CPUs.
    pub fn scaled_default() -> Self {
        DssConfig {
            cpus: 8,
            instructions_per_ref: 5,
            seed: 0xD55_D55,
        }
    }
}

/// The TPC-H-like generator. See [`DssConfig`].
#[derive(Clone, Debug)]
pub struct DssWorkload {
    config: DssConfig,
    tables: Vec<u64>,
    table_bases: Vec<u64>,
    rng: SmallRng,
    cpu: usize,
    tick_next: bool,
    /// Per-CPU, per-table scan cursors (byte offset within the slice).
    scans: Vec<Vec<u64>>,
}

impl DssWorkload {
    /// Builds the generator.
    ///
    /// # Panics
    ///
    /// Panics if the CPU count is zero.
    pub fn new(config: DssConfig) -> Self {
        assert!(config.cpus > 0);
        let denom = (1u64 << TABLE_COUNT) - 1;
        let tables: Vec<u64> = (0..TABLE_COUNT)
            .map(|i| TABLE_BYTES * (1 << i) / denom)
            .collect();
        let mut table_bases = Vec::with_capacity(tables.len());
        let mut base = 0;
        for t in &tables {
            table_bases.push(base);
            base += t;
        }
        DssWorkload {
            rng: SmallRng::seed_from_u64(config.seed),
            scans: vec![vec![0; tables.len()]; config.cpus],
            tables,
            table_bases,
            config,
            cpu: 0,
            tick_next: true,
        }
    }

    fn scans_base(&self) -> u64 {
        self.table_bases.last().unwrap() + self.tables.last().unwrap()
    }
}

impl Workload for DssWorkload {
    fn name(&self) -> &str {
        "tpch"
    }

    fn num_cpus(&self) -> usize {
        self.config.cpus
    }

    fn footprint_bytes(&self) -> u64 {
        self.scans_base() + HASH_BYTES + AGG_BYTES_PER_CPU * self.config.cpus as u64
    }

    fn next_event(&mut self) -> WorkloadEvent {
        if self.tick_next {
            self.tick_next = false;
            return WorkloadEvent::Instructions {
                cpu: self.cpu,
                count: self.config.instructions_per_ref,
            };
        }
        self.tick_next = true;
        let cpu = self.cpu;
        self.cpu = (self.cpu + 1) % self.config.cpus;

        let hash_base = self.scans_base();
        let agg_base = hash_base + HASH_BYTES;

        let roll: f64 = self.rng.random();
        let r = if roll < HASH_FRACTION {
            // Hash probe: uniform random, read-mostly.
            let within = self.rng.random_range(0..HASH_BYTES) & !7;
            let addr = Address::new(hash_base + within);
            if self.rng.random_bool(0.1) {
                MemRef::store(cpu, addr)
            } else {
                MemRef::load(cpu, addr)
            }
        } else if roll < HASH_FRACTION + AGG_FRACTION {
            // Aggregation state: hot, read/write.
            let base = agg_base + cpu as u64 * AGG_BYTES_PER_CPU;
            let within = self.rng.random_range(0..AGG_BYTES_PER_CPU) & !7;
            let addr = Address::new(base + within);
            if self.rng.random_bool(0.5) {
                MemRef::store(cpu, addr)
            } else {
                MemRef::load(cpu, addr)
            }
        } else {
            // Sequential scan step on a table chosen with equal time
            // share: each table receives ~1/TABLE_COUNT of the scan
            // references, so a small dimension table's lines are
            // re-scanned after proportionally little intervening traffic
            // — a cache that holds a few times its size captures it.
            let table = self.rng.random_range(0..self.tables.len());
            let slice = (self.tables[table] / self.config.cpus as u64).max(8);
            let off = self.scans[cpu][table] % slice;
            self.scans[cpu][table] = off + 8;
            let addr = Address::new(self.table_bases[table] + cpu as u64 * slice + off);
            MemRef {
                cpu,
                kind: RefKind::Load,
                addr,
            }
        };
        WorkloadEvent::Ref(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadExt;

    fn small() -> DssConfig {
        DssConfig {
            cpus: 4,
            instructions_per_ref: 5,
            seed: 11,
        }
    }

    #[test]
    fn table_hierarchy_doubles_and_sums() {
        let sizes = DssWorkload::new(small()).tables;
        assert_eq!(sizes.len(), 6);
        assert_eq!(sizes[0], 2 << 20);
        for w in sizes.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
        assert_eq!(sizes.iter().sum::<u64>(), TABLE_BYTES);
    }

    #[test]
    fn deterministic_and_in_footprint() {
        let mut a = DssWorkload::new(small());
        let mut b = DssWorkload::new(small());
        let ra: Vec<WorkloadEvent> = a.events().take(1000).collect();
        let rb: Vec<WorkloadEvent> = b.events().take(1000).collect();
        assert_eq!(ra, rb);
        let fp = a.footprint_bytes();
        for e in &ra {
            if let Some(r) = e.as_ref_event() {
                assert!(
                    r.addr.value() < fp,
                    "address {} beyond footprint {fp}",
                    r.addr
                );
            }
        }
    }

    #[test]
    fn small_tables_are_rescanned_more_often() {
        let mut w = DssWorkload::new(small());
        let sizes = w.tables.clone();
        let mut per_table = vec![0u64; sizes.len()];
        for e in w.events().take(60_000) {
            if let Some(r) = e.as_ref_event() {
                let a = r.addr.value();
                if a < TABLE_BYTES {
                    let mut base = 0;
                    for (i, s) in sizes.iter().enumerate() {
                        if a < base + s {
                            per_table[i] += 1;
                            break;
                        }
                        base += s;
                    }
                }
            }
        }
        // Roughly equal scan *time* per table means the smallest table is
        // re-scanned ~32x more often per byte.
        let density_small = per_table[0] as f64 / sizes[0] as f64;
        let density_big = per_table[5] as f64 / sizes[5] as f64;
        assert!(
            density_small > 4.0 * density_big,
            "densities {density_small:.4} vs {density_big:.4}"
        );
    }

    #[test]
    fn write_fraction_is_low() {
        let mut w = DssWorkload::new(small());
        let stores = w
            .events()
            .filter_map(|e| e.as_ref_event().copied())
            .take(4000)
            .filter(|r| r.kind.is_store())
            .count();
        assert!(
            stores < 800,
            "stores {stores} of 4000 — DSS should be read-mostly"
        );
    }
}
