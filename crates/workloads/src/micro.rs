//! Microworkloads: simple reference patterns for tests, calibration, and
//! benches: sequential, uniform random and Zipf.

use memories_bus::Address;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event::{MemRef, RefKind, WorkloadEvent};
use crate::zipf::ZipfSampler;
use crate::Workload;

/// Instructions emitted between consecutive memory references.
const INSTR_PER_REF: u64 = 3;

/// Round-robin CPU scheduling state shared by the microworkloads.
#[derive(Clone, Debug)]
struct Turn {
    cpus: usize,
    cpu: usize,
    tick_next: bool,
}

impl Turn {
    fn new(cpus: usize) -> Self {
        assert!(cpus > 0, "at least one cpu");
        Turn {
            cpus,
            cpu: 0,
            tick_next: true,
        }
    }

    /// Alternates instruction ticks and references, rotating CPUs.
    fn next<F: FnOnce(usize) -> MemRef>(&mut self, make_ref: F) -> WorkloadEvent {
        if self.tick_next {
            self.tick_next = false;
            WorkloadEvent::Instructions {
                cpu: self.cpu,
                count: INSTR_PER_REF,
            }
        } else {
            self.tick_next = true;
            let cpu = self.cpu;
            self.cpu = (self.cpu + 1) % self.cpus;
            WorkloadEvent::Ref(make_ref(cpu))
        }
    }
}

/// Pure sequential streaming: each CPU walks its own contiguous region.
#[derive(Clone, Debug)]
pub struct Sequential {
    turn: Turn,
    region_bytes: u64,
    stride: u64,
    offsets: Vec<u64>,
}

impl Sequential {
    /// `cpus` CPUs each streaming over `region_bytes` at `stride` bytes
    /// per reference.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(cpus: usize, region_bytes: u64, stride: u64) -> Self {
        assert!(region_bytes > 0 && stride > 0);
        Sequential {
            turn: Turn::new(cpus),
            region_bytes,
            stride,
            offsets: vec![0; cpus],
        }
    }
}

impl Workload for Sequential {
    fn name(&self) -> &str {
        "sequential"
    }

    fn num_cpus(&self) -> usize {
        self.turn.cpus
    }

    fn footprint_bytes(&self) -> u64 {
        self.region_bytes * self.turn.cpus as u64
    }

    fn next_event(&mut self) -> WorkloadEvent {
        let region = self.region_bytes;
        let stride = self.stride;
        let offsets = &mut self.offsets;
        self.turn.next(|cpu| {
            let off = offsets[cpu];
            offsets[cpu] = (off + stride) % region;
            MemRef::load(cpu, Address::new(cpu as u64 * region + off))
        })
    }
}

/// Uniform random loads/stores over a shared region.
#[derive(Clone, Debug)]
pub struct UniformRandom {
    turn: Turn,
    region_bytes: u64,
    write_fraction: f64,
    rng: SmallRng,
}

impl UniformRandom {
    /// Uniform references over `region_bytes`, with the given store
    /// fraction, deterministically seeded.
    ///
    /// # Panics
    ///
    /// Panics if `region_bytes` is zero or the fraction is outside
    /// `[0, 1]`.
    pub fn new(cpus: usize, region_bytes: u64, write_fraction: f64, seed: u64) -> Self {
        assert!(region_bytes > 0);
        assert!((0.0..=1.0).contains(&write_fraction));
        UniformRandom {
            turn: Turn::new(cpus),
            region_bytes,
            write_fraction,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Workload for UniformRandom {
    fn name(&self) -> &str {
        "uniform"
    }

    fn num_cpus(&self) -> usize {
        self.turn.cpus
    }

    fn footprint_bytes(&self) -> u64 {
        self.region_bytes
    }

    fn next_event(&mut self) -> WorkloadEvent {
        let addr = Address::new(self.rng.random_range(0..self.region_bytes) & !7);
        let kind = if self.rng.random_bool(self.write_fraction) {
            RefKind::Store
        } else {
            RefKind::Load
        };
        self.turn.next(|cpu| MemRef { cpu, kind, addr })
    }
}

/// Zipf-skewed references over a shared region of fixed-size blocks.
#[derive(Clone, Debug)]
pub struct ZipfWorkload {
    turn: Turn,
    block_bytes: u64,
    zipf: ZipfSampler,
    write_fraction: f64,
    rng: SmallRng,
}

impl ZipfWorkload {
    /// Zipf(θ=`theta`) references over `blocks` blocks of `block_bytes`.
    pub fn new(
        cpus: usize,
        blocks: u64,
        block_bytes: u64,
        theta: f64,
        write_fraction: f64,
        seed: u64,
    ) -> Self {
        ZipfWorkload {
            turn: Turn::new(cpus),
            block_bytes,
            zipf: ZipfSampler::new(blocks, theta),
            write_fraction,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Workload for ZipfWorkload {
    fn name(&self) -> &str {
        "zipf"
    }

    fn num_cpus(&self) -> usize {
        self.turn.cpus
    }

    fn footprint_bytes(&self) -> u64 {
        self.zipf.len() * self.block_bytes
    }

    fn next_event(&mut self) -> WorkloadEvent {
        let block = self.zipf.sample(&mut self.rng);
        let within = self.rng.random_range(0..self.block_bytes) & !7;
        let addr = Address::new(block * self.block_bytes + within);
        let kind = if self.rng.random_bool(self.write_fraction) {
            RefKind::Store
        } else {
            RefKind::Load
        };
        self.turn.next(|cpu| MemRef { cpu, kind, addr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadExt;

    fn refs<W: Workload>(w: &mut W, n: usize) -> Vec<MemRef> {
        w.events()
            .filter_map(|e| e.as_ref_event().copied())
            .take(n)
            .collect()
    }

    #[test]
    fn sequential_walks_each_cpu_region() {
        let mut w = Sequential::new(2, 1024, 64);
        let rs = refs(&mut w, 4);
        assert_eq!(rs[0].cpu, 0);
        assert_eq!(rs[1].cpu, 1);
        assert_eq!(rs[0].addr, Address::new(0));
        assert_eq!(rs[1].addr, Address::new(1024));
        assert_eq!(rs[2].addr, Address::new(64));
        assert_eq!(w.footprint_bytes(), 2048);
    }

    #[test]
    fn instruction_ticks_interleave_refs() {
        let mut w = Sequential::new(1, 1024, 64);
        let events: Vec<WorkloadEvent> = w.events().take(4).collect();
        assert!(matches!(events[0], WorkloadEvent::Instructions { .. }));
        assert!(events[1].is_ref());
        assert!(matches!(events[2], WorkloadEvent::Instructions { .. }));
        assert!(events[3].is_ref());
    }

    #[test]
    fn uniform_is_deterministic_and_in_range() {
        let mut a = UniformRandom::new(4, 4096, 0.3, 42);
        let mut b = UniformRandom::new(4, 4096, 0.3, 42);
        let ra = refs(&mut a, 100);
        let rb = refs(&mut b, 100);
        assert_eq!(ra, rb);
        assert!(ra.iter().all(|r| r.addr.value() < 4096));
        assert!(ra.iter().any(|r| r.kind.is_store()));
        assert!(ra.iter().any(|r| !r.kind.is_store()));
    }

    #[test]
    fn zipf_workload_reuses_hot_blocks() {
        let mut w = ZipfWorkload::new(1, 1000, 128, 0.9, 0.0, 7);
        let rs = refs(&mut w, 2000);
        let hot = rs.iter().filter(|r| r.addr.value() < 128).count();
        // Rank 0 should absorb far more than 1/1000 of the traffic.
        assert!(hot > 100, "hot block got {hot} of 2000");
    }
}
