//! Host-speed calibration.
//!
//! The reference host is shared. Other tenants load its memory system
//! and slow memory-bound code, such as the emulator's tag-array probes,
//! by up to 2x for minutes at a time; an untouched run of the same code
//! and seed then reads anywhere between one speed and the other. A
//! fixed, memory-bound kernel that belongs to the benchmark, not to the
//! program under test, is timed around every measured call, and its
//! slowdown against [`REFERENCE_S`] turns host seconds into reference
//! seconds: the time the call would have taken on the uncontended host.

use std::hint::black_box;
use std::time::Instant;

/// Sets of the calibration tag array: 4 ways of 8-byte tags, 16 MB in
/// all, the size of the largest emulated node's tag arrays.
const SETS: usize = 1 << 19;
/// Probes per calibration pass.
const PROBES: u32 = 1_000_000;
/// Seconds one pass takes on the reference host (2-vCPU Xeon KVM guest,
/// release build) when nothing else loads its memory system: the fastest
/// passes observed there.
pub const REFERENCE_S: f64 = 0.0095;

/// A probe loop over a set-associative tag array with LRU replacement,
/// kept resident between passes so a pass measures probes, not page
/// faults.
#[derive(Debug)]
pub struct Calibrator {
    tags: Vec<u64>,
    rng: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Allocates and touches the tag array.
    pub fn new() -> Calibrator {
        Calibrator {
            tags: vec![1; SETS * 4],
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// How much slower the host runs the kernel now than the reference
    /// host does: 1.0 uncontended, 2.0 when it takes twice as long.
    pub fn slowdown(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..PROBES {
            let x = &mut self.rng;
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let set = (*x as usize) & (SETS - 1);
            let tag = *x >> 40;
            let ways = &mut self.tags[set * 4..set * 4 + 4];
            match ways.iter().position(|&t| t == tag) {
                Some(i) => ways[..=i].rotate_right(1),
                None => {
                    ways.rotate_right(1);
                    ways[0] = tag;
                }
            }
        }
        black_box(&self.tags);
        start.elapsed().as_secs_f64() / REFERENCE_S
    }
}
