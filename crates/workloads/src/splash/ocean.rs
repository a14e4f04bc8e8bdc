//! The Ocean kernel: red-black stencil sweeps with a multigrid solver.
//!
//! SPLASH2's Ocean simulates eddy currents on (n+2)×(n+2) double-precision
//! grids (about 25–30 live arrays) and solves its elliptic equations with
//! a *multigrid* method: relaxation sweeps over a hierarchy of
//! successively coarser grids. Processors own contiguous blocks of rows;
//! each sweep reads the 5-point stencil neighborhood and writes the cell,
//! so the only communication is at partition boundary rows.
//!
//! The multigrid hierarchy matters for cache studies: the coarse grids of
//! a *small* problem fit in megabyte-class caches (their sweeps hit),
//! while at realistic sizes even the first coarse level overflows them —
//! one of the reasons the paper's Table 6 finds scaled-size Ocean miss
//! rates unrepresentative of realistic ones.

use memories_bus::Address;

use crate::event::MemRef;
use crate::splash::Sched;
use crate::{Workload, WorkloadEvent};

const DOUBLE: u64 = 8;
/// Full-size live grids; together with the coarse hierarchy below this
/// reproduces Table 5's 14.5 GB at n = 8194 within ~1%.
const FINE_GRIDS: u64 = 29;
/// Coarse multigrid levels (n/2, n/4, n/8), swept `COARSE_REPS` times per
/// cycle (relaxation iterations).
const COARSE_LEVELS: u32 = 3;
const COARSE_REPS: u32 = 8;

/// One sweep target: a grid at some base address and dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Target {
    base: u64,
    dim: u64,
}

/// The Ocean access-pattern kernel. See the [module docs](crate::splash).
#[derive(Clone, Debug)]
pub struct Ocean {
    sched: Sched,
    n: u64,
    /// The sweep schedule: 29 fine grids, then 8 relaxation repetitions
    /// over each coarse level.
    targets: Vec<Target>,
    active: usize,
    /// Per-CPU linear cursor over its block of the active target.
    cursors: Vec<u64>,
    /// Stencil step within the current cell: 0..4 loads then a store.
    step: Vec<u8>,
    swept_cells: u64,
}

impl Ocean {
    /// The paper's size: `-n8194`.
    pub fn paper_size(cpus: usize, instr_per_ref: u64) -> Self {
        Ocean::scaled(cpus, 8194, instr_per_ref)
    }

    /// A scaled instance over an `n × n` fine grid.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2 * cpus` or `cpus` is zero.
    pub fn scaled(cpus: usize, n: u64, instr_per_ref: u64) -> Self {
        assert!(n >= 2 * cpus as u64, "grid too small for the cpu count");
        let mut targets = Vec::new();
        let mut base = 0u64;
        for _ in 0..FINE_GRIDS {
            targets.push(Target { base, dim: n });
            base += n * n * DOUBLE;
        }
        // The coarse hierarchy lives once; its sweeps repeat.
        let mut coarse = Vec::new();
        for k in 1..=COARSE_LEVELS {
            let dim = n >> k;
            if dim < 2 * cpus as u64 {
                break;
            }
            coarse.push(Target { base, dim });
            base += dim * dim * DOUBLE;
        }
        for _ in 0..COARSE_REPS {
            targets.extend_from_slice(&coarse);
        }
        Ocean {
            sched: Sched::new(cpus, instr_per_ref),
            n,
            targets,
            active: 0,
            cursors: vec![0; cpus],
            step: vec![0; cpus],
            swept_cells: 0,
        }
    }

    /// Grid dimension `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// End of the fine-grid region (coarse hierarchy lies above it).
    #[cfg(test)]
    fn fine_region_bytes(&self) -> u64 {
        FINE_GRIDS * self.n * self.n * DOUBLE
    }

    /// Instruction-count work model: hundreds of sweeps at ~30
    /// instructions per cell; calibrated so the paper-size run reproduces
    /// Table 5's 860 s on the S7A host model.
    pub fn estimated_instructions(&self) -> u64 {
        600 * 30 * self.n * self.n
    }
}

impl Workload for Ocean {
    fn name(&self) -> &str {
        "ocean"
    }

    fn num_cpus(&self) -> usize {
        self.sched.cpus
    }

    fn footprint_bytes(&self) -> u64 {
        self.targets
            .iter()
            .map(|t| t.base + t.dim * t.dim * DOUBLE)
            .max()
            .expect("at least the fine grids exist")
    }

    fn next_event(&mut self) -> WorkloadEvent {
        let cpus = self.sched.cpus as u64;
        let target = self.targets[self.active];
        let n = target.dim;
        let rows_per_cpu = n / cpus;
        let cursors = &mut self.cursors;
        let steps = &mut self.step;
        let swept = &mut self.swept_cells;

        let event = self.sched.next(|cpu| {
            let first_row = cpu as u64 * rows_per_cpu;
            let cells = rows_per_cpu * n;
            let cursor = cursors[cpu] % cells;
            let row = first_row + cursor / n;
            let col = cursor % n;
            let step = steps[cpu];

            let cell = |r: u64, c: u64| -> u64 {
                target.base + (r.min(n - 1) * n + c.min(n - 1)) * DOUBLE
            };

            match step {
                // 5-point stencil loads: N, S, W, E neighbors. North/south
                // at block boundaries read the adjacent CPU's rows — the
                // kernel's only sharing.
                0 => {
                    steps[cpu] = 1;
                    MemRef::load(cpu, Address::new(cell(row.saturating_sub(1), col)))
                }
                1 => {
                    steps[cpu] = 2;
                    MemRef::load(cpu, Address::new(cell(row + 1, col)))
                }
                2 => {
                    steps[cpu] = 3;
                    MemRef::load(cpu, Address::new(cell(row, col.saturating_sub(1))))
                }
                3 => {
                    steps[cpu] = 4;
                    MemRef::load(cpu, Address::new(cell(row, col + 1)))
                }
                _ => {
                    steps[cpu] = 0;
                    cursors[cpu] += 1;
                    *swept += 1;
                    MemRef::store(cpu, Address::new(cell(row, col)))
                }
            }
        });

        // Advance to the next sweep target once all CPUs finish their
        // blocks of this one.
        if self.swept_cells >= rows_per_cpu * n * cpus {
            self.swept_cells = 0;
            self.cursors.iter_mut().for_each(|c| *c = 0);
            self.active = (self.active + 1) % self.targets.len();
        }
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadExt;

    #[test]
    fn paper_size_matches_table5_footprint() {
        let w = Ocean::paper_size(8, 1);
        let expected = (14.5 * (1u64 << 30) as f64) as u64;
        let err = (w.footprint_bytes() as f64 - expected as f64).abs() / expected as f64;
        assert!(err < 0.02, "footprint off by {:.1}%", err * 100.0);
    }

    #[test]
    fn stencil_pattern_is_four_loads_then_store() {
        let mut w = Ocean::scaled(1, 16, 1);
        let refs: Vec<_> = w
            .events()
            .filter_map(|e| e.as_ref_event().copied())
            .take(10)
            .collect();
        assert!(!refs[0].kind.is_store());
        assert!(!refs[3].kind.is_store());
        assert!(refs[4].kind.is_store());
        assert!(!refs[5].kind.is_store());
        assert!(refs[9].kind.is_store());
    }

    #[test]
    fn sharing_is_confined_to_boundary_rows() {
        let mut w = Ocean::scaled(4, 64, 1);
        let fine_end = w.fine_region_bytes();
        let grid_bytes = 64 * 64 * 8u64;
        let rows_per_cpu = 16u64;
        let mut boundary_loads = 0;
        let mut interior_cross = 0;
        for e in w.events().take(100_000) {
            if let Some(r) = e.as_ref_event() {
                if r.kind.is_store() || r.addr.value() >= fine_end {
                    continue; // coarse levels checked separately
                }
                let point = r.addr.value() % grid_bytes / 8;
                let row = point / 64;
                let owner = (row / rows_per_cpu).min(3) as usize;
                if owner != r.cpu {
                    let dist_to_boundary =
                        (row % rows_per_cpu).min(rows_per_cpu - 1 - row % rows_per_cpu);
                    if dist_to_boundary == 0 {
                        boundary_loads += 1;
                    } else {
                        interior_cross += 1;
                    }
                }
            }
        }
        assert!(boundary_loads > 0, "no boundary sharing seen");
        assert_eq!(interior_cross, 0, "sharing beyond boundary rows");
    }

    #[test]
    fn coarse_levels_are_swept_repeatedly() {
        // n=64, 4 cpus: coarse dims 32, 16, 8; all >= 8 so all included.
        let mut w = Ocean::scaled(4, 64, 1);
        let fine_end = w.fine_region_bytes();
        // One full cycle: 29 fine sweeps (4096 cells x 5 refs each) plus
        // 8 reps x 3 coarse sweeps. Count coarse refs over a window.
        let mut coarse = 0u64;
        let mut total = 0u64;
        for e in w.events().take(29 * 4096 * 5 * 2 + 8 * 3 * 1100 * 5 * 2) {
            if let Some(r) = e.as_ref_event() {
                total += 1;
                if r.addr.value() >= fine_end {
                    coarse += 1;
                }
            }
        }
        let share = coarse as f64 / total as f64;
        assert!(
            (0.02..0.25).contains(&share),
            "coarse sweep share {share:.3} outside the multigrid range"
        );
    }

    #[test]
    fn grids_rotate() {
        let mut w = Ocean::scaled(1, 8, 1);
        let grid_bytes = 8 * 8 * 8u64;
        let mut max_grid = 0;
        for e in w.events().take(8 * 8 * 5 * 2 * 3) {
            if let Some(r) = e.as_ref_event() {
                max_grid = max_grid.max(r.addr.value() / grid_bytes);
            }
        }
        assert!(max_grid >= 1, "never advanced past grid 0");
    }
}
