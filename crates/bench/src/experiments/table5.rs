//! Table 5: SPLASH2 application characteristics.
//!
//! Footprints come from the paper-size generators (calibrated to Table 5
//! within a few percent). Runtime at the 8 MB 4-way L2 is the S7A's
//! instruction time (`HostConfig::seconds_for_instructions`); the 1 MB
//! direct-mapped column *predicts* the paper's slowdown from the
//! miss-ratio difference measured on scaled runs at proportionally scaled
//! caches, times a memory stall penalty.

use memories_console::report::{bytes, Table};
use memories_host::HostConfig;
use memories_workloads::splash::{Barnes, Fft, Fmm, Ocean, Water};
use memories_workloads::Workload;

use super::{run_host_only, scaled_host, Scale};

/// Memory-stall penalty per additional L2 miss (seconds); ~60 CPU cycles
/// of a 262 MHz Northstar.
const MISS_PENALTY_S: f64 = 230e-9;

/// One Table 5 row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Application name and paper problem size.
    pub app: String,
    /// Paper-size memory footprint in bytes.
    pub footprint: u64,
    /// Modeled runtime with the 8 MB 4-way L2 (seconds).
    pub runtime_big_l2: f64,
    /// Modeled runtime with the 1 MB direct-mapped L2 (seconds).
    pub runtime_small_l2: f64,
    /// Measured scaled miss ratio, big-L2 configuration.
    pub scaled_miss_ratio_big: f64,
    /// Measured scaled miss ratio, small-L2 configuration.
    pub scaled_miss_ratio_small: f64,
}

/// The experiment result.
#[derive(Clone, Debug)]
pub struct Table5 {
    /// One row per application, paper order.
    pub rows: Vec<Row>,
}

struct AppSpec {
    label: &'static str,
    paper_footprint: u64,
    paper_instructions: u64,
    make_scaled: fn() -> Box<dyn Workload>,
}

fn apps() -> Vec<AppSpec> {
    vec![
        AppSpec {
            label: "FMM (4M particles)",
            paper_footprint: Fmm::paper_size(8, 1).footprint_bytes(),
            paper_instructions: Fmm::paper_size(8, 1).estimated_instructions(),
            make_scaled: || Box::new(Fmm::scaled(8, 1 << 16, 7)),
        },
        AppSpec {
            label: "FFT -m28 -l7",
            paper_footprint: Fft::paper_size(8, 1).footprint_bytes(),
            paper_instructions: Fft::paper_size(8, 1).estimated_instructions(),
            make_scaled: || Box::new(Fft::scaled(8, 22, 7)),
        },
        AppSpec {
            label: "OCEAN -n8194",
            paper_footprint: Ocean::paper_size(8, 1).footprint_bytes(),
            paper_instructions: Ocean::paper_size(8, 1).estimated_instructions(),
            make_scaled: || Box::new(Ocean::scaled(8, 1026, 7)),
        },
        AppSpec {
            label: "WATER (spatial, 125^3)",
            paper_footprint: Water::paper_size(8, 1).footprint_bytes(),
            paper_instructions: Water::paper_size(8, 1).estimated_instructions(),
            make_scaled: || Box::new(Water::scaled(8, 30_000, 7)),
        },
        AppSpec {
            label: "BARNES-HUT (16M bodies)",
            paper_footprint: Barnes::paper_size(8, 1).footprint_bytes(),
            paper_instructions: Barnes::paper_size(8, 1).estimated_instructions(),
            make_scaled: || Box::new(Barnes::scaled(8, 1 << 18, 7)),
        },
    ]
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Table5 {
    let refs = scale.pick(150_000, 1_000_000);
    let host = HostConfig::s7a();
    let rows = apps()
        .into_iter()
        .map(|spec| {
            // Scaled caches: the paper's 8 MB 4-way and 1 MB DM, divided
            // by the same 64x factor as the problem sizes.
            let big = run_host_only(scaled_host(128 << 10, 4), &mut *(spec.make_scaled)(), refs);
            let small = run_host_only(scaled_host(16 << 10, 1), &mut *(spec.make_scaled)(), refs);
            let mr_big = big.outer_miss_ratio();
            let mr_small = small.outer_miss_ratio();

            let base = host.seconds_for_instructions(spec.paper_instructions);
            let refs_per_instr =
                big.total().references() as f64 / big.total_instructions().max(1) as f64;
            // The miss-ratio delta is measured on 64x-scaled caches, which
            // exaggerates it for apps whose working set fits a real 1 MB
            // but not a scaled 16 KB; clamp the modeled slowdown to 25%
            // (the paper's worst observed is ~12%).
            let extra = (spec.paper_instructions as f64
                * refs_per_instr
                * (mr_small - mr_big).max(0.0)
                * MISS_PENALTY_S)
                .min(0.25 * base);
            Row {
                app: spec.label.to_string(),
                footprint: spec.paper_footprint,
                runtime_big_l2: base,
                runtime_small_l2: base + extra,
                scaled_miss_ratio_big: mr_big,
                scaled_miss_ratio_small: mr_small,
            }
        })
        .collect();
    Table5 { rows }
}

impl Table5 {
    /// Renders the table with the paper's values alongside.
    pub fn render(&self) -> String {
        let paper: [(f64, f64, f64); 5] = [
            (8.34, 633.0, 653.0),
            (12.58, 777.0, 853.0),
            (14.5, 860.0, 971.0),
            (1.38, 1794.0, 2008.0),
            (3.1, 2021.0, 2082.0),
        ];
        let mut t = Table::new([
            "application",
            "footprint",
            "paper GB",
            "runtime 8MB L2 (s)",
            "paper (s)",
            "runtime 1MB DM L2 (s)",
            "paper (s)",
        ])
        .with_title("Table 5. SPLASH2 application characteristics (8 processors)");
        for (i, r) in self.rows.iter().enumerate() {
            t.row([
                r.app.clone(),
                bytes(r.footprint),
                format!("{:.2}", paper[i].0),
                format!("{:.0}", r.runtime_big_l2),
                format!("{:.0}", paper[i].1),
                format!("{:.0}", r.runtime_small_l2),
                format!("{:.0}", paper[i].2),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprints_match_table5() {
        let t = run(Scale::Quick);
        let paper_gb = [8.34, 12.58, 14.5, 1.38, 3.1];
        for (row, gb) in t.rows.iter().zip(paper_gb) {
            let expected = (gb * (1u64 << 30) as f64) as u64;
            let err = (row.footprint as f64 - expected as f64).abs() / expected as f64;
            assert!(err < 0.05, "{}: footprint {:.1}% off", row.app, err * 100.0);
        }
    }

    #[test]
    fn small_l2_never_runs_faster() {
        let t = run(Scale::Quick);
        for r in &t.rows {
            assert!(
                r.runtime_small_l2 >= r.runtime_big_l2,
                "{}: small L2 faster than big",
                r.app
            );
            assert!(
                r.scaled_miss_ratio_small >= r.scaled_miss_ratio_big * 0.95,
                "{}: direct-mapped 16x-smaller L2 beat the big one ({} vs {})",
                r.app,
                r.scaled_miss_ratio_small,
                r.scaled_miss_ratio_big
            );
        }
    }

    #[test]
    fn big_l2_runtimes_track_the_paper_column() {
        // The work models are calibrated; each row within 45% of Table 5.
        let t = run(Scale::Quick);
        let paper = [633.0, 777.0, 860.0, 1794.0, 2021.0];
        for (r, p) in t.rows.iter().zip(paper) {
            let ratio = r.runtime_big_l2 / p;
            assert!(
                (0.55..1.45).contains(&ratio),
                "{}: {} vs paper {}",
                r.app,
                r.runtime_big_l2,
                p
            );
        }
    }
}
