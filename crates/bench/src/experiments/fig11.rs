//! Figure 11: L3 miss ratio vs. L3 size for the SPLASH2 applications.
//!
//! All eight processors share one emulated L3 behind 8 MB-class L2s; the
//! paper sweeps 64 MB–1 GB and finds the miss ratios "monotonically
//! decreasing, further suggesting an incentive for large L3 caches".
//! Scaled 64x: L2 128 KB, L3 1–16 MB, 1 KB L3 lines (the paper's Fig. 11
//! uses 128 B L2 lines and larger L3 lines; we use its Figure 12 L3 line
//! size of 1 KB).

use memories_console::report::{bytes, Table};
use memories_workloads::splash::{Barnes, Fft, Fmm, Ocean, Water};
use memories_workloads::Workload;

use super::{scaled_host, sweep_sizes, Scale};

/// A named workload constructor.
type AppMaker = Box<dyn Fn() -> Box<dyn Workload>>;

/// One application's curve.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Application name.
    pub app: String,
    /// `(L3 capacity, miss ratio)` points, size-ascending.
    pub points: Vec<(u64, f64)>,
}

/// The experiment result.
#[derive(Clone, Debug)]
pub struct Fig11 {
    /// One curve per application.
    pub series: Vec<Series>,
    /// Swept capacities.
    pub sizes: Vec<u64>,
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig11 {
    let refs = scale.pick(200_000, 1_200_000);
    let sizes: Vec<u64> = [1u64, 2, 4, 8, 16].iter().map(|m| m << 20).collect();
    let host = scaled_host(128 << 10, 4);

    let apps: Vec<(&str, AppMaker)> = vec![
        ("fmm", Box::new(|| Box::new(Fmm::scaled(8, 1 << 16, 7)))),
        ("fft", Box::new(|| Box::new(Fft::scaled(8, 18, 7)))),
        ("ocean", Box::new(|| Box::new(Ocean::scaled(8, 1026, 7)))),
        ("water", Box::new(|| Box::new(Water::scaled(8, 30_000, 7)))),
        (
            "barnes",
            Box::new(|| Box::new(Barnes::scaled(8, 1 << 18, 7))),
        ),
    ];

    let series = apps
        .into_iter()
        .map(|(name, make)| {
            let points = sweep_sizes(&host, &*make, &sizes, (4, 1024), refs);
            Series {
                app: name.to_string(),
                points,
            }
        })
        .collect();

    Fig11 { series, sizes }
}

impl Fig11 {
    /// Renders the figure as a table.
    pub fn render(&self) -> String {
        let mut headers = vec!["L3 size".to_string()];
        headers.extend(self.series.iter().map(|s| s.app.clone()));
        let mut t = Table::new(headers).with_title(
            "Figure 11. L3 miss ratio vs. size (8 procs share one L3, 128KB-scaled L2)",
        );
        for (i, &cap) in self.sizes.iter().enumerate() {
            let mut row = vec![bytes(cap)];
            row.extend(self.series.iter().map(|s| format!("{:.4}", s.points[i].1)));
            t.row(row);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_decreases_monotonically_with_l3_size() {
        let f = run(Scale::Quick);
        for s in &f.series {
            for w in s.points.windows(2) {
                assert!(
                    w[1].1 <= w[0].1 + 0.01,
                    "{}: ratio rose from {:?} to {:?}",
                    s.app,
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn larger_l3_gives_a_real_benefit_for_at_least_three_apps() {
        let f = run(Scale::Quick);
        let improved = f
            .series
            .iter()
            .filter(|s| {
                let first = s.points.first().unwrap().1;
                let last = s.points.last().unwrap().1;
                first > 0.0 && last < 0.9 * first
            })
            .count();
        assert!(
            improved >= 3,
            "only {improved} apps improved >=10% across the sweep"
        );
    }

    #[test]
    fn all_five_apps_present() {
        let f = run(Scale::Quick);
        assert_eq!(f.series.len(), 5);
        assert_eq!(f.sizes.len(), 5);
    }
}
