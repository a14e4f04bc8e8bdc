//! Figure 8: L3 miss ratio vs. cache size for different trace lengths,
//! TPC-C (left) and TPC-H (right).
//!
//! Case Study 1: short traces are dominated by cold misses, so they make
//! large caches look useless — the short-trace curve flattens past a
//! knee while the long-trace curve keeps dropping, diverging by 100% or
//! more at the big sizes. The board's ability to process *long* runs in
//! real time is what exposed this.
//!
//! Scaling (~512x): 150 GB TPC-C -> 256 MB OLTP working set; 16 MB–1 GB
//! L3 sweep -> 1–64 MB; 10^10-reference long traces -> millions, with the
//! long:short ratio preserved in spirit (long touches many times the
//! largest cache; short touches less than the mid sizes).

use memories_console::report::{bytes, Table};
use memories_workloads::{DssConfig, DssWorkload, OltpConfig, OltpWorkload, Workload};

use super::{scaled_host, sweep_sizes, Scale};

/// Miss ratio as a function of emulated cache size, for one trace length.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Display label (e.g. `"long (3M refs)"`).
    pub label: String,
    /// Trace length in workload references.
    pub refs: u64,
    /// `(cache capacity bytes, miss ratio)` points, size-ascending.
    pub points: Vec<(u64, f64)>,
}

/// The experiment result.
#[derive(Clone, Debug)]
pub struct Fig8 {
    /// TPC-C curves (long and short).
    pub tpcc: Vec<Series>,
    /// TPC-H curves (long, medium, short).
    pub tpch: Vec<Series>,
    /// Swept cache capacities.
    pub sizes: Vec<u64>,
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig8 {
    // Top size chosen so the long trace can actually reach steady state
    // there (a 32 MB cache is 256 K lines; the long runs push millions
    // of L2 misses through it).
    let sizes: Vec<u64> = [1u64, 2, 4, 8, 16, 32].iter().map(|m| m << 20).collect();
    // 8-way, 128 B-line emulated caches behind 256 KB host L2s.
    let host = scaled_host(256 << 10, 4);
    let sweep = |make: &dyn Fn() -> Box<dyn Workload>, refs| {
        sweep_sizes(&host, make, &sizes, (8, 128), refs)
    };

    let tpcc_long = scale.pick(700_000, 4_000_000);
    let tpcc_short = scale.pick(25_000, 60_000);
    let make_tpcc: Box<dyn Fn() -> Box<dyn Workload>> = Box::new(|| {
        Box::new(OltpWorkload::new(OltpConfig {
            journal: None,
            ..OltpConfig::scaled_default()
        }))
    });

    let tpch_long = scale.pick(800_000, 4_000_000);
    let tpch_mid = tpch_long / 2;
    let tpch_short = scale.pick(20_000, 50_000);
    let make_tpch: Box<dyn Fn() -> Box<dyn Workload>> =
        Box::new(|| Box::new(DssWorkload::new(DssConfig::scaled_default())));

    let tpcc = vec![
        Series {
            label: format!("long ({tpcc_long} refs)"),
            refs: tpcc_long,
            points: sweep(&*make_tpcc, tpcc_long),
        },
        Series {
            label: format!("short ({tpcc_short} refs)"),
            refs: tpcc_short,
            points: sweep(&*make_tpcc, tpcc_short),
        },
    ];
    let tpch = vec![
        Series {
            label: format!("long ({tpch_long} refs)"),
            refs: tpch_long,
            points: sweep(&*make_tpch, tpch_long),
        },
        Series {
            label: format!("medium ({tpch_mid} refs)"),
            refs: tpch_mid,
            points: sweep(&*make_tpch, tpch_mid),
        },
        Series {
            label: format!("short ({tpch_short} refs)"),
            refs: tpch_short,
            points: sweep(&*make_tpch, tpch_short),
        },
    ];
    Fig8 { tpcc, tpch, sizes }
}

impl Fig8 {
    fn render_side(title: &str, sizes: &[u64], series: &[Series]) -> String {
        let mut headers = vec!["L3 size".to_string()];
        headers.extend(series.iter().map(|s| s.label.clone()));
        let mut t = Table::new(headers).with_title(title);
        for (i, &cap) in sizes.iter().enumerate() {
            let mut row = vec![bytes(cap)];
            row.extend(series.iter().map(|s| format!("{:.4}", s.points[i].1)));
            t.row(row);
        }
        t.render()
    }

    /// Renders both halves of the figure as tables.
    pub fn render(&self) -> String {
        let mut out = Fig8::render_side(
            "Figure 8 (left): TPC-C L3 miss ratio vs. trace length",
            &self.sizes,
            &self.tpcc,
        );
        out.push('\n');
        out.push_str(&Fig8::render_side(
            "Figure 8 (right): TPC-H L3 miss ratio vs. trace length",
            &self.sizes,
            &self.tpch,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_traces_overestimate_miss_ratio_at_large_caches() {
        let f = run(Scale::Quick);
        for (name, series) in [("tpcc", &f.tpcc), ("tpch", &f.tpch)] {
            let long = &series[0];
            let short = series.last().unwrap();
            // At the largest cache, the short trace reports a much higher
            // miss ratio (the paper: off by 100% or more).
            let (_, long_mr) = *long.points.last().unwrap();
            let (_, short_mr) = *short.points.last().unwrap();
            assert!(
                short_mr > 1.5 * long_mr,
                "{name}: short {short_mr:.4} vs long {long_mr:.4} at the largest cache"
            );
        }
    }

    #[test]
    fn long_trace_keeps_improving_while_short_flattens() {
        let f = run(Scale::Quick);
        let long = &f.tpcc[0];
        let short = &f.tpcc[1];
        // Long trace: the largest cache clearly beats the smallest.
        let long_gain = long.points[0].1 / long.points.last().unwrap().1.max(1e-9);
        // Short trace: much flatter at the top end (cold-dominated).
        let n = short.points.len();
        let short_tail_gain = short.points[n - 3].1 / short.points[n - 1].1.max(1e-9);
        assert!(long_gain > 1.5, "long trace gain {long_gain:.2}");
        assert!(
            short_tail_gain < long_gain,
            "short tail gain {short_tail_gain:.2} not flatter than long {long_gain:.2}"
        );
    }

    #[test]
    fn miss_ratio_is_monotone_in_cache_size_for_long_traces() {
        let f = run(Scale::Quick);
        for s in [&f.tpcc[0], &f.tpch[0]] {
            for w in s.points.windows(2) {
                assert!(
                    w[1].1 <= w[0].1 + 0.02,
                    "{}: miss ratio rose from {:?} to {:?}",
                    s.label,
                    w[0],
                    w[1]
                );
            }
        }
    }
}
