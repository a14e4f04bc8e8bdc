//! Monitoring: Case Study 1 (§5.1) replayed as a *live* time series.
//!
//! Figure 8 makes the trace-length argument by running the same workload
//! many times at different lengths. The physical board never needed to:
//! its console could read the counters mid-run (the FPGAs keep snooping
//! while the PC reads), so one long run *contains* every shorter trace.
//! This experiment does the same with the monitoring subsystem: a single
//! monitored OLTP run per cache size, sampled every few thousand admitted
//! transactions, shows the cumulative miss rate converging with trace
//! length — and the windowed miss rate shows *when* each cache leaves its
//! cold-start regime (the big cache keeps absorbing cold misses long
//! after the small one has saturated).
//!
//! The trailing telemetry block reports the emulator's own pace for the
//! run: admitted throughput and the emulated-vs-wall realtime ratio
//! against the Table 3 SDRAM model (the board's claim was ratio >= 1 by
//! construction; software has to earn it).

use memories::{BoardConfig, SdramModel};
use memories_bus::ProcId;
use memories_console::report::Table;
use memories_console::EmulationSession;
use memories_obs::EngineTelemetry;
use memories_workloads::{OltpConfig, OltpWorkload, Workload};

use super::{scaled_cache, scaled_host, Scale};

/// The sampled miss-rate trajectory of one emulated cache size.
#[derive(Clone, Debug)]
pub struct Curve {
    /// Display label (e.g. `"1MB"`).
    pub label: String,
    /// `(admitted transactions, cumulative miss rate, window miss rate)`
    /// per sample, admitted-ascending.
    pub points: Vec<(u64, f64, f64)>,
    /// Engine self-observation for this run.
    pub telemetry: EngineTelemetry,
}

/// The experiment result: one monitored run per cache size.
#[derive(Clone, Debug)]
pub struct Monitoring {
    /// One curve per emulated cache size.
    pub curves: Vec<Curve>,
    /// Sampling period in admitted transactions.
    pub period: u64,
}

fn monitored_curve(label: &str, capacity: u64, refs: u64, period: u64) -> Curve {
    let session = EmulationSession::builder()
        .host(scaled_host(256 << 10, 4))
        .board(
            BoardConfig::single_node(scaled_cache(capacity, 8, 128), (0..8).map(ProcId::new))
                .expect("valid monitoring board"),
        )
        .sample_every(period)
        .build()
        .expect("valid monitoring session");
    let mut workload: Box<dyn Workload> = Box::new(OltpWorkload::new(OltpConfig {
        journal: None,
        ..OltpConfig::scaled_default()
    }));
    let run = session
        .run_monitored_pipelined(&mut *workload, refs)
        .expect("monitored run completes");
    Curve {
        label: label.to_string(),
        points: run
            .series
            .points()
            .iter()
            .map(|p| {
                (
                    p.cumulative.admitted,
                    p.cumulative.miss_rate(),
                    p.window.miss_rate(),
                )
            })
            .collect(),
        telemetry: run.telemetry,
    }
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Monitoring {
    // Long enough that the small cache clearly reaches steady state
    // while the large one is still warming for the early windows.
    let refs = scale.pick(200_000, 2_000_000);
    let period = scale.pick(16_384, 131_072);
    let curves = vec![
        monitored_curve("1MB", 1 << 20, refs, period),
        monitored_curve("16MB", 16 << 20, refs, period),
    ];
    Monitoring { curves, period }
}

impl Monitoring {
    /// Renders the time series as a table plus a telemetry footer.
    pub fn render(&self) -> String {
        let mut headers = vec!["admitted".to_string()];
        for c in &self.curves {
            headers.push(format!("{} cum", c.label));
            headers.push(format!("{} window", c.label));
        }
        let mut t = Table::new(headers).with_title(&format!(
            "Monitoring: live miss-rate series, one sample per {} admitted (Case Study 1)",
            self.period
        ));
        let rows = self
            .curves
            .iter()
            .map(|c| c.points.len())
            .min()
            .unwrap_or(0);
        for i in 0..rows {
            let mut row = vec![format!("{}", self.curves[0].points[i].0)];
            for c in &self.curves {
                row.push(format!("{:.4}", c.points[i].1));
                row.push(format!("{:.4}", c.points[i].2));
            }
            t.row(row);
        }
        let mut out = t.render();
        let model = SdramModel::table3_default();
        for c in &self.curves {
            out.push_str(&format!(
                "\n{}: {} samples, {:.2}M admitted/s, realtime ratio {:.2}x vs Table 3 SDRAM",
                c.label,
                c.points.len(),
                c.telemetry.throughput() / 1e6,
                c.telemetry.realtime_ratio(&model),
            ));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_miss_rate_converges_within_one_run() {
        let m = run(Scale::Quick);
        for c in &m.curves {
            assert!(
                c.points.len() >= 4,
                "{}: want several samples, got {}",
                c.label,
                c.points.len()
            );
            let first_step = (c.points[1].1 - c.points[0].1).abs();
            let n = c.points.len() - 1;
            let last_step = (c.points[n].1 - c.points[n - 1].1).abs();
            assert!(
                last_step <= first_step || last_step < 0.01,
                "{}: not converging (first step {first_step:.4}, last {last_step:.4})",
                c.label
            );
        }
    }

    #[test]
    fn larger_cache_ends_lower_but_starts_cold() {
        let m = run(Scale::Quick);
        let small = &m.curves[0];
        let large = &m.curves[1];
        // Final cumulative miss rate: the big cache wins.
        assert!(
            large.points.last().unwrap().1 < small.points.last().unwrap().1,
            "16MB {:.4} should beat 1MB {:.4} by the end",
            large.points.last().unwrap().1,
            small.points.last().unwrap().1
        );
        // Early on, cold misses keep the gap far smaller than it ends up
        // — the short-trace fallacy, visible inside a single run.
        let early_gap = small.points[0].1 - large.points[0].1;
        let late_gap = small.points.last().unwrap().1 - large.points.last().unwrap().1;
        assert!(
            late_gap > early_gap,
            "gap should widen with trace length: early {early_gap:.4}, late {late_gap:.4}"
        );
    }

    #[test]
    fn telemetry_accounts_for_the_whole_stream() {
        let m = run(Scale::Quick);
        for c in &m.curves {
            assert!(c.telemetry.seen >= c.telemetry.admitted);
            assert!(c.points.last().unwrap().0 <= c.telemetry.admitted);
            assert!(c.telemetry.throughput() > 0.0);
        }
    }
}
