//! Figure 12: where an L2 miss is satisfied — FFT, Ocean, FMM.
//!
//! The board configures a NUMA-style target: several SMP nodes, each with
//! an emulated L3, and classifies every L2 miss by its source: another
//! L2's modified intervention, another L2's shared intervention, the
//! emulated L3, or memory. The paper's observations to reproduce:
//!
//! * FFT and Ocean have small intervention shares (little data sharing) —
//!   NUMA placement and tertiary caches matter for them.
//! * FMM has a large modified/shared intervention share (heavy sharing) —
//!   it profits from fast cache-to-cache transfers instead.
//!
//! Configurations: 2 nodes x 4 processors and 4 nodes x 2 processors;
//! 4-way L2 and L3; L2 line 128 B, L3 line 1 KB (as in the figure).

use memories::{BoardConfig, FillBreakdown, NodeCounters};
use memories_bus::ProcId;
use memories_console::report::Table;
use memories_console::EmulationSession;
use memories_workloads::splash::{Fft, Fmm, Ocean};
use memories_workloads::Workload;

use super::{scaled_cache, scaled_host, Scale};

/// A named workload constructor.
type AppMaker = Box<dyn Fn() -> Box<dyn Workload>>;

/// One (application, node configuration) measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Bar {
    /// Application name.
    pub app: String,
    /// Number of emulated nodes.
    pub nodes: usize,
    /// Processors per node.
    pub procs_per_node: usize,
    /// The fill-source breakdown (fractions summing to ~1).
    pub breakdown: FillBreakdown,
}

/// The experiment result.
#[derive(Clone, Debug)]
pub struct Fig12 {
    /// All bars: three applications x two configurations.
    pub bars: Vec<Bar>,
}

fn measure(app: &str, make: &dyn Fn() -> Box<dyn Workload>, nodes: usize, refs: u64) -> Bar {
    let procs_per_node = 8 / nodes;
    let params = scaled_cache(4 << 20, 4, 1024);
    let partitions: Vec<Vec<ProcId>> = (0..nodes)
        .map(|n| {
            (n * procs_per_node..(n + 1) * procs_per_node)
                .map(|c| ProcId::new(c as u8))
                .collect()
        })
        .collect();
    let board = BoardConfig::multi_node(params, partitions).unwrap();
    let session = EmulationSession::builder()
        .host(scaled_host(128 << 10, 4))
        .board(board)
        .build()
        .unwrap();
    let mut workload = make();
    let result = session.run(&mut *workload, refs).unwrap();

    // Aggregate the breakdown over nodes, weighted by fill counts.
    let mut totals = NodeCounters::new();
    for s in &result.node_stats {
        totals.merge(s);
    }
    Bar {
        app: app.to_string(),
        nodes,
        procs_per_node,
        breakdown: totals.fill_breakdown(),
    }
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig12 {
    // Enough references that FFT (m=18) cycles through its transpose
    // phase (~524 K references per phase) even in quick mode.
    let refs = scale.pick(700_000, 1_600_000);
    let apps: Vec<(&str, AppMaker)> = vec![
        ("fft", Box::new(|| Box::new(Fft::scaled(8, 18, 7)))),
        ("ocean", Box::new(|| Box::new(Ocean::scaled(8, 1026, 7)))),
        ("fmm", Box::new(|| Box::new(Fmm::scaled(8, 1 << 16, 7)))),
    ];
    let mut bars = Vec::new();
    for (name, make) in &apps {
        for nodes in [2usize, 4] {
            bars.push(measure(name, &**make, nodes, refs));
        }
    }
    Fig12 { bars }
}

impl Fig12 {
    /// Renders the figure as a table of stacked-bar fractions.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "application",
            "config",
            "memory",
            "L3",
            "shr-int",
            "mod-int",
        ])
        .with_title("Figure 12. Where an L2 miss is satisfied (fractions)");
        for b in &self.bars {
            t.row([
                b.app.clone(),
                format!("{}x{}p", b.nodes, b.procs_per_node),
                format!("{:.3}", b.breakdown.memory),
                format!("{:.3}", b.breakdown.l3),
                format!("{:.3}", b.breakdown.shared_intervention),
                format!("{:.3}", b.breakdown.modified_intervention),
            ]);
        }
        t.render()
    }

    /// Mean intervention share (shared + modified) across the two
    /// configurations of one application.
    pub fn intervention_share(&self, app: &str) -> f64 {
        let bars: Vec<&Bar> = self.bars.iter().filter(|b| b.app == app).collect();
        bars.iter()
            .map(|b| b.breakdown.shared_intervention + b.breakdown.modified_intervention)
            .sum::<f64>()
            / bars.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmm_shares_far_more_than_fft_and_ocean() {
        let f = run(Scale::Quick);
        let fmm = f.intervention_share("fmm");
        let fft = f.intervention_share("fft");
        let ocean = f.intervention_share("ocean");
        assert!(
            fmm > 2.0 * fft.max(0.005),
            "fmm intervention share {fmm:.3} not well above fft {fft:.3}"
        );
        assert!(
            fmm > 2.0 * ocean.max(0.005),
            "fmm intervention share {fmm:.3} not well above ocean {ocean:.3}"
        );
    }

    #[test]
    fn fractions_sum_to_one_per_bar() {
        let f = run(Scale::Quick);
        assert_eq!(f.bars.len(), 6);
        for b in &f.bars {
            let sum = b.breakdown.memory
                + b.breakdown.l3
                + b.breakdown.shared_intervention
                + b.breakdown.modified_intervention;
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{}: fractions sum to {sum}",
                b.app
            );
        }
    }

    #[test]
    fn more_nodes_means_fewer_local_l3_hits() {
        // Splitting the processors across more nodes shrinks each node's
        // local population, so the L3-hit share should not grow.
        let f = run(Scale::Quick);
        for app in ["fft", "ocean", "fmm"] {
            let two = f
                .bars
                .iter()
                .find(|b| b.app == app && b.nodes == 2)
                .unwrap();
            let four = f
                .bars
                .iter()
                .find(|b| b.app == app && b.nodes == 4)
                .unwrap();
            assert!(
                four.breakdown.l3 <= two.breakdown.l3 + 0.05,
                "{app}: L3 share rose from {:.3} (2 nodes) to {:.3} (4 nodes)",
                two.breakdown.l3,
                four.breakdown.l3
            );
        }
    }
}
