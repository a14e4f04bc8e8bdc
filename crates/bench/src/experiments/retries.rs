//! §3.3 claim: the board never posts a retry below its 42% SDRAM
//! throughput ceiling.
//!
//! "The maximum bus utilization with 8 CPUs always varied between 2% to
//! 20% across 2 platforms, 2 OSes, and 2 benchmarks, indicating that 42%
//! was a safe target for the MemorIES board" — and in months of lab use
//! it never posted a retry. This experiment sweeps offered bus
//! utilization with a synthetic back-to-back stream of address-only
//! transactions (the densest the bus can offer) and records when the
//! board's 512-entry buffers finally overflow.

use memories::{BoardConfig, MemoriesBoard};
use memories_bus::{
    Address, BusListener, BusOp, ListenerReaction, ProcId, SnoopResponse, Transaction,
};
use memories_console::report::Table;

use super::{scaled_cache, Scale};

/// One sweep point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// Offered utilization (fraction of peak address-only bandwidth).
    pub utilization: f64,
    /// Retries the board posted.
    pub retries: u64,
    /// Events dropped by node buffers.
    pub dropped: u64,
}

/// The experiment result.
#[derive(Clone, Debug)]
pub struct Retries {
    /// Sweep points, utilization-ascending.
    pub points: Vec<Point>,
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Retries {
    let txns = scale.pick(50_000, 400_000);
    // Peak = one address tenure (4 cycles) back to back.
    let utils: [f64; 10] = [0.05, 0.10, 0.20, 0.30, 0.40, 0.42, 0.46, 0.50, 0.70, 1.00];
    let points = utils
        .iter()
        .map(|&u| {
            let gap = (4.0 / u).round() as u64;
            let board_cfg =
                BoardConfig::single_node(scaled_cache(16 << 20, 8, 128), (0..8).map(ProcId::new))
                    .unwrap();
            let mut board = MemoriesBoard::new(board_cfg).unwrap();
            let mut retries = 0u64;
            for i in 0..txns {
                let txn = Transaction::new(
                    i,
                    i * gap,
                    ProcId::new((i % 8) as u8),
                    BusOp::Read,
                    Address::new((i % 65_536) * 128),
                    SnoopResponse::Null,
                );
                if board.on_transaction(&txn) == ListenerReaction::Retry {
                    retries += 1;
                }
            }
            let dropped = board
                .node(memories_bus::NodeId::new(0))
                .counters()
                .events_dropped();
            Point {
                utilization: u,
                retries,
                dropped,
            }
        })
        .collect();
    Retries { points }
}

impl Retries {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = Table::new(["offered utilization", "retries posted", "events dropped"])
            .with_title("Retry behaviour vs. offered bus utilization (42% SDRAM ceiling)");
        for p in &self.points {
            t.row([
                format!("{:.0}%", p.utilization * 100.0),
                p.retries.to_string(),
                p.dropped.to_string(),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_retries_at_or_below_the_papers_lab_range() {
        let r = run(Scale::Quick);
        for p in &r.points {
            if p.utilization <= 0.42 {
                assert_eq!(
                    p.retries,
                    0,
                    "board retried at {:.0}% utilization",
                    p.utilization * 100.0
                );
            }
        }
    }

    #[test]
    fn sustained_oversubscription_eventually_retries() {
        let r = run(Scale::Quick);
        let saturated: Vec<&Point> = r.points.iter().filter(|p| p.utilization >= 0.5).collect();
        assert!(
            saturated.iter().any(|p| p.retries > 0),
            "no retries even at >=50%"
        );
        // Retries grow with offered load.
        let at_50 = r
            .points
            .iter()
            .find(|p| p.utilization == 0.5)
            .unwrap()
            .retries;
        let at_100 = r
            .points
            .iter()
            .find(|p| p.utilization == 1.0)
            .unwrap()
            .retries;
        assert!(at_100 > at_50);
    }
}
