//! Counter time series: periodic snapshots with windowed deltas.

use memories::BoardSnapshot;
use memories_bus::DATA_TRANSACTION_CYCLES;

/// Aggregate statistics over a stretch of the transaction stream —
/// either cumulative (start of run to a sample) or windowed (between two
/// consecutive samples, via [`SampleStats::delta`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Raw bus transactions observed (before filtering).
    pub seen: u64,
    /// Transactions the address filter admitted to the node controllers.
    pub admitted: u64,
    /// Bus retries posted (or accounted) for buffer overflows.
    pub retries: u64,
    /// Demand references across all nodes (hits + misses).
    pub demand_references: u64,
    /// Demand misses across all nodes.
    pub demand_misses: u64,
    /// Cache-to-cache interventions supplied (shared + modified).
    pub interventions: u64,
    /// Bus-cycle span covered by this stretch.
    pub cycles: u64,
}

impl SampleStats {
    /// Cumulative statistics of everything a snapshot has seen.
    pub fn from_snapshot(snap: &BoardSnapshot) -> Self {
        let mut demand_references = 0;
        let mut demand_misses = 0;
        let mut interventions = 0;
        for stats in &snap.nodes {
            demand_references += stats.demand_references();
            demand_misses += stats.demand_misses();
            interventions += stats.interventions_shared() + stats.interventions_modified();
        }
        SampleStats {
            seen: snap.filter.seen,
            admitted: snap.admitted(),
            retries: snap.retries_posted,
            demand_references,
            demand_misses,
            interventions,
            cycles: snap.global.observed_span_cycles(),
        }
    }

    /// What happened between `prev` and `self` (field-wise saturating
    /// difference — counters only move forward, but saturation keeps a
    /// malformed pair from panicking).
    pub fn delta(&self, prev: &SampleStats) -> SampleStats {
        SampleStats {
            seen: self.seen.saturating_sub(prev.seen),
            admitted: self.admitted.saturating_sub(prev.admitted),
            retries: self.retries.saturating_sub(prev.retries),
            demand_references: self
                .demand_references
                .saturating_sub(prev.demand_references),
            demand_misses: self.demand_misses.saturating_sub(prev.demand_misses),
            interventions: self.interventions.saturating_sub(prev.interventions),
            cycles: self.cycles.saturating_sub(prev.cycles),
        }
    }

    /// Demand miss rate in `[0, 1]` (0 when no references).
    pub fn miss_rate(&self) -> f64 {
        ratio(self.demand_misses, self.demand_references)
    }

    /// Interventions per demand reference, in `[0, 1]` per-reference
    /// terms (0 when no references).
    pub fn intervention_rate(&self) -> f64 {
        ratio(self.interventions, self.demand_references)
    }

    /// Fraction of bus cycles carrying transactions, assuming every
    /// transaction holds the bus for a full 12-cycle data tenure
    /// ([`DATA_TRANSACTION_CYCLES`]): one transaction per 60 cycles is 20%
    /// utilization. 0 when the span is empty. Can exceed 1.0 if
    /// transactions arrive faster than that tenure permits (back-to-back
    /// same-cycle bursts).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.seen as f64 * DATA_TRANSACTION_CYCLES as f64 / self.cycles as f64
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One sample of a monitored run: the full counter snapshot plus the
/// derived cumulative and windowed statistics.
#[derive(Clone, Debug)]
pub struct SamplePoint {
    /// Zero-based sample number.
    pub index: usize,
    /// Bus cycle of the most recent observed transaction.
    pub cycle: u64,
    /// Statistics from the start of the run to this sample.
    pub cumulative: SampleStats,
    /// Statistics since the previous sample (equal to `cumulative` for
    /// the first sample).
    pub window: SampleStats,
    /// The underlying counter snapshot (full per-node banks).
    pub snapshot: BoardSnapshot,
}

/// An append-only sequence of [`SamplePoint`]s — the product of a
/// monitored run.
///
/// Feed it snapshots in stream order via [`TimeSeries::record`]; it
/// derives the windowed deltas. Export with [`crate::export`].
///
/// # Examples
///
/// ```
/// use memories::BoardSnapshot;
/// use memories_obs::TimeSeries;
///
/// let mut series = TimeSeries::new();
/// series.record(BoardSnapshot::default());
/// assert_eq!(series.len(), 1);
/// assert_eq!(series.points()[0].cumulative.miss_rate(), 0.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<SamplePoint>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a snapshot, deriving cumulative and windowed statistics.
    /// Returns the new sample.
    pub fn record(&mut self, snapshot: BoardSnapshot) -> &SamplePoint {
        let cumulative = SampleStats::from_snapshot(&snapshot);
        let window = match self.points.last() {
            Some(prev) => cumulative.delta(&prev.cumulative),
            None => cumulative,
        };
        self.points.push(SamplePoint {
            index: self.points.len(),
            cycle: snapshot.global.last_cycle(),
            cumulative,
            window,
            snapshot,
        });
        self.points.last().expect("just pushed")
    }

    /// All samples, in record order.
    pub fn points(&self) -> &[SamplePoint] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<&SamplePoint> {
        self.points.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories::{FilterStats, NodeCounter, NodeCounters};

    fn snapshot(seen: u64, admitted: u64, hits: u64, misses: u64) -> BoardSnapshot {
        let mut node = NodeCounters::new();
        node.add(NodeCounter::ReadHits, hits);
        node.add(NodeCounter::ReadMisses, misses);
        BoardSnapshot {
            filter: FilterStats {
                seen,
                forwarded: admitted,
                ..FilterStats::default()
            },
            nodes: vec![node],
            ..BoardSnapshot::default()
        }
    }

    #[test]
    fn cumulative_stats_sum_over_nodes() {
        let mut snap = snapshot(100, 80, 30, 10);
        let mut second = NodeCounters::new();
        second.add(NodeCounter::WriteMisses, 5);
        second.add(NodeCounter::InterventionsShared, 2);
        snap.nodes.push(second);
        let stats = SampleStats::from_snapshot(&snap);
        assert_eq!(stats.demand_references, 45);
        assert_eq!(stats.demand_misses, 15);
        assert_eq!(stats.interventions, 2);
        assert_eq!(stats.admitted, 80);
        assert!((stats.miss_rate() - 15.0 / 45.0).abs() < 1e-12);
    }

    #[test]
    fn windows_are_deltas_between_consecutive_samples() {
        let mut series = TimeSeries::new();
        series.record(snapshot(100, 80, 30, 10));
        series.record(snapshot(300, 240, 150, 20));
        let p = &series.points()[1];
        // Cumulative carries totals; window carries just the stretch.
        assert_eq!(p.cumulative.demand_references, 170);
        assert_eq!(p.window.seen, 200);
        assert_eq!(p.window.admitted, 160);
        assert_eq!(p.window.demand_misses, 10);
        assert_eq!(p.window.demand_references, 130);
        assert!((p.window.miss_rate() - 10.0 / 130.0).abs() < 1e-12);
        // First sample's window equals its cumulative view.
        assert_eq!(series.points()[0].window, series.points()[0].cumulative);
    }

    #[test]
    fn rates_are_zero_on_empty_denominators() {
        let empty = SampleStats::default();
        assert_eq!(empty.miss_rate(), 0.0);
        assert_eq!(empty.intervention_rate(), 0.0);
        assert_eq!(empty.utilization(), 0.0);
    }

    #[test]
    fn utilization_follows_the_20_percent_convention() {
        // 100 transactions spread over 6000 cycles at 12 cycles each.
        let stats = SampleStats {
            seen: 100,
            cycles: 6000,
            ..SampleStats::default()
        };
        assert!((stats.utilization() - 0.2).abs() < 1e-12);
    }
}
