//! Engine self-observation: how the emulator (not the emulated board)
//! is performing.

use std::fmt;
use std::time::Duration;

use memories::SdramModel;

/// One worker shard's contribution to a run.
#[derive(Clone, Debug, Default)]
pub struct ShardTelemetry {
    /// Shard index (dealing order, not node id).
    pub shard: usize,
    /// Node controllers the shard owns.
    pub nodes: usize,
    /// Admitted transactions the shard snooped.
    pub snooped: u64,
    /// Time the shard's worker spent inside `snoop` (excludes waiting on
    /// the batch queue).
    pub busy: Duration,
}

impl ShardTelemetry {
    /// Transactions snooped per second of busy time (0 if never busy).
    pub fn throughput(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs > 0.0 {
            self.snooped as f64 / secs
        } else {
            0.0
        }
    }
}

/// Telemetry of one engine run, from construction to `finish`.
///
/// The interesting derived quantity is [`EngineTelemetry::realtime_ratio`]:
/// the physical board kept up with the bus *by construction* (it ran in
/// real time); the software model instead reports emulated time over wall
/// time, so a ratio above 1.0 means "faster than the board's real-time
/// pace at the modeled bus speed" and below 1.0 means the emulator is the
/// bottleneck.
#[derive(Clone, Debug, Default)]
pub struct EngineTelemetry {
    /// Raw bus transactions the producer observed.
    pub seen: u64,
    /// Transactions the filter admitted (what workers actually snoop).
    pub admitted: u64,
    /// Batches broadcast to the workers: one per fed block that kept at
    /// least one admitted transaction.
    pub batches: u64,
    /// Times the stream's producer stage found its downstream queue full
    /// and had to block (backpressure events). When a trace or stream
    /// source feeds the engine in the calling thread this is the feed
    /// loop blocking on the worker batch queues; in a live run it is the
    /// host-simulation producer blocking on the block queue (the consumer
    /// side's worker-queue stalls are then reported separately as
    /// [`consumer_stalls`](Self::consumer_stalls)).
    pub producer_stalls: u64,
    /// A live run's producer blocks served by recycling a pooled block
    /// (no allocation); 0 for trace and stream sources.
    pub pool_hits: u64,
    /// A live run's producer blocks that needed a fresh allocation (the
    /// pool's free list was empty — bounded by the blocks simultaneously
    /// in flight); 0 for trace and stream sources.
    pub pool_allocs: u64,
    /// Blocks shipped by a live run's producer stage (0 for trace and
    /// stream sources).
    pub producer_blocks: u64,
    /// In a live run, backpressure events at the engine's own worker
    /// queues — the consumer side of the pipeline. 0 for trace and
    /// stream sources (those events are the
    /// [`producer_stalls`](Self::producer_stalls) themselves).
    pub consumer_stalls: u64,
    /// Snapshot barriers taken mid-run.
    pub snapshots: u64,
    /// Wall-clock time from engine construction to `finish`.
    pub wall: Duration,
    /// Per-shard breakdown (empty for a serial engine).
    pub shards: Vec<ShardTelemetry>,
}

impl EngineTelemetry {
    /// Admitted transactions per wall-clock second (0 before any time
    /// elapses).
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.admitted as f64 / secs
        } else {
            0.0
        }
    }

    /// Emulated seconds over wall seconds for this run: how the software
    /// engine compares with the real-time board at `model`'s bus speed
    /// and utilization. Greater than 1.0 = faster than the bus the board
    /// listened to.
    pub fn realtime_ratio(&self, model: &SdramModel) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            model.seconds_for(self.seen) / wall
        } else {
            0.0
        }
    }
}

impl fmt::Display for EngineTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "engine: {} seen, {} admitted, {} batches ({} pooled / {} fresh), {} stalls, {} snapshots, {:.3}s wall",
            self.seen,
            self.admitted,
            self.batches,
            self.pool_hits,
            self.pool_allocs,
            self.producer_stalls,
            self.snapshots,
            self.wall.as_secs_f64(),
        )?;
        if self.producer_blocks > 0 {
            writeln!(
                f,
                "  pipelined producer: {} blocks shipped, {} producer stalls, {} consumer stalls",
                self.producer_blocks, self.producer_stalls, self.consumer_stalls,
            )?;
        }
        for s in &self.shards {
            writeln!(
                f,
                "  shard {}: {} nodes, {} snooped, {:.3}s busy ({:.0} txn/s)",
                s.shard,
                s.nodes,
                s.snooped,
                s.busy.as_secs_f64(),
                s.throughput(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realtime_ratio_compares_against_table3_pace() {
        // 10 M references take the Table 3 board exactly 1 s; emulating
        // them in half a second is 2x real time.
        let t = EngineTelemetry {
            seen: 10_000_000,
            wall: Duration::from_millis(500),
            ..EngineTelemetry::default()
        };
        let ratio = t.realtime_ratio(&SdramModel::table3_default());
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_wall_time_yields_zero_rates() {
        let t = EngineTelemetry::default();
        assert_eq!(t.throughput(), 0.0);
        assert_eq!(t.realtime_ratio(&SdramModel::table3_default()), 0.0);
    }

    #[test]
    fn shard_throughput_counts_only_busy_time() {
        let s = ShardTelemetry {
            snooped: 5000,
            busy: Duration::from_millis(250),
            ..ShardTelemetry::default()
        };
        assert!((s.throughput() - 20_000.0).abs() < 1e-6);
    }
}
