//! Result types for live emulation runs.

use memories::{MemoriesBoard, NodeCounters};
use memories_bus::BusStats;
use memories_host::MachineStats;

/// One point of a windowed miss-ratio profile (the Figure 10 series).
#[derive(Clone, Debug, PartialEq)]
pub struct ProfilePoint {
    /// Number of workload references completed at this point.
    pub end_ref: u64,
    /// Bus cycle at this point.
    pub bus_cycle: u64,
    /// Per-node miss ratio *within this window* (not cumulative).
    pub window_miss_ratio: Vec<f64>,
}

/// The outcome of a live experiment run.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Per-node counter banks, indexed by node id; their derived
    /// statistics are methods of [`NodeCounters`].
    pub node_stats: Vec<NodeCounters>,
    /// Host machine counters.
    pub machine: MachineStats,
    /// Bus statistics (utilization, interventions, retries).
    pub bus: BusStats,
    /// Retries the board posted (zero in healthy runs — §3.3).
    pub retries_posted: u64,
    /// The board itself, for directory inspection and counter dumps.
    pub board: MemoriesBoard,
}
