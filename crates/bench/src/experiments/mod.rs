//! Experiment implementations, one module per paper artifact.

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig8;
pub mod fig9;
pub mod monitoring;
pub mod retries;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

use memories::{BoardConfig, CacheParams, ReplacementPolicy};
use memories_bus::{Geometry, ProcId};
use memories_console::EmulationSession;
use memories_host::HostConfig;
use memories_workloads::Workload;

/// How big an experiment run should be.
///
/// `Full` produces the numbers recorded in EXPERIMENTS.md (tens of
/// millions of references, tens of seconds in release builds); `Quick`
/// shrinks reference counts ~10x for integration-test smoke runs while
/// preserving every qualitative shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Fast smoke run (used by tests).
    Quick,
    /// Full recorded run.
    Full,
}

impl Scale {
    /// Picks `quick` or `full` by scale.
    pub fn pick(self, quick: u64, full: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// An emulated-cache parameter set at scaled-down capacity.
///
/// # Panics
///
/// Panics if the triple is not a valid geometry (experiment code uses
/// power-of-two constants).
pub(crate) fn scaled_cache(capacity: u64, ways: u32, line: u64) -> CacheParams {
    CacheParams::builder()
        .capacity(capacity)
        .ways(ways)
        .line_size(line)
        .replacement(ReplacementPolicy::Lru)
        .allow_scaled_down()
        .build()
        .expect("experiment cache parameters are valid by construction")
}

/// The scaled host used by the case-study experiments: 8 CPUs with
/// private L2s shrunk by the same factor as the workload footprints
/// (8 MB paper L2 -> `l2_capacity`), no L1 (the L1's filtering effect is
/// second-order for bus-level statistics and halves run time).
pub(crate) fn scaled_host(l2_capacity: u64, l2_ways: u32) -> HostConfig {
    HostConfig {
        num_cpus: 8,
        inner_cache: None,
        outer_cache: Geometry::new(l2_capacity, l2_ways, 128)
            .expect("experiment host geometry is valid by construction"),
        ..HostConfig::s7a()
    }
}

/// Sweeps emulated caches of `sizes` bytes (`ways`-way, `line`-byte
/// lines) over the same `refs`-reference workload stream on `host`, four
/// at a time (the board's Figure 4 parallel-configuration mode), and
/// returns the miss ratio per size, size order kept.
pub(crate) fn sweep_sizes(
    host: &HostConfig,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    sizes: &[u64],
    (ways, line): (u32, u64),
    refs: u64,
) -> Vec<(u64, f64)> {
    let mut points = Vec::with_capacity(sizes.len());
    for batch in sizes.chunks(4) {
        let configs = batch.iter().map(|&c| scaled_cache(c, ways, line)).collect();
        let board =
            BoardConfig::parallel_configs(configs, (0..8).map(ProcId::new).collect()).unwrap();
        // Each configuration is its own coherence domain, so the sweep
        // shards across all of them.
        let session = EmulationSession::builder()
            .host(host.clone())
            .board(board)
            .parallelism(batch.len())
            .build()
            .unwrap();
        let mut workload = make_workload();
        let result = session.run(&mut *workload, refs).unwrap();
        for (i, &cap) in batch.iter().enumerate() {
            points.push((cap, result.node_stats[i].miss_ratio()));
        }
    }
    points
}

/// Drives `refs` workload references through a host machine with no board
/// attached (Tables 5–6 measure the host's own L2 counters, exactly as
/// the paper read the S7A's on-chip L2 counters).
pub(crate) fn run_host_only(
    host: HostConfig,
    workload: &mut dyn memories_workloads::Workload,
    refs: u64,
) -> memories_host::MachineStats {
    let mut machine =
        memories_host::HostMachine::new(host).expect("experiment host configs are valid");
    let mut done = 0u64;
    while done < refs {
        done += u64::from(memories_console::apply_event(
            &mut machine,
            workload.next_event(),
        ));
    }
    machine.stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 10), 1);
        assert_eq!(Scale::Full.pick(1, 10), 10);
    }

    #[test]
    fn helpers_build() {
        let p = scaled_cache(1 << 20, 4, 128);
        assert_eq!(p.capacity(), 1 << 20);
        let h = scaled_host(256 << 10, 4);
        h.validate().unwrap();
        assert_eq!(h.num_cpus, 8);
    }
}
