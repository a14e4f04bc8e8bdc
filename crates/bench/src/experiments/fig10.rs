//! Figure 10: TPC-C miss-ratio profile over time — the OS journaling
//! spikes.
//!
//! Case Study 2: profiling the whole run (hours on the real board)
//! exposes periodic miss-ratio spikes at *every* cache size, pointing at
//! a software cause; an OS tool then pinned it on filesystem journaling.
//! A short trace would have sampled a plateau and missed it entirely.
//!
//! Two configurations are profiled in parallel (Figure 4 mode), scaled
//! from the paper's 16 MB direct-mapped and 1 GB 8-way.

use memories::BoardConfig;
use memories_bus::ProcId;
use memories_console::analysis::detect_spikes;
use memories_console::report::Table;
use memories_console::{EmulationSession, ExecutionOptions, PipelinedLiveSource, ProfilePoint};
use memories_workloads::{JournalConfig, OltpConfig, OltpWorkload};

use super::{scaled_cache, scaled_host, Scale};

/// The experiment result.
#[derive(Clone, Debug)]
pub struct Fig10 {
    /// References per profile window.
    pub window_refs: u64,
    /// The windowed profile; `window_miss_ratio[0]` is the small
    /// direct-mapped config, `[1]` the large 8-way config.
    pub profile: Vec<ProfilePoint>,
    /// Spike windows detected per config (indices into `profile`).
    pub spikes: [Vec<usize>; 2],
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig10 {
    let refs = scale.pick(600_000, 3_000_000);
    let window_refs = scale.pick(15_000, 30_000);
    // ~6 journaling bursts over the run.
    let period_instructions = refs * 4 / 6;

    // A hotter, smaller database than the Figure 8 runs: the plateaus
    // must sit well below 1.0 even on the small direct-mapped cache so
    // the journaling windows stand out (as they do in the paper's
    // figure, where both curves plateau midway).
    let workload_config = OltpConfig {
        db_bytes: 96 << 20,
        theta: 0.9,
        private_bytes_per_cpu: 128 << 10,
        journal: Some(JournalConfig {
            period_instructions,
            burst_refs: window_refs * 9 / 10,
            region_bytes: 64 << 20, // bigger than both caches
        }),
        ..OltpConfig::scaled_default()
    };

    // Paper: 16 MB direct-mapped vs. 1 GB 8-way; scaled to 1 MB DM vs.
    // 16 MB 8-way.
    let board = BoardConfig::parallel_configs(
        vec![
            scaled_cache(1 << 20, 1, 128),
            scaled_cache(16 << 20, 8, 128),
        ],
        (0..8).map(ProcId::new).collect(),
    )
    .unwrap();

    // Profiling observes through snapshot barriers, so the two
    // configurations can snoop on parallel shards (bit-identical to a
    // serial profiled run — tests/parallel_differential.rs).
    let host = scaled_host(256 << 10, 4);
    let session = EmulationSession::builder()
        .host(host.clone())
        .board(board)
        .parallelism(2)
        .build()
        .unwrap();
    let mut workload = OltpWorkload::new(workload_config);
    let result = session
        .execute(
            PipelinedLiveSource::new(host, &mut workload, refs).profile_every(window_refs),
            ExecutionOptions::new(),
        )
        .unwrap();

    // Spike detection: clearly above the config's median plateau. An
    // absolute margin is used because the small direct-mapped cache's
    // plateau sits near 0.88 — relative thresholds have no headroom
    // below the 1.0 ceiling (the paper's top curve shows the same
    // compression). The first fifth of the run is cold-start transient
    // and excluded.
    let mut spikes: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (cfg, slot) in spikes.iter_mut().enumerate() {
        let ratios: Vec<f64> = result
            .profile
            .iter()
            .map(|p| p.window_miss_ratio[cfg])
            .collect();
        *slot = detect_spikes(&ratios, 0.2, 0.05);
    }

    Fig10 {
        window_refs,
        profile: result.profile,
        spikes,
    }
}

impl Fig10 {
    /// Renders the profile as a table of windows.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "window end (refs)",
            "1MB DM miss ratio",
            "16MB 8-way miss ratio",
            "spike",
        ])
        .with_title("Figure 10. TPC-C miss ratio profile (journaling spikes)");
        for (i, p) in self.profile.iter().enumerate() {
            let spike = if self.spikes[0].contains(&i) || self.spikes[1].contains(&i) {
                "*"
            } else {
                ""
            };
            t.row([
                p.end_ref.to_string(),
                format!("{:.4}", p.window_miss_ratio[0]),
                format!("{:.4}", p.window_miss_ratio[1]),
                spike.to_string(),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "spikes detected: {} (small config), {} (large config)\n",
            self.spikes[0].len(),
            self.spikes[1].len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_spikes_appear_at_both_cache_sizes() {
        let f = run(Scale::Quick);
        assert!(
            f.spikes[0].len() >= 2,
            "small config saw {} spikes",
            f.spikes[0].len()
        );
        assert!(
            f.spikes[1].len() >= 2,
            "large config saw {} spikes",
            f.spikes[1].len()
        );
    }

    #[test]
    fn spikes_recur_periodically() {
        use memories_console::analysis::{estimate_period, spike_onsets};
        let f = run(Scale::Quick);
        // Consecutive spike onsets in the large config should be spaced
        // roughly evenly (one per journaling period); coalesced adjacent
        // windows count as one burst.
        let onsets = spike_onsets(&f.spikes[1]);
        assert!(
            onsets.len() >= 2,
            "need at least two distinct bursts, got {onsets:?}"
        );
        if let Some((period, spread)) = estimate_period(&onsets) {
            assert!(period > 1.0, "degenerate period {period}");
            assert!(spread < 0.6, "irregular spike spacing: spread {spread:.2}");
        }
    }

    #[test]
    fn plateaus_are_lower_on_the_large_cache() {
        let f = run(Scale::Quick);
        let non_spike: Vec<&ProfilePoint> = f
            .profile
            .iter()
            .enumerate()
            .filter(|(i, _)| !f.spikes[0].contains(i) && !f.spikes[1].contains(i))
            .map(|(_, p)| p)
            .collect();
        assert!(!non_spike.is_empty());
        let avg = |cfg: usize| {
            non_spike
                .iter()
                .map(|p| p.window_miss_ratio[cfg])
                .sum::<f64>()
                / non_spike.len() as f64
        };
        assert!(
            avg(1) < avg(0),
            "large cache plateau {:.4} not below small cache {:.4}",
            avg(1),
            avg(0)
        );
    }
}
