//! NUMA directory emulation (§2.3): sparse-directory coherence over four
//! NUMA nodes, with remote caches — the board's alternate firmware for
//! studying directory sizing.
//!
//! Sweeps the sparse directory's coverage and shows the eviction-
//! invalidation traffic a too-small directory generates.
//!
//! Run with: `cargo run --release --example numa_directory`

use memories::numa::{DirectoryParams, NumaConfig, NumaEmulator};
use memories::CacheParams;
use memories_bus::ProcId;
use memories_console::report::Table;
use memories_console::{apply_event, Shared};
use memories_host::{HostConfig, HostMachine};
use memories_workloads::{OltpConfig, OltpWorkload, Workload};

fn run_with_directory(dir_sets: usize, refs: u64) -> NumaEmulator {
    let l3 = CacheParams::builder()
        .capacity(4 << 20)
        .ways(4)
        .build()
        .expect("valid l3");
    let remote_cache = CacheParams::builder()
        .capacity(2 << 20)
        .ways(4)
        .build()
        .expect("valid remote cache");
    let mut config = NumaConfig::four_node(
        (0..8).map(ProcId::new),
        l3,
        DirectoryParams {
            sets: dir_sets,
            ways: 8,
            line_size: 128,
        },
    )
    .expect("valid numa config");
    config.remote_cache = Some(remote_cache);

    let host = HostConfig {
        inner_cache: None,
        outer_cache: memories_bus::Geometry::new(128 << 10, 4, 128).expect("valid l2"),
        ..HostConfig::s7a()
    };
    let mut machine = HostMachine::new(host).expect("valid host");
    let shared = Shared::new(NumaEmulator::new(config).expect("valid emulator"));
    machine.attach_listener(Box::new(shared.handle()));

    let mut workload = OltpWorkload::new(OltpConfig::scaled_default());
    let mut done = 0;
    while done < refs {
        if apply_event(&mut machine, workload.next_event()) {
            done += 1;
        }
    }
    drop(machine.detach_listeners());
    let Ok(emulator) = shared.try_unwrap() else {
        panic!("last handle");
    };
    emulator
}

fn main() {
    const REFS: u64 = 300_000;
    let mut t = Table::new([
        "directory entries",
        "remote fraction",
        "dir hit ratio",
        "evictions",
        "eviction invalidations",
        "remote cache hit ratio",
    ])
    .with_title("Sparse directory sizing (4 NUMA nodes, 4KB home striping)");

    for dir_sets in [256usize, 1024, 4096, 16384] {
        let e = run_with_directory(dir_sets, REFS);
        let c = e.counters();
        let dir_total = c.directory_hits + c.directory_misses;
        let rc_total = c.remote_cache_hits + c.remote_cache_misses;
        t.row([
            (dir_sets * 8).to_string(),
            format!("{:.3}", c.remote_fraction()),
            format!("{:.3}", c.directory_hits as f64 / dir_total.max(1) as f64),
            c.directory_evictions.to_string(),
            c.eviction_invalidations.to_string(),
            format!("{:.3}", c.remote_cache_hits as f64 / rc_total.max(1) as f64),
        ]);
    }
    println!("{}", t.render());
    println!("a directory that covers the working set stops evicting — and stops");
    println!("invalidating useful L3 lines (the WEB93 sparse-directory trade-off).");
}
