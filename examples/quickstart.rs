//! Quickstart: emulate a 16 MB L3 behind a live OLTP workload.
//!
//! The MemorIES flow in five steps: configure an emulated cache, build a
//! host machine, attach the board to its bus, run a workload in
//! "real time", and extract statistics — no slowdown of the host
//! (the board only listens).
//!
//! Run with: `cargo run --release --example quickstart`

use memories::{BoardConfig, CacheParams};
use memories_bus::ProcId;
use memories_console::EmulationSession;
use memories_host::HostConfig;
use memories_workloads::{OltpConfig, OltpWorkload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The emulated cache: 16 MB, 8-way, 128 B lines, MESI, shared by
    //    all eight processors (Figure 3's single-node L3 emulation).
    let params = CacheParams::builder()
        .capacity(16 << 20)
        .ways(8)
        .line_size(128)
        .build()?;

    // 2. The host: an S7A-like 8-way SMP (scaled L2s so the bus sees
    //    interesting traffic at this workload size).
    let host = HostConfig {
        inner_cache: None,
        outer_cache: memories_bus::Geometry::new(256 << 10, 4, 128)?,
        ..HostConfig::s7a()
    };

    // 3+4. One session programs the board, attaches it to the host's
    //    bus, and runs a TPC-C-like workload.
    let mut workload = OltpWorkload::new(OltpConfig::scaled_default());
    let session = EmulationSession::builder()
        .host(host)
        .board(BoardConfig::single_node(params, (0..8).map(ProcId::new))?)
        .build()?;
    let result = session.run(&mut workload, 500_000)?;

    // 5. Read the counters, like the console software would.
    let stats = &result.node_stats[0];
    println!("host: {}", result.machine);
    println!();
    println!(
        "emulated 16MB L3 ({} demand refs):",
        stats.demand_references()
    );
    println!("  miss ratio:    {:.4}", stats.miss_ratio());
    println!("  cold fraction: {:.2}%", stats.cold_fraction() * 100.0);
    println!(
        "  bus utilization: {:.2}%",
        result.bus.utilization() * 100.0
    );
    println!("  retries posted by the board: {}", result.retries_posted);
    println!();
    println!("raw counters:");
    print!("{stats}");
    Ok(())
}
