//! Monitoring: watch the counters move while a run is in flight.
//!
//! The real console could read the board's statistics mid-run — the
//! FPGAs never stop snooping while the PC polls. This example does the
//! software equivalent: a monitored session samples the full counter
//! snapshot every 32768 admitted bus transactions, then prints the live
//! miss-rate series, the engine's own telemetry, and the machine-
//! readable JSONL export.
//!
//! Run with: `cargo run --release --example monitoring`

use memories::{BoardConfig, CacheParams, SdramModel};
use memories_bus::ProcId;
use memories_console::EmulationSession;
use memories_obs::export;
use memories_workloads::{OltpConfig, OltpWorkload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8 MB emulated L3 behind an S7A-like host, as in the quickstart —
    // but built with a sampling period, so `run_monitored_pipelined` records a
    // time series alongside the final result.
    let params = CacheParams::builder()
        .capacity(8 << 20)
        .ways(8)
        .line_size(128)
        .build()?;
    let host = memories_host::HostConfig {
        inner_cache: None,
        outer_cache: memories_bus::Geometry::new(256 << 10, 4, 128)?,
        ..memories_host::HostConfig::s7a()
    };
    let session = EmulationSession::builder()
        .host(host)
        .board(BoardConfig::single_node(params, (0..8).map(ProcId::new))?)
        .sample_every(32_768)
        .build()?;

    let mut workload = OltpWorkload::new(OltpConfig {
        journal: None,
        ..OltpConfig::scaled_default()
    });
    let run = session.run_monitored_pipelined(&mut workload, 500_000)?;

    // The live series: cumulative miss rate converging with trace
    // length, windowed miss rate showing the cold-start regime end.
    println!("sample   admitted   cum miss   window miss   window util");
    for p in run.series.points() {
        println!(
            "{:>6} {:>10} {:>10.4} {:>13.4} {:>13.2}",
            p.index,
            p.cumulative.admitted,
            p.cumulative.miss_rate(),
            p.window.miss_rate(),
            p.window.utilization(),
        );
    }

    // The engine watching itself: throughput, backpressure, and the
    // emulated-vs-wall pace against the Table 3 SDRAM model.
    println!();
    println!("{}", run.telemetry);
    println!(
        "realtime ratio vs Table 3 SDRAM: {:.2}x",
        run.telemetry.realtime_ratio(&SdramModel::table3_default())
    );

    // Final counters are untouched by sampling — same numbers a plain
    // `run` would report.
    let stats = &run.result.node_stats[0];
    println!();
    println!(
        "final: {} demand refs, miss ratio {:.4}, {} retries",
        stats.demand_references(),
        stats.miss_ratio(),
        run.result.retries_posted
    );

    // Machine-readable export for plotting (first two lines shown).
    println!();
    println!("JSONL head:");
    for line in export::jsonl_string(&run.series).lines().take(2) {
        println!("{line}");
    }
    Ok(())
}
