//! Protocol playground: load different coherence protocols into
//! different node controllers and compare them on the same traffic —
//! "different state table files could be loaded to different node
//! controller FPGAs to experiment with different coherence protocols
//! during the same measurement" (§3.2).
//!
//! Two comparisons in two runs:
//!  1. MESI vs. MOESI, each emulating a two-node target machine, on
//!     write-shared FMM traffic — MOESI's Owned state eliminates the
//!     memory write-backs that MESI pays on every remote read of dirty
//!     data.
//!  2. Write-through vs. a custom no-write-allocate protocol (defined
//!     inline in the map-file format) on OLTP traffic.
//!
//! Run with: `cargo run --release --example protocol_playground`

use memories::{BoardConfig, CacheParams, NodeCounter, NodeCounters, NodeSlot};
use memories_bus::ProcId;
use memories_console::report::Table;
use memories_console::EmulationSession;
use memories_host::HostConfig;
use memories_protocol::{standard, ProtocolTable};
use memories_workloads::splash::Fmm;
use memories_workloads::{OltpConfig, OltpWorkload};

/// A custom protocol: reads allocate, writes bypass the cache entirely
/// (no write-allocate). Useful for streaming-store-heavy workloads.
const NO_WRITE_ALLOCATE: &str = "\
protocol no-write-allocate
states I V M

on local-read    I *  -> V allocate
on local-read    V *  -> V
on local-read    M *  -> M
# Write misses do NOT allocate; write hits mark dirty.
on local-write   I *  -> I
on local-write   V *  -> M
on local-write   M *  -> M
on local-upgrade I *  -> I
on local-upgrade V *  -> M
on local-upgrade M *  -> M
on local-castout I *  -> I
on local-castout V *  -> M
on local-castout M *  -> M
on remote-read   I *  -> I
on remote-read   V *  -> V intervene-shared
on remote-read   M *  -> V intervene-modified writeback
on remote-write  I *  -> I
on remote-write  V *  -> I
on remote-write  M *  -> I intervene-modified
on io-read       * *  -> same
on io-write      * *  -> I
on flush         M *  -> I writeback
on flush         V *  -> I
on flush         I *  -> I
";

fn host() -> Result<HostConfig, memories_bus::GeometryError> {
    Ok(HostConfig {
        inner_cache: None,
        outer_cache: memories_bus::Geometry::new(128 << 10, 4, 128)?,
        ..HostConfig::s7a()
    })
}

/// Sums a statistic over a domain's two nodes.
fn domain_sum(stats: &[NodeCounters], nodes: [usize; 2], f: impl Fn(&NodeCounters) -> u64) -> u64 {
    nodes.iter().map(|&n| f(&stats[n])).sum()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = CacheParams::builder().capacity(8 << 20).ways(4).build()?;

    // --- Part 1: MESI vs MOESI as two-node target machines -------------
    let half_a: Vec<ProcId> = (0..4).map(ProcId::new).collect();
    let half_b: Vec<ProcId> = (4..8).map(ProcId::new).collect();
    let slots = vec![
        NodeSlot::new(params, half_a.iter().copied()).in_domain(0),
        NodeSlot::new(params, half_b.iter().copied()).in_domain(0),
        NodeSlot::new(params, half_a.iter().copied())
            .with_protocol(standard::moesi())
            .in_domain(1),
        NodeSlot::new(params, half_b.iter().copied())
            .with_protocol(standard::moesi())
            .in_domain(1),
    ];
    let board = BoardConfig::from_slots(slots)?;
    let mut fmm = Fmm::scaled(8, 1 << 16, 7);
    // The MESI pair and the MOESI pair are separate coherence domains,
    // so the comparison can snoop on two shards.
    let result = EmulationSession::builder()
        .host(host()?)
        .board(board)
        .parallelism(2)
        .build()?
        .run(&mut fmm, 500_000)?;
    let s = &result.node_stats;

    let mut t = Table::new([
        "protocol",
        "miss ratio",
        "interventions",
        "protocol writebacks",
    ])
    .with_title("Part 1: MESI vs MOESI, two emulated nodes each, FMM traffic");
    for (label, nodes) in [("mesi", [0usize, 1]), ("moesi", [2, 3])] {
        let refs = domain_sum(s, nodes, |n| n.demand_references());
        let misses = domain_sum(s, nodes, |n| n.demand_misses());
        t.row([
            label.to_string(),
            format!("{:.4}", misses as f64 / refs.max(1) as f64),
            domain_sum(s, nodes, |n| {
                n.interventions_shared() + n.interventions_modified()
            })
            .to_string(),
            domain_sum(s, nodes, |n| n.get(NodeCounter::ProtocolWritebacks)).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "MOESI's Owned state supplies remote readers without updating memory,\n\
         so its protocol write-backs drop while interventions stay put.\n"
    );

    // --- Part 2: write-through vs a custom no-write-allocate table -----
    let custom = ProtocolTable::parse_map_file(NO_WRITE_ALLOCATE)?;
    let slots = vec![
        NodeSlot::new(params, (0..8).map(ProcId::new))
            .with_protocol(standard::write_through())
            .in_domain(0),
        NodeSlot::new(params, (0..8).map(ProcId::new))
            .with_protocol(custom)
            .in_domain(1),
    ];
    let board = BoardConfig::from_slots(slots)?;
    let mut oltp = OltpWorkload::new(OltpConfig::scaled_default());
    let result = EmulationSession::builder()
        .host(host()?)
        .board(board)
        .parallelism(2)
        .build()?
        .run(&mut oltp, 400_000)?;

    let mut t = Table::new(["protocol", "miss ratio", "protocol writebacks"])
        .with_title("Part 2: write-through vs custom no-write-allocate, OLTP traffic");
    for (i, label) in ["write-through", "no-write-allocate"].iter().enumerate() {
        let stats = &result.node_stats[i];
        t.row([
            (*label).to_string(),
            format!("{:.4}", stats.miss_ratio()),
            stats.get(NodeCounter::ProtocolWritebacks).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "the custom table came from an inline map file: `{}`",
        result.board.node(memories_bus::NodeId::new(1)).protocol()
    );
    Ok(())
}
