//! End-to-end invariants over the whole stack: workload -> host machine
//! -> bus -> board.

use memories::{BoardConfig, CacheParams, NodeCounter};
use memories_bus::ProcId;
use memories_console::EmulationSession;
use memories_host::HostConfig;
use memories_workloads::micro::{Sequential, UniformRandom, ZipfWorkload};
use memories_workloads::{OltpConfig, OltpWorkload};

fn host() -> HostConfig {
    HostConfig {
        inner_cache: None,
        outer_cache: memories_bus::Geometry::new(128 << 10, 4, 128).unwrap(),
        ..HostConfig::s7a()
    }
}

fn cache(capacity: u64) -> CacheParams {
    CacheParams::builder()
        .capacity(capacity)
        .ways(4)
        .line_size(128)
        .allow_scaled_down()
        .build()
        .unwrap()
}

/// The board's demand traffic is exactly the host's L2 miss + upgrade
/// traffic: the board is an observer, nothing more.
#[test]
fn board_sees_exactly_the_l2_miss_traffic() {
    let board = BoardConfig::single_node(cache(4 << 20), (0..8).map(ProcId::new)).unwrap();
    let mut w = OltpWorkload::new(OltpConfig::scaled_default());
    let result = EmulationSession::builder()
        .host(host())
        .board(board)
        .build()
        .unwrap()
        .run(&mut w, 150_000)
        .unwrap();

    let machine = result.machine.total();
    let node = &result.node_stats[0];
    assert_eq!(
        node.demand_references(),
        machine.outer_misses() + machine.upgrades,
        "board demand events != host L2 misses + upgrades"
    );
    // Castouts seen by the board = dirty writebacks the host performed.
    assert_eq!(node.get(NodeCounter::CastoutsSeen), machine.writebacks);
    // Figure 12 classification covers every L2 *miss* (not upgrades).
    let fills = node.get(NodeCounter::DemandFilledMemory)
        + node.get(NodeCounter::DemandFilledL3)
        + node.get(NodeCounter::DemandFilledL2Shared)
        + node.get(NodeCounter::DemandFilledL2Modified);
    assert_eq!(fills, machine.outer_misses());
}

/// The board never perturbs the host at realistic utilization (§3.3).
#[test]
fn no_retries_under_realistic_load() {
    let board = BoardConfig::single_node(cache(8 << 20), (0..8).map(ProcId::new)).unwrap();
    let mut w = OltpWorkload::new(OltpConfig::scaled_default());
    let result = EmulationSession::builder()
        .host(host())
        .board(board)
        .build()
        .unwrap()
        .run(&mut w, 200_000)
        .unwrap();
    assert_eq!(result.retries_posted, 0);
    assert_eq!(result.node_stats[0].events_dropped(), 0);
    assert_eq!(result.bus.retries, 0);
}

/// Determinism: identical configurations and seeds give bit-identical
/// statistics.
#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let board = BoardConfig::single_node(cache(2 << 20), (0..8).map(ProcId::new)).unwrap();
        let mut w = OltpWorkload::new(OltpConfig::scaled_default());
        let result = EmulationSession::builder()
            .host(host())
            .board(board)
            .build()
            .unwrap()
            .run(&mut w, 60_000)
            .unwrap();
        (
            result.node_stats[0].clone(),
            result.machine.total().clone(),
            result.bus.transactions,
        )
    };
    assert_eq!(run(), run());
}

/// A bigger emulated cache never does worse on the same stream (LRU,
/// same line size and associativity, doubled sets).
#[test]
fn bigger_emulated_cache_is_never_worse() {
    let board = BoardConfig::parallel_configs(
        vec![
            cache(1 << 20),
            cache(2 << 20),
            cache(4 << 20),
            cache(8 << 20),
        ],
        (0..8).map(ProcId::new).collect(),
    )
    .unwrap();
    let mut w = ZipfWorkload::new(8, 1 << 18, 128, 0.85, 0.2, 99);
    let result = EmulationSession::builder()
        .host(host())
        .board(board)
        .build()
        .unwrap()
        .run(&mut w, 250_000)
        .unwrap();
    let ratios: Vec<f64> = result.node_stats.iter().map(|s| s.miss_ratio()).collect();
    for pair in ratios.windows(2) {
        assert!(
            pair[1] <= pair[0] + 0.005,
            "larger cache did worse: {ratios:?}"
        );
    }
}

/// A stream that fits the emulated cache converges to pure cold misses.
#[test]
fn resident_working_set_converges_to_cold_misses_only() {
    let board = BoardConfig::single_node(cache(8 << 20), (0..2).map(ProcId::new)).unwrap();
    let host = HostConfig {
        num_cpus: 2,
        inner_cache: None,
        outer_cache: memories_bus::Geometry::new(64 << 10, 2, 128).unwrap(),
        ..HostConfig::s7a()
    };
    // 2 CPUs x 1 MB regions, looping: fits the 8 MB emulated cache.
    let mut w = Sequential::new(2, 1 << 20, 128);
    let result = EmulationSession::builder()
        .host(host)
        .board(board)
        .build()
        .unwrap()
        .run(&mut w, 100_000)
        .unwrap();
    let stats = &result.node_stats[0];
    // Every miss after warmup is cold; total misses == cold misses.
    assert_eq!(
        stats.demand_misses(),
        stats.cold_misses(),
        "capacity misses in a cache bigger than the footprint"
    );
    assert!(
        stats.hit_ratio() > 0.5,
        "hit ratio {:.3}",
        stats.hit_ratio()
    );
}

/// Host bus utilization responds to instruction density, and the board's
/// observed span matches the bus clock.
#[test]
fn utilization_and_time_accounting_are_consistent() {
    let board = BoardConfig::single_node(cache(2 << 20), (0..8).map(ProcId::new)).unwrap();
    let mut w = UniformRandom::new(8, 64 << 20, 0.3, 7);
    let session = EmulationSession::builder()
        .host(host())
        .board(board)
        .build()
        .unwrap();
    let result = session.run(&mut w, 50_000).unwrap();
    let util = result.bus.utilization();
    assert!(util > 0.0 && util <= 1.0);
    // The board's global counters saw every bus transaction.
    assert_eq!(
        result.board.global().transactions(),
        result.bus.transactions
    );
    assert!(result.board.global().observed_span_cycles() <= result.bus.cycles);
}

/// Multi-node + parallel-config modes compose: two domains, each with
/// two nodes, stay coherent within themselves and isolated between.
#[test]
fn domains_compose_with_multi_node_partitions() {
    use memories::NodeSlot;
    let slots = vec![
        NodeSlot::new(cache(1 << 20), (0..4).map(ProcId::new)).in_domain(0),
        NodeSlot::new(cache(1 << 20), (4..8).map(ProcId::new)).in_domain(0),
        NodeSlot::new(cache(4 << 20), (0..4).map(ProcId::new)).in_domain(1),
        NodeSlot::new(cache(4 << 20), (4..8).map(ProcId::new)).in_domain(1),
    ];
    let board = BoardConfig::from_slots(slots).unwrap();
    let mut w = OltpWorkload::new(OltpConfig::scaled_default());
    let result = EmulationSession::builder()
        .host(host())
        .board(board)
        .build()
        .unwrap()
        .run(&mut w, 120_000)
        .unwrap();

    // Within each domain, the node pair covers all CPUs: the domains saw
    // the same demand traffic in total.
    let demand = |n: usize| result.node_stats[n].demand_references();
    assert_eq!(demand(0) + demand(1), demand(2) + demand(3));
    // Remote traffic flows within domains.
    let remote0 = result.node_stats[0].get(NodeCounter::RemoteReadsSeen);
    assert!(remote0 > 0, "no remote reads seen within domain 0");
}
