//! Differential validation of *multi-node* board configurations against
//! the independent multi-node reference simulator — covering the address
//! filter's partitioning, domain isolation, and the lock-step remote
//! summary path that the single-node oracle cannot reach.

use memories::{BoardConfig, CacheParams, MemoriesBoard, NodeSlot, TimingConfig};
use memories_bus::{Address, BusListener, BusOp, NodeId, ProcId, SnoopResponse};
use memories_protocol::{standard, ProtocolTable};
use memories_sim::{compare_counts, MultiNodeSim};
use memories_trace::TraceRecord;
use proptest::prelude::*;

fn params(capacity: u64, ways: u32) -> CacheParams {
    CacheParams::builder()
        .capacity(capacity)
        .ways(ways)
        .line_size(128)
        .allow_scaled_down()
        .build()
        .unwrap()
}

/// Runs the same trace through a board and the reference model built from
/// identical slots; every node's counters must agree exactly.
fn run_both(slots: Vec<(CacheParams, ProtocolTable, u8, Vec<ProcId>)>, trace: &[TraceRecord]) {
    let board_slots: Vec<NodeSlot> = slots
        .iter()
        .map(|(p, proto, domain, cpus)| {
            NodeSlot::new(*p, cpus.iter().copied())
                .with_protocol(proto.clone())
                .in_domain(*domain)
        })
        .collect();
    let mut cfg = BoardConfig::from_slots(board_slots).unwrap();
    cfg.timing = TimingConfig {
        buffer_capacity: 1 << 20,
    };
    let node_count = cfg.slots.len();
    let mut board = MemoriesBoard::new(cfg).unwrap();
    let mut sim = MultiNodeSim::new(slots);

    for (i, rec) in trace.iter().enumerate() {
        board.on_transaction(&rec.to_transaction(i as u64, i as u64 * 60));
        sim.step(rec);
    }
    for n in 0..node_count {
        let report = compare_counts(board.node(NodeId::new(n as u8)).counters(), sim.counts(n));
        assert!(report.matches(), "node {n} diverged:\n{report}");
    }
}

fn arb_record(max_line: u64) -> impl Strategy<Value = TraceRecord> {
    (
        prop_oneof![
            8 => Just(BusOp::Read),
            4 => Just(BusOp::Rwitm),
            2 => Just(BusOp::DClaim),
            2 => Just(BusOp::WriteBack),
            1 => Just(BusOp::Flush),
            1 => Just(BusOp::DmaRead),
            1 => Just(BusOp::DmaWrite),
            1 => Just(BusOp::Sync),
        ],
        0u8..10,
        0u64..max_line,
        prop_oneof![
            4 => Just(SnoopResponse::Null),
            1 => Just(SnoopResponse::Shared),
            1 => Just(SnoopResponse::Modified),
        ],
    )
        .prop_map(|(op, proc, line, resp)| {
            TraceRecord::new(op, ProcId::new(proc), resp, Address::new(line * 128))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two-node machines: partitioning plus remote coherence.
    #[test]
    fn two_node_board_matches_reference(
        trace in prop::collection::vec(arb_record(256), 1..600),
        ways in prop_oneof![Just(1u32), Just(2), Just(4)],
    ) {
        // CPUs 8 and 9 exist in the trace but belong to no node: the
        // filter must ignore them identically in both models.
        let slots = vec![
            (params(8 << 10, ways), standard::mesi(), 0u8, (0..4).map(ProcId::new).collect()),
            (params(8 << 10, ways), standard::mesi(), 0u8, (4..8).map(ProcId::new).collect()),
        ];
        run_both(slots, &trace);
    }

    /// Mixed protocols across nodes of the same machine (§3.2's selling
    /// point), plus a second isolated domain.
    #[test]
    fn mixed_protocol_domains_match_reference(
        trace in prop::collection::vec(arb_record(128), 1..500),
    ) {
        let slots = vec![
            (params(4 << 10, 2), standard::mesi(), 0u8, (0..4).map(ProcId::new).collect()),
            (params(4 << 10, 2), standard::moesi(), 0u8, (4..8).map(ProcId::new).collect()),
            (params(16 << 10, 4), standard::msi(), 1u8, (0..8).map(ProcId::new).collect()),
        ];
        run_both(slots, &trace);
    }

    /// Asymmetric capacities per node (each node controller has its own
    /// SDRAM tables).
    #[test]
    fn asymmetric_nodes_match_reference(
        trace in prop::collection::vec(arb_record(512), 1..500),
    ) {
        let slots = vec![
            (params(4 << 10, 1), standard::mesi(), 0u8, (0..2).map(ProcId::new).collect()),
            (params(8 << 10, 2), standard::mesi(), 0u8, (2..4).map(ProcId::new).collect()),
            (params(16 << 10, 4), standard::mesi(), 0u8, (4..6).map(ProcId::new).collect()),
            (params(32 << 10, 8), standard::mesi(), 0u8, (6..8).map(ProcId::new).collect()),
        ];
        run_both(slots, &trace);
    }
}

#[test]
fn long_deterministic_multinode_trace_agrees() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(31337);
    let trace: Vec<TraceRecord> = (0..100_000)
        .map(|_| {
            let op = match rng.random_range(0..12) {
                0..=6 => BusOp::Read,
                7..=8 => BusOp::Rwitm,
                9 => BusOp::DClaim,
                10 => BusOp::WriteBack,
                _ => BusOp::DmaWrite,
            };
            TraceRecord::new(
                op,
                ProcId::new(rng.random_range(0..8)),
                SnoopResponse::Null,
                Address::new(rng.random_range(0..8192u64) * 128),
            )
        })
        .collect();
    let slots = vec![
        (
            params(256 << 10, 4),
            standard::mesi(),
            0u8,
            (0..4).map(ProcId::new).collect(),
        ),
        (
            params(256 << 10, 4),
            standard::mesi(),
            0u8,
            (4..8).map(ProcId::new).collect(),
        ),
    ];
    run_both(slots, &trace);
}
