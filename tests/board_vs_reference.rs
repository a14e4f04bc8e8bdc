//! Differential validation: the board model vs. the trace-driven
//! reference simulator — the paper's §4.1 methodology, run continuously.
//!
//! For any trace, a single-node board (all CPUs local) and the reference
//! simulator must produce *identical* counters. The two are implemented
//! independently (FPGA-structured vs. straight-line), so agreement is
//! meaningful validation of both.

use memories::{BoardConfig, CacheParams, MemoriesBoard, ReplacementPolicy, TimingConfig};
use memories_bus::{Address, BusListener, BusOp, ProcId, SnoopResponse};
use memories_protocol::{standard, ProtocolTable};
use memories_sim::{compare_counts, CacheSim};
use memories_trace::TraceRecord;
use proptest::prelude::*;

fn run_both(params: CacheParams, protocol: ProtocolTable, trace: &[TraceRecord]) {
    let mut cfg = BoardConfig::single_node(params, (0..8).map(ProcId::new)).unwrap();
    cfg.slots[0].protocol = protocol.clone();
    // Give the board ample buffering so timing never drops events (the
    // reference simulator is untimed).
    cfg.timing = TimingConfig {
        buffer_capacity: 1 << 20,
    };
    let mut board = MemoriesBoard::new(cfg).unwrap();
    let mut sim = CacheSim::new(params, protocol);

    for (i, rec) in trace.iter().enumerate() {
        let txn = rec.to_transaction(i as u64, i as u64 * 60);
        board.on_transaction(&txn);
        sim.step(rec);
    }

    let report = compare_counts(
        board.node(memories_bus::NodeId::new(0)).counters(),
        sim.counts(),
    );
    assert!(report.matches(), "{report}");
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
            1 => Just(BusOp::IoRead),
        ],
        0u8..8,
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn board_matches_reference_on_random_traces(
        trace in prop::collection::vec(arb_record(512), 1..800),
        capacity_kb in prop_oneof![Just(4u64), Just(8), Just(16), Just(64)],
        ways in prop_oneof![Just(1u32), Just(2), Just(4)],
    ) {
        let params = CacheParams::builder()
            .capacity(capacity_kb << 10)
            .ways(ways)
            .line_size(128)
            .replacement(ReplacementPolicy::Lru)
            .allow_scaled_down()
            .build()
            .unwrap();
        run_both(params, standard::mesi(), &trace);
    }

    #[test]
    fn board_matches_reference_for_every_builtin_protocol(
        trace in prop::collection::vec(arb_record(256), 1..500),
        protocol_idx in 0usize..5,
    ) {
        let params = CacheParams::builder()
            .capacity(16 << 10)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap();
        let protocol = standard::all().swap_remove(protocol_idx);
        run_both(params, protocol, &trace);
    }

    #[test]
    fn board_matches_reference_with_large_lines(
        trace in prop::collection::vec(arb_record(2048), 1..500),
    ) {
        // 1 KB lines (the paper's L3 line size in Figures 11-12).
        let params = CacheParams::builder()
            .capacity(64 << 10)
            .ways(4)
            .line_size(1024)
            .allow_scaled_down()
            .build()
            .unwrap();
        run_both(params, standard::mesi(), &trace);
    }
}

#[test]
fn long_deterministic_trace_agrees() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(2024);
    let trace: Vec<TraceRecord> = (0..200_000)
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
                Address::new(rng.random_range(0..32_768u64) * 128),
            )
        })
        .collect();
    let params = CacheParams::builder()
        .capacity(2 << 20)
        .ways(4)
        .build()
        .unwrap();
    run_both(params, standard::mesi(), &trace);
}
