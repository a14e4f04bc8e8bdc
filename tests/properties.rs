//! Property-based tests of core invariants across crates.

use memories::{CacheParams, NodeCounter, ReplacementPolicy};
use memories_bus::{Address, BusOp, ProcId, SnoopResponse};
use memories_protocol::{
    standard, AccessEvent, Action, ActionSet, ProtocolTable, RemoteSummary, StateId, TableBuilder,
    Transition,
};
use memories_sim::CacheSim;
use memories_trace::{TraceReader, TraceRecord, TraceWriter};
use proptest::prelude::*;

fn arb_demand_record(max_line: u64) -> impl Strategy<Value = TraceRecord> {
    (
        prop_oneof![3 => Just(BusOp::Read), 1 => Just(BusOp::Rwitm)],
        0u8..8,
        0u64..max_line,
    )
        .prop_map(|(op, proc, line)| {
            TraceRecord::new(
                op,
                ProcId::new(proc),
                SnoopResponse::Null,
                Address::new(line * 128),
            )
        })
}

fn arb_any_record() -> impl Strategy<Value = TraceRecord> {
    (
        prop::sample::select(BusOp::ALL.to_vec()),
        0u8..64,
        0u64..(1u64 << 40),
        prop::sample::select(vec![
            SnoopResponse::Null,
            SnoopResponse::Shared,
            SnoopResponse::Modified,
            SnoopResponse::Retry,
        ]),
    )
        .prop_map(|(op, proc, line, resp)| {
            TraceRecord::new(op, ProcId::new(proc), resp, Address::new(line * 8))
        })
}

fn misses(params: CacheParams, trace: &[TraceRecord]) -> u64 {
    let mut sim = CacheSim::new(params, standard::mesi());
    sim.run(trace.iter().copied());
    sim.counts().get(NodeCounter::ReadMisses) + sim.counts().get(NodeCounter::WriteMisses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Mattson's inclusion property: with LRU, a fixed set count, and
    /// doubled ways, the bigger cache's misses never exceed the smaller's
    /// on demand-only traffic.
    #[test]
    fn lru_misses_are_monotone_in_associativity(
        trace in prop::collection::vec(arb_demand_record(256), 1..600),
    ) {
        // Same 16 sets; 1-way vs 2-way vs 4-way.
        let p = |ways: u32| CacheParams::builder()
            .capacity(u64::from(ways) * 16 * 128)
            .ways(ways)
            .line_size(128)
            .replacement(ReplacementPolicy::Lru)
            .allow_scaled_down()
            .build()
            .unwrap();
        let m1 = misses(p(1), &trace);
        let m2 = misses(p(2), &trace);
        let m4 = misses(p(4), &trace);
        prop_assert!(m2 <= m1, "2-way missed more than 1-way: {m2} > {m1}");
        prop_assert!(m4 <= m2, "4-way missed more than 2-way: {m4} > {m2}");
    }

    /// Trace files roundtrip exactly for arbitrary records.
    #[test]
    fn trace_file_roundtrip(records in prop::collection::vec(arb_any_record(), 0..300)) {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap();
        let back: Vec<TraceRecord> =
            TraceReader::new(buf.as_slice()).unwrap().map(|r| r.unwrap()).collect();
        prop_assert_eq!(back, records);
    }

    /// Any randomly generated *complete* protocol table roundtrips
    /// through its map-file text representation.
    #[test]
    fn random_protocol_tables_roundtrip(
        state_count in 2usize..6,
        cells in prop::collection::vec((0u8..6, 0u8..16), 200..400),
        initial_fill in 0u8..6,
    ) {
        let names = ["I", "A", "B", "C", "D", "E"];
        let mut b = TableBuilder::new("random", &names[..state_count]).unwrap();
        // Fill everything with a base transition, then overwrite from the
        // random cell list.
        let base = Transition::to(StateId::new(initial_fill % state_count as u8));
        for event in AccessEvent::ALL {
            b.on_any_state(event, base);
        }
        let mut idx = 0usize;
        for event in AccessEvent::ALL {
            for s in 0..state_count {
                for remote in RemoteSummary::ALL {
                    let (next, action_bits) = cells[idx % cells.len()];
                    idx += 1;
                    let mut actions = ActionSet::new();
                    for (bit, a) in Action::ALL.iter().enumerate() {
                        if action_bits & (1 << bit) != 0 {
                            actions.insert(*a);
                        }
                    }
                    b.on(
                        event,
                        StateId::new(s as u8),
                        remote,
                        Transition::new(StateId::new(next % state_count as u8), actions),
                    );
                }
            }
        }
        let table = b.build().unwrap();
        let text = table.to_map_file();
        let back = ProtocolTable::parse_map_file(&text).unwrap();
        prop_assert_eq!(table, back);
    }

    /// Cold misses never exceed total misses, and cold misses never
    /// exceed the number of distinct lines touched.
    #[test]
    fn cold_miss_accounting(trace in prop::collection::vec(arb_demand_record(128), 1..500)) {
        let params = CacheParams::builder()
            .capacity(8 << 10)
            .ways(2)
            .allow_scaled_down()
            .build()
            .unwrap();
        let mut sim = CacheSim::new(params, standard::mesi());
        sim.run(trace.iter().copied());
        let c = sim.counts();
        let cold = c.get(NodeCounter::ReadColdMisses) + c.get(NodeCounter::WriteColdMisses);
        let total = c.get(NodeCounter::ReadMisses) + c.get(NodeCounter::WriteMisses);
        prop_assert!(cold <= total);
        let distinct: std::collections::HashSet<u64> =
            trace.iter().map(|r| r.addr.value() / 128).collect();
        prop_assert!(cold <= distinct.len() as u64);
    }

    /// Geometry decomposition is a bijection: (tag, set) <-> line.
    #[test]
    fn geometry_tag_set_roundtrip(
        addr in 0u64..(1u64 << 50),
        ways in prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        line_pow in 7u32..14,
        set_pow in 1u32..12,
    ) {
        let line_size = 1u64 << line_pow;
        let capacity = (1u64 << set_pow) * u64::from(ways) * line_size;
        let g = memories_bus::Geometry::new(capacity, ways, line_size).unwrap();
        let line = g.line_addr(Address::new(addr));
        let back = g.line_from_parts(g.tag(line), g.set_index(line));
        prop_assert_eq!(line, back);
        prop_assert_eq!(g.line_base(line), Address::new(addr).align_down(line_size));
    }
}

/// A non-property sanity check that proptest regressions can anchor on:
/// the MESI single-node state machine never produces an intervention
/// from an absent line.
#[test]
fn absent_lines_never_intervene() {
    let params = CacheParams::builder()
        .capacity(4 << 10)
        .ways(1)
        .allow_scaled_down()
        .build()
        .unwrap();
    let mut sim = CacheSim::new(params, standard::mesi());
    // Remote traffic only (nothing local ever allocates).
    for i in 0..100u64 {
        sim.step(&TraceRecord::new(
            BusOp::DmaWrite,
            ProcId::new(0),
            SnoopResponse::Null,
            Address::new(i * 128),
        ));
    }
    assert_eq!(sim.counts().get(NodeCounter::InterventionsShared), 0);
    assert_eq!(sim.counts().get(NodeCounter::InterventionsModified), 0);
}
