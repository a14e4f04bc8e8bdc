//! Cold misses are exactly first touches: a node counts a read or write
//! cold miss when the line has never before made an event at that node.
//!
//! The board is small on purpose. Two coherence domains of two nodes each
//! have 2 KB 2-way caches, so lines are evicted, invalidated by remote
//! writes and DMA, and read again. A re-read of such a line is a miss but
//! not a cold one. The reference keeps, per node, the set of lines that
//! have seen any event; the serial board and the engine at 2 shards must
//! both match its counts.

use std::collections::HashSet;

use memories::{
    AddressFilter, BoardConfig, CacheParams, FilterConfig, MemoriesBoard, NodeCounter, NodeSlot,
};
use memories_bus::{
    Address, BlockPool, BusListener, BusOp, NodeId, ProcId, SnoopResponse, Transaction,
};
use memories_protocol::AccessEvent;
use memories_sim::{EmulationEngine, EngineConfig};
use proptest::prelude::*;

fn board() -> MemoriesBoard {
    let params = |capacity| {
        CacheParams::builder()
            .capacity(capacity)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap()
    };
    let slot = |capacity, cpus: std::ops::Range<u8>, domain| {
        NodeSlot::new(params(capacity), cpus.map(ProcId::new)).in_domain(domain)
    };
    MemoriesBoard::new(
        BoardConfig::from_slots(vec![
            slot(2048, 0..2, 0),
            slot(2048, 2..4, 0),
            slot(4096, 0..3, 1),
            slot(4096, 3..6, 1),
        ])
        .unwrap(),
    )
    .unwrap()
}

/// Feeds `txns` to `engine` in stream order, as pooled blocks of
/// `block_size` transactions (the last one may be short).
fn feed(engine: &mut EmulationEngine, txns: &[Transaction], block_size: usize) {
    let pool = BlockPool::new(block_size);
    for chunk in txns.chunks(block_size) {
        let mut block = pool.take();
        for t in chunk {
            block.push(*t);
        }
        engine.feed_pooled(block);
    }
}

/// `(op, cpu, line)` steps, one bus cycle apart at 60 cycles so no node
/// buffer ever fills. CPUs 6 and 7 belong to no node.
fn build_stream(raw: &[(u8, u8, u64)]) -> Vec<Transaction> {
    raw.iter()
        .enumerate()
        .map(|(i, &(op, cpu, line))| {
            Transaction::new(
                i as u64,
                i as u64 * 60,
                ProcId::new(cpu),
                BusOp::ALL[usize::from(op)],
                Address::new(line * 128),
                SnoopResponse::Null,
            )
        })
        .collect()
}

/// Per node, `(read cold misses, write cold misses)` by first touch.
fn reference(board: &MemoriesBoard, txns: &[Transaction]) -> Vec<(u64, u64)> {
    let partition = board.filter().partition().clone();
    let mut filter = AddressFilter::new(FilterConfig::default(), partition.clone());
    let mut touched = vec![HashSet::new(); board.node_count()];
    let mut cold = vec![(0u64, 0u64); board.node_count()];
    for txn in txns {
        if !filter.admit(txn) {
            continue;
        }
        let line = txn.addr.value() / 128;
        for (n, seen) in touched.iter_mut().enumerate() {
            let Some(event) = partition.event_for(NodeId::new(n as u8), txn) else {
                continue;
            };
            if seen.insert(line) {
                match event {
                    AccessEvent::LocalRead => cold[n].0 += 1,
                    AccessEvent::LocalWrite => cold[n].1 += 1,
                    _ => {}
                }
            }
        }
    }
    cold
}

fn cold_counts(board: &MemoriesBoard) -> Vec<(u64, u64)> {
    board
        .nodes()
        .map(|n| {
            (
                n.counters().get(NodeCounter::ReadColdMisses),
                n.counters().get(NodeCounter::WriteColdMisses),
            )
        })
        .collect()
}

/// Checks the serial board and the engine at 2 shards against the
/// first-touch reference on the stream `raw` describes.
fn check_cold_counts(raw: &[(u8, u8, u64)]) -> Result<(), TestCaseError> {
    let txns = build_stream(raw);
    let want = reference(&board(), &txns);

    let mut serial = board();
    for t in &txns {
        serial.on_transaction(t);
    }
    prop_assert_eq!(&cold_counts(&serial), &want);
    prop_assert_eq!(serial.retries_posted(), 0);
    let misses: u64 = serial
        .nodes()
        .map(|n| {
            n.counters().get(NodeCounter::ReadMisses) + n.counters().get(NodeCounter::WriteMisses)
        })
        .sum();
    let cold: u64 = want.iter().map(|c| c.0 + c.1).sum();
    prop_assert!(cold <= misses);

    let mut engine = EmulationEngine::new(board(), EngineConfig::parallel(2));
    feed(&mut engine, &txns, 100);
    let sharded = engine.finish().unwrap();
    prop_assert_eq!(&cold_counts(&sharded), &want);
    Ok(())
}

fn arb_op() -> impl Strategy<Value = u8> {
    prop::sample::select(vec![0u8, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cold_misses_are_first_touches(
        raw in prop::collection::vec((arb_op(), 0u8..8, 0u64..96), 1..1500),
    ) {
        check_cold_counts(&raw)?;
    }

    /// Lines at and above 2^31 (256 GiB of 128 B lines, past the flat
    /// cold-miss bitmap) up to the trace format's 2^55-byte address
    /// limit count their first touch like any other line.
    #[test]
    fn cold_misses_above_2_pow_31_lines_are_first_touches(
        raw in prop::collection::vec(
            (
                arb_op(),
                0u8..8,
                prop_oneof![
                    1 => 0u64..32,
                    1 => 1u64 << 31..(1u64 << 31) + 48,
                    1 => (1u64 << 48) - 32..1u64 << 48,
                ],
            ),
            1..1500,
        ),
    ) {
        check_cold_counts(&raw)?;
    }
}
