//! Property proof for the batch-native data path: delivering any stream
//! as [`TransactionBlock`]s — at any block size, to the board directly
//! or through the engine at any shard count — is bit-identical to
//! per-transaction delivery.
//!
//! Three implementations of the same semantics per case:
//!
//! * the serial [`MemoriesBoard`] fed one transaction at a time
//!   (`on_transaction`) — the reference,
//! * the serial board fed pooled blocks through `on_block`,
//! * an [`EmulationEngine`] (serial or sharded) fed pooled blocks of the
//!   same size through `feed_pooled`.
//!
//! A console [`Pipeline`] with a sampling stage, fed pooled blocks of
//! random sizes, must also take every sample at exactly the admitted
//! count a per-transaction board would.
//!
//! Equality is checked on the full statistics dump (every 40-bit counter
//! of every node plus the global counters), the retry count, the filter
//! statistics, and — the part a counter diff can miss — the tag
//! directories, probed at every address the stream touched.

use memories::{BoardConfig, CacheParams, MemoriesBoard, NodeCounter, NodeCounters, TimingConfig};
use memories_bus::{
    Address, BlockPool, BusListener, BusOp, NodeId, ProcId, SnoopResponse, Transaction,
    TransactionBlock,
};
use memories_console::{ExecutionOptions, Pipeline, SourceStats};
use memories_obs::TimeSeries;
use memories_sim::{EmulationEngine, EngineConfig};
use proptest::prelude::*;

fn params(capacity: u64) -> CacheParams {
    CacheParams::builder()
        .capacity(capacity)
        .ways(4)
        .line_size(128)
        .allow_scaled_down()
        .build()
        .unwrap()
}

/// A Figure 4 four-domain board over 8 CPUs, with enough ingress
/// buffering that adversarial streams never hit the timing-dependent
/// overflow path (retry equivalence is still asserted — both paths must
/// agree on the count, which is then provably zero).
fn board() -> MemoriesBoard {
    board_with_buffer(1 << 20)
}

/// The same board with a `capacity`-entry transaction buffer per node.
fn board_with_buffer(capacity: usize) -> MemoriesBoard {
    let mut cfg = BoardConfig::parallel_configs(
        vec![
            params(1 << 20),
            params(2 << 20),
            params(4 << 20),
            params(8 << 20),
        ],
        (0..8).map(ProcId::new).collect(),
    )
    .unwrap();
    cfg.timing = TimingConfig {
        buffer_capacity: capacity,
    };
    MemoriesBoard::new(cfg).unwrap()
}

fn arb_step() -> impl Strategy<Value = (u8, u8, u64, u64)> {
    (
        0u8..BusOp::ALL.len() as u8,
        0u8..10, // ids ≥ 8 exercise the filter-drop path
        0u64..512,
        1u64..90,
    )
}

/// Like [`arb_step`], but most transactions share the previous one's bus
/// cycle, so bursts overrun a small node buffer.
fn burst_step() -> impl Strategy<Value = (u8, u8, u64, u64)> {
    (
        0u8..BusOp::ALL.len() as u8,
        0u8..10,
        0u64..512,
        prop::sample::select(vec![0u64, 0, 0, 0, 3, 60]),
    )
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

fn build_stream(raw: &[(u8, u8, u64, u64)]) -> Vec<Transaction> {
    let mut cycle = 0u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(op, proc, line, gap))| {
            cycle += gap;
            Transaction::new(
                i as u64,
                cycle,
                ProcId::new(proc),
                BusOp::ALL[op as usize],
                Address::new(line * 128),
                SnoopResponse::Null,
            )
        })
        .collect()
}

/// Probe every node's tag directory at every address the stream touched
/// and compare the MESI states between two boards.
fn assert_directories_match(
    a: &MemoriesBoard,
    b: &MemoriesBoard,
    txns: &[Transaction],
    what: &str,
) -> Result<(), TestCaseError> {
    for t in txns {
        for n in 0..a.node_count() {
            let id = NodeId::new(n as u8);
            prop_assert_eq!(
                a.node(id).probe(t.addr),
                b.node(id).probe(t.addr),
                "{}: node {} directory diverged at {:?}",
                what,
                n,
                t.addr
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn block_delivery_is_bit_identical_to_per_transaction(
        raw in prop::collection::vec(arb_step(), 1..800),
        block_size in prop::sample::select(vec![1usize, 7, 512, 4096]),
        shards in prop::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        let txns = build_stream(&raw);

        // Reference: one transaction at a time into a serial board.
        let mut reference = board();
        for t in &txns {
            reference.on_transaction(t);
        }

        // Same stream as pooled blocks through on_block.
        let mut blocked = board();
        let pool = BlockPool::new(block_size);
        let mut block = pool.take();
        for t in &txns {
            block.push(*t);
            if block.is_full() {
                blocked.on_block(&block);
                block.clear();
            }
        }
        if !block.is_empty() {
            blocked.on_block(&block);
        }
        prop_assert_eq!(
            reference.statistics_report(),
            blocked.statistics_report(),
            "block size {}: counters diverged",
            block_size
        );
        prop_assert_eq!(reference.retries_posted(), blocked.retries_posted());
        prop_assert_eq!(reference.filter().stats(), blocked.filter().stats());
        assert_directories_match(&reference, &blocked, &txns, "board on_block")?;

        // Same stream through the engine's block path at the chosen
        // parallelism: each block, as admitted, is one broadcast batch.
        let cfg = if shards <= 1 {
            EngineConfig::serial()
        } else {
            EngineConfig::parallel(shards)
        };
        let mut engine = EmulationEngine::new(board(), cfg);
        feed(&mut engine, &txns, block_size);
        let final_board = engine.finish().unwrap();
        prop_assert_eq!(
            reference.statistics_report(),
            final_board.statistics_report(),
            "block size {} x {} shards: engine counters diverged",
            block_size,
            shards
        );
        prop_assert_eq!(reference.retries_posted(), final_board.retries_posted());
        prop_assert_eq!(reference.filter().stats(), final_board.filter().stats());
        assert_directories_match(&reference, &final_board, &txns, "engine feed_pooled")?;
    }
}

/// Every node's overflow counters, in node order.
fn overflow_counts(nodes: &[NodeCounters]) -> Vec<(u64, u64)> {
    nodes
        .iter()
        .map(|c| {
            (
                c.get(NodeCounter::BufferOverflows),
                c.get(NodeCounter::EventsDropped),
            )
        })
        .collect()
}

/// Asserts that `got` ended exactly like the per-transaction `reference`:
/// retries, overflow counters, every other counter, filter statistics
/// and tag directories.
fn assert_same_overflow_outcome(
    reference: &MemoriesBoard,
    got: &MemoriesBoard,
    txns: &[Transaction],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        reference.retries_posted(),
        got.retries_posted(),
        "{}: retries diverged",
        what
    );
    prop_assert_eq!(
        overflow_counts(&reference.snapshot().nodes),
        overflow_counts(&got.snapshot().nodes),
        "{}: overflow counters diverged",
        what
    );
    prop_assert_eq!(
        reference.statistics_report(),
        got.statistics_report(),
        "{}: counters diverged",
        what
    );
    prop_assert_eq!(reference.filter().stats(), got.filter().stats());
    assert_directories_match(reference, got, txns, what)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same-cycle bursts into 2-entry buffers overflow often; blocks of
    /// 1, 7, 8, 9 and 4096 transactions put those overflows on both sides
    /// of every snoop group boundary, through the board's `on_block` and
    /// the engine's shard workers alike. Engine barriers at random stream
    /// positions read the retry and overflow accounting of a
    /// per-transaction board cut at the same position.
    #[test]
    fn overflow_under_block_delivery_matches_per_transaction(
        raw in prop::collection::vec(burst_step(), 200..1500),
        cuts in prop::collection::vec(0usize..1500, 1..6),
    ) {
        let txns = build_stream(&raw);
        let mut reference = board_with_buffer(2);
        for t in &txns {
            reference.on_transaction(t);
        }
        prop_assert!(reference.retries_posted() > 0, "the stream must overflow");

        for block_size in [1usize, 7, 8, 9, 4096] {
            let mut blocked = board_with_buffer(2);
            for chunk in txns.chunks(block_size) {
                let mut block = TransactionBlock::with_capacity(block_size);
                for t in chunk {
                    block.push(*t);
                }
                blocked.on_block(&block);
            }
            assert_same_overflow_outcome(
                &reference,
                &blocked,
                &txns,
                &format!("board on_block, block size {block_size}"),
            )?;

            for shards in [1usize, 2] {
                let cfg = EngineConfig::parallel(shards);
                let mut engine = EmulationEngine::new(board_with_buffer(2), cfg);
                feed(&mut engine, &txns, block_size);
                let final_board = engine.finish().unwrap();
                assert_same_overflow_outcome(
                    &reference,
                    &final_board,
                    &txns,
                    &format!("engine, {shards} shards, block size {block_size}"),
                )?;
            }
        }

        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (txns.len() + 1)).collect();
        cuts.sort_unstable();
        let mut cut_board = board_with_buffer(2);
        let mut fed = 0;
        let mut want = Vec::new();
        for &cut in &cuts {
            for t in &txns[fed..cut] {
                cut_board.on_transaction(t);
            }
            fed = cut;
            want.push(cut_board.snapshot());
        }
        for shards in [1usize, 2, 4] {
            let cfg = EngineConfig::parallel(shards);
            let mut engine = EmulationEngine::new(board_with_buffer(2), cfg);
            let mut fed = 0;
            for (&cut, want) in cuts.iter().zip(&want) {
                feed(&mut engine, &txns[fed..cut], 64);
                fed = cut;
                let got = engine.barrier().unwrap();
                prop_assert_eq!(
                    got.retries_posted,
                    want.retries_posted,
                    "{} shards, barrier at {}: retries diverged",
                    shards,
                    cut
                );
                prop_assert_eq!(
                    overflow_counts(&got.nodes),
                    overflow_counts(&want.nodes),
                    "{} shards, barrier at {}: overflow counters diverged",
                    shards,
                    cut
                );
            }
            feed(&mut engine, &txns[fed..], 64);
            let final_board = engine.finish().unwrap();
            assert_same_overflow_outcome(
                &reference,
                &final_board,
                &txns,
                &format!("engine with barriers, {shards} shards"),
            )?;
        }
    }

    /// Buffer occupancy depends only on arrival cycles and on which nodes
    /// a transaction makes an event at, never on cache contents, so a
    /// front end with no shard behind it posts exactly the serial board's
    /// retries, transaction by transaction or block by block.
    #[test]
    fn bare_front_end_posts_the_serial_boards_retries(
        raw in prop::collection::vec(burst_step(), 200..1500),
        shards in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let txns = build_stream(&raw);
        let mut reference = board_with_buffer(2);
        for t in &txns {
            reference.on_transaction(t);
        }
        prop_assert!(reference.retries_posted() > 0, "the stream must overflow");

        let mut front = board_with_buffer(2).split(shards).0;
        for t in &txns {
            front.observe(t);
        }
        prop_assert_eq!(front.retries_posted(), reference.retries_posted());

        let mut front = board_with_buffer(2).split(shards).0;
        for chunk in txns.chunks(7) {
            let mut block = TransactionBlock::with_capacity(chunk.len());
            for t in chunk {
                block.push(*t);
            }
            front.filter_block(&mut block);
        }
        prop_assert_eq!(front.retries_posted(), reference.retries_posted());
    }
}

/// Pool lifecycle across the crate boundary: blocks recycle, keep their
/// capacity, and deref to a plain transaction slice.
#[test]
fn transaction_block_respects_capacity_invariant() {
    let pool = BlockPool::new(16);
    let mut block = pool.take();
    assert_eq!(block.capacity(), 16);
    for t in build_stream(&[(0, 0, 1, 1); 16]) {
        block.push(t);
    }
    assert!(block.is_full());
    block.clear();
    assert!(block.is_empty());
    assert_eq!(block.capacity(), 16);
    drop(block);

    // The recycled buffer comes back without a fresh allocation.
    let recycled = pool.take();
    assert_eq!(pool.stats().hits, 1);
    assert!(recycled.is_empty());
    let slice: &TransactionBlock = &recycled;
    let _: &[Transaction] = slice;
}

/// `(roll, op, proc, line, gap)` steps for [`build_sampled_stream`].
fn sampled_step() -> impl Strategy<Value = (u64, u8, u8, u64, u64)> {
    (
        0u64..100,
        0u8..5,
        0u8..10, // ids ≥ 8 are outside every node's partition
        0u64..512,
        1u64..90,
    )
}

/// A step is control traffic, which the filter drops, when its roll is
/// below `drop_pct`, and a memory op otherwise.
fn build_sampled_stream(raw: &[(u64, u8, u8, u64, u64)], drop_pct: u64) -> Vec<Transaction> {
    const MEMORY: [BusOp; 5] = [
        BusOp::Read,
        BusOp::Rwitm,
        BusOp::DClaim,
        BusOp::WriteBack,
        BusOp::Flush,
    ];
    const CONTROL: [BusOp; 4] = [BusOp::IoRead, BusOp::IoWrite, BusOp::Sync, BusOp::Interrupt];
    let mut cycle = 0u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(roll, op, proc, line, gap))| {
            cycle += gap;
            let op = if roll < drop_pct {
                CONTROL[usize::from(op) % CONTROL.len()]
            } else {
                MEMORY[usize::from(op)]
            };
            Transaction::new(
                i as u64,
                cycle,
                ProcId::new(proc),
                op,
                Address::new(line * 128),
                SnoopResponse::Null,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pipeline's sampler cuts pooled blocks of any size at its
    /// sample positions. With 5–50% of the stream dropped by the filter,
    /// the admitted count lags the stream position, so one sample often
    /// needs several cuts. At every shard count each sample must read
    /// exactly the admitted count and cumulative statistics of a
    /// per-transaction serial board snapshotted at the same admitted
    /// count, and the final boards must be equal.
    #[test]
    fn sampled_pipeline_cuts_blocks_at_exact_admitted_positions(
        raw in prop::collection::vec(sampled_step(), 1..12_000),
        drop_pct in 5u64..51,
        period in prop::sample::select(vec![1u64, 3, 997, 4096, 5000]),
        sizes in prop::collection::vec(1usize..4097, 1..16),
    ) {
        let txns = build_sampled_stream(&raw, drop_pct);

        let mut reference = board();
        let mut want = TimeSeries::new();
        let mut next_at = period;
        for t in &txns {
            reference.on_transaction(t);
            if reference.filter().stats().forwarded >= next_at {
                want.record(reference.snapshot());
                next_at = reference.filter().stats().forwarded + period;
            }
        }

        for shards in [1usize, 2, 4] {
            let cfg = if shards <= 1 {
                EngineConfig::serial()
            } else {
                EngineConfig::parallel(shards)
            };
            let options = ExecutionOptions::new().sample_every(Some(period));
            let mut pipeline = Pipeline::new(EmulationEngine::new(board(), cfg), &options);
            let pool = BlockPool::new(4096);
            let mut rest = txns.as_slice();
            for &size in sizes.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (now, later) = rest.split_at(size.min(rest.len()));
                let mut block = pool.take();
                for t in now {
                    block.push(*t);
                }
                pipeline.feed_pooled(block).unwrap();
                rest = later;
            }
            let run = pipeline.finish(SourceStats::default()).unwrap();

            prop_assert_eq!(
                run.series.len(),
                want.len(),
                "period {} x {} shards: sample count diverged",
                period,
                shards
            );
            for (got, want) in run.series.points().iter().zip(want.points()) {
                prop_assert_eq!(
                    got.snapshot.admitted(),
                    want.snapshot.admitted(),
                    "period {} x {} shards, sample {}: admitted count diverged",
                    period,
                    shards,
                    got.index
                );
                prop_assert_eq!(
                    got.cumulative,
                    want.cumulative,
                    "period {} x {} shards, sample {}: cumulative stats diverged",
                    period,
                    shards,
                    got.index
                );
            }
            prop_assert_eq!(
                reference.statistics_report(),
                run.board.statistics_report(),
                "period {} x {} shards: final counters diverged",
                period,
                shards
            );
            prop_assert_eq!(reference.retries_posted(), run.board.retries_posted());
            prop_assert_eq!(reference.filter().stats(), run.board.filter().stats());
        }
    }
}
