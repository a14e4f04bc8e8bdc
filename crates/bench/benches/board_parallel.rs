//! Serial vs. sharded emulation throughput for multi-configuration
//! sweeps — the Figure 4 parallel-configurations mode that motivates the
//! parallel engine.
//!
//! The real board evaluates four cache configurations in one pass at
//! fixed real-time cost; the serial software model pays for each config
//! linearly. The sharded [`EmulationEngine`] gives each coherence domain
//! its own worker thread, so a 4-config sweep should approach the
//! 1-config cost on a machine with 4+ cores. On fewer cores the parallel
//! path adds batching/channel overhead with no compute to hide it —
//! EXPERIMENTS.md records measured numbers per host.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use memories::{BoardConfig, CacheParams, MemoriesBoard};
use memories_bus::{Address, BusOp, ProcId, SnoopResponse, Transaction};
use memories_sim::{EmulationEngine, EngineConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn params(capacity: u64) -> CacheParams {
    CacheParams::builder()
        .capacity(capacity)
        .ways(4)
        .line_size(128)
        .allow_scaled_down()
        .build()
        .expect("valid bench parameters")
}

/// The 4-config sweep board: four candidate caches, each in its own
/// coherence domain, all snooping the full 8-CPU stream.
fn sweep_board() -> BoardConfig {
    BoardConfig::parallel_configs(
        vec![
            params(2 << 20),
            params(8 << 20),
            params(32 << 20),
            params(128 << 20),
        ],
        (0..8).map(ProcId::new).collect(),
    )
    .expect("valid 4-config board")
}

fn transactions(n: usize) -> Vec<Transaction> {
    let mut rng = SmallRng::seed_from_u64(42);
    (0..n as u64)
        .map(|i| {
            let op = match rng.random_range(0..10) {
                0..=5 => BusOp::Read,
                6..=7 => BusOp::Rwitm,
                8 => BusOp::DClaim,
                _ => BusOp::WriteBack,
            };
            Transaction::new(
                i,
                i * 60, // 20% utilization spacing
                ProcId::new(rng.random_range(0..8)),
                op,
                Address::new(rng.random_range(0..1u64 << 20) * 128),
                SnoopResponse::Null,
            )
        })
        .collect()
}

fn run_engine(cfg: &BoardConfig, engine_cfg: EngineConfig, txns: &[Transaction]) -> u64 {
    let board = MemoriesBoard::new(cfg.clone()).expect("valid board");
    let mut engine = EmulationEngine::new(board, engine_cfg);
    engine.feed_block(txns);
    let board = engine.finish().expect("engine finishes cleanly");
    board.global().transactions()
}

fn bench_parallel(c: &mut Criterion) {
    let txns = transactions(100_000);
    let cfg = sweep_board();
    let mut group = c.benchmark_group("board_parallel");
    group.throughput(Throughput::Elements(txns.len() as u64));

    group.bench_function(BenchmarkId::from_parameter("serial"), |b| {
        b.iter(|| black_box(run_engine(&cfg, EngineConfig::serial(), &txns)));
    });
    for shards in [2usize, 4] {
        group.bench_function(BenchmarkId::new("parallel", shards), |b| {
            b.iter(|| black_box(run_engine(&cfg, EngineConfig::parallel(shards), &txns)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel
}
criterion_main!(benches);
