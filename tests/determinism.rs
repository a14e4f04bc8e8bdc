//! The fuzzer is a regression gate, so it must be bit-for-bit
//! reproducible: the same seed and corpus must give the same coverage
//! count, the same corpus growth, and (on a divergence) the same shrunk
//! counterexample, run after run.

use memories::CacheParams;
use memories_bus::ProcId;
use memories_protocol::standard;
use memories_verify::{DifferentialFuzzer, FuzzConfig, NodeSlotSpec};

fn params() -> CacheParams {
    CacheParams::builder()
        .capacity(16 << 10)
        .ways(2)
        .line_size(128)
        .allow_scaled_down()
        .build()
        .unwrap()
}

fn multi_slots() -> Vec<NodeSlotSpec> {
    vec![
        (
            params(),
            standard::mesi(),
            0,
            (0..4).map(ProcId::new).collect(),
        ),
        (
            params(),
            standard::mesi(),
            0,
            (4..8).map(ProcId::new).collect(),
        ),
        (
            params(),
            standard::moesi(),
            1,
            (0..8).map(ProcId::new).collect(),
        ),
    ]
}

fn config() -> FuzzConfig {
    FuzzConfig {
        seed: 2026,
        iterations: 8,
        max_len: 400,
        shards: vec![2],
        sample_period: 61,
        ..FuzzConfig::default()
    }
}

#[test]
fn two_runs_agree_exactly() {
    let a = DifferentialFuzzer::new(multi_slots(), config())
        .unwrap()
        .run()
        .unwrap();
    let b = DifferentialFuzzer::new(multi_slots(), config())
        .unwrap()
        .run()
        .unwrap();
    assert!(a.is_clean(), "{a}");
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(a.corpus_entries, b.corpus_entries);
}

#[test]
fn different_seeds_explore_differently() {
    let a = DifferentialFuzzer::new(multi_slots(), config())
        .unwrap()
        .run()
        .unwrap();
    let b = DifferentialFuzzer::new(
        multi_slots(),
        FuzzConfig {
            seed: 9999,
            ..config()
        },
    )
    .unwrap()
    .run()
    .unwrap();
    // Coverage may coincide (the key space is small) but both runs must
    // be clean and nonempty; this is a smoke check that the seed is
    // actually threaded through.
    assert!(a.is_clean() && b.is_clean());
    assert!(a.coverage > 0 && b.coverage > 0);
}

/// A `max_len` below the shortest fresh stream clamps the fresh length
/// to `max_len` instead of underflowing (`max_len - 16` in `usize`).
#[test]
fn max_len_below_the_fresh_minimum_runs_clean() {
    let report = DifferentialFuzzer::new(
        multi_slots(),
        FuzzConfig {
            max_len: 8,
            iterations: 4,
            shards: vec![2],
            ..FuzzConfig::default()
        },
    )
    .unwrap()
    .run()
    .unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.iterations, 4);
}
