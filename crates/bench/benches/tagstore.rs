//! Tag store throughput per replacement policy — the ablation for the
//! board's programmable replacement attribute (the SDRAM tables spend
//! their cycles here, so policy cost matters for the 42% ceiling).
//!
//! Each event makes the node controller's calls: one `probe`, then
//! `update` on a hit or `fill` on a miss. The store is built and warmed
//! outside the timed loop. Two paths per policy:
//!
//! - `hit`: a footprint of half the capacity, so every probe hits;
//! - `evict`: a footprint of four times the capacity, so most probes miss
//!   and every miss evicts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use memories::{CacheParams, ReplacementPolicy, TagStore};
use memories_bus::{Address, LineAddr};
use memories_protocol::StateId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// 4 MB, 8-way, 128 B lines: 32 Ki lines.
const CAPACITY: u64 = 4 << 20;
const LINE: u64 = 128;
const EVENTS: usize = 100_000;

/// One node-controller event: a single probe, then the transition.
fn event(store: &mut TagStore, line: LineAddr, state: StateId) {
    let probe = store.probe(line);
    if probe.hit() {
        store.update(&probe, state, true);
    } else {
        black_box(store.fill(&probe, line, state));
    }
}

fn bench_policies(c: &mut Criterion) {
    let capacity_lines = CAPACITY / LINE;
    for (path, footprint) in [("hit", capacity_lines / 2), ("evict", capacity_lines * 4)] {
        let addresses: Vec<Address> = {
            let mut rng = SmallRng::seed_from_u64(5);
            (0..EVENTS)
                .map(|_| Address::new(rng.random_range(0..footprint) * LINE))
                .collect()
        };
        let mut group = c.benchmark_group(format!("tagstore_probe_{path}"));
        group.throughput(Throughput::Elements(addresses.len() as u64));
        for policy in ReplacementPolicy::ALL {
            let params = CacheParams::builder()
                .capacity(CAPACITY)
                .ways(8)
                .line_size(LINE)
                .replacement(policy)
                .build()
                .expect("valid bench parameters");
            let mut store = TagStore::new(&params);
            let geom = *store.geometry();
            let state = StateId::new(1);
            // Warm-up: fill the footprint (the hit path then never misses).
            for n in 0..footprint.min(capacity_lines) {
                event(&mut store, geom.line_addr(Address::new(n * LINE)), state);
            }
            for a in &addresses {
                event(&mut store, geom.line_addr(*a), state);
            }
            group.bench_function(BenchmarkId::from_parameter(policy.keyword()), |b| {
                b.iter(|| {
                    for a in &addresses {
                        event(&mut store, geom.line_addr(*a), state);
                    }
                    store.resident_lines()
                });
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_policies
}
criterion_main!(benches);
