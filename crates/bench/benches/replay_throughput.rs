//! Replay throughput: streaming chunked replay vs. the Vec-buffered
//! baseline, over the committed verification corpus.
//!
//! Both contenders start from the same encoded trace bytes. The baseline
//! decodes the whole trace into a `Vec<Transaction>` first and then runs
//! it through the session as an in-memory stream
//! (`EmulationSession::execute` over a `StreamSource`); the streaming
//! path decodes fixed-size chunks straight into the session pipeline
//! (`EmulationSession::replay_stream`), never materializing the trace. Streaming buys O(chunk) peak memory — this
//! bench checks it does not pay for that in time: the run aborts if the
//! streaming replay is more than 15% slower than the buffered baseline
//! (the CI smoke gate).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use memories::{BoardConfig, CacheParams};
use memories_bus::Transaction;
use memories_console::{EmulationSession, ExecutionOptions, StreamSource};
use memories_trace::{TraceReader, TraceRecord, TraceWriter};

/// Records the bench replays per measurement.
const REPLAY_LEN: usize = 150_000;
/// Bus-cycle spacing between replayed records (the paper's ~20%
/// utilization point).
const CYCLE_SPACING: u64 = 60;

fn params(capacity: u64) -> CacheParams {
    CacheParams::builder()
        .capacity(capacity)
        .ways(4)
        .line_size(128)
        .allow_scaled_down()
        .build()
        .expect("valid bench parameters")
}

/// The 4-config sweep board.
fn sweep_board() -> BoardConfig {
    BoardConfig::parallel_configs(
        vec![
            params(2 << 20),
            params(8 << 20),
            params(32 << 20),
            params(128 << 20),
        ],
        (0..8).map(memories_bus::ProcId::new).collect(),
    )
    .expect("valid 4-config board")
}

fn session() -> EmulationSession {
    EmulationSession::builder()
        .board(sweep_board())
        .build()
        .expect("valid session")
}

/// Every record of the committed verification corpus, in sorted file
/// order (deterministic), tiled up to [`REPLAY_LEN`] records.
fn corpus_trace_bytes() -> Vec<u8> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/verify");
    let mut paths = Vec::new();
    for sub in ["multi", "single"] {
        let dir = root.join(sub);
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "trace") {
                    paths.push(path);
                }
            }
        }
    }
    paths.sort();
    assert!(!paths.is_empty(), "no committed corpus under {root:?}");

    let mut seed: Vec<TraceRecord> = Vec::new();
    for path in &paths {
        let bytes = std::fs::read(path).expect("corpus file readable");
        let reader = TraceReader::new(bytes.as_slice()).expect("valid corpus trace");
        for rec in reader {
            seed.push(rec.expect("valid corpus record"));
        }
    }
    assert!(!seed.is_empty(), "committed corpus decoded to no records");

    let mut out = Vec::new();
    let mut writer = TraceWriter::new(&mut out).expect("in-memory trace");
    for i in 0..REPLAY_LEN {
        writer
            .write_record(&seed[i % seed.len()])
            .expect("record round-trips");
    }
    writer.finish().expect("trace flushes");
    out
}

/// Baseline: decode the whole trace into a Vec, then run it as an
/// in-memory stream.
fn replay_buffered(bytes: &[u8]) -> u64 {
    let reader = TraceReader::new(bytes).expect("valid trace header");
    let txns: Vec<Transaction> = (0u64..)
        .zip(reader)
        .map(|(n, r)| {
            r.expect("valid record")
                .to_transaction(n, n * CYCLE_SPACING)
        })
        .collect();
    session()
        .execute(StreamSource::new(txns), ExecutionOptions::new())
        .expect("replay succeeds")
        .units
}

/// Contender: decode chunk by chunk straight into the pipeline.
fn replay_streamed(bytes: &[u8]) -> u64 {
    session()
        .replay_stream(bytes, CYCLE_SPACING)
        .expect("streaming replay succeeds")
        .records
}

fn bench_replay(c: &mut Criterion) {
    let bytes = corpus_trace_bytes();
    let mut group = c.benchmark_group("replay_throughput");
    group.throughput(Throughput::Elements(REPLAY_LEN as u64));
    group.bench_function(BenchmarkId::from_parameter("vec_buffered"), |b| {
        b.iter(|| black_box(replay_buffered(&bytes)));
    });
    group.bench_function(BenchmarkId::from_parameter("streaming"), |b| {
        b.iter(|| black_box(replay_streamed(&bytes)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_replay
}

/// Best-of-`n` wall time for one replay of the trace.
fn best_of(n: usize, mut run: impl FnMut() -> u64) -> Duration {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            assert_eq!(black_box(run()), REPLAY_LEN as u64);
            start.elapsed()
        })
        .min()
        .expect("at least one sample")
}

fn main() {
    benches();

    // The CI smoke gate: streaming replay must stay within 15% of the
    // Vec-buffered baseline. Best-of-5 on both sides to shrug off
    // scheduler noise.
    let bytes = corpus_trace_bytes();
    let buffered = best_of(5, || replay_buffered(&bytes));
    let streamed = best_of(5, || replay_streamed(&bytes));
    let ratio = streamed.as_secs_f64() / buffered.as_secs_f64();
    println!(
        "replay_throughput gate: buffered {buffered:?}, streamed {streamed:?} \
         (streamed/buffered = {ratio:.3})"
    );
    assert!(
        ratio <= 1.15,
        "streaming replay regressed: {ratio:.3}x the Vec-buffered baseline (gate: 1.15x)"
    );
}
