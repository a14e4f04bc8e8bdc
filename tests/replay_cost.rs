//! Streaming replay costs at most 1.15× the time of the buffered
//! baseline, over the committed verification corpus.
//!
//! Both sides start from the same encoded trace bytes. The baseline
//! decodes the whole trace into a `Vec<Transaction>` first and then runs
//! it through the session as an in-memory stream
//! (`EmulationSession::execute` over a `StreamSource`). The streaming
//! path decodes fixed-size chunks straight into the session pipeline
//! (`EmulationSession::replay_stream`) and never holds the whole trace.
//! Streaming buys O(chunk) peak memory; this test checks that it does
//! not pay for that in time.
//!
//! The two sides run interleaved, in pairs, and the test compares the
//! median streamed/buffered ratio of the pairs: a single fast or slow
//! sample on either side moves the median by at most one pair, where a
//! best-of-n on each side lets one lucky sample set the whole ratio.
//!
//! The bound is a timing bound, so it only holds in an optimized build:
//! `cargo test --release --offline --test replay_cost`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use memories::{BoardConfig, CacheParams};
use memories_bus::{ProcId, Transaction};
use memories_console::{EmulationSession, ExecutionOptions, StreamSource};
use memories_trace::{TraceReader, TraceRecord, TraceWriter};

/// Records each replay decodes.
const REPLAY_LEN: usize = 150_000;
/// Bus-cycle spacing between replayed records (the paper's ~20%
/// utilization point).
const CYCLE_SPACING: u64 = 60;
/// Streaming replay may take at most this multiple of the buffered time.
const BOUND: f64 = 1.15;
/// Interleaved buffered/streamed pairs timed; odd, so the median is one
/// pair's ratio.
const PAIRS: usize = 9;

fn params(capacity: u64) -> CacheParams {
    CacheParams::builder()
        .capacity(capacity)
        .ways(4)
        .line_size(128)
        .allow_scaled_down()
        .build()
        .expect("valid sweep parameters")
}

/// The 4-config sweep board (2, 8, 32 and 128 MB nodes over 8 CPUs).
fn session() -> EmulationSession {
    let board = BoardConfig::parallel_configs(
        [2 << 20, 8 << 20, 32 << 20, 128 << 20].map(params).to_vec(),
        (0..8).map(ProcId::new).collect(),
    )
    .expect("valid 4-config board");
    EmulationSession::builder()
        .board(board)
        .build()
        .expect("valid session")
}

/// Every record of the committed verification corpus, in sorted file
/// order, tiled up to [`REPLAY_LEN`] records and encoded.
fn corpus_trace_bytes() -> Vec<u8> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/verify");
    let mut paths = Vec::new();
    for sub in ["multi", "single"] {
        for entry in std::fs::read_dir(root.join(sub)).into_iter().flatten() {
            let path = entry.expect("corpus directory readable").path();
            if path.extension().is_some_and(|e| e == "trace") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    assert!(!paths.is_empty(), "no committed corpus under {root:?}");

    let mut seed: Vec<TraceRecord> = Vec::new();
    for path in &paths {
        let bytes = std::fs::read(path).expect("corpus file readable");
        let reader = TraceReader::new(bytes.as_slice()).expect("valid corpus trace");
        seed.extend(reader.map(|rec| rec.expect("valid corpus record")));
    }
    assert!(!seed.is_empty(), "committed corpus decoded to no records");

    let mut out = Vec::new();
    let mut writer = TraceWriter::new(&mut out).expect("in-memory trace");
    for rec in seed.iter().cycle().take(REPLAY_LEN) {
        writer.write_record(rec).expect("record round-trips");
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

/// Streaming: decode chunk by chunk straight into the pipeline.
fn replay_streamed(bytes: &[u8]) -> u64 {
    session()
        .replay_stream(bytes, CYCLE_SPACING)
        .expect("streaming replay succeeds")
        .records
}

/// Wall time in seconds of one replay of the trace.
fn seconds(run: impl FnOnce() -> u64) -> f64 {
    let start = Instant::now();
    assert_eq!(black_box(run()), REPLAY_LEN as u64);
    start.elapsed().as_secs_f64()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing bound: run with --release")]
fn streaming_replay_costs_at_most_1_15x_the_buffered_baseline() {
    let bytes = corpus_trace_bytes();
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            // Alternate which side runs first, so neither always follows
            // the other's allocations.
            let (buffered, streamed) = if pair % 2 == 0 {
                let b = seconds(|| replay_buffered(&bytes));
                (b, seconds(|| replay_streamed(&bytes)))
            } else {
                let s = seconds(|| replay_streamed(&bytes));
                (seconds(|| replay_buffered(&bytes)), s)
            };
            streamed / buffered
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[PAIRS / 2];
    println!(
        "replay cost: streamed/buffered = {ratio:.3} (median of {PAIRS} pairs; \
         range {:.3}..{:.3})",
        ratios[0],
        ratios[PAIRS - 1]
    );
    assert!(
        ratio <= BOUND,
        "streaming replay regressed: {ratio:.3}x the Vec-buffered baseline (gate: {BOUND}x)"
    );
}
