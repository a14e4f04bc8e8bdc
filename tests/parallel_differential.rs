//! Differential proof that the sharded parallel engine is bit-identical
//! to serial emulation — the acceptance gate for the parallel snoop path.
//!
//! Two layers:
//!
//! * End-to-end: the same OLTP / DSS / SPLASH2 traffic driven through an
//!   [`EmulationSession`] at 1, 2, 4, and 8 shards must produce the
//!   *identical* full statistics dump (every 40-bit counter of every
//!   node, the global counters, and the retry count).
//! * Property: shard-local [`GlobalCounters`] merged in any grouping
//!   equal the serially observed totals — the merge is a commutative
//!   monoid over disjoint sub-streams.

use memories::{CacheParams, Counter40, GlobalCounters};
use memories_bus::{Address, BusOp, ProcId, SnoopResponse, Transaction};
use memories_console::{
    ChunkedTraceSource, EmulationSession, ExecutionOptions, ExperimentResult, MonitoredRun,
    PipelinedLiveSource,
};
use memories_host::HostConfig;
use memories_obs::export;
use memories_workloads::splash::Fmm;
use memories_workloads::{DssConfig, DssWorkload, OltpConfig, OltpWorkload, Workload};
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

fn host() -> HostConfig {
    HostConfig {
        num_cpus: 8,
        inner_cache: None,
        outer_cache: memories_bus::Geometry::new(128 << 10, 4, 128).unwrap(),
        ..HostConfig::s7a()
    }
}

/// A Figure 4 parallel-configuration board: four cache candidates, each
/// its own coherence domain — the shape the sharded engine accelerates.
fn board() -> memories::BoardConfig {
    memories::BoardConfig::parallel_configs(
        vec![
            params(1 << 20),
            params(2 << 20),
            params(4 << 20),
            params(8 << 20),
        ],
        (0..8).map(ProcId::new).collect(),
    )
    .unwrap()
}

fn run(make: &dyn Fn() -> Box<dyn Workload>, shards: usize, refs: u64) -> ExperimentResult {
    let session = EmulationSession::builder()
        .host(host())
        .board(board())
        .parallelism(shards)
        .build()
        .unwrap();
    let mut workload = make();
    session.run(&mut *workload, refs).unwrap()
}

fn assert_shards_match_serial(name: &str, make: &dyn Fn() -> Box<dyn Workload>, refs: u64) {
    let serial = run(make, 1, refs);
    assert_eq!(
        serial.retries_posted, 0,
        "{name}: healthy run must not retry"
    );
    for shards in [2usize, 4, 8] {
        let parallel = run(make, shards, refs);
        assert_eq!(
            serial.board.statistics_report(),
            parallel.board.statistics_report(),
            "{name}: {shards}-shard statistics dump diverged from serial"
        );
        assert_eq!(
            serial.retries_posted, parallel.retries_posted,
            "{name}: {shards}-shard retry count diverged"
        );
        for (node, (s, p)) in serial
            .node_stats
            .iter()
            .zip(&parallel.node_stats)
            .enumerate()
        {
            assert_eq!(
                s, p,
                "{name}: node {node} counters diverged at {shards} shards"
            );
        }
        assert_eq!(serial.bus.transactions, parallel.bus.transactions);
        assert_eq!(
            serial.machine.total_loads() + serial.machine.total_stores(),
            parallel.machine.total_loads() + parallel.machine.total_stores(),
        );
    }
}

#[test]
fn oltp_traffic_is_bit_identical_across_shard_counts() {
    let make: Box<dyn Fn() -> Box<dyn Workload>> = Box::new(|| {
        Box::new(OltpWorkload::new(OltpConfig {
            journal: None,
            ..OltpConfig::scaled_default()
        }))
    });
    assert_shards_match_serial("oltp", &*make, 30_000);
}

#[test]
fn dss_traffic_is_bit_identical_across_shard_counts() {
    let make: Box<dyn Fn() -> Box<dyn Workload>> =
        Box::new(|| Box::new(DssWorkload::new(DssConfig::scaled_default())));
    assert_shards_match_serial("dss", &*make, 30_000);
}

#[test]
fn splash2_traffic_is_bit_identical_across_shard_counts() {
    let make: Box<dyn Fn() -> Box<dyn Workload>> =
        Box::new(|| Box::new(Fmm::scaled(8, 1 << 14, 7)));
    assert_shards_match_serial("splash2-fmm", &*make, 30_000);
}

fn oltp() -> Box<dyn Fn() -> Box<dyn Workload>> {
    Box::new(|| {
        Box::new(OltpWorkload::new(OltpConfig {
            journal: None,
            ..OltpConfig::scaled_default()
        }))
    })
}

fn run_monitored(
    make: &dyn Fn() -> Box<dyn Workload>,
    shards: usize,
    refs: u64,
    sample_every: Option<u64>,
) -> MonitoredRun {
    let mut builder = EmulationSession::builder()
        .host(host())
        .board(board())
        .parallelism(shards);
    if let Some(period) = sample_every {
        builder = builder.sample_every(period);
    }
    let session = builder.build().unwrap();
    let mut workload = make();
    session
        .run_monitored_pipelined(&mut *workload, refs)
        .unwrap()
}

#[test]
fn run_monitored_without_sampling_is_bit_identical_to_run() {
    let make = oltp();
    let serial = run(&*make, 1, 30_000);
    for shards in [1usize, 2, 4, 8] {
        let monitored = run_monitored(&*make, shards, 30_000, None);
        assert_eq!(
            serial.board.statistics_report(),
            monitored.result.board.statistics_report(),
            "{shards}-shard monitored run diverged from plain serial run"
        );
        assert_eq!(serial.retries_posted, monitored.result.retries_posted);
        assert!(monitored.series.is_empty(), "no sampling was requested");
    }
}

#[test]
fn sampling_leaves_final_counters_unchanged_and_exports_jsonl() {
    // The acceptance setup: OLTP monitored at a 4096-admitted-transaction
    // sampling period must end with exactly the counters of an
    // unmonitored run, and its JSONL series must show the cumulative
    // miss rate settling as the trace grows (the paper's Case Study 1
    // argument, §5.1, as a live time series).
    let make = oltp();
    let refs = 120_000;
    let serial = run(&*make, 1, refs);
    let monitored = run_monitored(&*make, 4, refs, Some(4096));

    assert_eq!(
        serial.board.statistics_report(),
        monitored.result.board.statistics_report(),
        "sampling barriers must not change final counters"
    );
    let points = monitored.series.points();
    assert!(
        points.len() >= 2,
        "need at least two windows, got {}",
        points.len()
    );

    // Export: one JSON object per sample, carrying the series columns.
    let text = export::jsonl_string(&monitored.series);
    assert_eq!(text.lines().count(), points.len());
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for column in ["\"admitted\":", "\"miss_rate\":", "\"window_miss_rate\":"] {
            assert!(line.contains(column), "missing {column} in {line}");
        }
    }
    let csv = export::csv_string(&monitored.series);
    assert_eq!(csv.lines().count(), points.len() + 1);

    // Convergence: the cumulative miss rate moves less between the last
    // two samples than between the first two (cold misses dominate early
    // windows; the estimate settles with trace length).
    let first_step = (points[1].cumulative.miss_rate() - points[0].cumulative.miss_rate()).abs();
    let last = points.len() - 1;
    let last_step =
        (points[last].cumulative.miss_rate() - points[last - 1].cumulative.miss_rate()).abs();
    assert!(
        last_step <= first_step || last_step < 0.01,
        "cumulative miss rate is not converging: first step {first_step}, last step {last_step}"
    );
}

#[test]
fn adversarial_sampling_periods_are_bit_identical_across_shard_counts() {
    // Sampling barriers at hostile periods: every admitted transaction
    // (period 1), a tiny period that never aligns with anything (3), a
    // prime that lands mid-block at every block size (997), and a period
    // larger than the live source's 4096-transaction block (5000). At
    // each period the sampled series and the final statistics dump must
    // agree exactly across 1, 2, 4, and 8 shards — a snapshot barrier is
    // only correct if it drains in-flight batches no matter where the
    // sampler cuts the blocks.
    let make = oltp();
    let refs = 12_000;
    let plain = run(&*make, 1, refs);
    for period in [1u64, 3, 997, 5000] {
        let serial = run_monitored(&*make, 1, refs, Some(period));
        assert_eq!(
            plain.board.statistics_report(),
            serial.result.board.statistics_report(),
            "period {period}: sampling changed serial final counters"
        );
        assert!(
            !serial.series.is_empty(),
            "period {period}: serial run never sampled"
        );
        for shards in [2usize, 4, 8] {
            let parallel = run_monitored(&*make, shards, refs, Some(period));
            assert_eq!(
                serial.result.board.statistics_report(),
                parallel.result.board.statistics_report(),
                "period {period}: {shards}-shard final counters diverged"
            );
            let s = serial.series.points();
            let p = parallel.series.points();
            assert_eq!(
                s.len(),
                p.len(),
                "period {period}: {shards}-shard sample count diverged"
            );
            for (a, b) in s.iter().zip(p) {
                assert_eq!(a.index, b.index, "period {period}, {shards} shards");
                assert_eq!(a.cycle, b.cycle, "period {period}, {shards} shards");
                assert_eq!(
                    a.cumulative, b.cumulative,
                    "period {period}, {shards} shards, sample {}",
                    a.index
                );
                assert_eq!(
                    a.window, b.window,
                    "period {period}, {shards} shards, sample {}",
                    a.index
                );
                assert_eq!(
                    a.snapshot.admitted(),
                    b.snapshot.admitted(),
                    "period {period}, {shards} shards, sample {}",
                    a.index
                );
            }
        }
    }
}

#[test]
fn profiled_windows_are_bit_identical_across_shard_counts() {
    // Windowed miss-ratio profiling used to force the serial path; it now
    // observes through snapshot barriers. The proof: at every shard count
    // the profile — every window boundary, bus cycle, and per-node ratio
    // — must equal the serial profile point for point, and the final
    // statistics dump must be untouched by the mid-run barriers.
    let make = oltp();
    let refs = 24_000;
    let window = 4_000;
    let profiled = |shards: usize| {
        let session = EmulationSession::builder()
            .host(host())
            .board(board())
            .parallelism(shards)
            .build()
            .unwrap();
        let mut workload = make();
        session
            .execute(
                PipelinedLiveSource::new(host(), &mut *workload, refs),
                ExecutionOptions::new().window_refs(window),
            )
            .unwrap()
    };

    let plain = run(&*make, 1, refs);
    let serial = profiled(1);
    assert_eq!(
        plain.board.statistics_report(),
        serial.board.statistics_report(),
        "profiling barriers changed the serial final counters"
    );
    assert_eq!(serial.profile.len(), (refs / window) as usize);
    assert_eq!(serial.profile.last().unwrap().end_ref, refs);
    for point in &serial.profile {
        assert_eq!(point.window_miss_ratio.len(), 4, "one ratio per node");
    }

    for shards in [2usize, 4, 8] {
        let parallel = profiled(shards);
        assert_eq!(
            serial.profile, parallel.profile,
            "{shards}-shard profile diverged from serial"
        );
        assert_eq!(
            serial.board.statistics_report(),
            parallel.board.statistics_report(),
            "{shards}-shard profiled run diverged from serial"
        );
    }
}

/// Deterministic synthetic trace over the 8-CPU board topology: enough
/// sharing and writes to exercise every node's snoop path.
fn synthetic_records(n: u64) -> Vec<memories_trace::TraceRecord> {
    (0..n)
        .map(|i| {
            let op = match i % 7 {
                0 | 3 => BusOp::Rwitm,
                5 => BusOp::DClaim,
                _ => BusOp::Read,
            };
            memories_trace::TraceRecord::from_transaction(&Transaction::new(
                i,
                i * 60,
                ProcId::new((i % 8) as u8),
                op,
                Address::new((i % 4096) * 128),
                SnoopResponse::Null,
            ))
        })
        .collect()
}

/// `records` in the on-disk trace format.
fn encode(records: &[memories_trace::TraceRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = memories_trace::TraceWriter::new(&mut bytes).unwrap();
    for rec in records {
        writer.write_record(rec).unwrap();
    }
    writer.finish().unwrap();
    bytes
}

#[test]
fn replay_is_bit_identical_across_shard_counts() {
    let bytes = encode(&synthetic_records(20_000));
    let replay_at = |shards: usize| {
        let session = EmulationSession::builder()
            .board(board())
            .parallelism(shards)
            .build()
            .unwrap();
        session.replay_stream(bytes.as_slice(), 60).unwrap()
    };

    let serial = replay_at(1);
    assert_eq!(serial.records, 20_000);
    for shards in [2usize, 4, 8] {
        let parallel = replay_at(shards);
        assert_eq!(serial.records, parallel.records);
        assert_eq!(
            serial.board.statistics_report(),
            parallel.board.statistics_report(),
            "{shards}-shard replay diverged from serial"
        );
    }
}

#[test]
fn replay_monitored_series_is_bit_identical_across_shard_counts() {
    let bytes = encode(&synthetic_records(20_000));
    let replay_at = |shards: usize| {
        let session = EmulationSession::builder()
            .board(board())
            .parallelism(shards)
            .build()
            .unwrap();
        session
            .execute(
                ChunkedTraceSource::new(bytes.as_slice(), 60).unwrap(),
                ExecutionOptions::new().sample_every(Some(997)),
            )
            .unwrap()
    };

    let serial = replay_at(1);
    assert!(!serial.series.is_empty());
    for shards in [2usize, 4, 8] {
        let parallel = replay_at(shards);
        assert_eq!(
            serial.board.statistics_report(),
            parallel.board.statistics_report(),
            "{shards}-shard monitored replay diverged from serial"
        );
        let s = serial.series.points();
        let p = parallel.series.points();
        assert_eq!(s.len(), p.len(), "{shards}-shard sample count diverged");
        for (a, b) in s.iter().zip(p) {
            assert_eq!(
                a.cumulative, b.cumulative,
                "{shards} shards, sample {}",
                a.index
            );
            assert_eq!(a.window, b.window, "{shards} shards, sample {}", a.index);
        }
    }
}

#[test]
fn streaming_replay_holds_a_trace_larger_than_every_buffer() {
    // 40_000 records ≫ the streaming reader's 4096-record chunk, so the
    // trace can never fit any single buffer in the pipeline: the
    // whole-trace Vec simply does not exist on this path (the reader's
    // own unit tests pin the O(chunk) allocation bound). The decoded
    // stream must land on the same board as a serial board fed the
    // records one transaction at a time, at any parallelism.
    use memories_bus::BusListener as _;

    let records = synthetic_records(40_000);
    let bytes = encode(&records);
    let mut buffered = memories::MemoriesBoard::new(board()).unwrap();
    for (i, rec) in (0u64..).zip(&records) {
        buffered.on_transaction(&rec.to_transaction(i, i * 60));
    }

    for shards in [1usize, 4] {
        let session = EmulationSession::builder()
            .board(board())
            .parallelism(shards)
            .build()
            .unwrap();
        let streamed = session.replay_stream(bytes.as_slice(), 60).unwrap();
        assert_eq!(streamed.records, 40_000);
        assert_eq!(
            buffered.statistics_report(),
            streamed.board.statistics_report(),
            "{shards}-shard streaming replay diverged from buffered serial"
        );
    }
}

#[test]
fn counter40_saturation_survives_exact_max_merge() {
    // Regression: a saturated shard part whose clamped value makes the
    // merged sum land exactly on Counter40::MAX used to lose the
    // `saturated` flag (the merge re-added values and checked `> MAX`).
    let mut total = Counter40::of(Counter40::MAX + 5); // clamped, flagged
    assert!(total.saturated());
    total.merge(Counter40::of(0));
    assert_eq!(total.value(), Counter40::MAX);
    assert!(
        total.saturated(),
        "merge must carry the part's saturation flag"
    );
}

fn arb_transaction() -> impl Strategy<Value = (u8, u8, u64, u64)> {
    (
        0u8..BusOp::ALL.len() as u8,
        0u8..8,
        0u64..(1u64 << 20),
        1u64..32,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shard-merged global counters equal serial observation, for any
    /// transaction stream and any number of shard-local counter banks:
    /// dealing the stream round-robin over k banks and merging them
    /// reproduces the serially observed totals exactly.
    #[test]
    fn shard_merged_global_counters_equal_serial_totals(
        raw in prop::collection::vec(arb_transaction(), 1..400),
        k in 1usize..9,
    ) {
        let mut cycle = 0u64;
        let txns: Vec<Transaction> = raw
            .iter()
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
            .collect();

        let mut serial = GlobalCounters::default();
        for t in &txns {
            serial.observe(t);
        }

        let mut banks = vec![GlobalCounters::default(); k];
        for (i, t) in txns.iter().enumerate() {
            banks[i % k].observe(t);
        }
        let mut merged = GlobalCounters::default();
        for bank in &banks {
            merged.merge(bank);
        }

        prop_assert_eq!(merged.transactions(), serial.transactions());
        for op in BusOp::ALL {
            prop_assert_eq!(merged.count(op), serial.count(op));
        }
        prop_assert_eq!(
            merged.observed_span_cycles(),
            serial.observed_span_cycles()
        );
    }

    /// The 40-bit counters' saturation flag survives any sharded merge:
    /// folding per-shard parts (some possibly saturated) in any grouping
    /// reports `saturated` exactly when serially accumulating every
    /// contribution would — including the sum-lands-exactly-on-MAX edge.
    #[test]
    fn counter40_saturation_survives_parallel_merge(
        parts in prop::collection::vec(0u64..Counter40::MAX + 1000, 1..8),
    ) {
        // Serial reference: one counter absorbing every contribution.
        let mut serial = Counter40::new();
        for &p in &parts {
            serial.add(p);
        }

        // Parallel path: per-shard counters merged pairwise, as the
        // engine does with per-shard GlobalCounters banks at finish.
        let mut merged = Counter40::new();
        for &p in &parts {
            merged.merge(Counter40::of(p));
        }

        prop_assert_eq!(merged.value(), serial.value());
        prop_assert_eq!(merged.saturated(), serial.saturated());
    }
}
