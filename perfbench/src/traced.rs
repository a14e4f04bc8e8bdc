//! The traced run: times each layer in isolation, calling that layer's
//! public functions from here on the workload's own input, and prints
//! the per-layer metrics.
//!
//! Every layer is measured on every workload. Where a layer has no work
//! on a workload's product path, it is measured on the host-side
//! counterpart of that workload's input (see `README.md`): the DSS run
//! that produced the `replay-dss` trace, and the `stream-shared` stream's
//! reads and writes issued as host loads and stores.

use std::hint::black_box;
use std::time::{Duration, Instant};

use memories::{BoardConfig, MemoriesBoard, NodeSlot};
use memories_bus::{
    BlockPool, BusListener, BusOp, ListenerReaction, SystemBus, Transaction, TransactionBlock,
};
use memories_console::Shared;
use memories_host::HostMachine;
use memories_sim::{EmulationEngine, EngineConfig};
use memories_trace::{TraceReader, TraceWriter};
use memories_workloads::{MemRef, Workload, WorkloadEvent};

use crate::gate::Fingerprint;
use crate::inputs::{
    self, apply, BenchResult, Input, Kind, SharedStream, Sizes, Source, Traffic, CYCLE_SPACING,
    SAMPLE_EVERY, SHARED_FOOTPRINT,
};
use crate::report::{median, Metric, Outcome};

/// Transactions per block wherever a layer takes blocks: the capacity
/// the live sources and the engine use.
const BLOCK: usize = 4096;

/// Per-layer metrics that are simulated counts: for a seed they repeat
/// bit for bit, at any parallelism.
pub const EXACT: [&str; 10] = [
    "host.bus_txn_per_kref",
    "trace.bytes_per_record",
    "filter.admit_ratio",
    "snoop.hit_ratio.n0",
    "snoop.hit_ratio.n1",
    "snoop.hit_ratio.n2",
    "snoop.hit_ratio.n3",
    "snoop.evictions_per_ktxn",
    "snoop.interventions_per_ktxn",
    "obs.samples",
];

/// References of the DSS run the host-side layers of `replay-dss` replay:
/// enough for steady per-reference costs, without holding the whole
/// capture run's events in memory.
const HOST_SIDE_REFS: u64 = 1_500_000;

/// Coverage band of `layers.sum_over_serial` outside which the traced
/// run names the unaccounted time.
const COVERAGE: (f64, f64) = (0.85, 1.15);

/// Records every bus transaction, for building a workload's raw stream.
#[derive(Default)]
struct Collect(Vec<Transaction>);

impl BusListener for Collect {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        self.0.push(*txn);
        ListenerReaction::Proceed
    }
}

/// Accepts blocks and does nothing: isolates the cost of bus delivery.
struct Discard;

impl BusListener for Discard {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        black_box(txn);
        ListenerReaction::Proceed
    }

    fn on_block(&mut self, block: &TransactionBlock) -> ListenerReaction {
        black_box(block.len());
        ListenerReaction::Proceed
    }
}

/// Replays recorded host events as a workload, so the pipelined producer
/// can run the host-side counterpart of a non-live input.
struct Replay<'a> {
    events: &'a [WorkloadEvent],
    footprint: u64,
    at: usize,
}

impl Workload for Replay<'_> {
    fn name(&self) -> &str {
        "replay"
    }

    fn num_cpus(&self) -> usize {
        8
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn next_event(&mut self) -> WorkloadEvent {
        let event = self.events[self.at % self.events.len()];
        self.at += 1;
        event
    }
}

/// Everything the layer timings need, built off the clock from the
/// workload's input.
struct Prepared {
    input: Input,
    /// Host-side events: the workload's own events, or the stream's
    /// reads and writes as loads and stores.
    events: Vec<WorkloadEvent>,
    /// References among `events`.
    refs: u64,
    /// The raw bus stream the board's front end observes.
    raw: Vec<Transaction>,
    /// The bus stream the host side produces from `events` (`raw` itself
    /// for `live-oltp`).
    host_bus: Vec<Transaction>,
    /// The memory transactions of `raw` encoded as a trace.
    trace: Vec<u8>,
    /// The transactions the filter admits, in stream order.
    admitted: Vec<Transaction>,
    /// The serial reference board.
    reference: Fingerprint,
}

fn host_events(input: &Input, sizes: Sizes) -> (Vec<WorkloadEvent>, u64) {
    let collect = |workload: &mut dyn Workload, refs: u64| {
        let mut events = Vec::new();
        let mut done = 0;
        while done < refs {
            let e = workload.next_event();
            done += u64::from(matches!(e, WorkloadEvent::Ref(_)));
            events.push(e);
        }
        (events, refs)
    };
    match &input.source {
        Source::Live { refs } => collect(&mut inputs::oltp(input.seed), *refs),
        Source::Trace(_) => collect(
            &mut inputs::dss(input.seed),
            sizes.dss_refs.min(HOST_SIDE_REFS),
        ),
        Source::Stream(txns) => {
            let events: Vec<_> = txns
                .iter()
                .filter_map(|t| {
                    let cpu = t.proc.index();
                    match t.op {
                        BusOp::Read => Some(MemRef::load(cpu, t.addr)),
                        BusOp::Rwitm | BusOp::DClaim => Some(MemRef::store(cpu, t.addr)),
                        _ => None,
                    }
                })
                .map(WorkloadEvent::Ref)
                .collect();
            let refs = events.len() as u64;
            (events, refs)
        }
    }
}

/// The bus stream a host produces from `events`.
fn host_bus(events: &[WorkloadEvent]) -> BenchResult<Vec<Transaction>> {
    let mut machine = HostMachine::new(inputs::host())?;
    let collect = Shared::new(Collect::default());
    machine.attach_listener(Box::new(collect.handle()));
    for e in events {
        apply(&mut machine, *e);
    }
    drop(machine.detach_listeners());
    Ok(collect
        .try_unwrap()
        .map_err(|_| "collector still attached after detaching listeners")?
        .0)
}

/// The transactions a trace replays, numbered and timed as
/// `replay_stream` numbers them.
fn decode(bytes: &[u8]) -> BenchResult<Vec<Transaction>> {
    let mut reader = TraceReader::new(bytes)?;
    let mut block = TransactionBlock::with_capacity(BLOCK);
    let mut raw = Vec::new();
    while reader.read_block(&mut block, raw.len() as u64, CYCLE_SPACING)? > 0 {
        raw.extend_from_slice(block.as_slice());
    }
    Ok(raw)
}

fn encode(raw: &[Transaction]) -> BenchResult<Vec<u8>> {
    let mut bytes = Vec::new();
    let mut writer = TraceWriter::new(&mut bytes)?;
    for txn in raw.iter().filter(|t| t.op.is_memory()) {
        writer.write_transaction(txn)?;
    }
    writer.finish()?;
    Ok(bytes)
}

fn prepare(kind: Kind, seed: u64, sizes: Sizes) -> BenchResult<Prepared> {
    let input = Input::build(kind, seed, sizes)?;
    let reference = input.serial()?.board;
    Traffic::of(&reference).check_floors(kind)?;
    let (events, refs) = host_events(&input, sizes);
    let host_bus = host_bus(&events)?;
    let raw = match &input.source {
        Source::Live { .. } => host_bus.clone(),
        Source::Stream(txns) => txns.clone(),
        Source::Trace(bytes) => decode(bytes)?,
    };
    let trace = match &input.source {
        Source::Trace(bytes) => bytes.clone(),
        _ => encode(&raw)?,
    };
    let mut front = MemoriesBoard::new(input.board.clone())?.split(1).0;
    let admitted = raw.iter().copied().filter(|t| front.observe(t)).collect();
    Ok(Prepared {
        reference: Fingerprint::of(&reference),
        input,
        events,
        refs,
        raw,
        host_bus,
        trace,
        admitted,
    })
}

/// One slot of `board` alone, keeping the other nodes of its domain as
/// remote CPUs so its local/remote split is unchanged.
fn one_slot(board: &BoardConfig, node: usize) -> BenchResult<BoardConfig> {
    let slot = &board.slots[node];
    let mut remote: Vec<_> = board
        .slots
        .iter()
        .filter(|s| s.domain == slot.domain)
        .flat_map(|s| s.cpus.iter().chain(&s.remote_cpus))
        .copied()
        .filter(|c| !slot.cpus.contains(c))
        .collect();
    remote.sort_by_key(|c| c.index());
    remote.dedup();
    let mut config = BoardConfig::from_slots(vec![NodeSlot {
        domain: 0,
        remote_cpus: remote,
        ..slot.clone()
    }])?;
    config.filter = board.filter;
    config.timing = board.timing;
    config.allow_retry = board.allow_retry;
    Ok(config)
}

/// Seconds one call of `f` takes.
fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The samples of one round of layer timings, one vector per metric.
#[derive(Default)]
struct Samples {
    names: Vec<(String, &'static str)>,
    values: Vec<Vec<f64>>,
}

impl Samples {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.names.iter().position(|(n, _)| *n == name) {
            Some(i) => self.values[i].push(value),
            None => {
                self.names.push((name, unit));
                self.values.push(vec![value]);
            }
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.names
            .iter()
            .position(|(n, _)| n == name)
            .map_or(0.0, |i| median(&self.values[i]))
    }

    fn metrics(&self) -> Vec<Metric> {
        self.names
            .iter()
            .zip(&self.values)
            .map(|((n, u), v)| Metric::new(n.clone(), median(v), u))
            .collect()
    }
}

/// Gate bookkeeping for the traced run's own board-producing layers.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn check(&mut self, layer: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("traced {layer}: final counters differ from the serial reference");
        }
    }
}

/// One round: every layer once. Layer totals (seconds) go to `totals`
/// under the layer name, per-layer metrics to `out`.
fn round(
    p: &Prepared,
    parallelism: usize,
    out: &mut Samples,
    totals: &mut Samples,
    gate: &mut Gate,
    sampled_first: bool,
) -> BenchResult<()> {
    let ns = |secs: f64, n: usize| secs * 1e9 / n.max(1) as f64;

    // workloads: the input's generator alone.
    let workloads_s = match &p.input.source {
        Source::Stream(txns) => {
            let mut g = SharedStream::new(p.input.seed);
            let ((), t) = time(|| {
                for _ in 0..txns.len() {
                    black_box(g.next());
                }
            });
            out.push("workloads.ns_per_event", ns(t, txns.len()), "ns");
            t
        }
        _ => {
            let mut w: Box<dyn Workload> = match &p.input.source {
                Source::Live { .. } => Box::new(inputs::oltp(p.input.seed)),
                _ => Box::new(inputs::dss(p.input.seed)),
            };
            let ((), t) = time(|| {
                for _ in 0..p.events.len() {
                    black_box(w.next_event());
                }
            });
            out.push("workloads.ns_per_event", ns(t, p.events.len()), "ns");
            t
        }
    };
    totals.push("workloads", workloads_s, "s");

    // host: the recorded events through a listener-less host.
    let mut machine = HostMachine::new(inputs::host())?;
    let ((), host_s) = time(|| {
        for e in &p.events {
            apply(&mut machine, *e);
        }
    });
    let bus_txns = machine.bus().stats().transactions;
    out.push("host.ns_per_ref", ns(host_s, p.refs as usize), "ns");
    out.push(
        "host.bus_txn_per_kref",
        1000.0 * bus_txns as f64 / p.refs.max(1) as f64,
        "count",
    );
    totals.push("host", host_s, "s");

    // bus: the host-side bus stream through a bus delivering batched
    // blocks to a discarding listener, minus the same stream through a
    // bus with no listener. The two alternate chunk by chunk, each going
    // first half the time, so the host's load changes hit both alike.
    let mut plain = SystemBus::new(inputs::host().bus);
    let mut delivering = SystemBus::new(inputs::host().bus);
    delivering.attach(Box::new(Discard));
    delivering.deliver_batched(BlockPool::new(BLOCK));
    let (mut plain_s, mut delivered_s) = (0.0, 0.0);
    for (i, chunk) in p.host_bus.chunks(BLOCK).enumerate() {
        let drive = |bus: &mut SystemBus| {
            time(|| {
                for t in chunk {
                    black_box(bus.transact(t.proc, t.op, t.addr, t.resp));
                }
            })
            .1
        };
        if i % 2 == 0 {
            plain_s += drive(&mut plain);
            delivered_s += drive(&mut delivering);
        } else {
            delivered_s += drive(&mut delivering);
            plain_s += drive(&mut plain);
        }
    }
    delivered_s += time(|| drop(delivering.detach_all())).1;
    let bus_s = delivered_s - plain_s;
    out.push("bus.deliver_ns_per_txn", ns(bus_s, p.host_bus.len()), "ns");
    totals.push("bus", bus_s, "s");

    // trace: decode the encoded stream block by block.
    let mut block = TransactionBlock::with_capacity(BLOCK);
    let (records, trace_s) = time(|| -> BenchResult<u64> {
        let mut reader = TraceReader::new(p.trace.as_slice())?;
        let mut n = 0u64;
        loop {
            let got = reader.read_block(&mut block, n, CYCLE_SPACING)?;
            if got == 0 {
                return Ok(n);
            }
            n += got as u64;
        }
    });
    let records = records?;
    out.push(
        "trace.decode_ns_per_record",
        ns(trace_s, records as usize),
        "ns",
    );
    out.push(
        "trace.bytes_per_record",
        p.trace.len() as f64 / records.max(1) as f64,
        "B",
    );
    totals.push("trace", trace_s, "s");

    // filter: the front end of a split board, block by block.
    let mut front = MemoriesBoard::new(p.input.board.clone())?.split(2).0;
    let mut filter_s = 0.0;
    for chunk in p.raw.chunks(BLOCK) {
        block.clear();
        for t in chunk {
            block.push(*t);
        }
        let ((), t) = time(|| front.filter_block(&mut block));
        filter_s += t;
    }
    let stats = front.filter().stats();
    out.push("filter.ns_per_txn", ns(filter_s, p.raw.len()), "ns");
    out.push(
        "filter.admit_ratio",
        stats.forwarded as f64 / stats.seen.max(1) as f64,
        "ratio",
    );
    totals.push("filter", filter_s, "s");

    // snoop: a serial board on the admitted stream, then each node's
    // configuration alone.
    let mut board = MemoriesBoard::new(p.input.board.clone())?;
    let (_, snoop_s) = time(|| board.observe_block(&p.admitted));
    gate.check(
        "snoop",
        Fingerprint::of(&board).nodes() == p.reference.nodes(),
    );
    out.push("snoop.ns_per_txn", ns(snoop_s, p.admitted.len()), "ns");
    totals.push("snoop", snoop_s, "s");
    for node in 0..p.input.board.slots.len() {
        let mut alone = MemoriesBoard::new(one_slot(&p.input.board, node)?)?;
        let (_, t) = time(|| alone.observe_block(&p.admitted));
        out.push(
            format!("snoop.ns_per_txn.n{node}"),
            ns(t, p.admitted.len()),
            "ns",
        );
    }

    // engine: new -> feed_pooled -> finish at 1 and 2 shards.
    let mut engine_s = [0.0; 2];
    for (i, config) in [EngineConfig::serial(), EngineConfig::parallel(2)]
        .into_iter()
        .enumerate()
    {
        let board = MemoriesBoard::new(p.input.board.clone())?;
        let (finished, t) = time(|| {
            let mut engine = EmulationEngine::new(board, config);
            let pool = BlockPool::new(BLOCK);
            for chunk in p.raw.chunks(BLOCK) {
                let mut b = pool.take();
                for t in chunk {
                    b.push(*t);
                }
                engine.feed_pooled(b);
            }
            engine.finish_monitored()
        });
        let (board, report) = finished?;
        gate.check("engine", Fingerprint::of(&board) == p.reference);
        engine_s[i] = t;
        out.push(
            format!("engine.ns_per_txn.s{}", i + 1),
            ns(t, p.raw.len()),
            "ns",
        );
        if i == 1 {
            let busy: Vec<Duration> = report.telemetry.shards.iter().map(|s| s.busy).collect();
            let (max, min) = (
                busy.iter().max().copied().unwrap_or_default(),
                busy.iter().min().copied().unwrap_or_default(),
            );
            out.push(
                "engine.shard_imbalance",
                max.as_secs_f64() / min.as_secs_f64().max(1e-9),
                "ratio",
            );
        }
    }
    out.push("engine.speedup_2v1", engine_s[0] / engine_s[1], "ratio");

    // engine barriers: a 2-shard engine with a barrier every 4096
    // admitted transactions. The whole run is the board side of a
    // monitored live run.
    let board = MemoriesBoard::new(p.input.board.clone())?;
    let start = Instant::now();
    let mut engine = EmulationEngine::new(board, EngineConfig::parallel(2));
    let pool = BlockPool::new(BLOCK);
    let (mut barriers, mut barrier_s, mut next) = (0u32, 0.0, SAMPLE_EVERY);
    for chunk in p.raw.chunks(BLOCK) {
        let mut b = pool.take();
        for t in chunk {
            b.push(*t);
        }
        engine.feed_pooled(b);
        if engine.admitted() >= next {
            let (snap, t) = time(|| engine.barrier());
            snap?;
            barriers += 1;
            barrier_s += t;
            next = engine.admitted() + SAMPLE_EVERY;
        }
    }
    let board = engine.finish()?;
    totals.push("board", start.elapsed().as_secs_f64(), "s");
    gate.check("barrier", Fingerprint::of(&board) == p.reference);
    out.push(
        "engine.barrier_us",
        barrier_s * 1e6 / f64::from(barriers.max(1)),
        "us",
    );

    // pipeline and obs: the product path with and without sampling at
    // `parallelism` (alternating which runs first), and the pipelined
    // producer on the host side.
    let (sampled, plain) = if sampled_first {
        let sampled = p.input.run(parallelism, true)?;
        (sampled, p.input.run(parallelism, false)?)
    } else {
        let plain = p.input.run(parallelism, false)?;
        (p.input.run(parallelism, true)?, plain)
    };
    gate.check("obs", Fingerprint::of(&sampled.board) == p.reference);
    gate.check("obs", Fingerprint::of(&plain.board) == p.reference);
    // The exact traffic certificate, read off the product path at
    // `parallelism`.
    let traffic = Traffic::of(&plain.board);
    for (i, h) in traffic.hit_ratio.iter().enumerate() {
        out.push(format!("snoop.hit_ratio.n{i}"), *h, "ratio");
    }
    out.push(
        "snoop.evictions_per_ktxn",
        traffic.evictions_per_ktxn,
        "count",
    );
    out.push(
        "snoop.interventions_per_ktxn",
        traffic.interventions_per_ktxn,
        "count",
    );
    out.push("obs.samples", sampled.samples as f64, "count");
    out.push("obs.sampling_overhead", sampled.secs / plain.secs, "ratio");
    let telemetry = match &p.input.source {
        Source::Live { .. } => sampled.telemetry,
        _ => {
            let session = p.input.session(parallelism, true)?;
            let mut replay = Replay {
                events: &p.events,
                footprint: match &p.input.source {
                    Source::Stream(_) => SHARED_FOOTPRINT,
                    _ => inputs::dss(p.input.seed).footprint_bytes(),
                },
                at: 0,
            };
            session
                .run_monitored_pipelined(&mut replay, p.refs)?
                .telemetry
        }
    };
    out.push(
        "pipeline.producer_stall_ratio",
        telemetry.producer_stalls as f64 / telemetry.producer_blocks.max(1) as f64,
        "ratio",
    );
    out.push(
        "pipeline.consumer_stalls",
        telemetry.consumer_stalls as f64,
        "count",
    );

    // The serial end-to-end run the layer times must add up to.
    let serial = p.input.serial()?;
    gate.check("serial", Fingerprint::of(&serial.board) == p.reference);
    totals.push("serial", serial.secs, "s");
    Ok(())
}

/// The layers on each workload's serial path, whose isolated times
/// `layers.sum_over_serial` adds up.
fn serial_layers(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::LiveOltp => &["workloads", "host", "bus", "filter", "snoop"],
        Kind::StreamShared => &["filter", "snoop"],
        Kind::ReplayDss => &["trace", "filter", "snoop"],
    }
}

/// Runs the traced measurement of `kind` for `seed`: rounds of every
/// layer until `seconds` have passed (at least one), medians reported.
/// Product-path runs inside the round use `parallelism` shards.
///
/// # Errors
///
/// Set-up, reference or layer failures, or a reference that misses its
/// workload's floors.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    sizes: Sizes,
    parallelism: usize,
) -> BenchResult<Outcome> {
    let p = prepare(kind, seed, sizes)?;
    let mut out = Samples::default();
    let mut totals = Samples::default();
    let mut gate = Gate::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for rounds in 0.. {
        round(
            &p,
            parallelism,
            &mut out,
            &mut totals,
            &mut gate,
            rounds % 2 == 0,
        )?;
        if Instant::now() >= deadline {
            break;
        }
    }

    let layers = serial_layers(kind);
    let sum: f64 = layers.iter().map(|l| totals.median(l)).sum();
    let serial = totals.median("serial");
    let ratio = sum / serial;
    out.push("layers.sum_over_serial", ratio, "ratio");

    let mut notes = vec![format!(
        "layer seconds ({}): {}; serial end-to-end {serial:.4}s",
        kind.name(),
        layers
            .iter()
            .map(|l| format!("{l} {:.4}", totals.median(l)))
            .collect::<Vec<_>>()
            .join(", ")
    )];
    let bottleneck = layers
        .iter()
        .max_by(|a, b| totals.median(a).total_cmp(&totals.median(b)))
        .expect("every workload has serial layers");
    notes.push(format!("bottleneck: {bottleneck}"));
    if !(COVERAGE.0..=COVERAGE.1).contains(&ratio) {
        notes.push(format!(
            "unaccounted: {:.4}s of the {serial:.4}s serial run is outside the isolated layers ({})",
            serial - sum,
            unaccounted_hint(kind)
        ));
    }
    if kind == Kind::LiveOltp {
        let producer = ["workloads", "host", "bus"]
            .iter()
            .map(|l| totals.median(l))
            .sum::<f64>();
        let board = totals.median("board");
        let stalls = out.median("pipeline.producer_stall_ratio");
        notes.push(format!(
            "live-oltp bound by the {}: host side (workloads, host, bus) {producer:.4}s vs board side (2-shard engine with barriers) {board:.4}s; producer stalled on {:.0}% of blocks",
            if board > producer { "board" } else { "host" },
            100.0 * stalls
        ));
    }
    Ok(Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: out.metrics(),
        notes,
    })
}

fn unaccounted_hint(kind: Kind) -> &'static str {
    match kind {
        Kind::LiveOltp => "per-block pipeline dispatch and the serial board's retry bookkeeping",
        Kind::StreamShared => "per-transaction pipeline feed of the stream source",
        Kind::ReplayDss => "block pooling and pipeline dispatch of the chunked source",
    }
}
