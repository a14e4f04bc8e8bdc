//! Coverage-guided differential fuzzing across the three engines.
//!
//! Every generated transaction stream is replayed through six
//! implementations of the same semantics:
//!
//! 1. the reference model ([`MultiNodeSim`], untimed, per-line hash maps),
//! 2. the serial [`MemoriesBoard`] via a serial [`EmulationEngine`],
//! 3. the parallel [`EmulationEngine`] at each configured shard count,
//!    fed pooled blocks of 512 records, cut at every mid-stream snapshot
//!    barrier (fixed record indices),
//! 4. the streaming-replay path: the stream round-trips through the
//!    on-disk trace codec ([`TraceWriter`] →
//!    [`TraceReader::read_block`]) and replays one decoded pooled block
//!    at a time,
//! 5. the block-native path: transactions accumulate in pooled
//!    [`memories_bus::TransactionBlock`]s and reach the board through
//!    `BusListener::on_block` (the batched bus-delivery data path), and
//! 6. for single-node all-local topologies, the trace-driven [`CacheSim`].
//!
//! Any counter or snapshot divergence fails the stream, which is then
//! shrunk (chunk-removal delta debugging) to a minimal counterexample and
//! optionally written to disk. Streams that exercise new protocol-table
//! cells or light up new counters join the corpus. Everything is
//! deterministic: one seeded generator, corpus replayed in sorted order,
//! snapshots at fixed indices rather than engine-internal periods.

use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use memories::{
    BoardConfig, BoardSnapshot, CacheParams, Error, MemoriesBoard, NodeCounter, NodeSlot,
    TimingConfig,
};
use memories_bus::{BlockPool, BusListener, BusOp, ProcId};
use memories_protocol::ProtocolTable;
use memories_sim::{compare_counts, CacheSim, EmulationEngine, EngineConfig, MultiNodeSim};
use memories_trace::{TraceReader, TraceRecord, TraceWriter};

use crate::corpus;
use crate::coverage::Coverage;
use crate::gen::StreamGenerator;

/// One emulated node: `(cache parameters, protocol, coherence domain,
/// local CPUs)` — the same slot tuple [`MultiNodeSim::new`] takes.
pub type NodeSlotSpec = (CacheParams, ProtocolTable, u8, Vec<ProcId>);

/// Fuzzer tuning knobs. The defaults match the CI verification job.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed; the only entropy source of a run.
    pub seed: u64,
    /// Generated inputs to try (corpus replay is not counted).
    pub iterations: usize,
    /// Optional wall-clock budget; the run stops early once exceeded.
    /// Note a time box trades away determinism of the *iteration count*
    /// (found counterexamples are still deterministic per iteration).
    pub time_box: Option<Duration>,
    /// Longest stream, fresh or mutated. Fresh streams are at least
    /// 16 records long, or `max_len` if that is shorter.
    pub max_len: usize,
    /// Parallel shard counts to differentiate against the serial engine.
    pub shards: Vec<usize>,
    /// Snapshot barrier period, in trace records (a prime, so barriers
    /// land mid-block at every block size).
    pub sample_period: usize,
    /// Requester-id space of generated streams (`0..procs`); ids outside
    /// every node's partition exercise the filter-drop path.
    pub procs: u8,
    /// Corpus directory to replay (and, with `write_corpus`, extend).
    pub corpus_dir: Option<PathBuf>,
    /// Whether coverage-adding streams are written back to `corpus_dir`.
    /// Off by default so routine runs leave the committed corpus fixed.
    pub write_corpus: bool,
    /// Where shrunk counterexamples are written (if anywhere).
    pub counterexample_dir: Option<PathBuf>,
}

/// Shortest fresh stream (unless `max_len` is shorter).
const MIN_LEN: usize = 16;
/// Records per block fed to the engine and to the block-native board
/// (small, to force frequent hand-offs).
const BATCH: usize = 512;
/// Bus cycles between consecutive records.
const CYCLE_SPACING: u64 = 60;
/// Line pool size of generated streams (small: maximal collisions).
const LINES: u64 = 64;
/// Maximum stream executions the shrinker may spend.
const SHRINK_BUDGET: usize = 2_000;

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x4d49_4553, // "MIES"
            iterations: 200,
            time_box: None,
            max_len: 2048,
            shards: vec![2, 4, 8],
            sample_period: 257,
            procs: 10,
            corpus_dir: None,
            write_corpus: false,
            counterexample_dir: None,
        }
    }
}

/// A shrunk failing stream plus the divergence it provokes.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The minimized stream.
    pub records: Vec<TraceRecord>,
    /// Human-readable description of the first divergence.
    pub divergence: String,
    /// Length of the stream before shrinking.
    pub original_len: usize,
    /// Where the counterexample was saved, if a directory was configured.
    pub path: Option<PathBuf>,
}

/// What a fuzz run produced.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Generated inputs actually executed.
    pub iterations: usize,
    /// Corpus size at the end of the run (replayed + newly interesting).
    pub corpus_entries: usize,
    /// Distinct coverage keys observed (table cells + lit counters).
    pub coverage: usize,
    /// The first divergence found, shrunk — `None` on a clean run.
    pub counterexample: Option<Counterexample>,
}

impl FuzzReport {
    /// Whether the run found no divergence.
    pub fn is_clean(&self) -> bool {
        self.counterexample.is_none()
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fuzz: {} iterations, {} corpus entries, {} coverage keys: ",
            self.iterations, self.corpus_entries, self.coverage
        )?;
        match &self.counterexample {
            None => write!(f, "no divergence"),
            Some(cex) => {
                write!(
                    f,
                    "DIVERGENCE ({} records, shrunk from {}): {}",
                    cex.records.len(),
                    cex.original_len,
                    cex.divergence
                )?;
                if let Some(path) = &cex.path {
                    write!(f, " [saved to {}]", path.display())?;
                }
                Ok(())
            }
        }
    }
}

/// Result of replaying one stream through one engine configuration.
struct EngineRun {
    snaps: Vec<BoardSnapshot>,
    final_snap: BoardSnapshot,
    report: String,
}

/// The coverage-guided differential fuzzer over one board topology.
pub struct DifferentialFuzzer {
    slots: Vec<NodeSlotSpec>,
    config: FuzzConfig,
}

impl DifferentialFuzzer {
    /// Creates a fuzzer for the given topology. Fails fast if the slots
    /// do not form a valid board.
    pub fn new(slots: Vec<NodeSlotSpec>, config: FuzzConfig) -> Result<Self, Error> {
        let fuzzer = DifferentialFuzzer { slots, config };
        fuzzer.board_config()?; // validate topology once, eagerly
        Ok(fuzzer)
    }

    /// The board configuration every engine run starts from.
    fn board_config(&self) -> Result<BoardConfig, Error> {
        let slots = self
            .slots
            .iter()
            .map(|(params, protocol, domain, cpus)| {
                NodeSlot::new(*params, cpus.iter().copied())
                    .with_protocol(protocol.clone())
                    .in_domain(*domain)
            })
            .collect();
        let mut cfg = BoardConfig::from_slots(slots)?;
        // The reference model is untimed; give the board enough buffering
        // that timing never drops or retries events.
        cfg.timing = TimingConfig {
            buffer_capacity: 1 << 20,
        };
        Ok(cfg)
    }

    /// Replays `records` through an engine with `shards` workers
    /// (1 = serial) in pooled blocks of [`BATCH`] records,
    /// cutting a block and taking a snapshot barrier every
    /// [`FuzzConfig::sample_period`] records.
    fn run_engine(&self, records: &[TraceRecord], shards: usize) -> Result<EngineRun, Error> {
        let board = MemoriesBoard::new(self.board_config()?)?;
        let cfg = if shards <= 1 {
            EngineConfig::serial()
        } else {
            EngineConfig::parallel(shards)
        };
        let mut engine = EmulationEngine::new(board, cfg);
        let pool = BlockPool::new(BATCH);
        let period = self.config.sample_period.max(1);
        let mut snaps = Vec::new();
        let mut block = pool.take();
        for (i, rec) in records.iter().enumerate() {
            block.push(rec.to_transaction(i as u64, i as u64 * CYCLE_SPACING));
            let barrier = (i + 1) % period == 0;
            if barrier || block.is_full() {
                engine.feed_pooled(std::mem::replace(&mut block, pool.take()));
            }
            if barrier {
                snaps.push(engine.barrier()?);
            }
        }
        engine.feed_pooled(block);
        let board = engine.finish()?;
        Ok(EngineRun {
            snaps,
            final_snap: board.snapshot(),
            report: board.statistics_report(),
        })
    }

    /// Round-trips `records` through the on-disk trace codec and replays
    /// the decoded stream pooled block by block through a serial engine
    /// — the streaming-replay implementation. A small odd chunk size
    /// makes every non-trivial stream span several chunks with a partial
    /// last one, so the chunked reader's block boundaries are actually
    /// exercised.
    fn run_streamed(&self, records: &[TraceRecord]) -> Result<BoardSnapshot, Error> {
        let mut bytes = Vec::with_capacity(8 + records.len() * 8);
        let mut writer = TraceWriter::new(&mut bytes)?;
        for rec in records {
            writer.write_record(rec)?;
        }
        writer.finish()?;

        let board = MemoriesBoard::new(self.board_config()?)?;
        let mut engine = EmulationEngine::new(board, EngineConfig::serial());
        let mut reader = TraceReader::new(bytes.as_slice())?;
        let pool = BlockPool::new(113);
        let mut n = 0u64;
        loop {
            let mut chunk = pool.take();
            let got = reader.read_block(&mut chunk, n, CYCLE_SPACING)?;
            if got == 0 {
                break;
            }
            engine.feed_pooled(chunk);
            n += got as u64;
        }
        Ok(engine.finish()?.snapshot())
    }

    /// Replays `records` block-natively: transactions accumulate in
    /// pooled blocks of [`BATCH`] records and reach the board
    /// through `BusListener::on_block` — the batched delivery path the
    /// live bus and the block-native trace reader use.
    fn run_block(&self, records: &[TraceRecord]) -> Result<BoardSnapshot, Error> {
        let mut board = MemoriesBoard::new(self.board_config()?)?;
        let pool = BlockPool::new(BATCH);
        let mut block = pool.take();
        for (i, rec) in records.iter().enumerate() {
            block.push(rec.to_transaction(i as u64, i as u64 * CYCLE_SPACING));
            if block.is_full() {
                board.on_block(&block);
                block.clear();
            }
        }
        if !block.is_empty() {
            board.on_block(&block);
        }
        Ok(board.snapshot())
    }

    /// Replays one stream through every implementation. Returns the
    /// coverage it produced and the first divergence found, if any.
    pub fn execute(&self, records: &[TraceRecord]) -> Result<(Coverage, Option<String>), Error> {
        // Reference model, with the coverage probe attached.
        let mut cov = Coverage::new();
        let mut reference = MultiNodeSim::new(self.slots.clone());
        for rec in records {
            reference.step_with(rec, |node, event, state, remote| {
                cov.touch_cell(node, event, state, remote);
            });
        }
        for node in 0..self.slots.len() {
            cov.touch_counters(node, reference.counts(node));
        }

        // Serial engine: the board-side baseline.
        let serial = self.run_engine(records, 1)?;

        // Board vs reference, counter by counter.
        for node in 0..self.slots.len() {
            let report = compare_counts(&serial.final_snap.nodes[node], reference.counts(node));
            if !report.matches() {
                return Ok((
                    cov,
                    Some(format!("serial board vs reference, node {node}: {report}")),
                ));
            }
        }

        // Single-node all-local topologies also get the CacheSim oracle.
        if let [(params, protocol, _, cpus)] = self.slots.as_slice() {
            if (0..self.config.procs).all(|p| cpus.contains(&ProcId::new(p))) {
                let mut sim = CacheSim::new(*params, protocol.clone());
                for rec in records {
                    // The board's filter drops retried transactions;
                    // CacheSim has no filter, so drop them here.
                    if rec.resp != memories_bus::SnoopResponse::Retry {
                        sim.step(rec);
                    }
                }
                let report = compare_counts(&serial.final_snap.nodes[0], sim.counts());
                if !report.matches() {
                    return Ok((cov, Some(format!("serial board vs CacheSim: {report}"))));
                }
            }
        }

        // Streaming replay (codec round-trip + chunked decode) vs serial:
        // the trace file format and the in-memory stream must be the same
        // stream.
        let streamed = self.run_streamed(records)?;
        if let Some(why) = snapshot_diff(&serial.final_snap, &streamed) {
            return Ok((
                cov,
                Some(format!("serial engine vs streaming replay: {why}")),
            ));
        }

        // Block-native delivery vs serial: on_block must be bit-identical
        // to per-transaction snooping at the fuzzer's batch size.
        let blocked = self.run_block(records)?;
        if let Some(why) = snapshot_diff(&serial.final_snap, &blocked) {
            return Ok((
                cov,
                Some(format!("serial engine vs block-native delivery: {why}")),
            ));
        }

        // Parallel engines vs serial: mid-stream barriers and final state.
        for &shards in &self.config.shards {
            let parallel = self.run_engine(records, shards)?;
            if let Some(why) = diverged(&serial, &parallel) {
                return Ok((cov, Some(format!("serial vs {shards}-shard engine: {why}"))));
            }
        }

        Ok((cov, None))
    }

    /// Runs the full fuzz loop.
    pub fn run(&self) -> Result<FuzzReport, Error> {
        let started = Instant::now();
        let mut coverage = Coverage::new();
        let mut corpus_streams: Vec<Vec<TraceRecord>> = Vec::new();

        // Replay the on-disk corpus first (sorted order: deterministic).
        if let Some(dir) = &self.config.corpus_dir {
            for (path, stream) in corpus::load_dir(dir)? {
                let (cov, divergence) = self.execute(&stream)?;
                if let Some(divergence) = divergence {
                    let cex = self.shrink_and_save(stream, divergence)?;
                    return Ok(FuzzReport {
                        iterations: 0,
                        corpus_entries: corpus_streams.len(),
                        coverage: coverage.len(),
                        counterexample: Some(Counterexample {
                            divergence: format!(
                                "corpus entry {} diverged: {}",
                                path.display(),
                                cex.divergence
                            ),
                            ..cex
                        }),
                    });
                }
                coverage.merge_new(&cov);
                corpus_streams.push(stream);
            }
        }

        let mut gen = StreamGenerator::new(self.config.seed, self.config.procs, LINES);
        let mut iterations = 0;
        for _ in 0..self.config.iterations {
            if let Some(budget) = self.config.time_box {
                if started.elapsed() >= budget {
                    break;
                }
            }
            let stream = self.next_input(&mut gen, &corpus_streams);
            iterations += 1;
            let (cov, divergence) = self.execute(&stream)?;
            if let Some(divergence) = divergence {
                let cex = self.shrink_and_save(stream, divergence)?;
                return Ok(FuzzReport {
                    iterations,
                    corpus_entries: corpus_streams.len(),
                    coverage: coverage.len(),
                    counterexample: Some(cex),
                });
            }
            if coverage.merge_new(&cov) > 0 {
                if self.config.write_corpus {
                    if let Some(dir) = &self.config.corpus_dir {
                        corpus::save(dir, &stream)?;
                    }
                }
                corpus_streams.push(stream);
            }
        }

        Ok(FuzzReport {
            iterations,
            corpus_entries: corpus_streams.len(),
            coverage: coverage.len(),
            counterexample: None,
        })
    }

    /// Produces the next input: usually a mutation of a corpus entry,
    /// sometimes a fresh stream.
    fn next_input(
        &self,
        gen: &mut StreamGenerator,
        corpus_streams: &[Vec<TraceRecord>],
    ) -> Vec<TraceRecord> {
        let min_len = MIN_LEN.min(self.config.max_len);
        let span = (self.config.max_len - min_len).max(1) as u64;
        let fresh_len = |gen: &mut StreamGenerator| min_len + (gen.next_word() % span) as usize;
        if corpus_streams.is_empty() || gen.next_word().is_multiple_of(4) {
            let len = fresh_len(gen);
            return gen.stream(len);
        }
        let base = &corpus_streams[(gen.next_word() as usize) % corpus_streams.len()];
        let mut out = base.clone();
        let rounds = 1 + (gen.next_word() % 3) as usize;
        for _ in 0..rounds {
            match gen.next_word() % 6 {
                // Truncate at a random point.
                0 if out.len() > 1 => {
                    let at = 1 + (gen.next_word() as usize) % (out.len() - 1);
                    out.truncate(at);
                }
                // Remove a chunk.
                1 if out.len() > 2 => {
                    let at = (gen.next_word() as usize) % out.len();
                    let len = 1 + (gen.next_word() as usize) % (out.len() - at);
                    out.drain(at..at + len);
                }
                // Duplicate a chunk in place (replays a window).
                2 if !out.is_empty() => {
                    let at = (gen.next_word() as usize) % out.len();
                    let len = 1 + (gen.next_word() as usize) % (out.len() - at).clamp(1, 64);
                    let chunk: Vec<_> = out[at..(at + len).min(out.len())].to_vec();
                    let insert_at = (gen.next_word() as usize) % (out.len() + 1);
                    out.splice(insert_at..insert_at, chunk);
                }
                // Replace one record with a fresh one.
                3 if !out.is_empty() => {
                    let at = (gen.next_word() as usize) % out.len();
                    out[at] = gen.record();
                }
                // Splice a prefix of another corpus entry onto a prefix.
                4 => {
                    let other = &corpus_streams[(gen.next_word() as usize) % corpus_streams.len()];
                    let cut = (gen.next_word() as usize) % (out.len() + 1);
                    let take = (gen.next_word() as usize) % (other.len() + 1);
                    out.truncate(cut);
                    out.extend_from_slice(&other[..take]);
                }
                // Append a fresh tail.
                _ => {
                    let tail = 1 + (gen.next_word() as usize) % 64;
                    out.extend(gen.stream(tail));
                }
            }
        }
        out.truncate(self.config.max_len);
        if out.is_empty() {
            out.push(gen.record());
        }
        out
    }

    /// Shrinks a failing stream and writes it to the counterexample
    /// directory if one is configured.
    fn shrink_and_save(
        &self,
        records: Vec<TraceRecord>,
        divergence: String,
    ) -> Result<Counterexample, Error> {
        let original_len = records.len();
        let (records, divergence) = self.shrink(records, divergence)?;
        let path = match &self.config.counterexample_dir {
            Some(dir) => Some(corpus::save(dir, &records)?),
            None => None,
        };
        Ok(Counterexample {
            records,
            divergence,
            original_len,
            path,
        })
    }

    /// Chunk-removal delta debugging: repeatedly drop chunks (halving the
    /// chunk size down to single records) while the stream still
    /// diverges, bounded by 2 000 executions.
    pub fn shrink(
        &self,
        mut records: Vec<TraceRecord>,
        mut divergence: String,
    ) -> Result<(Vec<TraceRecord>, String), Error> {
        let mut budget = SHRINK_BUDGET;
        let mut chunk = (records.len() / 2).max(1);
        loop {
            let mut progressed = false;
            let mut start = 0;
            while start < records.len() && budget > 0 {
                let end = (start + chunk).min(records.len());
                let mut candidate = records.clone();
                candidate.drain(start..end);
                if candidate.is_empty() {
                    start = end;
                    continue;
                }
                budget -= 1;
                let (_, result) = self.execute(&candidate)?;
                if let Some(why) = result {
                    records = candidate;
                    divergence = why;
                    progressed = true;
                    // Re-test the same start: the next chunk slid into it.
                } else {
                    start = end;
                }
            }
            if budget == 0 {
                break;
            }
            if chunk == 1 && !progressed {
                break;
            }
            if !progressed {
                chunk = (chunk / 2).max(1);
            }
        }
        Ok((records, divergence))
    }
}

/// Compares two engine runs of the same stream: every mid-stream
/// snapshot, the final snapshot, and the rendered statistics report.
fn diverged(a: &EngineRun, b: &EngineRun) -> Option<String> {
    if a.snaps.len() != b.snaps.len() {
        return Some(format!(
            "snapshot count {} vs {}",
            a.snaps.len(),
            b.snaps.len()
        ));
    }
    for (i, (sa, sb)) in a.snaps.iter().zip(&b.snaps).enumerate() {
        if let Some(why) = snapshot_diff(sa, sb) {
            return Some(format!("snapshot {i}: {why}"));
        }
    }
    if let Some(why) = snapshot_diff(&a.final_snap, &b.final_snap) {
        return Some(format!("final snapshot: {why}"));
    }
    if a.report != b.report {
        return Some("statistics reports differ".into());
    }
    None
}

/// First difference between two snapshots, described.
fn snapshot_diff(a: &BoardSnapshot, b: &BoardSnapshot) -> Option<String> {
    if a.filter != b.filter {
        return Some(format!("filter stats {:?} vs {:?}", a.filter, b.filter));
    }
    if a.retries_posted != b.retries_posted {
        return Some(format!(
            "retries {} vs {}",
            a.retries_posted, b.retries_posted
        ));
    }
    if a.global.transactions() != b.global.transactions() {
        return Some(format!(
            "global transactions {} vs {}",
            a.global.transactions(),
            b.global.transactions()
        ));
    }
    for op in BusOp::ALL {
        if a.global.count(op) != b.global.count(op) {
            return Some(format!(
                "global {op:?} count {} vs {}",
                a.global.count(op),
                b.global.count(op)
            ));
        }
    }
    if a.global.observed_span_cycles() != b.global.observed_span_cycles() {
        return Some(format!(
            "observed span {} vs {}",
            a.global.observed_span_cycles(),
            b.global.observed_span_cycles()
        ));
    }
    if a.nodes.len() != b.nodes.len() {
        return Some(format!("node count {} vs {}", a.nodes.len(), b.nodes.len()));
    }
    for (n, (na, nb)) in a.nodes.iter().zip(&b.nodes).enumerate() {
        for c in NodeCounter::ALL {
            if na.get(c) != nb.get(c) {
                return Some(format!("node {n} {c:?} {} vs {}", na.get(c), nb.get(c)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_protocol::standard;

    fn params() -> CacheParams {
        CacheParams::builder()
            .capacity(16 << 10)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap()
    }

    fn single_slot() -> Vec<NodeSlotSpec> {
        vec![(
            params(),
            standard::mesi(),
            0,
            (0..8).map(ProcId::new).collect(),
        )]
    }

    #[test]
    fn clean_smoke_run_single_node() {
        let fuzzer = DifferentialFuzzer::new(
            single_slot(),
            FuzzConfig {
                iterations: 6,
                max_len: 300,
                procs: 8,
                shards: vec![2],
                sample_period: 37,
                ..FuzzConfig::default()
            },
        )
        .unwrap();
        let report = fuzzer.run().unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.coverage > 0);
        assert!(report.corpus_entries > 0);
    }

    #[test]
    fn execute_is_deterministic() {
        let fuzzer = DifferentialFuzzer::new(
            single_slot(),
            FuzzConfig {
                procs: 8,
                shards: vec![2],
                sample_period: 37,
                ..FuzzConfig::default()
            },
        )
        .unwrap();
        let stream = StreamGenerator::new(5, 8, 32).stream(400);
        let (cov_a, div_a) = fuzzer.execute(&stream).unwrap();
        let (cov_b, div_b) = fuzzer.execute(&stream).unwrap();
        assert!(div_a.is_none(), "engines unexpectedly diverged: {div_a:?}");
        assert_eq!(div_a, div_b);
        assert_eq!(cov_a, cov_b);
        assert!(!cov_a.is_empty());
    }
}
