//! A damaged trace stops `replay_stream` with a typed error that names
//! the record where the damage is, at 1 and 2 shards: a trace cut
//! mid-record, a reader that fails mid-record, and a record whose op
//! nibble is out of range. The replay decodes
//! the trace in blocks of 4096 records, so the cuts fall inside the first
//! block and inside a later one. A trace cut exactly at a block boundary
//! is a whole, shorter trace and replays cleanly.

use std::io::{self, Read};

use memories::{BoardConfig, CacheParams, Error};
use memories_bus::{Address, BusOp, ProcId, SnoopResponse, Transaction};
use memories_console::{EmulationSession, ExecutionOptions, PipelinedLiveSource, StreamSource};
use memories_trace::{TraceError, TraceRecord, TraceWriter};

/// Records in the trace: a little over two decode blocks.
const RECORDS: u64 = 9_000;
/// Records per decode block of a replay: the trace source packs the same
/// blocks as the live source.
const BLOCK: u64 = PipelinedLiveSource::DEFAULT_BLOCK_CAPACITY as u64;

fn session(parallelism: usize) -> EmulationSession {
    let params = CacheParams::builder()
        .capacity(64 << 10)
        .ways(2)
        .allow_scaled_down()
        .build()
        .unwrap();
    EmulationSession::builder()
        .board(BoardConfig::single_node(params, (0..2).map(ProcId::new)).unwrap())
        .parallelism(parallelism)
        .build()
        .unwrap()
}

fn records() -> Vec<TraceRecord> {
    const OPS: [BusOp; 3] = [BusOp::Read, BusOp::Rwitm, BusOp::WriteBack];
    (0..RECORDS)
        .map(|i| {
            TraceRecord::from_transaction(&Transaction::new(
                i,
                i * 60,
                ProcId::new((i % 2) as u8),
                OPS[(i % 3) as usize],
                Address::new((i * 7 % 1024) * 128),
                SnoopResponse::Null,
            ))
        })
        .collect()
}

/// The encoded trace, and the length of its header.
fn trace(records: &[TraceRecord]) -> (Vec<u8>, usize) {
    let mut bytes = Vec::new();
    let mut w = TraceWriter::new(&mut bytes).unwrap();
    for r in records {
        w.write_record(r).unwrap();
    }
    w.finish().unwrap();
    let header = bytes.len() - records.len() * 8;
    (bytes, header)
}

/// A reader that fails once its bytes run out.
struct FailAtEnd<'a>(&'a [u8]);

impl Read for FailAtEnd<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.0.is_empty() {
            return Err(io::Error::other("device gone"));
        }
        self.0.read(buf)
    }
}

#[test]
fn truncated_trace_names_its_record_at_1_and_2_shards() {
    let (bytes, header) = trace(&records());
    assert!(1_000 < BLOCK && (BLOCK..2 * BLOCK).contains(&5_000));
    for parallelism in [1, 2] {
        let session = session(parallelism);
        // Record 1000 lies in the first decode block, 5000 in the second.
        for record in [1_000u64, 5_000] {
            let cut = header + record as usize * 8 + 3;
            let err = session.replay_stream(&bytes[..cut], 60).unwrap_err();
            assert!(
                matches!(
                    &err,
                    Error::Trace(TraceError::TruncatedRecord { record: r }) if *r == record
                ),
                "parallelism {parallelism}, cut in record {record}: {err:?}"
            );

            let err = session
                .replay_stream(FailAtEnd(&bytes[..cut]), 60)
                .unwrap_err();
            assert!(
                matches!(
                    &err,
                    Error::Trace(TraceError::ReadFailed { record: r, .. }) if *r == record
                ),
                "parallelism {parallelism}, read fails in record {record}: {err:?}"
            );

            // The op nibble is the top nibble of the little-endian word,
            // and 0xf names no bus operation.
            let mut corrupt = bytes.clone();
            corrupt[header + record as usize * 8 + 7] = 0xf0;
            let err = session.replay_stream(corrupt.as_slice(), 60).unwrap_err();
            assert!(
                matches!(
                    &err,
                    Error::Trace(TraceError::Corrupt { record: r, .. }) if *r == record
                ),
                "parallelism {parallelism}, op corrupt in record {record}: {err:?}"
            );
        }
    }
}

#[test]
fn trace_cut_at_a_block_boundary_replays_cleanly() {
    let records = records();
    let (bytes, header) = trace(&records);
    let whole = BLOCK as usize;
    for parallelism in [1, 2] {
        let session = session(parallelism);
        let replayed = session
            .replay_stream(&bytes[..header + whole * 8], 60)
            .unwrap();
        assert_eq!(replayed.records, BLOCK);
        let txns = (0u64..)
            .zip(&records[..whole])
            .map(|(n, r)| r.to_transaction(n, n * 60));
        let streamed = session
            .execute(StreamSource::new(txns), ExecutionOptions::new())
            .unwrap();
        assert_eq!(
            replayed.board.statistics_report(),
            streamed.board.statistics_report(),
            "parallelism {parallelism}"
        );
    }
}
