//! Trace file reading and writing.

use std::io::{BufReader, BufWriter, Read, Write};

use memories_bus::{Transaction, TransactionBlock};

use crate::error::TraceError;
use crate::record::TraceRecord;

/// Magic bytes at the start of every trace stream.
pub const TRACE_MAGIC: [u8; 4] = *b"MIES";

/// Current trace format version.
pub const TRACE_VERSION: u16 = 1;

/// Writes a trace stream: a 8-byte header (magic + version + reserved)
/// followed by little-endian 8-byte records.
///
/// Readers that need the writer back can pass `&mut writer` since
/// `&mut W: Write`.
///
/// Call [`TraceWriter::finish`] to flush; dropping without finishing
/// flushes on a best-effort basis (errors are discarded, per the
/// never-failing-destructor convention).
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    inner: BufWriter<W>,
    written: u64,
    finished: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the stream header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(writer: W) -> Result<Self, TraceError> {
        let mut inner = BufWriter::new(writer);
        inner.write_all(&TRACE_MAGIC)?;
        inner.write_all(&TRACE_VERSION.to_le_bytes())?;
        inner.write_all(&[0u8; 2])?; // reserved
        Ok(TraceWriter {
            inner,
            written: 0,
            finished: false,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns an encode error for unrepresentable addresses, or an I/O
    /// error from the underlying writer.
    pub fn write_record(&mut self, record: &TraceRecord) -> Result<(), TraceError> {
        let word = record.encode()?;
        self.inner.write_all(&word.to_le_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// Appends the trace-relevant fields of a live transaction.
    ///
    /// # Errors
    ///
    /// Same as [`TraceWriter::write_record`].
    pub fn write_transaction(&mut self, txn: &Transaction) -> Result<(), TraceError> {
        self.write_record(&TraceRecord::from_transaction(txn))
    }

    /// Flushes buffered data and returns the record count.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn finish(mut self) -> Result<u64, TraceError> {
        self.inner.flush()?;
        self.finished = true;
        Ok(self.written)
    }
}

impl<W: Write> Drop for TraceWriter<W> {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.inner.flush();
        }
    }
}

/// Reads a trace stream produced by [`TraceWriter`].
///
/// Implements [`Iterator`] over `Result<TraceRecord, TraceError>`; a
/// truncated final record surfaces as [`TraceError::TruncatedRecord`].
/// Pass `&mut reader` if you need the underlying reader afterwards.
///
/// For bulk replay, [`TraceReader::read_block`] decodes records in
/// fixed-size batches straight into a caller-owned transaction block, so
/// a trace of any length streams at O(chunk) peak memory — no
/// whole-trace `Vec` is ever materialized.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    inner: BufReader<R>,
    read: u64,
    fused: bool,
    /// Reusable byte scratch for [`TraceReader::read_block`]; grows to
    /// one block's worth of encoded records and stays there.
    scratch: Vec<u8>,
}

impl<R: Read> TraceReader<R> {
    /// Creates a reader, validating the stream header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadMagic`] / [`TraceError::BadVersion`] for a
    /// foreign or newer-format stream, or an I/O error.
    pub fn new(reader: R) -> Result<Self, TraceError> {
        let mut inner = BufReader::new(reader);
        let mut magic = [0u8; 4];
        inner.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic { found: magic });
        }
        let mut ver = [0u8; 2];
        inner.read_exact(&mut ver)?;
        let version = u16::from_le_bytes(ver);
        if version != TRACE_VERSION {
            return Err(TraceError::BadVersion { found: version });
        }
        let mut reserved = [0u8; 2];
        inner.read_exact(&mut reserved)?;
        Ok(TraceReader {
            inner,
            read: 0,
            fused: false,
            scratch: Vec::new(),
        })
    }

    /// Decodes records **directly into a transaction block** — the
    /// block-native replay path. The block is cleared, then filled with
    /// up to `block.capacity()` transactions: record `i` of the call
    /// becomes a transaction with sequence number `base_seq + i` and
    /// cycle `(base_seq + i) * cycle_spacing`, exactly the numbering the
    /// record-at-a-time [`Iterator`] path gets from
    /// [`TraceRecord::to_transaction`]. No intermediate
    /// `Vec<TraceRecord>` is ever materialized, and repeated calls with
    /// the same block stream a trace of any length at O(block) memory.
    ///
    /// Returns how many transactions were decoded; `Ok(0)` means a clean
    /// end of stream. Errors fuse the reader exactly like the
    /// [`Iterator`] implementation: after an `Err`, subsequent calls
    /// return `Ok(0)`.
    ///
    /// # Errors
    ///
    /// [`TraceError::TruncatedRecord`] if the stream ends mid-record,
    /// [`TraceError::Corrupt`] for an undecodable record, or
    /// [`TraceError::ReadFailed`] if the underlying reader fails; each
    /// names the first record not decoded. Transactions decoded before
    /// the failure are left in the block, so a caller that tolerates
    /// truncated tails can still use the prefix.
    pub fn read_block(
        &mut self,
        block: &mut TransactionBlock,
        base_seq: u64,
        cycle_spacing: u64,
    ) -> Result<usize, TraceError> {
        block.clear();
        let max = block.capacity();
        if self.fused || max == 0 {
            return Ok(0);
        }
        let want = max.saturating_mul(8);
        self.scratch.resize(want, 0);
        let mut filled = 0;
        let mut failed = None;
        while filled < want {
            match self.inner.read(&mut self.scratch[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let mut seq = base_seq;
        for word_bytes in self.scratch[..filled - filled % 8].chunks_exact(8) {
            let word = u64::from_le_bytes(word_bytes.try_into().expect("8-byte chunk"));
            match TraceRecord::decode(word, self.read) {
                Ok(rec) => {
                    self.read += 1;
                    block.push(rec.to_transaction(seq, seq * cycle_spacing));
                    seq += 1;
                }
                Err(e) => {
                    self.fused = true;
                    return Err(e);
                }
            }
        }
        if let Some(source) = failed {
            self.fused = true;
            return Err(TraceError::ReadFailed {
                record: self.read,
                source,
            });
        }
        if filled % 8 != 0 {
            self.fused = true;
            return Err(TraceError::TruncatedRecord { record: self.read });
        }
        if filled == 0 {
            self.fused = true;
        }
        Ok(block.len())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        let mut buf = [0u8; 8];
        let mut filled = 0;
        while filled < 8 {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(source) => {
                    self.fused = true;
                    return Some(Err(TraceError::ReadFailed {
                        record: self.read,
                        source,
                    }));
                }
            }
        }
        match filled {
            0 => {
                self.fused = true;
                None
            }
            8 => {
                let word = u64::from_le_bytes(buf);
                let idx = self.read;
                self.read += 1;
                match TraceRecord::decode(word, idx) {
                    Ok(rec) => Some(Ok(rec)),
                    Err(e) => {
                        self.fused = true;
                        Some(Err(e))
                    }
                }
            }
            _ => {
                self.fused = true;
                Some(Err(TraceError::TruncatedRecord { record: self.read }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_bus::{Address, BusOp, ProcId, SnoopResponse};

    fn records(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                TraceRecord::new(
                    BusOp::ALL[(i % BusOp::ALL.len() as u64) as usize],
                    ProcId::new((i % 8) as u8),
                    SnoopResponse::Null,
                    Address::new(i * 128),
                )
            })
            .collect()
    }

    fn write_all(recs: &[TraceRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for r in recs {
            w.write_record(r).unwrap();
        }
        assert_eq!(w.finish().unwrap(), recs.len() as u64);
        buf
    }

    #[test]
    fn write_read_roundtrip() {
        let recs = records(100);
        let buf = write_all(&recs);
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        let back: Vec<TraceRecord> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(back, recs);
    }

    #[test]
    fn empty_trace_is_valid() {
        let buf = write_all(&[]);
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert!(reader.next().is_none());
    }

    #[test]
    fn detects_bad_magic_and_version() {
        let err = TraceReader::new(&b"JUNKxxxx"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic { .. }));

        let mut buf = Vec::new();
        buf.extend_from_slice(&TRACE_MAGIC);
        buf.extend_from_slice(&99u16.to_le_bytes());
        buf.extend_from_slice(&[0, 0]);
        let err = TraceReader::new(buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceError::BadVersion { found: 99 }));
    }

    #[test]
    fn detects_truncated_record() {
        let mut buf = write_all(&records(2));
        buf.truncate(buf.len() - 3);
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        let results: Vec<_> = reader.collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(TraceError::TruncatedRecord { record: 1 })
        ));
    }

    #[test]
    fn reader_fuses_after_error() {
        let mut buf = write_all(&records(1));
        buf.push(0xff); // partial second record
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none());
        assert!(reader.next().is_none());
    }

    #[test]
    fn block_reads_handle_empty_trace_and_corrupt_records() {
        use memories_bus::TransactionBlock;

        let mut block = TransactionBlock::with_capacity(64);
        let buf = write_all(&[]);
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.read_block(&mut block, 0, 60).unwrap(), 0);

        // Header corruption is caught at construction, before any block.
        assert!(matches!(
            TraceReader::new(&b"MIESx"[..]),
            Err(TraceError::Io(_)) // header itself truncated
        ));
        assert!(matches!(
            TraceReader::new(&b"JUNKJUNK"[..]),
            Err(TraceError::BadMagic { .. })
        ));

        let mut buf = write_all(&records(10));
        // Stamp an invalid op nibble into record 4 (the little-endian
        // word's top byte holds bits 56..64, so the op nibble is 0xf).
        buf[8 + 4 * 8 + 7] = 0xf0;
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let err = reader.read_block(&mut block, 0, 60).unwrap_err();
        assert!(
            matches!(err, TraceError::Corrupt { record: 4, .. }),
            "{err}"
        );
        assert_eq!(block.len(), 4, "records before the corruption survive");
        assert_eq!(reader.read_block(&mut block, 4, 60).unwrap(), 0);
    }

    #[test]
    fn block_native_roundtrip_matches_record_path() {
        use memories_bus::TransactionBlock;

        let recs = records(1_000);
        // Write via the transaction path…
        let mut block = TransactionBlock::with_capacity(128);
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for (i, rec) in recs.iter().enumerate() {
            w.write_transaction(&rec.to_transaction(i as u64, i as u64 * 60))
                .unwrap();
        }
        assert_eq!(w.finish().unwrap(), 1_000);
        // …and it must be byte-identical to the record-at-a-time path.
        assert_eq!(buf, write_all(&recs));

        // Read back block-native: same transactions, same numbering as
        // the record path assigns.
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut base = 0u64;
        let mut back = Vec::new();
        loop {
            let n = reader.read_block(&mut block, base, 60).unwrap();
            if n == 0 {
                break;
            }
            back.extend_from_slice(block.as_slice());
            base += n as u64;
        }
        let want: Vec<Transaction> = recs
            .iter()
            .enumerate()
            .map(|(i, r)| r.to_transaction(i as u64, i as u64 * 60))
            .collect();
        assert_eq!(back, want);
        assert_eq!(reader.read_block(&mut block, base, 60).unwrap(), 0);
    }

    #[test]
    fn read_block_reports_truncation_and_keeps_prefix() {
        use memories_bus::TransactionBlock;

        let mut buf = write_all(&records(70));
        buf.truncate(buf.len() - 5);
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut block = TransactionBlock::with_capacity(64);
        assert_eq!(reader.read_block(&mut block, 0, 60).unwrap(), 64);
        let err = reader.read_block(&mut block, 64, 60).unwrap_err();
        assert!(matches!(err, TraceError::TruncatedRecord { record: 69 }));
        assert_eq!(block.len(), 5, "decodable prefix survives");
        assert_eq!(block.as_slice()[0].seq, 64);
        assert_eq!(reader.read_block(&mut block, 69, 60).unwrap(), 0);
    }

    /// A reader that fails once `bytes` runs out.
    struct FailAtEnd<'a>(&'a [u8]);

    impl Read for FailAtEnd<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::other("device gone"));
            }
            self.0.read(buf)
        }
    }

    #[test]
    fn read_failures_name_the_first_record_not_decoded() {
        use memories_bus::TransactionBlock;

        let buf = write_all(&records(10));
        // The reader fails three bytes into record 6.
        let cut = 8 + 6 * 8 + 3;
        let results: Vec<_> = TraceReader::new(FailAtEnd(&buf[..cut])).unwrap().collect();
        assert_eq!(results.len(), 7);
        assert!(matches!(
            results[6],
            Err(TraceError::ReadFailed { record: 6, .. })
        ));

        let mut reader = TraceReader::new(FailAtEnd(&buf[..cut])).unwrap();
        let mut block = TransactionBlock::with_capacity(64);
        let err = reader.read_block(&mut block, 0, 60).unwrap_err();
        assert!(
            matches!(err, TraceError::ReadFailed { record: 6, .. }),
            "{err}"
        );
        assert_eq!(block.len(), 6, "records before the failure survive");
        assert_eq!(reader.read_block(&mut block, 6, 60).unwrap(), 0);
    }

    #[test]
    fn header_is_eight_bytes() {
        let buf = write_all(&[]);
        assert_eq!(buf.len(), 8);
        let recs = records(5);
        let buf = write_all(&recs);
        assert_eq!(buf.len(), 8 + 5 * 8);
    }
}
