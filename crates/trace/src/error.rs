//! Trace codec and I/O errors.

use std::error::Error;
use std::fmt;
use std::io;

/// An error produced while encoding, decoding, or transporting traces.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure outside the records (the stream header, or
    /// a writer).
    Io(io::Error),
    /// The underlying reader failed partway through the records.
    ReadFailed {
        /// Zero-based index of the first record not decoded.
        record: u64,
        /// The reader's error.
        source: io::Error,
    },
    /// The stream does not begin with the trace magic bytes.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The stream has an unsupported format version.
    BadVersion {
        /// The version actually found.
        found: u16,
    },
    /// A record failed to decode.
    Corrupt {
        /// Zero-based record index at which decoding failed.
        record: u64,
        /// Description of the field that failed.
        detail: &'static str,
    },
    /// An address cannot be represented in the 8-byte record format.
    UnrepresentableAddress {
        /// The offending address value.
        addr: u64,
    },
    /// The stream ended in the middle of a record.
    TruncatedRecord {
        /// Zero-based index of the partial record.
        record: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::ReadFailed { record, source } => {
                write!(f, "trace read failed at record {record}: {source}")
            }
            TraceError::BadMagic { found } => {
                write!(f, "bad trace magic {found:02x?}")
            }
            TraceError::BadVersion { found } => {
                write!(f, "unsupported trace version {found}")
            }
            TraceError::Corrupt { record, detail } => {
                write!(f, "corrupt trace record {record}: {detail}")
            }
            TraceError::UnrepresentableAddress { addr } => write!(
                f,
                "address {addr:#x} cannot be packed into an 8-byte trace record \
                 (must be 8-byte aligned and below 2^55)"
            ),
            TraceError::TruncatedRecord { record } => {
                write!(f, "trace ends mid-record at record {record}")
            }
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) | TraceError::ReadFailed { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(TraceError::BadMagic { found: *b"XXXX" }
            .to_string()
            .contains("magic"));
        assert!(TraceError::BadVersion { found: 9 }
            .to_string()
            .contains('9'));
        assert!(TraceError::Corrupt {
            record: 3,
            detail: "bad op"
        }
        .to_string()
        .contains("3"));
        assert!(TraceError::UnrepresentableAddress { addr: 7 }
            .to_string()
            .contains("0x7"));
    }

    #[test]
    fn io_errors_are_wrapped_with_source() {
        let e = TraceError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        assert!(e.source().is_some());
    }
}
