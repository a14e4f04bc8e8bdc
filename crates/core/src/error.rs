//! Board configuration errors.

use std::error::Error as StdError;
use std::fmt;

use memories_bus::{NodeId, ProcId};

use crate::params::{CacheParams, ParamError};

/// An invalid board configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum BoardError {
    /// More node slots than the board's four controllers.
    TooManyNodes {
        /// Slots requested.
        requested: usize,
    },
    /// A board needs at least one node slot.
    NoNodes,
    /// A CPU id is claimed as local by two nodes of the same coherence
    /// domain.
    OverlappingCpus {
        /// The doubly-claimed CPU.
        cpu: ProcId,
        /// First claiming node.
        first: NodeId,
        /// Second claiming node.
        second: NodeId,
    },
    /// A node slot has no local CPUs.
    EmptyNode {
        /// The offending node.
        node: NodeId,
    },
    /// A node has more local CPUs than Table 2 allows.
    TooManyCpusPerNode {
        /// The offending node.
        node: NodeId,
        /// CPUs assigned.
        cpus: usize,
    },
    /// Invalid cache parameters for a node slot.
    Params(ParamError),
    /// [`MemoriesBoard::assemble`](crate::MemoriesBoard::assemble) was
    /// given shards, or
    /// [`BoardSnapshot::assemble`](crate::BoardSnapshot::assemble) node
    /// reports, that do not cover the board's nodes exactly.
    ShardAssembly {
        /// Which node was missing, duplicated, or foreign.
        detail: String,
    },
}

impl fmt::Display for BoardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoardError::TooManyNodes { requested } => write!(
                f,
                "{requested} node slots requested but the board has {} controllers",
                NodeId::MAX_NODES
            ),
            BoardError::NoNodes => write!(f, "a board needs at least one node slot"),
            BoardError::OverlappingCpus { cpu, first, second } => write!(
                f,
                "{cpu} is local to both {first} and {second} in the same coherence domain"
            ),
            BoardError::EmptyNode { node } => {
                write!(f, "{node} has no local processors assigned")
            }
            BoardError::TooManyCpusPerNode { node, cpus } => write!(
                f,
                "{node} has {cpus} processors; the board supports at most {} per node",
                CacheParams::MAX_PROCS_PER_NODE
            ),
            BoardError::Params(e) => write!(f, "invalid cache parameters: {e}"),
            BoardError::ShardAssembly { detail } => {
                write!(f, "cannot assemble board from shards: {detail}")
            }
        }
    }
}

impl StdError for BoardError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            BoardError::Params(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamError> for BoardError {
    fn from(e: ParamError) -> Self {
        BoardError::Params(e)
    }
}

/// The workspace-wide error type.
///
/// Every fallible public operation in the emulation stack — board
/// construction, protocol map parsing, trace decoding, host machine
/// configuration, session building — converts into this one enum, so
/// applications can write `Result<T, memories::Error>` end to end
/// instead of juggling per-crate error zoos.
///
/// The enum is `#[non_exhaustive]`: downstream matches must carry a
/// wildcard arm, which lets the workspace add variants without breaking
/// callers.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Invalid board configuration ([`BoardError`]).
    Board(BoardError),
    /// Invalid cache parameters ([`ParamError`]).
    Params(ParamError),
    /// A protocol map file failed to parse.
    Protocol(memories_protocol::ProtocolParseError),
    /// Invalid cache geometry on the host side.
    Geometry(memories_bus::GeometryError),
    /// A bus trace failed to decode.
    Trace(memories_trace::TraceError),
    /// The host machine configuration was rejected. Boxed because the
    /// host crate sits above this one in the dependency graph; use
    /// [`Error::host`] to construct it.
    Host(Box<dyn StdError + Send + Sync>),
    /// Any other failure from an emulation component. Use
    /// [`Error::other`] to construct it.
    Other(Box<dyn StdError + Send + Sync>),
}

impl Error {
    /// Wraps a host machine configuration error.
    pub fn host<E: StdError + Send + Sync + 'static>(e: E) -> Self {
        Error::Host(Box::new(e))
    }

    /// Wraps any other component error.
    pub fn other<E: StdError + Send + Sync + 'static>(e: E) -> Self {
        Error::Other(Box::new(e))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Board(e) => write!(f, "board configuration rejected: {e}"),
            Error::Params(e) => write!(f, "invalid cache parameters: {e}"),
            Error::Protocol(e) => write!(f, "protocol map file rejected: {e}"),
            Error::Geometry(e) => write!(f, "invalid cache geometry: {e}"),
            Error::Trace(e) => write!(f, "trace decoding failed: {e}"),
            Error::Host(e) => write!(f, "host configuration rejected: {e}"),
            Error::Other(e) => write!(f, "{e}"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Board(e) => Some(e),
            Error::Params(e) => Some(e),
            Error::Protocol(e) => Some(e),
            Error::Geometry(e) => Some(e),
            Error::Trace(e) => Some(e),
            Error::Host(e) | Error::Other(e) => Some(e.as_ref()),
        }
    }
}

impl From<BoardError> for Error {
    fn from(e: BoardError) -> Self {
        Error::Board(e)
    }
}

impl From<ParamError> for Error {
    fn from(e: ParamError) -> Self {
        Error::Params(e)
    }
}

impl From<memories_protocol::ProtocolParseError> for Error {
    fn from(e: memories_protocol::ProtocolParseError) -> Self {
        Error::Protocol(e)
    }
}

impl From<memories_bus::GeometryError> for Error {
    fn from(e: memories_bus::GeometryError) -> Self {
        Error::Geometry(e)
    }
}

impl From<memories_trace::TraceError> for Error {
    fn from(e: memories_trace::TraceError) -> Self {
        Error::Trace(e)
    }
}

impl From<std::convert::Infallible> for Error {
    fn from(e: std::convert::Infallible) -> Self {
        match e {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = BoardError::OverlappingCpus {
            cpu: ProcId::new(3),
            first: NodeId::new(0),
            second: NodeId::new(1),
        };
        let m = e.to_string();
        assert!(m.contains("cpu3"));
        assert!(m.contains("node0"));
        assert!(m.contains("node1"));
        assert!(BoardError::NoNodes.to_string().contains("at least one"));
    }

    #[test]
    fn param_errors_convert_and_chain() {
        let pe = ParamError::BadAssociativity { ways: 9 };
        let be: BoardError = pe.into();
        assert!(be.source().is_some());
        assert!(be.to_string().contains("associativity"));
    }
}
