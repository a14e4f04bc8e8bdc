//! Protocol table inputs: access events and remote-node state summaries.

use std::fmt;

/// The classification of a bus operation as seen by one emulated cache
/// node: the first input of the protocol lookup table.
///
/// "Local" means the requesting CPU belongs to the emulated node that owns
/// this directory; "remote" means it belongs to another emulated node of
/// the same target machine. The node-partition map in the address filter
/// FPGA decides which is which.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessEvent {
    /// A processor of this node issued a cacheable read (L2 read miss).
    LocalRead,
    /// A processor of this node issued a read-with-intent-to-modify
    /// (L2 write miss).
    LocalWrite,
    /// A processor of this node claimed ownership without data (DClaim:
    /// L2 had the line shared and upgrades it).
    LocalUpgrade,
    /// A processor of this node cast out a modified line (L2 write-back).
    LocalCastout,
    /// A processor of another emulated node issued a read.
    RemoteRead,
    /// A processor of another emulated node issued a write
    /// (RWITM or DClaim).
    RemoteWrite,
    /// The I/O bridge read memory (outbound DMA).
    IoRead,
    /// The I/O bridge wrote memory (inbound DMA).
    IoWrite,
    /// A flush operation targeting the line.
    Flush,
}

impl AccessEvent {
    /// All events in table order.
    pub const ALL: [AccessEvent; 9] = [
        AccessEvent::LocalRead,
        AccessEvent::LocalWrite,
        AccessEvent::LocalUpgrade,
        AccessEvent::LocalCastout,
        AccessEvent::RemoteRead,
        AccessEvent::RemoteWrite,
        AccessEvent::IoRead,
        AccessEvent::IoWrite,
        AccessEvent::Flush,
    ];

    /// Dense table index.
    pub const fn index(self) -> usize {
        match self {
            AccessEvent::LocalRead => 0,
            AccessEvent::LocalWrite => 1,
            AccessEvent::LocalUpgrade => 2,
            AccessEvent::LocalCastout => 3,
            AccessEvent::RemoteRead => 4,
            AccessEvent::RemoteWrite => 5,
            AccessEvent::IoRead => 6,
            AccessEvent::IoWrite => 7,
            AccessEvent::Flush => 8,
        }
    }

    /// Whether the event is a demand access that the emulated cache scores
    /// as a hit or a miss (local reads and writes; castouts, remote, and
    /// I/O traffic maintain state but are not demand references).
    pub const fn is_demand(self) -> bool {
        matches!(
            self,
            AccessEvent::LocalRead | AccessEvent::LocalWrite | AccessEvent::LocalUpgrade
        )
    }

    /// The keyword used in protocol map files.
    pub const fn keyword(self) -> &'static str {
        match self {
            AccessEvent::LocalRead => "local-read",
            AccessEvent::LocalWrite => "local-write",
            AccessEvent::LocalUpgrade => "local-upgrade",
            AccessEvent::LocalCastout => "local-castout",
            AccessEvent::RemoteRead => "remote-read",
            AccessEvent::RemoteWrite => "remote-write",
            AccessEvent::IoRead => "io-read",
            AccessEvent::IoWrite => "io-write",
            AccessEvent::Flush => "flush",
        }
    }

    /// Parses a map-file keyword.
    pub fn from_keyword(s: &str) -> Option<AccessEvent> {
        AccessEvent::ALL.iter().copied().find(|e| e.keyword() == s)
    }
}

impl fmt::Display for AccessEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// The combined state of the line in the *other* emulated cache nodes: the
/// third input of the protocol lookup table ("the resulting state from
/// other cache nodes", §3.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RemoteSummary {
    /// No other emulated node holds the line.
    #[default]
    None,
    /// At least one other node holds the line in a clean/shared state.
    Shared,
    /// Another node holds the line in a dirty/owned state.
    Modified,
}

impl RemoteSummary {
    /// All summaries in table order.
    pub const ALL: [RemoteSummary; 3] = [
        RemoteSummary::None,
        RemoteSummary::Shared,
        RemoteSummary::Modified,
    ];

    /// Dense table index.
    pub const fn index(self) -> usize {
        match self {
            RemoteSummary::None => 0,
            RemoteSummary::Shared => 1,
            RemoteSummary::Modified => 2,
        }
    }

    /// The keyword used in protocol map files.
    pub const fn keyword(self) -> &'static str {
        match self {
            RemoteSummary::None => "none",
            RemoteSummary::Shared => "shared",
            RemoteSummary::Modified => "modified",
        }
    }

    /// Parses a map-file keyword.
    pub fn from_keyword(s: &str) -> Option<RemoteSummary> {
        RemoteSummary::ALL
            .iter()
            .copied()
            .find(|r| r.keyword() == s)
    }
}

impl fmt::Display for RemoteSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_indices_are_dense() {
        for (i, e) in AccessEvent::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn event_keywords_roundtrip() {
        for e in AccessEvent::ALL {
            assert_eq!(AccessEvent::from_keyword(e.keyword()), Some(e));
        }
        assert_eq!(AccessEvent::from_keyword("nonsense"), None);
    }

    #[test]
    fn locality_and_demand_classification() {
        assert!(AccessEvent::LocalRead.is_demand());
        assert!(AccessEvent::LocalUpgrade.is_demand());
        assert!(!AccessEvent::LocalCastout.is_demand());
        assert!(!AccessEvent::RemoteWrite.is_demand());
    }

    #[test]
    fn remote_summary_roundtrip() {
        for r in RemoteSummary::ALL {
            assert_eq!(RemoteSummary::from_keyword(r.keyword()), Some(r));
            assert_eq!(RemoteSummary::ALL[r.index()], r);
        }
        assert_eq!(RemoteSummary::default(), RemoteSummary::None);
    }
}
