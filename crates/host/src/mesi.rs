//! The fixed MESI protocol of the host's private caches.

use std::fmt;

/// MESI line state in a host L1/L2 cache.
///
/// The host machine's coherence protocol is not programmable (that is the
/// *board's* trick); the S7A's snooping invalidation protocol is modeled
/// directly as MESI.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MesiState {
    /// The line is not present.
    #[default]
    Invalid,
    /// Present, clean, possibly also in other caches.
    Shared,
    /// Present, clean, in no other cache.
    Exclusive,
    /// Present, dirty, in no other cache.
    Modified,
}

impl MesiState {
    /// Whether the line is present.
    pub const fn is_valid(self) -> bool {
        !matches!(self, MesiState::Invalid)
    }

    /// Whether eviction requires a write-back.
    pub const fn is_dirty(self) -> bool {
        matches!(self, MesiState::Modified)
    }
}

impl fmt::Display for MesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MesiState::Invalid => "I",
            MesiState::Shared => "S",
            MesiState::Exclusive => "E",
            MesiState::Modified => "M",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(!MesiState::Invalid.is_valid());
        assert!(MesiState::Shared.is_valid());
        assert!(MesiState::Modified.is_dirty());
        assert!(!MesiState::Exclusive.is_dirty());
    }

    #[test]
    fn default_is_invalid() {
        assert_eq!(MesiState::default(), MesiState::Invalid);
        assert_eq!(MesiState::Invalid.to_string(), "I");
    }
}
