//! Ready-made protocol tables: MESI, MSI, MOESI, and write-through.
//!
//! These are the coherence protocols the paper's node controllers would be
//! loaded with; each is expressed in the same map-file format a user could
//! write by hand, so they double as format documentation and as fixtures
//! for the parser.

use crate::error::ProtocolParseError;
use crate::table::ProtocolTable;

/// Map-file source for the MESI protocol (the default for emulated shared
/// caches; matches the invalidation-based protocol of the S7A's L2s).
pub const MESI_MAP: &str = "\
protocol mesi
states I S E M

# Demand accesses from this node's processors.
on local-read    I none     -> E allocate
on local-read    I shared   -> S allocate
on local-read    I modified -> S allocate
on local-read    S *        -> S
on local-read    E *        -> E
on local-read    M *        -> M
on local-write   I *        -> M allocate
on local-write   S *        -> M
on local-write   E *        -> M
on local-write   M *        -> M
on local-upgrade I *        -> M allocate
on local-upgrade S *        -> M
on local-upgrade E *        -> M
on local-upgrade M *        -> M

# An L2 below casts out modified data: the emulated cache absorbs it dirty.
on local-castout I *        -> M allocate
on local-castout S *        -> M
on local-castout E *        -> M
on local-castout M *        -> M

# Traffic from other emulated nodes.
on remote-read   I *        -> I
on remote-read   S *        -> S intervene-shared
on remote-read   E *        -> S intervene-shared
on remote-read   M *        -> S intervene-modified writeback
on remote-write  I *        -> I
on remote-write  S *        -> I
on remote-write  E *        -> I
on remote-write  M *        -> I intervene-modified

# DMA traffic.
on io-read       I *        -> I
on io-read       S *        -> S
on io-read       E *        -> S
on io-read       M *        -> S intervene-modified writeback
on io-write      * *        -> I

# Flushes push dirty data to memory and invalidate.
on flush         M *        -> I writeback
on flush         I *        -> I
on flush         S *        -> I
on flush         E *        -> I
";

/// Map-file source for the MSI protocol (no exclusive state; every read
/// miss allocates shared, so first writes always pay an upgrade).
pub const MSI_MAP: &str = "\
protocol msi
states I S M

on local-read    I *        -> S allocate
on local-read    S *        -> S
on local-read    M *        -> M
on local-write   I *        -> M allocate
on local-write   S *        -> M
on local-write   M *        -> M
on local-upgrade I *        -> M allocate
on local-upgrade S *        -> M
on local-upgrade M *        -> M
on local-castout I *        -> M allocate
on local-castout S *        -> M
on local-castout M *        -> M
on remote-read   I *        -> I
on remote-read   S *        -> S intervene-shared
on remote-read   M *        -> S intervene-modified writeback
on remote-write  I *        -> I
on remote-write  S *        -> I
on remote-write  M *        -> I intervene-modified
on io-read       I *        -> I
on io-read       S *        -> S
on io-read       M *        -> S intervene-modified writeback
on io-write      * *        -> I
on flush         M *        -> I writeback
on flush         I *        -> I
on flush         S *        -> I
";

/// Map-file source for the MOESI protocol (adds an Owned state: a dirty
/// line can be shared without writing memory back, so remote reads of
/// modified data avoid the memory update).
pub const MOESI_MAP: &str = "\
protocol moesi
states I S E M O

on local-read    I none     -> E allocate
on local-read    I shared   -> S allocate
on local-read    I modified -> S allocate
on local-read    S *        -> S
on local-read    E *        -> E
on local-read    M *        -> M
on local-read    O *        -> O
on local-write   I *        -> M allocate
on local-write   S *        -> M
on local-write   E *        -> M
on local-write   M *        -> M
on local-write   O *        -> M
on local-upgrade I *        -> M allocate
on local-upgrade S *        -> M
on local-upgrade E *        -> M
on local-upgrade M *        -> M
on local-upgrade O *        -> M
on local-castout I *        -> M allocate
on local-castout S *        -> M
on local-castout E *        -> M
on local-castout M *        -> M
on local-castout O *        -> M
on remote-read   I *        -> I
on remote-read   S *        -> S intervene-shared
on remote-read   E *        -> S intervene-shared
on remote-read   M *        -> O intervene-modified
on remote-read   O *        -> O intervene-modified
on remote-write  I *        -> I
on remote-write  S *        -> I
on remote-write  E *        -> I
on remote-write  M *        -> I intervene-modified
on remote-write  O *        -> I intervene-modified
on io-read       I *        -> I
on io-read       S *        -> S
on io-read       E *        -> E
on io-read       M *        -> O intervene-modified
on io-read       O *        -> O intervene-modified
on io-write      * *        -> I
on flush         M *        -> I writeback
on flush         O *        -> I writeback
on flush         I *        -> I
on flush         S *        -> I
on flush         E *        -> I
";

/// Map-file source for the MESIF protocol (adds a Forward state: exactly
/// one *clean* sharer is designated responder, so shared data is supplied
/// by a cache instead of memory without every sharer driving the bus).
pub const MESIF_MAP: &str = "\
protocol mesif
states I S E M F

# The newest sharer always enters F (it becomes the designated
# responder); the previous F, having answered the remote read, drops to
# plain S.
on local-read    I none     -> E allocate
on local-read    I shared   -> F allocate
on local-read    I modified -> F allocate
on local-read    S *        -> S
on local-read    E *        -> E
on local-read    M *        -> M
on local-read    F *        -> F
on local-write   I *        -> M allocate
on local-write   S *        -> M
on local-write   E *        -> M
on local-write   M *        -> M
on local-write   F *        -> M
on local-upgrade I *        -> M allocate
on local-upgrade S *        -> M
on local-upgrade E *        -> M
on local-upgrade M *        -> M
on local-upgrade F *        -> M
on local-castout I *        -> M allocate
on local-castout S *        -> M
on local-castout E *        -> M
on local-castout M *        -> M
on local-castout F *        -> M

# Only F (or E/M owners) answer remote reads; plain S stays silent.
on remote-read   I *        -> I
on remote-read   S *        -> S
on remote-read   E *        -> S intervene-shared
on remote-read   M *        -> S intervene-modified writeback
on remote-read   F *        -> S intervene-shared
on remote-write  I *        -> I
on remote-write  S *        -> I
on remote-write  E *        -> I
on remote-write  M *        -> I intervene-modified
on remote-write  F *        -> I
on io-read       I *        -> I
on io-read       S *        -> S
on io-read       E *        -> S
on io-read       M *        -> S intervene-modified writeback
on io-read       F *        -> F
on io-write      * *        -> I
on flush         M *        -> I writeback
on flush         I *        -> I
on flush         S *        -> I
on flush         E *        -> I
on flush         F *        -> I
";

/// Map-file source for a write-through protocol (lines are never dirty;
/// every write also updates memory, so evictions are free).
pub const WRITE_THROUGH_MAP: &str = "\
protocol write-through
states I V

on local-read    I *        -> V allocate
on local-read    V *        -> V
on local-write   I *        -> V allocate writeback
on local-write   V *        -> V writeback
on local-upgrade I *        -> V allocate writeback
on local-upgrade V *        -> V writeback
on local-castout * *        -> same
on remote-read   * *        -> same
on remote-write  V *        -> I
on remote-write  I *        -> I
on io-read       * *        -> same
on io-write      * *        -> I
on flush         * *        -> I
";

/// Parses every builtin protocol, in the same order as [`all`].
///
/// # Errors
///
/// Returns the first builtin map file that fails to parse.
pub fn try_all() -> Result<Vec<ProtocolTable>, ProtocolParseError> {
    [MESI_MAP, MSI_MAP, MOESI_MAP, MESIF_MAP, WRITE_THROUGH_MAP]
        .into_iter()
        .map(ProtocolTable::parse_map_file)
        .collect()
}

/// The MESI protocol table.
pub fn mesi() -> ProtocolTable {
    ProtocolTable::parse_map_file(MESI_MAP).expect("MESI_MAP is a valid builtin map file")
}

/// The MSI protocol table.
pub fn msi() -> ProtocolTable {
    ProtocolTable::parse_map_file(MSI_MAP).expect("MSI_MAP is a valid builtin map file")
}

/// The MOESI protocol table.
pub fn moesi() -> ProtocolTable {
    ProtocolTable::parse_map_file(MOESI_MAP).expect("MOESI_MAP is a valid builtin map file")
}

/// The MESIF protocol table.
pub fn mesif() -> ProtocolTable {
    ProtocolTable::parse_map_file(MESIF_MAP).expect("MESIF_MAP is a valid builtin map file")
}

/// The write-through protocol table.
pub fn write_through() -> ProtocolTable {
    ProtocolTable::parse_map_file(WRITE_THROUGH_MAP)
        .expect("WRITE_THROUGH_MAP is a valid builtin map file")
}

/// All builtin protocols, for tests and tooling.
pub fn all() -> Vec<ProtocolTable> {
    vec![mesi(), msi(), moesi(), mesif(), write_through()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::event::{AccessEvent, RemoteSummary};
    use crate::state::StateId;

    #[test]
    fn fallible_constructors_agree_with_infallible_ones() {
        let tables = try_all().expect("every builtin parses");
        assert_eq!(tables, all());
    }

    #[test]
    fn builtins_parse_and_are_complete() {
        for t in all() {
            assert!(t.state_count() >= 2, "{} too few states", t.name());
            // lookup is total by construction; spot-check the whole space.
            for event in AccessEvent::ALL {
                for s in StateId::all(t.state_count()) {
                    for r in RemoteSummary::ALL {
                        let _ = t.lookup(event, s, r);
                    }
                }
            }
        }
    }

    #[test]
    fn mesi_read_miss_allocates_exclusive_when_alone() {
        let t = mesi();
        let tr = t.lookup(
            AccessEvent::LocalRead,
            StateId::INVALID,
            RemoteSummary::None,
        );
        assert_eq!(t.state_name(tr.next), "E");
        assert!(tr.actions.contains(Action::Allocate));
        let tr = t.lookup(
            AccessEvent::LocalRead,
            StateId::INVALID,
            RemoteSummary::Shared,
        );
        assert_eq!(t.state_name(tr.next), "S");
    }

    #[test]
    fn mesi_dirty_states() {
        let t = mesi();
        let m = t.state_by_name("M").unwrap();
        let e = t.state_by_name("E").unwrap();
        let s = t.state_by_name("S").unwrap();
        assert!(t.is_dirty_state(m));
        assert!(!t.is_dirty_state(e));
        assert!(!t.is_dirty_state(s));
        assert!(!t.is_dirty_state(StateId::INVALID));
        assert_eq!(t.summarize_state(m), RemoteSummary::Modified);
        assert_eq!(t.summarize_state(s), RemoteSummary::Shared);
        assert_eq!(t.summarize_state(StateId::INVALID), RemoteSummary::None);
    }

    #[test]
    fn msi_read_miss_allocates_shared_even_when_alone() {
        let t = msi();
        let tr = t.lookup(
            AccessEvent::LocalRead,
            StateId::INVALID,
            RemoteSummary::None,
        );
        assert_eq!(t.state_name(tr.next), "S");
    }

    #[test]
    fn moesi_owned_state_avoids_writeback_on_remote_read() {
        let t = moesi();
        let m = t.state_by_name("M").unwrap();
        let tr = t.lookup(AccessEvent::RemoteRead, m, RemoteSummary::None);
        assert_eq!(t.state_name(tr.next), "O");
        assert!(tr.actions.contains(Action::InterveneModified));
        assert!(!tr.actions.contains(Action::Writeback));
        // Owned is dirty: the owner still supplies data.
        let o = t.state_by_name("O").unwrap();
        assert!(t.is_dirty_state(o));
    }

    #[test]
    fn mesi_equivalent_remote_read_writes_memory_back() {
        let t = mesi();
        let m = t.state_by_name("M").unwrap();
        let tr = t.lookup(AccessEvent::RemoteRead, m, RemoteSummary::None);
        assert!(tr.actions.contains(Action::Writeback));
    }

    #[test]
    fn mesif_forward_state_answers_shared_reads() {
        let t = mesif();
        let f = t.state_by_name("F").unwrap();
        let s = t.state_by_name("S").unwrap();
        // F supplies data and relinquishes forwarding to the new sharer.
        let tr = t.lookup(AccessEvent::RemoteRead, f, RemoteSummary::None);
        assert_eq!(tr.next, s);
        assert!(tr.actions.contains(Action::InterveneShared));
        // Plain S stays silent (the protocol's whole point).
        let tr = t.lookup(AccessEvent::RemoteRead, s, RemoteSummary::None);
        assert!(tr.actions.is_empty());
        // A read miss with existing sharers enters F, not S.
        let tr = t.lookup(
            AccessEvent::LocalRead,
            StateId::INVALID,
            RemoteSummary::Shared,
        );
        assert_eq!(tr.next, f);
        // F is clean: no writeback on eviction.
        assert!(!t.is_dirty_state(f));
    }

    #[test]
    fn write_through_has_no_dirty_states() {
        let t = write_through();
        for s in StateId::all(t.state_count()) {
            assert!(
                !t.is_dirty_state(s),
                "state {} unexpectedly dirty",
                t.state_name(s)
            );
        }
        // Writes always push to memory.
        let tr = t.lookup(
            AccessEvent::LocalWrite,
            StateId::INVALID,
            RemoteSummary::None,
        );
        assert!(tr.actions.contains(Action::Writeback));
    }

    #[test]
    fn builtins_roundtrip_through_map_files() {
        for t in all() {
            let text = t.to_map_file();
            let t2 = ProtocolTable::parse_map_file(&text).unwrap();
            assert_eq!(t, t2, "{} failed roundtrip", t.name());
        }
    }

    #[test]
    fn invalid_state_never_intervenes() {
        for t in all() {
            for event in AccessEvent::ALL {
                for r in RemoteSummary::ALL {
                    let tr = t.lookup(event, StateId::INVALID, r);
                    assert!(
                        !tr.actions.intervenes(),
                        "{}: invalid state intervenes on {event}",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn io_write_invalidates_everywhere() {
        for t in all() {
            for s in StateId::all(t.state_count()) {
                for r in RemoteSummary::ALL {
                    let tr = t.lookup(AccessEvent::IoWrite, s, r);
                    assert!(
                        tr.next.is_invalid(),
                        "{}: io-write from {} does not invalidate",
                        t.name(),
                        t.state_name(s)
                    );
                }
            }
        }
    }
}
