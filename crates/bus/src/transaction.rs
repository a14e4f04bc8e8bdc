//! Bus transactions and snoop responses.

use std::fmt;

use crate::addr::{Address, ProcId};
use crate::op::BusOp;

/// The combined snoop response to a bus transaction.
///
/// On the 6xx bus every cache snoops every transaction and drives shared
/// response lines; the combined (highest-priority) result is visible to all
/// agents — including the passive MemorIES board, which uses it to count
/// shared and modified interventions (Figure 12 of the paper).
///
/// Priority order (highest first): `Retry`, `Modified`, `Shared`, `Null`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SnoopResponse {
    /// No cache holds the line; memory supplies the data.
    #[default]
    Null,
    /// Another cache holds the line shared and can supply it
    /// (shared intervention).
    Shared,
    /// Another cache holds the line modified and supplies it
    /// (modified intervention).
    Modified,
    /// The transaction must be retried (a snooper could not process it).
    Retry,
}

impl SnoopResponse {
    /// Combines two responses, keeping the higher-priority one.
    ///
    /// # Examples
    ///
    /// ```
    /// use memories_bus::SnoopResponse;
    ///
    /// let combined = SnoopResponse::Shared.combine(SnoopResponse::Modified);
    /// assert_eq!(combined, SnoopResponse::Modified);
    /// ```
    #[must_use]
    pub fn combine(self, other: SnoopResponse) -> SnoopResponse {
        self.max(other)
    }

    /// Whether this response means another cache supplies the data
    /// (any kind of intervention).
    pub const fn is_intervention(self) -> bool {
        matches!(self, SnoopResponse::Shared | SnoopResponse::Modified)
    }
}

impl fmt::Display for SnoopResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SnoopResponse::Null => "null",
            SnoopResponse::Shared => "shared",
            SnoopResponse::Modified => "modified",
            SnoopResponse::Retry => "retry",
        };
        f.write_str(s)
    }
}

/// A completed transaction as observed on the memory bus.
///
/// This is the unit of observation for the MemorIES board: requester id,
/// operation, line-aligned address, and the combined snoop response, plus
/// bookkeeping (global sequence number and the bus cycle at which the
/// address tenure began).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Transaction {
    /// Global sequence number (dense, starting at zero).
    pub seq: u64,
    /// Bus cycle at which the transaction's address tenure started.
    pub cycle: u64,
    /// The requesting agent (CPU or I/O bridge id).
    pub proc: ProcId,
    /// The bus command.
    pub op: BusOp,
    /// The referenced physical address.
    pub addr: Address,
    /// The combined snoop response from all snooping caches.
    pub resp: SnoopResponse,
}

impl Transaction {
    /// Creates a transaction record. Mostly useful for tests and trace
    /// replay; live transactions are minted by
    /// [`SystemBus::transact`](crate::SystemBus::transact).
    pub fn new(
        seq: u64,
        cycle: u64,
        proc: ProcId,
        op: BusOp,
        addr: Address,
        resp: SnoopResponse,
    ) -> Self {
        Transaction {
            seq,
            cycle,
            proc,
            op,
            addr,
            resp,
        }
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} @{} {} {} {} -> {}",
            self.seq, self.cycle, self.proc, self.op, self.addr, self.resp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snoop_combining_priority() {
        use SnoopResponse::*;
        assert_eq!(Null.combine(Null), Null);
        assert_eq!(Null.combine(Shared), Shared);
        assert_eq!(Shared.combine(Modified), Modified);
        assert_eq!(Modified.combine(Retry), Retry);
        assert_eq!(Retry.combine(Null), Retry);
    }

    #[test]
    fn interventions() {
        assert!(SnoopResponse::Shared.is_intervention());
        assert!(SnoopResponse::Modified.is_intervention());
        assert!(!SnoopResponse::Null.is_intervention());
        assert!(!SnoopResponse::Retry.is_intervention());
    }

    #[test]
    fn transaction_display_is_informative() {
        let t = Transaction::new(
            7,
            100,
            ProcId::new(3),
            BusOp::Rwitm,
            Address::new(0x1000),
            SnoopResponse::Modified,
        );
        let s = t.to_string();
        assert!(s.contains("#7"));
        assert!(s.contains("cpu3"));
        assert!(s.contains("rwitm"));
        assert!(s.contains("0x1000"));
        assert!(s.contains("modified"));
    }
}
