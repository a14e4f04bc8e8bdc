//! 40-bit event counters — the board's 400+ hit/miss counters (§3).

use std::fmt;
use std::hash::{Hash, Hasher};

/// A 40-bit saturating counter.
///
/// "Each counter is 40-bit wide and can hold performance data for more
/// than 30 hours of real time program execution at the typical 20% bus
/// utilization level" (§3). The model saturates (and remembers that it
/// did) instead of wrapping, so overflow is detectable in long runs.
///
/// Like the board's plain hardware counters, it keeps a raw count that
/// every increment bumps with one branch-free add (saturating at
/// `u64::MAX`, far beyond the ceiling), and saturates when read:
/// [`Counter40::value`] clamps the raw count to [`Counter40::MAX`], and
/// [`Counter40::saturated`] reports whether it ever went past. Equality
/// and hashing compare what is read, so two counters that overshot the
/// ceiling by different amounts are equal.
///
/// # Examples
///
/// ```
/// use memories::Counter40;
///
/// let mut c = Counter40::new();
/// c.add(5);
/// assert_eq!(c.value(), 5);
/// assert!(!c.saturated());
/// ```
#[derive(Clone, Copy, Default, Eq)]
pub struct Counter40 {
    raw: u64,
}

impl Counter40 {
    /// Maximum representable value: `2^40 - 1`.
    pub const MAX: u64 = (1 << 40) - 1;

    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter40 { raw: 0 }
    }

    /// A counter already holding `n`, saturating at [`Counter40::MAX`].
    pub fn of(n: u64) -> Self {
        Counter40 { raw: n }
    }

    /// Adds `n`, saturating at [`Counter40::MAX`].
    pub fn add(&mut self, n: u64) {
        self.raw = self.raw.saturating_add(n);
    }

    /// Folds another counter into this one, saturating the sum and
    /// preserving the saturation flag: a counter that overflowed in *any*
    /// merged part must read as overflowed in the whole, even when the
    /// summed value happens to land exactly on [`Counter40::MAX`].
    /// This is the merge the parallel engine's shard reassembly relies
    /// on; plain `add(other.value())` would silently drop the flag.
    /// Summing the raw counts keeps it: an overflowed part's raw count
    /// alone is past the ceiling.
    pub fn merge(&mut self, other: Counter40) {
        self.add(other.raw);
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// The current value.
    pub const fn value(self) -> u64 {
        if self.raw > Self::MAX {
            Self::MAX
        } else {
            self.raw
        }
    }

    /// Whether the counter ever went past its ceiling.
    pub const fn saturated(self) -> bool {
        self.raw > Self::MAX
    }

    /// Resets to zero and clears the saturation flag.
    pub fn reset(&mut self) {
        *self = Counter40::new();
    }
}

impl PartialEq for Counter40 {
    fn eq(&self, other: &Self) -> bool {
        (self.value(), self.saturated()) == (other.value(), other.saturated())
    }
}

impl Hash for Counter40 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.value(), self.saturated()).hash(state);
    }
}

impl fmt::Debug for Counter40 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counter40")
            .field("value", &self.value())
            .field("saturated", &self.saturated())
            .finish()
    }
}

impl fmt::Display for Counter40 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.saturated() {
            write!(f, "{}+", self.value())
        } else {
            write!(f, "{}", self.value())
        }
    }
}

/// The named per-node event counters.
///
/// The physical board exposes >400 raw counters across its FPGAs; per
/// node controller this model keeps the architecturally meaningful set
/// below (the global FPGA's bus-level counters live in
/// [`GlobalCounters`](crate::GlobalCounters)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are self-describing counter labels
pub enum NodeCounter {
    ReadHits,
    ReadMisses,
    ReadColdMisses,
    WriteHits,
    WriteMisses,
    WriteColdMisses,
    UpgradeHits,
    UpgradeMisses,
    CastoutsSeen,
    CastoutAllocates,
    VictimEvictions,
    VictimWritebacks,
    InterventionsShared,
    InterventionsModified,
    RemoteReadsSeen,
    RemoteWritesSeen,
    RemoteInvalidations,
    IoReadsSeen,
    IoWritesSeen,
    IoInvalidations,
    FlushesSeen,
    ProtocolWritebacks,
    BufferOverflows,
    EventsDropped,
    DemandFilledL2Shared,
    DemandFilledL2Modified,
    DemandFilledL3,
    DemandFilledMemory,
}

impl NodeCounter {
    /// All counters in stable layout order.
    pub const ALL: [NodeCounter; 28] = [
        NodeCounter::ReadHits,
        NodeCounter::ReadMisses,
        NodeCounter::ReadColdMisses,
        NodeCounter::WriteHits,
        NodeCounter::WriteMisses,
        NodeCounter::WriteColdMisses,
        NodeCounter::UpgradeHits,
        NodeCounter::UpgradeMisses,
        NodeCounter::CastoutsSeen,
        NodeCounter::CastoutAllocates,
        NodeCounter::VictimEvictions,
        NodeCounter::VictimWritebacks,
        NodeCounter::InterventionsShared,
        NodeCounter::InterventionsModified,
        NodeCounter::RemoteReadsSeen,
        NodeCounter::RemoteWritesSeen,
        NodeCounter::RemoteInvalidations,
        NodeCounter::IoReadsSeen,
        NodeCounter::IoWritesSeen,
        NodeCounter::IoInvalidations,
        NodeCounter::FlushesSeen,
        NodeCounter::ProtocolWritebacks,
        NodeCounter::BufferOverflows,
        NodeCounter::EventsDropped,
        NodeCounter::DemandFilledL2Shared,
        NodeCounter::DemandFilledL2Modified,
        NodeCounter::DemandFilledL3,
        NodeCounter::DemandFilledMemory,
    ];

    /// Dense layout index.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The report label.
    pub const fn label(self) -> &'static str {
        match self {
            NodeCounter::ReadHits => "read-hits",
            NodeCounter::ReadMisses => "read-misses",
            NodeCounter::ReadColdMisses => "read-cold-misses",
            NodeCounter::WriteHits => "write-hits",
            NodeCounter::WriteMisses => "write-misses",
            NodeCounter::WriteColdMisses => "write-cold-misses",
            NodeCounter::UpgradeHits => "upgrade-hits",
            NodeCounter::UpgradeMisses => "upgrade-misses",
            NodeCounter::CastoutsSeen => "castouts-seen",
            NodeCounter::CastoutAllocates => "castout-allocates",
            NodeCounter::VictimEvictions => "victim-evictions",
            NodeCounter::VictimWritebacks => "victim-writebacks",
            NodeCounter::InterventionsShared => "interventions-shared",
            NodeCounter::InterventionsModified => "interventions-modified",
            NodeCounter::RemoteReadsSeen => "remote-reads-seen",
            NodeCounter::RemoteWritesSeen => "remote-writes-seen",
            NodeCounter::RemoteInvalidations => "remote-invalidations",
            NodeCounter::IoReadsSeen => "io-reads-seen",
            NodeCounter::IoWritesSeen => "io-writes-seen",
            NodeCounter::IoInvalidations => "io-invalidations",
            NodeCounter::FlushesSeen => "flushes-seen",
            NodeCounter::ProtocolWritebacks => "protocol-writebacks",
            NodeCounter::BufferOverflows => "buffer-overflows",
            NodeCounter::EventsDropped => "events-dropped",
            NodeCounter::DemandFilledL2Shared => "demand-filled-l2-shared",
            NodeCounter::DemandFilledL2Modified => "demand-filled-l2-modified",
            NodeCounter::DemandFilledL3 => "demand-filled-l3",
            NodeCounter::DemandFilledMemory => "demand-filled-memory",
        }
    }
}

impl fmt::Display for NodeCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A bank of [`Counter40`]s, one per [`NodeCounter`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    counters: [Counter40; NodeCounter::ALL.len()],
}

impl NodeCounters {
    /// Creates a zeroed bank.
    pub fn new() -> Self {
        NodeCounters::default()
    }

    /// Increments one counter.
    pub fn incr(&mut self, which: NodeCounter) {
        self.counters[which.index()].incr();
    }

    /// Adds `n` to one counter.
    pub fn add(&mut self, which: NodeCounter, n: u64) {
        self.counters[which.index()].add(n);
    }

    /// Reads one counter's value.
    pub fn get(&self, which: NodeCounter) -> u64 {
        self.counters[which.index()].value()
    }

    /// The underlying counter (to check saturation).
    pub fn counter(&self, which: NodeCounter) -> Counter40 {
        self.counters[which.index()]
    }

    /// Whether any counter saturated.
    pub fn any_saturated(&self) -> bool {
        self.counters.iter().any(|c| c.saturated())
    }

    /// Folds another bank into this one counter-by-counter (saturating,
    /// saturation-flag preserving — see [`Counter40::merge`]). Like
    /// [`GlobalCounters`](crate::GlobalCounters), a bank is a commutative
    /// monoid under this merge, which is what lets per-shard snapshots be
    /// combined into a whole-board view.
    pub fn merge(&mut self, other: &NodeCounters) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            mine.merge(*theirs);
        }
    }

    /// Zeroes every counter (the console's statistics-reset command).
    pub fn reset(&mut self) {
        for c in &mut self.counters {
            c.reset();
        }
    }

    /// Iterates `(counter, value)` in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeCounter, u64)> + '_ {
        NodeCounter::ALL.iter().map(move |c| (*c, self.get(*c)))
    }
}

impl fmt::Display for NodeCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (c, v) in self.iter() {
            if v > 0 {
                writeln!(f, "{:>24}: {}", c.label(), v)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter40_saturates_and_flags() {
        let mut c = Counter40::new();
        c.add(Counter40::MAX - 1);
        assert!(!c.saturated());
        c.add(5);
        assert_eq!(c.value(), Counter40::MAX);
        assert!(c.saturated());
        assert_eq!(c.to_string(), format!("{}+", Counter40::MAX));
        c.reset();
        assert_eq!(c.value(), 0);
        assert!(!c.saturated());
    }

    #[test]
    fn counter40_thirty_hour_headroom_claim() {
        // §3: at 20% utilization of a 100 MHz bus, transactions arrive at
        // most every ~12 cycles busy / 0.2 => ~1.7M txns/s. 30 hours of
        // that is ~1.8e11, comfortably below 2^40 - 1 ~ 1.1e12.
        let txn_per_sec =
            memories_bus::BUS_HZ as f64 * 0.2 / memories_bus::DATA_TRANSACTION_CYCLES as f64;
        let thirty_hours = txn_per_sec * 30.0 * 3600.0;
        assert!(thirty_hours < Counter40::MAX as f64);
    }

    #[test]
    fn merge_preserves_saturation_even_at_exact_max() {
        // A saturated part whose value re-sums to exactly MAX must still
        // read as saturated after the merge.
        let mut saturated = Counter40::of(Counter40::MAX);
        saturated.add(1);
        assert!(saturated.saturated());
        assert_eq!(saturated.value(), Counter40::MAX);

        let mut merged = Counter40::new(); // value 0: sum lands on MAX exactly
        merged.merge(saturated);
        assert_eq!(merged.value(), Counter40::MAX);
        assert!(merged.saturated(), "merge dropped the saturation flag");

        // And an unsaturated pair whose sum stays below MAX stays clean.
        let mut a = Counter40::of(10);
        a.merge(Counter40::of(20));
        assert_eq!(a.value(), 30);
        assert!(!a.saturated());
    }

    #[test]
    fn bank_merge_sums_and_keeps_flags() {
        let mut a = NodeCounters::new();
        a.add(NodeCounter::ReadHits, 5);
        let mut b = NodeCounters::new();
        b.add(NodeCounter::ReadHits, 7);
        b.add(NodeCounter::WriteMisses, Counter40::MAX);
        b.add(NodeCounter::WriteMisses, 1); // saturate
        a.merge(&b);
        assert_eq!(a.get(NodeCounter::ReadHits), 12);
        assert!(a.counter(NodeCounter::WriteMisses).saturated());
        assert!(a.any_saturated());
    }

    #[test]
    fn node_counter_indices_are_dense_and_unique() {
        for (i, c) in NodeCounter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn bank_incr_get_reset() {
        let mut b = NodeCounters::new();
        b.incr(NodeCounter::ReadHits);
        b.add(NodeCounter::ReadMisses, 10);
        assert_eq!(b.get(NodeCounter::ReadHits), 1);
        assert_eq!(b.get(NodeCounter::ReadMisses), 10);
        assert_eq!(b.get(NodeCounter::WriteHits), 0);
        assert!(!b.any_saturated());
        b.reset();
        assert_eq!(b.get(NodeCounter::ReadMisses), 0);
    }

    #[test]
    fn bank_display_lists_nonzero_only() {
        let mut b = NodeCounters::new();
        b.add(NodeCounter::UpgradeHits, 3);
        let text = b.to_string();
        assert!(text.contains("upgrade-hits"));
        assert!(!text.contains("read-misses"));
    }
}
