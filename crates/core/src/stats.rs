//! Derived statistics over a node's counter bank.

use crate::counters::{NodeCounter, NodeCounters};

/// The quantities the paper plots, derived from one node's counter bank:
/// hit/miss ratios, cold-miss fractions and intervention counts.
impl NodeCounters {
    /// Demand hits (local reads + writes + upgrades that hit).
    pub fn demand_hits(&self) -> u64 {
        self.get(NodeCounter::ReadHits)
            + self.get(NodeCounter::WriteHits)
            + self.get(NodeCounter::UpgradeHits)
    }

    /// Demand misses (local reads + writes + upgrades that missed).
    pub fn demand_misses(&self) -> u64 {
        self.get(NodeCounter::ReadMisses)
            + self.get(NodeCounter::WriteMisses)
            + self.get(NodeCounter::UpgradeMisses)
    }

    /// Demand references (hits + misses).
    pub fn demand_references(&self) -> u64 {
        self.demand_hits() + self.demand_misses()
    }

    /// Miss ratio over demand references, in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        let refs = self.demand_references();
        if refs == 0 {
            0.0
        } else {
            self.demand_misses() as f64 / refs as f64
        }
    }

    /// Hit ratio over demand references, in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        let refs = self.demand_references();
        if refs == 0 {
            0.0
        } else {
            self.demand_hits() as f64 / refs as f64
        }
    }

    /// Cold (first-touch) misses.
    pub fn cold_misses(&self) -> u64 {
        self.get(NodeCounter::ReadColdMisses) + self.get(NodeCounter::WriteColdMisses)
    }

    /// Fraction of demand misses that were cold, in `[0, 1]`.
    pub fn cold_fraction(&self) -> f64 {
        let m = self.demand_misses();
        if m == 0 {
            0.0
        } else {
            self.cold_misses() as f64 / m as f64
        }
    }

    /// Shared interventions this node supplied.
    pub fn interventions_shared(&self) -> u64 {
        self.get(NodeCounter::InterventionsShared)
    }

    /// Modified interventions this node supplied.
    pub fn interventions_modified(&self) -> u64 {
        self.get(NodeCounter::InterventionsModified)
    }

    /// Total events dropped by buffer overflows (zero in any healthy run —
    /// the paper's "never posted a retry" claim).
    pub fn events_dropped(&self) -> u64 {
        self.get(NodeCounter::EventsDropped)
    }

    /// Where this node's L2-miss traffic was satisfied, as fractions of
    /// `(memory, L3, shared intervention, modified intervention)` — the
    /// Figure 12 breakdown. Returns all zeros when no fills were seen.
    pub fn fill_breakdown(&self) -> FillBreakdown {
        let mem = self.get(NodeCounter::DemandFilledMemory);
        let l3 = self.get(NodeCounter::DemandFilledL3);
        let shr = self.get(NodeCounter::DemandFilledL2Shared);
        let md = self.get(NodeCounter::DemandFilledL2Modified);
        let total = mem + l3 + shr + md;
        if total == 0 {
            return FillBreakdown::default();
        }
        let f = |x: u64| x as f64 / total as f64;
        FillBreakdown {
            memory: f(mem),
            l3: f(l3),
            shared_intervention: f(shr),
            modified_intervention: f(md),
        }
    }
}

/// The Figure 12 fill-source breakdown: fractions summing to 1 (or all
/// zero when the node saw no fills).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FillBreakdown {
    /// Satisfied by memory.
    pub memory: f64,
    /// Satisfied by the emulated L3.
    pub l3: f64,
    /// Satisfied by another L2's shared intervention.
    pub shared_intervention: f64,
    /// Satisfied by another L2's modified intervention.
    pub modified_intervention: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(edits: &[(NodeCounter, u64)]) -> NodeCounters {
        let mut c = NodeCounters::new();
        for (k, v) in edits {
            c.add(*k, *v);
        }
        c
    }

    #[test]
    fn ratios() {
        let s = stats_with(&[
            (NodeCounter::ReadHits, 60),
            (NodeCounter::ReadMisses, 30),
            (NodeCounter::WriteHits, 5),
            (NodeCounter::WriteMisses, 4),
            (NodeCounter::UpgradeHits, 0),
            (NodeCounter::UpgradeMisses, 1),
            (NodeCounter::ReadColdMisses, 20),
            (NodeCounter::WriteColdMisses, 1),
        ]);
        assert_eq!(s.demand_hits(), 65);
        assert_eq!(s.demand_misses(), 35);
        assert_eq!(s.demand_references(), 100);
        assert!((s.miss_ratio() - 0.35).abs() < 1e-12);
        assert!((s.hit_ratio() - 0.65).abs() < 1e-12);
        assert_eq!(s.cold_misses(), 21);
        assert!((s.cold_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_all_zero() {
        let s = stats_with(&[]);
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.cold_fraction(), 0.0);
        assert_eq!(s.events_dropped(), 0);
    }

    #[test]
    fn fill_breakdown_fractions() {
        let s = stats_with(&[
            (NodeCounter::DemandFilledMemory, 50),
            (NodeCounter::DemandFilledL3, 30),
            (NodeCounter::DemandFilledL2Shared, 15),
            (NodeCounter::DemandFilledL2Modified, 5),
        ]);
        let b = s.fill_breakdown();
        assert!((b.memory - 0.5).abs() < 1e-12);
        assert!((b.l3 - 0.3).abs() < 1e-12);
        assert!((b.shared_intervention - 0.15).abs() < 1e-12);
        assert!((b.modified_intervention - 0.05).abs() < 1e-12);
        // Empty breakdown is all zeros.
        let empty = stats_with(&[]).fill_breakdown();
        assert_eq!(empty, FillBreakdown::default());
    }
}
