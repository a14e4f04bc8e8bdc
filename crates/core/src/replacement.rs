//! Replacement policies for the emulated tag stores.
//!
//! The paper lists replacement algorithms among the programmable cache
//! attributes (§2, Table 2 context). The board implements them in FPGA
//! logic over per-set SDRAM metadata; we provide the four classic ones.

use std::fmt;
use std::str::FromStr;

/// A victim-selection policy for one emulated cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// True least-recently-used (each set's order of use).
    #[default]
    Lru,
    /// First-in first-out (each set's order of fill; uses do not count).
    Fifo,
    /// Pseudo-random (deterministic xorshift stream per tag store).
    Random,
    /// Bit-PLRU (MRU bits; when all ways are marked recently-used the
    /// other marks are cleared). Works for any associativity up to 8.
    PlruBits,
}

impl ReplacementPolicy {
    /// All policies.
    pub const ALL: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
        ReplacementPolicy::PlruBits,
    ];

    /// The keyword used in configuration text.
    pub const fn keyword(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::Random => "random",
            ReplacementPolicy::PlruBits => "plru",
        }
    }
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Error returned when parsing an unknown policy keyword.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePolicyError {
    /// The unrecognized input.
    pub input: String,
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown replacement policy {:?} (expected lru|fifo|random|plru)",
            self.input
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for ReplacementPolicy {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ReplacementPolicy::ALL
            .iter()
            .copied()
            .find(|p| p.keyword() == s)
            .ok_or_else(|| ParsePolicyError {
                input: s.to_string(),
            })
    }
}

/// Marks `way` most-recently-used in a bit-PLRU mask, clearing the other
/// marks when every way of the set has been marked.
pub(crate) fn plru_touch(bits: u8, way: u32, ways: u32) -> u8 {
    let full = if ways >= 8 { 0xffu8 } else { (1u8 << ways) - 1 };
    let mut b = bits | (1 << way);
    if b == full {
        b = 1 << way;
    }
    b
}

/// The bit-PLRU victim: the lowest-indexed way whose MRU bit is clear.
pub(crate) fn plru_victim(bits: u8, ways: u32) -> u32 {
    for w in 0..ways {
        if bits & (1 << w) == 0 {
            return w;
        }
    }
    0
}

/// A deterministic xorshift64* stream for the random policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct XorShift(pub u64);

impl XorShift {
    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_roundtrip() {
        for p in ReplacementPolicy::ALL {
            assert_eq!(p.keyword().parse::<ReplacementPolicy>().unwrap(), p);
        }
        assert!("mru".parse::<ReplacementPolicy>().is_err());
    }

    #[test]
    fn plru_touch_marks_and_resets() {
        // 4 ways, nothing marked.
        let b = plru_touch(0, 2, 4);
        assert_eq!(b, 0b0100);
        // Mark the rest; marking the final way resets to just that way.
        let b = plru_touch(b, 0, 4);
        let b = plru_touch(b, 1, 4);
        assert_eq!(b, 0b0111);
        let b = plru_touch(b, 3, 4);
        assert_eq!(b, 0b1000);
    }

    #[test]
    fn plru_victim_picks_unmarked_way() {
        assert_eq!(plru_victim(0b0000, 4), 0);
        assert_eq!(plru_victim(0b0001, 4), 1);
        assert_eq!(plru_victim(0b0111, 4), 3);
        // Degenerate all-marked mask falls back to way 0.
        assert_eq!(plru_victim(0b1111, 4), 0);
    }

    #[test]
    fn plru_never_victimizes_the_most_recent_way() {
        let mut bits = 0u8;
        for way in [3u32, 1, 2, 0, 2, 3] {
            bits = plru_touch(bits, way, 4);
            assert_ne!(
                plru_victim(bits, 4),
                way,
                "victimized MRU way after touching {way}"
            );
        }
    }

    #[test]
    fn xorshift_is_deterministic_and_nonconstant() {
        let mut a = XorShift(42);
        let mut b = XorShift(42);
        let va: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_eq!(va, vb);
        assert!(va.windows(2).any(|w| w[0] != w[1]));
    }
}
