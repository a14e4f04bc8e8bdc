//! Host machine configuration.

use std::error::Error;
use std::fmt;

use memories_bus::{BusConfig, Geometry, ProcId, BUS_HZ};

use crate::outer::MAX_WAYS;

/// Processor clock of the S7A's 262 MHz Northstar processors (§5).
const CPU_HZ: u64 = 262_000_000;

/// Average cycles per instruction, which converts instruction counts
/// into elapsed time.
const CPI: f64 = 1.5;

/// Configuration of the host SMP machine.
///
/// The processors always run at the S7A's 262 MHz and CPI 1.5, on the
/// 100 MHz bus of [`BusConfig`]. `outer_cache` is the coherence point
/// (normally the L2); `inner_cache` is an optional L1 in front of it.
/// Turning the L2 "off" — the paper's trick for making MemorIES emulate
/// an L2 instead of an L3 (§2) — is modeled by passing the L1 geometry as
/// `outer_cache` and no inner cache.
#[derive(Clone, Debug, PartialEq)]
pub struct HostConfig {
    /// Number of processors (1–12 on the S7A-class hosts).
    pub num_cpus: usize,
    /// Optional inner (L1) private cache per processor.
    pub inner_cache: Option<Geometry>,
    /// Outer private cache per processor: the coherence point.
    pub outer_cache: Geometry,
    /// Memory bus timing.
    pub bus: BusConfig,
}

impl HostConfig {
    /// The S7A preset from §5: 8 processors, 262 MHz, 64 KB 2-way L1s,
    /// 8 MB 4-way L2s with 128 B lines.
    pub fn s7a() -> Self {
        HostConfig {
            num_cpus: 8,
            inner_cache: Some(Geometry::new(64 << 10, 2, 128).expect("valid preset geometry")),
            outer_cache: Geometry::new(8 << 20, 4, 128).expect("valid preset geometry"),
            bus: BusConfig,
        }
    }

    /// The S7A with its L2 switched off (the board then emulates an L2):
    /// the 64 KB L1 becomes the coherence point.
    pub fn s7a_l2_off() -> Self {
        let base = HostConfig::s7a();
        HostConfig {
            inner_cache: None,
            outer_cache: base.inner_cache.expect("s7a preset has an inner cache"),
            ..base
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for a zero or oversized CPU count, an outer
    /// cache of more than 64 ways, an inner cache bigger than the outer
    /// (inclusion would be impossible), or mismatched line sizes between
    /// the levels.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_cpus == 0 || self.num_cpus > ProcId::MAX_IDS - 1 {
            return Err(ConfigError::BadCpuCount {
                count: self.num_cpus,
            });
        }
        if self.outer_cache.ways() > MAX_WAYS {
            return Err(ConfigError::TooManyOuterWays {
                ways: self.outer_cache.ways(),
            });
        }
        if let Some(inner) = &self.inner_cache {
            if inner.capacity() > self.outer_cache.capacity() {
                return Err(ConfigError::InnerLargerThanOuter {
                    inner: inner.capacity(),
                    outer: self.outer_cache.capacity(),
                });
            }
            if inner.line_size() != self.outer_cache.line_size() {
                return Err(ConfigError::LineSizeMismatch {
                    inner: inner.line_size(),
                    outer: self.outer_cache.line_size(),
                });
            }
        }
        Ok(())
    }

    /// Idle bus cycles corresponding to executing `instructions`
    /// instructions on one processor.
    pub fn instructions_to_bus_cycles(&self, instructions: u64) -> f64 {
        instructions as f64 * CPI * BUS_HZ as f64 / CPU_HZ as f64
    }

    /// Host wall-clock seconds to execute `instructions` instructions
    /// spread across all the processors. The board runs in real time, so
    /// this is also its run time (the "MemorIES" columns of Tables 4–5).
    pub fn seconds_for_instructions(&self, instructions: u64) -> f64 {
        instructions as f64 / (self.num_cpus as f64 * CPU_HZ as f64 / CPI)
    }
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig::s7a()
    }
}

/// An invalid [`HostConfig`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// CPU count outside `1..ProcId::MAX_IDS - 1` (one id is reserved for
    /// the I/O bridge).
    BadCpuCount {
        /// The requested count.
        count: usize,
    },
    /// The outer cache has more ways than the host's outer store can
    /// order (64).
    TooManyOuterWays {
        /// The requested associativity.
        ways: u32,
    },
    /// The inner cache cannot be included in the outer one.
    InnerLargerThanOuter {
        /// Inner capacity in bytes.
        inner: u64,
        /// Outer capacity in bytes.
        outer: u64,
    },
    /// Inner and outer levels disagree on line size.
    LineSizeMismatch {
        /// Inner line size in bytes.
        inner: u64,
        /// Outer line size in bytes.
        outer: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadCpuCount { count } => {
                write!(f, "cpu count {count} outside supported range")
            }
            ConfigError::TooManyOuterWays { ways } => {
                write!(
                    f,
                    "outer cache has {ways} ways; at most {MAX_WAYS} supported"
                )
            }
            ConfigError::InnerLargerThanOuter { inner, outer } => {
                write!(
                    f,
                    "inner cache ({inner} B) larger than outer cache ({outer} B)"
                )
            }
            ConfigError::LineSizeMismatch { inner, outer } => {
                write!(f, "inner line size {inner} B differs from outer {outer} B")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        HostConfig::s7a().validate().unwrap();
        HostConfig::s7a_l2_off().validate().unwrap();
    }

    #[test]
    fn s7a_matches_paper_parameters() {
        let c = HostConfig::s7a();
        assert_eq!(c.num_cpus, 8);
        assert_eq!(c.outer_cache.capacity(), 8 << 20);
        assert_eq!(c.outer_cache.ways(), 4);
    }

    #[test]
    fn l2_off_promotes_l1() {
        let c = HostConfig::s7a_l2_off();
        assert_eq!(c.inner_cache, None);
        assert_eq!(c.outer_cache.capacity(), 64 << 10);
    }

    #[test]
    fn rejects_bad_configs() {
        let mut c = HostConfig::s7a();
        c.num_cpus = 0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadCpuCount { count: 0 })
        ));

        let mut c = HostConfig::s7a();
        c.inner_cache = Some(Geometry::new(16 << 20, 4, 128).unwrap());
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InnerLargerThanOuter { .. })
        ));

        let mut c = HostConfig::s7a();
        c.inner_cache = Some(Geometry::new(64 << 10, 2, 64).unwrap());
        assert!(matches!(
            c.validate(),
            Err(ConfigError::LineSizeMismatch { .. })
        ));
    }

    #[test]
    fn instruction_time_conversion() {
        let c = HostConfig::s7a();
        // 262 instructions at CPI 1.5 = 393 CPU cycles = 150 bus cycles.
        let cycles = c.instructions_to_bus_cycles(262);
        assert!((cycles - 150.0).abs() < 1e-9);
    }

    #[test]
    fn s7a_matches_table4_calibration() {
        let c = HostConfig::s7a();
        // 8 × 262 MHz at CPI 1.5: ~1.4 G instructions/s aggregate, so
        // 4.2e9 instructions take ~3 s (the FFT m=20 Table 4 row).
        let t = c.seconds_for_instructions(4_200_000_000);
        assert!((t - 3.0).abs() < 0.1, "got {t}");
    }
}
