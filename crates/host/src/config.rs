//! Host machine configuration.

use std::error::Error;
use std::fmt;

use memories_bus::{BusConfig, Geometry, ProcId};

use crate::outer::MAX_WAYS;

/// Configuration of the host SMP machine.
///
/// `outer_cache` is the coherence point (normally the L2); `inner_cache`
/// is an optional L1 in front of it. Turning the L2 "off" — the paper's
/// trick for making MemorIES emulate an L2 instead of an L3 (§2) — is
/// modeled by passing the L1 geometry as `outer_cache` and no inner cache.
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
    /// Processor clock in Hz (262 MHz Northstar on the S7A).
    pub cpu_frequency_hz: u64,
    /// Average cycles per instruction used to convert instruction counts
    /// into elapsed bus time.
    pub cycles_per_instruction: f64,
}

impl HostConfig {
    /// The S7A preset from §5: 8 processors, 262 MHz, 64 KB 2-way L1s,
    /// 8 MB 4-way L2s with 128 B lines.
    pub fn s7a() -> Self {
        HostConfig {
            num_cpus: 8,
            inner_cache: Some(Geometry::new(64 << 10, 2, 128).expect("valid preset geometry")),
            outer_cache: Geometry::new(8 << 20, 4, 128).expect("valid preset geometry"),
            bus: BusConfig::default(),
            cpu_frequency_hz: 262_000_000,
            cycles_per_instruction: 1.5,
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
    /// (inclusion would be impossible), mismatched line sizes between the
    /// levels, a zero CPU or bus clock, a bus that moves zero bytes per
    /// data beat, or a CPI that is not positive and finite.
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
        if self.cpu_frequency_hz == 0 {
            return Err(ConfigError::ZeroCpuFrequency);
        }
        if self.bus.frequency_hz == 0 {
            return Err(ConfigError::ZeroBusFrequency);
        }
        if self.bus.bytes_per_beat == 0 {
            return Err(ConfigError::ZeroBytesPerBeat);
        }
        if !(self.cycles_per_instruction > 0.0 && self.cycles_per_instruction.is_finite()) {
            return Err(ConfigError::BadCpi {
                cpi: self.cycles_per_instruction,
            });
        }
        Ok(())
    }

    /// Idle bus cycles corresponding to executing `instructions`
    /// instructions on one processor.
    pub fn instructions_to_bus_cycles(&self, instructions: u64) -> f64 {
        instructions as f64 * self.cycles_per_instruction * self.bus.frequency_hz as f64
            / self.cpu_frequency_hz as f64
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
    /// The processor clock is zero, so instruction counts would convert
    /// to infinite bus time.
    ZeroCpuFrequency,
    /// The bus clock is zero, so instructions would never advance the bus
    /// and cycle counts would convert to infinite time.
    ZeroBusFrequency,
    /// The bus moves zero bytes per data beat, so a data tenure would
    /// take a division by zero.
    ZeroBytesPerBeat,
    /// Cycles-per-instruction must be positive and finite.
    BadCpi {
        /// The offending value.
        cpi: f64,
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
            ConfigError::ZeroCpuFrequency => write!(f, "cpu frequency must be nonzero"),
            ConfigError::ZeroBusFrequency => write!(f, "bus frequency must be nonzero"),
            ConfigError::ZeroBytesPerBeat => write!(f, "bus bytes per beat must be nonzero"),
            ConfigError::BadCpi { cpi } => {
                write!(
                    f,
                    "cycles per instruction must be positive and finite, got {cpi}"
                )
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
        assert_eq!(c.cpu_frequency_hz, 262_000_000);
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

        let mut c = HostConfig::s7a();
        c.cycles_per_instruction = 0.0;
        assert!(matches!(c.validate(), Err(ConfigError::BadCpi { .. })));
    }

    /// A zero clock or a non-finite CPI would turn instruction counts into
    /// an infinite or NaN idle time on the bus, and a zero beat width
    /// would divide by zero on the first data tenure.
    #[test]
    fn rejects_clocks_that_make_idle_time_non_finite() {
        let mut c = HostConfig::s7a();
        c.cpu_frequency_hz = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroCpuFrequency));
        let mut c = HostConfig::s7a();
        c.bus.frequency_hz = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroBusFrequency));
        let mut c = HostConfig::s7a();
        c.bus.bytes_per_beat = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroBytesPerBeat));
        for cpi in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = HostConfig::s7a();
            c.cycles_per_instruction = cpi;
            assert!(
                matches!(c.validate(), Err(ConfigError::BadCpi { .. })),
                "cpi {cpi} passed"
            );
        }
    }

    #[test]
    fn instruction_time_conversion() {
        let c = HostConfig::s7a();
        // 262 instructions at CPI 1.5 = 393 CPU cycles = 150 bus cycles.
        let cycles = c.instructions_to_bus_cycles(262);
        assert!((cycles - 150.0).abs() < 1e-9);
    }
}
