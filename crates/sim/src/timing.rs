//! The trace-driven simulator's wall-clock model.

use std::time::Duration;

/// Extrapolates trace-driven simulator cost from a measured sample.
///
/// Table 3's large rows (10 billion vectors ≈ 3 days) cannot be measured
/// directly in a test run; the paper itself extrapolates ("approx 3
/// days"). The model fits seconds-per-vector from a measured run and
/// scales linearly — trace-driven simulation is O(trace length).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CSimTimeModel {
    seconds_per_vector: f64,
}

impl CSimTimeModel {
    /// Fits the model from a measured run.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is zero.
    pub fn from_measurement(vectors: u64, elapsed: Duration) -> Self {
        assert!(vectors > 0, "cannot fit a rate from zero vectors");
        CSimTimeModel {
            seconds_per_vector: elapsed.as_secs_f64() / vectors as f64,
        }
    }

    /// A model pinned to the paper's 133 MHz-era C simulator
    /// (Table 3: 10 million vectors in 5 minutes = 30 µs/vector).
    pub fn paper_era() -> Self {
        CSimTimeModel {
            seconds_per_vector: 300.0 / 10_000_000.0,
        }
    }

    /// Seconds per trace vector.
    pub fn seconds_per_vector(&self) -> f64 {
        self.seconds_per_vector
    }

    /// Predicted wall-clock seconds for `vectors` trace vectors.
    pub fn seconds_for(&self, vectors: u64) -> f64 {
        self.seconds_per_vector * vectors as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csim_model_reproduces_table3_extrapolation() {
        let m = CSimTimeModel::paper_era();
        // 10 million vectors -> 5 minutes.
        assert!((m.seconds_for(10_000_000) - 300.0).abs() < 1e-6);
        // 10 billion vectors -> ~3.5 days ("approx 3 days" in the paper).
        let days = m.seconds_for(10_000_000_000) / 86_400.0;
        assert!((2.5..4.5).contains(&days), "extrapolated {days} days");
    }

    #[test]
    fn fitting_from_measurement() {
        let m = CSimTimeModel::from_measurement(1000, Duration::from_millis(10));
        assert!((m.seconds_per_vector() - 1e-5).abs() < 1e-12);
        assert!((m.seconds_for(2000) - 0.02).abs() < 1e-9);
    }
}
