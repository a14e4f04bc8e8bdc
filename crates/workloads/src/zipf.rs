//! A constant-time Zipf sampler.

use rand::Rng;

/// Samples ranks `0..n` with Zipf-like skew using Gray et al.'s
/// constant-time method ("Quickly Generating Billion-Record Synthetic
/// Databases", SIGMOD 1994), which needs only two precomputed zeta sums.
///
/// `theta` in `(0, 1)` controls skew (larger is more skewed; OLTP row
/// popularity is traditionally modeled near 0.8).
#[derive(Clone, Debug)]
pub(crate) struct ZipfSampler {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    threshold2: f64,
}

impl ZipfSampler {
    /// Builds a sampler over `n` items with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "n must be positive");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            alpha,
            zetan,
            eta,
            threshold2: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// The harmonic-like zeta sum. O(n) but only run at construction; for
    /// very large `n` it is approximated by integral beyond 10 million
    /// terms (relative error < 1e-4 for theta <= 0.95).
    fn zeta(n: u64, theta: f64) -> f64 {
        const EXACT_TERMS: u64 = 10_000_000;
        let exact_n = n.min(EXACT_TERMS);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > exact_n {
            // Integral of x^-theta from exact_n to n.
            let a = exact_n as f64;
            let b = n as f64;
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Number of items.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Draws one rank in `0..n` (0 is the hottest).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < self.threshold2 {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let z = ZipfSampler::new(100, 0.8);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn rank_zero_is_hottest() {
        let z = ZipfSampler::new(1000, 0.8);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // The hottest rank should beat the median rank by a wide margin.
        assert!(counts[0] > 20 * counts[500].max(1));
        // And the head should dominate: top 10% of ranks > 50% of mass.
        let head: u64 = counts[..100].iter().sum();
        assert!(head > 50_000, "head mass {head}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let z = ZipfSampler::new(5000, 0.7);
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        let va: Vec<u64> = (0..100).map(|_| z.sample(&mut a)).collect();
        let vb: Vec<u64> = (0..100).map(|_| z.sample(&mut b)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn single_item_always_samples_zero() {
        let z = ZipfSampler::new(1, 0.5);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn large_n_construction_is_fast_and_sane() {
        // 1 billion items: zeta is approximated, sampling still in range.
        let z = ZipfSampler::new(1_000_000_000, 0.8);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 1_000_000_000);
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_bad_theta() {
        let _ = ZipfSampler::new(10, 1.5);
    }
}
