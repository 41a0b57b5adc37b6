//! Zipf-distributed index sampling for content popularity.

use rand::Rng;

/// A sampler drawing indices `0..n` with Zipf(s) popularity: index `i` has
/// probability proportional to `1 / (i + 1)^s`.
///
/// DNS content popularity is classically Zipf-like; this drives the CDN and
/// long-tail zone models so that a few names absorb most lookups while a
/// deep tail is touched rarely — the source of the paper's Fig. 3 long
/// tail and Fig. 5 declining new-RR curve.
///
/// The implementation precomputes the CDF (`O(n)` memory) and samples by
/// binary search (`O(log n)` per draw), which is exact and fast for the
/// pool sizes the scenarios use (≤ a few million).
///
/// # Examples
///
/// ```
/// use dnsnoise_workload::ZipfSampler;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = ZipfSampler::new(1_000, 1.0);
/// let mut rng = StdRng::seed_from_u64(5);
/// let i = zipf.sample(&mut rng);
/// assert!(i < 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Creates a sampler over `0..n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/NaN.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf pool must be non-empty");
        assert!(s.is_finite() && s >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        *cdf.last_mut().expect("n > 0") = 1.0;
        ZipfSampler { cdf }
    }

    /// The pool size `n`.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the pool is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn head_dominates_tail() {
        let zipf = ZipfSampler::new(10_000, 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut head = 0u32;
        let draws = 50_000;
        for _ in 0..draws {
            if zipf.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With s=1 and n=10_000, the top 100 of 10_000 indices hold about
        // half the mass.
        assert!(head > draws / 3, "head draws {head} too few");
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let zipf = ZipfSampler::new(4, 0.0);
        for (i, c) in zipf.cdf.iter().enumerate() {
            assert!((c - (i + 1) as f64 / 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_in_range() {
        let zipf = ZipfSampler::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1_000 {
            assert!(zipf.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pool_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}
