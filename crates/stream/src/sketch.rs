//! The bounded-memory cardinality sketch.
//!
//! [`HyperLogLog`] estimates distinct counts with relative standard
//! error `≈ 1.04 / √2^precision`, using linear counting in the small
//! range where raw HLL is biased. It is *seeded and deterministic*: every
//! hash is a pure function of `(seed, key)`, so two runs with the same
//! seed touch the same registers in the same order and the streaming
//! miner's output is a pure function of the trace and its configuration —
//! the same contract the batch replay honours.

/// The 64-bit SplitMix64 finaliser — the same mixer the resolver's
/// per-record client sketch uses. Full-avalanche, so sequential keys
/// scatter uniformly across registers.
fn mix64(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Seeded 64-bit hash of `key`: mixing the seed first decorrelates the
/// register assignment from the key distribution.
fn seeded_hash(seed: u64, key: u64) -> u64 {
    mix64(key ^ mix64(seed))
}

/// A seeded HyperLogLog cardinality estimator over `u64` keys.
///
/// # Examples
///
/// ```
/// use dnsnoise_stream::HyperLogLog;
///
/// let mut hll = HyperLogLog::new(12, 7);
/// for k in 0..1000u64 {
///     hll.insert(k);
///     hll.insert(k); // duplicates don't count
/// }
/// let est = hll.estimate();
/// assert!((est - 1000.0).abs() / 1000.0 < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    precision: u8,
    seed: u64,
    /// `2^precision` max-rank registers.
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Smallest supported precision (16 registers).
    pub const MIN_PRECISION: u8 = 4;
    /// Largest supported precision (65 536 registers).
    pub const MAX_PRECISION: u8 = 16;

    /// Creates an estimator with `2^precision` one-byte registers.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is outside
    /// [`Self::MIN_PRECISION`]`..=`[`Self::MAX_PRECISION`].
    pub fn new(precision: u8, seed: u64) -> HyperLogLog {
        assert!(
            (Self::MIN_PRECISION..=Self::MAX_PRECISION).contains(&precision),
            "HLL precision must be within {}..={}",
            Self::MIN_PRECISION,
            Self::MAX_PRECISION,
        );
        HyperLogLog { precision, seed, registers: vec![0; 1 << precision] }
    }

    /// Folds one key into the estimator.
    pub fn insert(&mut self, key: u64) {
        let h = seeded_hash(self.seed, key);
        let idx = (h >> (64 - self.precision)) as usize;
        // Rank of the first set bit in the remaining 64−p bits, 1-based;
        // an all-zero remainder saturates at 64−p+1.
        let rest = h << self.precision;
        let rank =
            if rest == 0 { 64 - u32::from(self.precision) + 1 } else { rest.leading_zeros() + 1 };
        let rank = rank as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// The cardinality estimate, with linear-counting correction in the
    /// small range where raw HLL is biased.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        // 2^-register is exact in f64 for register ≤ 63, so the harmonic
        // sum involves no transcendental calls.
        let sum: f64 = self.registers.iter().map(|&r| 1.0 / (1u64 << r) as f64).sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// The estimate rounded to a whole count.
    pub fn estimate_rounded(&self) -> u64 {
        self.estimate().round() as u64
    }

    /// The precision-implied relative standard error `1.04 / √m`.
    pub fn relative_error(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }

    /// The configured precision.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Resident register storage in bytes.
    pub fn state_bytes(&self) -> usize {
        self.registers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hll_estimates_within_bound_on_sequential_keys() {
        for precision in [8, 12, 14] {
            let mut hll = HyperLogLog::new(precision, 7);
            let n = 10_000u64;
            for k in 0..n {
                hll.insert(k);
            }
            let err = (hll.estimate() - n as f64).abs() / n as f64;
            // 4σ of the precision-implied standard error.
            assert!(
                err <= 4.0 * hll.relative_error(),
                "p={precision}: err {err} vs bound {}",
                4.0 * hll.relative_error()
            );
        }
    }

    #[test]
    fn hll_small_range_is_near_exact() {
        let mut hll = HyperLogLog::new(12, 7);
        for k in 0..50u64 {
            hll.insert(k);
            hll.insert(k);
        }
        // Linear counting over 4096 registers: exact for 50 keys short of
        // a register collision.
        let est = hll.estimate_rounded();
        assert!((49..=51).contains(&est), "estimate {est}");
    }

    #[test]
    fn hll_is_deterministic_for_a_seed() {
        let mut a = HyperLogLog::new(10, 5);
        let mut b = HyperLogLog::new(10, 5);
        for k in 0..2000u64 {
            a.insert(k * 7919);
            b.insert(k * 7919);
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn hll_rejects_out_of_range_precision() {
        let _ = HyperLogLog::new(3, 7);
    }
}
