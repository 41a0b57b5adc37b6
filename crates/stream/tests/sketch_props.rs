//! Property tests for the cardinality sketch: the HyperLogLog
//! precision-implied relative error, and strict determinism for a fixed
//! seed — no ambient randomness anywhere.

use dnsnoise_stream::HyperLogLog;
use proptest::prelude::*;

proptest! {
    /// The HLL estimate of n distinct keys stays within a 6-sigma band
    /// of the precision-implied relative error (1.04/sqrt(2^p)), with a
    /// small absolute floor for the tiny-n linear-counting regime.
    #[test]
    fn hll_error_is_within_the_precision_bound(
        n in 1u64..5_000,
        precision in 8u8..14,
        seed in any::<u64>(),
        base in any::<u64>(),
    ) {
        let mut hll = HyperLogLog::new(precision, seed);
        for i in 0..n {
            hll.insert(base.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        }
        let est = hll.estimate();
        let tolerance = (6.0 * hll.relative_error() * n as f64).max(3.0);
        prop_assert!(
            (est - n as f64).abs() <= tolerance,
            "estimate {est:.1} vs true {n} (precision {precision}, tolerance {tolerance:.1})"
        );
    }

    /// Fixed seed ⇒ bit-identical estimate across runs, and re-inserting
    /// keys already seen never moves it (registers only take maxima).
    #[test]
    fn hll_is_deterministic_and_reinsert_stable(
        keys in proptest::collection::vec(any::<u64>(), 1..500),
        precision in 6u8..14,
        seed in any::<u64>(),
    ) {
        let mut first = HyperLogLog::new(precision, seed);
        let mut second = HyperLogLog::new(precision, seed);
        for key in &keys {
            first.insert(*key);
            second.insert(*key);
        }
        prop_assert_eq!(first.estimate().to_bits(), second.estimate().to_bits());

        let before = first.estimate_rounded();
        for key in &keys {
            first.insert(*key);
        }
        prop_assert_eq!(first.estimate_rounded(), before);
    }
}
