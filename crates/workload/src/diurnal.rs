//! The human-driven diurnal load curve (paper Fig. 2: "the traffic volume
//! dropped after midnight and rose at 10am local time").

use rand::Rng;

/// A 24-bucket diurnal intensity curve used to place query timestamps
/// within a simulated day.
///
/// # Examples
///
/// ```
/// use dnsnoise_workload::DiurnalCurve;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let curve = DiurnalCurve::residential();
/// let mut rng = StdRng::seed_from_u64(1);
/// let s = curve.sample_second(&mut rng);
/// assert!(s < 86_400);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalCurve {
    /// Cumulative distribution over hours of day.
    cdf: [f64; 24],
}

impl DiurnalCurve {
    /// Builds a curve from 24 non-negative hourly weights.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any weight is negative/NaN.
    pub fn new(weights: [f64; 24]) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "at least one weight must be positive");
        let mut cdf = [0.0; 24];
        let mut acc = 0.0;
        for (i, w) in weights.iter().enumerate() {
            acc += w / total;
            cdf[i] = acc;
        }
        cdf[23] = 1.0;
        DiurnalCurve { cdf }
    }

    /// A residential-ISP curve: trough around 04:00, rise from 10:00,
    /// evening peak — the qualitative shape of the paper's Fig. 2.
    pub fn residential() -> Self {
        let mut w = [0.0; 24];
        for (h, slot) in w.iter_mut().enumerate() {
            // Two-component sinusoid: broad daytime swell plus an evening bump.
            let x = h as f64;
            let day = 1.0 + 0.85 * ((x - 14.0) / 24.0 * std::f64::consts::TAU).cos();
            let evening = 0.55 * (-((x - 20.0) * (x - 20.0)) / 8.0).exp();
            *slot = (day + evening).max(0.05);
        }
        DiurnalCurve::new(w)
    }

    /// Samples a second-of-day (`0..86_400`) following the curve: hour by
    /// the weights, uniform within the hour.
    pub fn sample_second<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let hour = self.cdf.partition_point(|&c| c < u).min(23);
        hour as u64 * 3600 + rng.gen_range(0..3600)
    }
}

impl Default for DiurnalCurve {
    fn default() -> Self {
        DiurnalCurve::residential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_follow_weights() {
        let curve = DiurnalCurve::residential();
        let mut rng = StdRng::seed_from_u64(7);
        let mut hour_counts = [0u32; 24];
        for _ in 0..50_000 {
            let s = curve.sample_second(&mut rng);
            hour_counts[(s / 3600) as usize] += 1;
        }
        // The 8pm bucket should dominate 4am by a wide margin.
        assert!(hour_counts[20] > hour_counts[4] * 2);
        // Every bucket sees some traffic.
        assert!(hour_counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn flat_curve_is_roughly_uniform() {
        let curve = DiurnalCurve::new([1.0; 24]);
        let mut rng = StdRng::seed_from_u64(9);
        let mut hour_counts = [0u32; 24];
        for _ in 0..48_000 {
            hour_counts[(curve.sample_second(&mut rng) / 3600) as usize] += 1;
        }
        let expect = 2_000.0;
        for &c in &hour_counts {
            assert!(
                (f64::from(c) - expect).abs() < expect * 0.2,
                "bucket {c} too far from {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn all_zero_weights_panic() {
        let _ = DiurnalCurve::new([0.0; 24]);
    }

    #[test]
    fn sample_is_in_range() {
        let curve = DiurnalCurve::residential();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            assert!(curve.sample_second(&mut rng) < 86_400);
        }
    }
}
