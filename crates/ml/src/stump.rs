//! Weighted least-squares regression stumps — the base learner of the LAD
//! tree's LogitBoost procedure.

/// A one-split regression tree: `if x[feature] <= threshold { left } else
/// { right }`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionStump {
    /// The split feature index.
    pub feature: usize,
    /// The split threshold.
    pub threshold: f64,
    /// Prediction for `x[feature] <= threshold`.
    pub left: f64,
    /// Prediction for `x[feature] > threshold`.
    pub right: f64,
}

impl RegressionStump {
    /// Fits the stump minimising weighted squared error of targets `z`
    /// with weights `w` over rows `x`.
    ///
    /// Returns a constant stump (weighted mean on both sides) when no
    /// split improves on the constant fit — e.g. all-identical features.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or have mismatched lengths.
    pub fn fit(x: &[&[f64]], z: &[f64], w: &[f64]) -> RegressionStump {
        assert!(!x.is_empty(), "cannot fit a stump on no rows");
        assert_eq!(x.len(), z.len(), "targets must match rows");
        assert_eq!(x.len(), w.len(), "weights must match rows");
        let n = x.len();
        let dim = x[0].len();

        let w_total: f64 = w.iter().sum();
        let wz_total: f64 = z.iter().zip(w).map(|(zi, wi)| zi * wi).sum();
        let mean = if w_total > 0.0 { wz_total / w_total } else { 0.0 };

        let mut best: Option<(f64, RegressionStump)> = None;
        let mut order: Vec<usize> = (0..n).collect();

        #[allow(clippy::needless_range_loop)] // j indexes every row's j-th feature
        for j in 0..dim {
            order
                .sort_unstable_by(|&a, &b| x[a][j].partial_cmp(&x[b][j]).expect("finite features"));
            // Prefix sums over the sorted order let every split be scored
            // in O(1).
            let mut wl = 0.0;
            let mut wzl = 0.0;
            for k in 0..n - 1 {
                let i = order[k];
                wl += w[i];
                wzl += w[i] * z[i];
                // Only split between distinct feature values.
                if x[order[k]][j] == x[order[k + 1]][j] {
                    continue;
                }
                let wr = w_total - wl;
                if wl <= 0.0 || wr <= 0.0 {
                    continue;
                }
                let wzr = wz_total - wzl;
                let left = wzl / wl;
                let right = wzr / wr;
                // Weighted SSE reduction relative to the constant fit is
                // wl*left² + wr*right² − w_total*mean² (larger is better).
                let gain = wl * left * left + wr * right * right - w_total * mean * mean;
                let threshold = (x[order[k]][j] + x[order[k + 1]][j]) / 2.0;
                if best.as_ref().is_none_or(|(g, _)| gain > *g) {
                    best = Some((gain, RegressionStump { feature: j, threshold, left, right }));
                }
            }
        }

        match best {
            Some((gain, stump)) if gain > 1e-12 => stump,
            _ => RegressionStump { feature: 0, threshold: f64::INFINITY, left: mean, right: mean },
        }
    }

    /// Evaluates the stump on a feature vector. A vector shorter than
    /// the split feature index reads the missing feature as negative
    /// infinity and takes the left branch.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if x.get(self.feature).copied().unwrap_or(f64::NEG_INFINITY) <= self.threshold {
            self.left
        } else {
            self.right
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(v: &[Vec<f64>]) -> Vec<&[f64]> {
        v.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn fits_perfect_step() {
        let data = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let z = [-1.0, -1.0, 1.0, 1.0];
        let w = [1.0; 4];
        let stump = RegressionStump::fit(&rows(&data), &z, &w);
        assert_eq!(stump.feature, 0);
        assert!((1.0..2.0).contains(&stump.threshold));
        assert_eq!(stump.predict(&[0.5]), -1.0);
        assert_eq!(stump.predict(&[2.5]), 1.0);
    }

    #[test]
    fn picks_the_informative_feature() {
        // Feature 0 is noise; feature 1 separates.
        let data = vec![vec![5.0, 0.0], vec![1.0, 0.1], vec![4.0, 10.0], vec![2.0, 10.1]];
        let z = [-1.0, -1.0, 1.0, 1.0];
        let w = [1.0; 4];
        let stump = RegressionStump::fit(&rows(&data), &z, &w);
        assert_eq!(stump.feature, 1);
    }

    #[test]
    fn respects_weights() {
        // Two conflicting points at the same x; the heavier one wins the
        // side's mean.
        let data = vec![vec![0.0], vec![0.0], vec![1.0]];
        let z = [1.0, -1.0, 0.0];
        let w = [9.0, 1.0, 1.0];
        let stump = RegressionStump::fit(&rows(&data), &z, &w);
        // Left side mean = (9*1 - 1*1)/10 = 0.8.
        assert!((stump.predict(&[0.0]) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn constant_features_give_constant_stump() {
        let data = vec![vec![7.0], vec![7.0], vec![7.0]];
        let z = [1.0, 2.0, 3.0];
        let w = [1.0; 3];
        let stump = RegressionStump::fit(&rows(&data), &z, &w);
        assert_eq!(stump.predict(&[7.0]), 2.0);
        assert_eq!(stump.predict(&[100.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "no rows")]
    fn empty_input_panics() {
        let _ = RegressionStump::fit(&[], &[], &[]);
    }
}
