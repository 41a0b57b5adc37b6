//! Gaussian Naive Bayes — a model-selection baseline (§V-C).

use crate::data::Dataset;
use crate::{Learner, Model};

/// The Gaussian NB learner.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GaussianNb {
    /// Variance floor added to every per-class feature variance.
    pub var_smoothing: f64,
}

/// A trained Gaussian NB model.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNbModel {
    prior_pos: f64,
    /// Per-feature `(mean, var)` for the positive class.
    pos: Vec<(f64, f64)>,
    /// Per-feature `(mean, var)` for the negative class.
    neg: Vec<(f64, f64)>,
}

fn class_stats(data: &Dataset, want: bool, floor: f64) -> Vec<(f64, f64)> {
    let rows: Vec<&[f64]> =
        (0..data.len()).filter(|&i| data.label(i) == want).map(|i| data.row(i)).collect();
    let n = rows.len().max(1) as f64;
    (0..data.dim())
        .map(|j| {
            let mean = rows.iter().map(|r| r[j]).sum::<f64>() / n;
            let var = rows.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n;
            (mean, var + floor)
        })
        .collect()
}

fn log_likelihood(stats: &[(f64, f64)], x: &[f64]) -> f64 {
    stats
        .iter()
        .zip(x)
        .map(|(&(mean, var), &v)| {
            -0.5 * ((v - mean).powi(2) / var + var.ln() + std::f64::consts::TAU.ln())
        })
        .sum()
}

impl Model for GaussianNbModel {
    fn score(&self, x: &[f64]) -> f64 {
        let lp = self.prior_pos.max(1e-12).ln() + log_likelihood(&self.pos, x);
        let ln_ = (1.0 - self.prior_pos).max(1e-12).ln() + log_likelihood(&self.neg, x);
        // Softmax over the two log-joint scores.
        let m = lp.max(ln_);
        let ep = (lp - m).exp();
        let en = (ln_ - m).exp();
        ep / (ep + en)
    }
}

impl Learner for GaussianNb {
    fn fit(&self, data: &Dataset) -> Box<dyn Model> {
        let floor = if self.var_smoothing > 0.0 { self.var_smoothing } else { 1e-9 };
        Box::new(GaussianNbModel {
            prior_pos: data.positives() as f64 / data.len() as f64,
            pos: class_stats(data, true, floor),
            neg: class_stats(data, false, floor),
        })
    }

    fn name(&self) -> &'static str {
        "NaiveBayes"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_blobs() -> Dataset {
        // Two well-separated blobs along both axes.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..50 {
            let jitter = f64::from(i % 10) / 10.0;
            rows.push(vec![0.0 + jitter, 0.0 - jitter]);
            labels.push(false);
            rows.push(vec![10.0 + jitter, 10.0 - jitter]);
            labels.push(true);
        }
        Dataset::new(rows, labels).unwrap()
    }

    #[test]
    fn separates_blobs() {
        let model = GaussianNb::default().fit(&gaussian_blobs());
        assert!(model.score(&[10.0, 10.0]) > 0.99);
        assert!(model.score(&[0.0, 0.0]) < 0.01);
    }

    #[test]
    fn prior_shows_at_ambiguous_points() {
        // 3:1 positive prior, identical likelihoods.
        let rows = vec![vec![1.0]; 4];
        let labels = vec![true, true, true, false];
        let data = Dataset::new(rows, labels).unwrap();
        let model = GaussianNb::default().fit(&data);
        assert!((model.score(&[1.0]) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn scores_in_unit_interval_even_far_away() {
        let model = GaussianNb::default().fit(&gaussian_blobs());
        for v in [-1e9, 0.0, 1e9] {
            let s = model.score(&[v, v]);
            assert!((0.0..=1.0).contains(&s), "score {s} at {v}");
        }
    }
}
