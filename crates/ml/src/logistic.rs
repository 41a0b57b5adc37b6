//! Logistic regression — a model-selection baseline (§V-C).

use crate::data::Dataset;
use crate::{Learner, Model};

/// Logistic regression trained by full-batch gradient descent on
/// standardised features with L2 regularisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticRegression {
    /// Gradient-descent epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 penalty.
    pub l2: f64,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression { epochs: 300, learning_rate: 0.5, l2: 1e-4 }
    }
}

/// A trained logistic model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    weights: Vec<f64>,
    bias: f64,
    stats: Vec<(f64, f64)>,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl Model for LogisticModel {
    fn score(&self, x: &[f64]) -> f64 {
        let z: f64 = x
            .iter()
            .zip(&self.stats)
            .zip(&self.weights)
            .map(|((v, (m, s)), w)| w * (v - m) / s)
            .sum::<f64>()
            + self.bias;
        sigmoid(z)
    }
}

impl Learner for LogisticRegression {
    fn fit(&self, data: &Dataset) -> Box<dyn Model> {
        let stats = data.column_stats();
        let n = data.len();
        let dim = data.dim();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| data.row(i).iter().zip(&stats).map(|(v, (m, s))| (v - m) / s).collect())
            .collect();
        let y: Vec<f64> = data.labels().iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();

        let mut w = vec![0.0f64; dim];
        let mut b = 0.0f64;
        for _ in 0..self.epochs {
            let mut gw = vec![0.0f64; dim];
            let mut gb = 0.0f64;
            for i in 0..n {
                let z: f64 = rows[i].iter().zip(&w).map(|(x, wi)| x * wi).sum::<f64>() + b;
                let err = sigmoid(z) - y[i];
                for j in 0..dim {
                    gw[j] += err * rows[i][j];
                }
                gb += err;
            }
            let inv_n = 1.0 / n as f64;
            for j in 0..dim {
                w[j] -= self.learning_rate * (gw[j] * inv_n + self.l2 * w[j]);
            }
            b -= self.learning_rate * gb * inv_n;
        }

        Box::new(LogisticModel { weights: w, bias: b, stats })
    }

    fn name(&self) -> &'static str {
        "LogisticRegression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_linear_boundary() {
        let rows: Vec<Vec<f64>> =
            (0..100).map(|i| vec![f64::from(i), f64::from(100 - i)]).collect();
        let labels: Vec<bool> = (0..100).map(|i| i >= 50).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let model = LogisticRegression::default().fit(&data);
        assert!(model.score(&[90.0, 10.0]) > 0.9);
        assert!(model.score(&[10.0, 90.0]) < 0.1);
    }

    #[test]
    fn prior_dominates_flat_features() {
        let rows = vec![vec![1.0]; 10];
        let labels: Vec<bool> = (0..10).map(|i| i < 8).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let model = LogisticRegression::default().fit(&data);
        let s = model.score(&[1.0]);
        assert!(s > 0.6, "prior-ish score {s}");
    }

    #[test]
    fn scores_bounded() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i)]).collect();
        let labels: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let model = LogisticRegression::default().fit(&data);
        for v in [-1e6, 0.0, 1e6] {
            let s = model.score(&[v]);
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
