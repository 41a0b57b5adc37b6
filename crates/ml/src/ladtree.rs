//! The LAD tree: LogitBoost over regression stumps.
//!
//! Weka's `LADTree` — the classifier the paper selects (§V-C) — grows an
//! alternating decision tree with the LogitBoost procedure of Friedman,
//! Hastie & Tibshirani ("Additive logistic regression", 2000). Each boost
//! round fits a weighted least-squares stump to the working response; the
//! ensemble's additive score is squashed to a probability. For
//! tabular 8-feature data this stump ensemble is exactly the model class
//! the Weka implementation searches.

use crate::data::Dataset;
use crate::stump::RegressionStump;
use crate::{Learner, Model};

/// The LAD tree learner (LogitBoost + stumps).
#[derive(Debug, Clone, PartialEq)]
pub struct LadTree {
    /// Number of boosting iterations (stumps).
    pub iterations: usize,
    /// Shrinkage applied to each stump's contribution.
    pub shrinkage: f64,
    /// Clamp for the working response `z` (LogitBoost's standard guard).
    pub z_max: f64,
}

impl Default for LadTree {
    fn default() -> Self {
        LadTree { iterations: 50, shrinkage: 0.5, z_max: 4.0 }
    }
}

impl LadTree {
    /// A learner with a custom iteration count.
    pub fn with_iterations(iterations: usize) -> Self {
        LadTree { iterations, ..LadTree::default() }
    }
}

/// A trained LAD tree ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct LadTreeModel {
    stumps: Vec<RegressionStump>,
    shrinkage: f64,
}

impl LadTreeModel {
    /// Reassembles a model from its parts (used by [`crate::persist`]).
    pub fn from_parts(stumps: Vec<RegressionStump>, shrinkage: f64) -> Self {
        LadTreeModel { stumps, shrinkage }
    }

    /// The per-stump shrinkage factor.
    pub fn shrinkage(&self) -> f64 {
        self.shrinkage
    }

    /// The fitted stumps in boosting order.
    pub fn stumps(&self) -> &[RegressionStump] {
        &self.stumps
    }

    /// Number of stumps in the ensemble.
    pub fn len(&self) -> usize {
        self.stumps.len()
    }

    /// Returns `true` when the ensemble is empty (predicts 0.5 always).
    pub fn is_empty(&self) -> bool {
        self.stumps.is_empty()
    }

    /// The additive (pre-squash) score `F(x)`.
    pub fn raw_score(&self, x: &[f64]) -> f64 {
        self.stumps.iter().map(|s| s.predict(x) * self.shrinkage).sum()
    }
}

impl Model for LadTreeModel {
    fn score(&self, x: &[f64]) -> f64 {
        // p = 1 / (1 + e^{-2F}) per the LogitBoost ±1 formulation.
        let f = self.raw_score(x);
        1.0 / (1.0 + (-2.0 * f).exp())
    }
}

impl LadTree {
    /// Like [`Learner::fit`] but returns the concrete model type (needed
    /// for persistence).
    pub fn fit_ladtree(&self, data: &Dataset) -> LadTreeModel {
        let n = data.len();
        let rows: Vec<&[f64]> = (0..n).map(|i| data.row(i)).collect();
        // y* ∈ {0, 1}.
        let y: Vec<f64> = data.labels().iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();

        let mut f_scores = vec![0.0f64; n];
        let mut stumps = Vec::with_capacity(self.iterations);
        let mut z = vec![0.0f64; n];
        let mut w = vec![0.0f64; n];

        for _ in 0..self.iterations {
            for i in 0..n {
                let p = 1.0 / (1.0 + (-2.0 * f_scores[i]).exp());
                let var = (p * (1.0 - p)).max(1e-10);
                z[i] = ((y[i] - p) / var).clamp(-self.z_max, self.z_max);
                w[i] = var;
            }
            let stump = RegressionStump::fit(&rows, &z, &w);
            for i in 0..n {
                f_scores[i] += stump.predict(rows[i]) * self.shrinkage;
            }
            stumps.push(stump);
        }

        LadTreeModel { stumps, shrinkage: self.shrinkage }
    }
}

impl Learner for LadTree {
    fn fit(&self, data: &Dataset) -> Box<dyn Model> {
        Box::new(self.fit_ladtree(data))
    }

    fn name(&self) -> &'static str {
        "LADTree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn or_like() -> Dataset {
        // A problem a single stump cannot solve but an additive stump
        // ensemble can: positive iff either coordinate is high. (XOR is
        // deliberately not used: additive models cannot represent it.)
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..25 {
                    rows.push(vec![f64::from(a), f64::from(b)]);
                    labels.push(a == 1 || b == 1);
                }
            }
        }
        Dataset::new(rows, labels).unwrap()
    }

    #[test]
    fn separable_problem_is_learned() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let labels: Vec<bool> = (0..100).map(|i| i >= 50).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let model = LadTree::default().fit(&data);
        assert!(model.score(&[80.0]) > 0.95);
        assert!(model.score(&[20.0]) < 0.05);
    }

    #[test]
    fn boosting_solves_or() {
        let data = or_like();
        let model = LadTree::with_iterations(200).fit(&data);
        assert!(model.score(&[1.0, 0.0]) > 0.8, "10 → {}", model.score(&[1.0, 0.0]));
        assert!(model.score(&[0.0, 1.0]) > 0.8);
        assert!(model.score(&[1.0, 1.0]) > 0.8);
        assert!(model.score(&[0.0, 0.0]) < 0.2);
    }

    #[test]
    fn scores_are_probabilities() {
        let data = or_like();
        let model = LadTree::default().fit(&data);
        for a in [0.0, 0.5, 1.0] {
            for b in [0.0, 0.5, 1.0] {
                let s = model.score(&[a, b]);
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn zero_iterations_predicts_half() {
        let data = or_like();
        let model = LadTree::with_iterations(0).fit(&data);
        assert_eq!(model.score(&[0.0, 0.0]), 0.5);
    }

    #[test]
    fn classify_threshold() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i)]).collect();
        let labels: Vec<bool> = (0..20).map(|i| i >= 10).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let model = LadTree::default().fit(&data);
        assert!(model.classify(&[19.0], 0.9));
        assert!(!model.classify(&[0.0], 0.1));
    }
}
