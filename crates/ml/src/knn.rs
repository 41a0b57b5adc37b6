//! k-nearest-neighbours — a model-selection baseline (§V-C).

use crate::data::Dataset;
use crate::{Learner, Model};

/// The k-NN learner. Features are standardised (z-scored) with the
/// training set's statistics before distances are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnClassifier {
    /// Number of neighbours.
    pub k: usize,
}

impl Default for KnnClassifier {
    fn default() -> Self {
        KnnClassifier { k: 5 }
    }
}

/// A trained (memorised) k-NN model.
#[derive(Debug, Clone)]
pub struct KnnModel {
    k: usize,
    rows: Vec<Vec<f64>>,
    labels: Vec<bool>,
    stats: Vec<(f64, f64)>,
}

impl KnnModel {
    fn standardise(&self, x: &[f64]) -> Vec<f64> {
        x.iter().zip(&self.stats).map(|(v, (m, s))| (v - m) / s).collect()
    }
}

impl Model for KnnModel {
    fn score(&self, x: &[f64]) -> f64 {
        let q = self.standardise(x);
        let mut dists: Vec<(f64, bool)> = self
            .rows
            .iter()
            .zip(&self.labels)
            .map(|(r, &l)| {
                let d: f64 = r.iter().zip(&q).map(|(a, b)| (a - b).powi(2)).sum();
                (d, l)
            })
            .collect();
        let k = self.k.min(dists.len());
        dists
            .select_nth_unstable_by(k - 1, |a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        let pos = dists[..k].iter().filter(|(_, l)| *l).count();
        pos as f64 / k as f64
    }
}

impl Learner for KnnClassifier {
    fn fit(&self, data: &Dataset) -> Box<dyn Model> {
        assert!(self.k > 0, "k must be positive");
        let stats = data.column_stats();
        let rows: Vec<Vec<f64>> = (0..data.len())
            .map(|i| data.row(i).iter().zip(&stats).map(|(v, (m, s))| (v - m) / s).collect())
            .collect();
        Box::new(KnnModel { k: self.k, rows, labels: data.labels().to_vec(), stats })
    }

    fn name(&self) -> &'static str {
        "kNN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i)]).collect();
        let labels: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        Dataset::new(rows, labels).unwrap()
    }

    #[test]
    fn neighbours_vote() {
        let model = KnnClassifier { k: 3 }.fit(&line_data());
        assert_eq!(model.score(&[39.0]), 1.0);
        assert_eq!(model.score(&[0.0]), 0.0);
    }

    #[test]
    fn boundary_is_mixed() {
        let model = KnnClassifier { k: 4 }.fit(&line_data());
        let s = model.score(&[19.5]);
        assert!(s > 0.0 && s < 1.0, "boundary score {s}");
    }

    #[test]
    fn standardisation_makes_scales_irrelevant() {
        // Feature 1 is the signal at a tiny scale; feature 0 is huge noise
        // with zero variance (constant), which standardisation neutralises.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![1e9, f64::from(i) * 1e-6]).collect();
        let labels: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let model = KnnClassifier { k: 3 }.fit(&data);
        assert_eq!(model.score(&[1e9, 39e-6]), 1.0);
        assert_eq!(model.score(&[1e9, 0.0]), 0.0);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let rows = vec![vec![0.0], vec![1.0]];
        let labels = vec![false, true];
        let data = Dataset::new(rows, labels).unwrap();
        let model = KnnClassifier { k: 100 }.fit(&data);
        assert_eq!(model.score(&[0.0]), 0.5);
    }
}
