//! Evaluation: stratified k-fold cross validation, ROC curves, confusion
//! matrices — the paper's Fig. 12 protocol.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::data::Dataset;
use crate::Learner;

/// Counts of a thresholded binary classifier's outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Positives classified positive.
    pub tp: u64,
    /// Negatives classified positive.
    pub fp: u64,
    /// Negatives classified negative.
    pub tn: u64,
    /// Positives classified negative.
    pub fn_: u64,
}

impl ConfusionMatrix {
    /// Builds a matrix from `(score, label)` pairs at `threshold`.
    pub fn at_threshold(scored: &[(f64, bool)], threshold: f64) -> Self {
        let mut m = ConfusionMatrix::default();
        for &(score, label) in scored {
            match (score >= threshold, label) {
                (true, true) => m.tp += 1,
                (true, false) => m.fp += 1,
                (false, false) => m.tn += 1,
                (false, true) => m.fn_ += 1,
            }
        }
        m
    }

    /// True positive rate (recall); 0 with no positives.
    pub fn tpr(&self) -> f64 {
        let p = self.tp + self.fn_;
        if p == 0 {
            0.0
        } else {
            self.tp as f64 / p as f64
        }
    }

    /// False positive rate; 0 with no negatives.
    pub fn fpr(&self) -> f64 {
        let n = self.fp + self.tn;
        if n == 0 {
            0.0
        } else {
            self.fp as f64 / n as f64
        }
    }

    /// Precision; 0 with no positive predictions.
    pub fn precision(&self) -> f64 {
        let pp = self.tp + self.fp;
        if pp == 0 {
            0.0
        } else {
            self.tp as f64 / pp as f64
        }
    }
}

/// An ROC curve over out-of-fold scores.
#[derive(Debug, Clone, PartialEq)]
pub struct RocCurve {
    /// `(fpr, tpr, threshold)` triples in increasing-FPR order.
    points: Vec<(f64, f64, f64)>,
}

impl RocCurve {
    /// Builds the curve from `(score, label)` pairs.
    pub fn from_scores(scored: &[(f64, bool)]) -> Self {
        let mut sorted: Vec<(f64, bool)> = scored.to_vec();
        // Decreasing score: thresholds sweep from strict to lax.
        sorted.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        let p = sorted.iter().filter(|(_, l)| *l).count() as f64;
        let n = sorted.len() as f64 - p;
        let mut points = vec![(0.0, 0.0, f64::INFINITY)];
        let mut tp = 0.0;
        let mut fp = 0.0;
        let mut i = 0;
        while i < sorted.len() {
            let score = sorted[i].0;
            // Consume ties together so the curve is threshold-consistent.
            while i < sorted.len() && sorted[i].0 == score {
                if sorted[i].1 {
                    tp += 1.0;
                } else {
                    fp += 1.0;
                }
                i += 1;
            }
            points.push((
                if n > 0.0 { fp / n } else { 0.0 },
                if p > 0.0 { tp / p } else { 0.0 },
                score,
            ));
        }
        RocCurve { points }
    }

    /// The `(fpr, tpr, threshold)` points.
    pub fn points(&self) -> &[(f64, f64, f64)] {
        &self.points
    }

    /// Area under the curve (trapezoidal).
    pub fn auc(&self) -> f64 {
        let mut area = 0.0;
        for w in self.points.windows(2) {
            let (x0, y0, _) = w[0];
            let (x1, y1, _) = w[1];
            area += (x1 - x0) * (y0 + y1) / 2.0;
        }
        area
    }

    /// The TPR achieved at the largest threshold whose FPR does not exceed
    /// `max_fpr` (how the paper quotes "97% TPR at 1% FPR").
    pub fn tpr_at_fpr(&self, max_fpr: f64) -> f64 {
        self.points
            .iter()
            .filter(|(fpr, _, _)| *fpr <= max_fpr)
            .map(|&(_, tpr, _)| tpr)
            .fold(0.0, f64::max)
    }

    /// The `(fpr, tpr)` operating point at decision threshold `theta`.
    pub fn operating_point(&self, theta: f64) -> (f64, f64) {
        // The curve stores decreasing thresholds; find the last point whose
        // threshold is still >= theta.
        let mut op = (0.0, 0.0);
        for &(fpr, tpr, thr) in &self.points {
            if thr >= theta {
                op = (fpr, tpr);
            }
        }
        op
    }
}

/// The pooled out-of-fold scores from a cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CvOutcome {
    /// `(score, true label)` for every row, scored by the model that did
    /// not train on it.
    pub scored: Vec<(f64, bool)>,
    /// The learner's display name.
    pub learner: String,
}

impl CvOutcome {
    /// The ROC curve of the pooled scores.
    pub fn roc(&self) -> RocCurve {
        RocCurve::from_scores(&self.scored)
    }

    /// Confusion matrix at a threshold.
    pub fn confusion(&self, threshold: f64) -> ConfusionMatrix {
        ConfusionMatrix::at_threshold(&self.scored, threshold)
    }
}

/// Splits `0..len` into `k` stratified folds: every fold receives a
/// near-equal share of each class.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the dataset size.
pub fn stratified_kfold(labels: &[bool], k: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k > 0 && k <= labels.len(), "fold count must be in 1..=len");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pos: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
    let mut neg: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i]).collect();
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);
    let mut folds = vec![Vec::new(); k];
    for (i, idx) in pos.into_iter().enumerate() {
        folds[i % k].push(idx);
    }
    for (i, idx) in neg.into_iter().enumerate() {
        folds[i % k].push(idx);
    }
    folds
}

/// Standard k-fold cross validation (the paper uses `k = 10`): trains on
/// k−1 folds, scores the held-out fold, pools all out-of-fold scores.
pub fn cross_validate(learner: &dyn Learner, data: &Dataset, k: usize, seed: u64) -> CvOutcome {
    let folds = stratified_kfold(data.labels(), k, seed);
    let mut scored = vec![(0.0, false); data.len()];
    for held in 0..k {
        let train_idx: Vec<usize> = folds
            .iter()
            .enumerate()
            .filter(|(f, _)| *f != held)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        let model = learner.fit(&data.subset(&train_idx));
        for &i in &folds[held] {
            scored[i] = (model.score(data.row(i)), data.label(i));
        }
    }
    CvOutcome { scored, learner: learner.name().to_owned() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladtree::LadTree;

    #[test]
    fn confusion_matrix_counts() {
        let scored = vec![(0.9, true), (0.8, false), (0.2, true), (0.1, false)];
        let m = ConfusionMatrix::at_threshold(&scored, 0.5);
        assert_eq!((m.tp, m.fp, m.tn, m.fn_), (1, 1, 1, 1));
        assert_eq!(m.tpr(), 0.5);
        assert_eq!(m.fpr(), 0.5);
        assert_eq!(m.precision(), 0.5);
    }

    #[test]
    fn perfect_scores_give_auc_one() {
        let scored: Vec<(f64, bool)> = (0..100).map(|i| (f64::from(i), i >= 50)).collect();
        let roc = RocCurve::from_scores(&scored);
        assert!((roc.auc() - 1.0).abs() < 1e-12);
        assert_eq!(roc.tpr_at_fpr(0.0), 1.0);
    }

    #[test]
    fn random_scores_give_auc_half() {
        // Both classes share the identical score distribution: every score
        // value 0..100 appears equally often in each class.
        let scored: Vec<(f64, bool)> = (0..1000).map(|i| (f64::from(i % 100), i < 500)).collect();
        let roc = RocCurve::from_scores(&scored);
        assert!((roc.auc() - 0.5).abs() < 1e-9, "auc {}", roc.auc());
    }

    #[test]
    fn inverted_scores_give_auc_zero() {
        let scored: Vec<(f64, bool)> = (0..100).map(|i| (f64::from(i), i < 50)).collect();
        let roc = RocCurve::from_scores(&scored);
        assert!(roc.auc() < 0.01);
    }

    #[test]
    fn operating_point_moves_with_theta() {
        let scored: Vec<(f64, bool)> = (0..100).map(|i| (f64::from(i) / 100.0, i >= 40)).collect();
        let roc = RocCurve::from_scores(&scored);
        let strict = roc.operating_point(0.9);
        let lax = roc.operating_point(0.1);
        assert!(strict.1 < lax.1, "higher theta → lower TPR");
        assert!(strict.0 <= lax.0);
    }

    #[test]
    fn stratified_folds_balance_classes() {
        let labels: Vec<bool> = (0..100).map(|i| i < 30).collect();
        let folds = stratified_kfold(&labels, 10, 1);
        for fold in &folds {
            let pos = fold.iter().filter(|&&i| labels[i]).count();
            assert_eq!(pos, 3, "each fold gets 3 of 30 positives");
            assert_eq!(fold.len(), 10);
        }
        // Folds partition the indices.
        let mut all: Vec<usize> = folds.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cross_validation_scores_every_row_out_of_fold() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![f64::from(i)]).collect();
        let labels: Vec<bool> = (0..60).map(|i| i >= 30).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let outcome = cross_validate(&LadTree::with_iterations(20), &data, 10, 7);
        assert_eq!(outcome.scored.len(), 60);
        let roc = outcome.roc();
        assert!(roc.auc() > 0.95, "separable problem should CV well, auc {}", roc.auc());
        assert_eq!(outcome.learner, "LADTree");
    }
}
