//! Feature matrices with binary labels.

use std::fmt;

/// A dense feature matrix with one boolean label per row.
///
/// The positive class (`true`) is "disposable" throughout the workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    rows: Vec<Vec<f64>>,
    labels: Vec<bool>,
    dim: usize,
}

/// Errors constructing a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// Rows and labels had different lengths.
    LengthMismatch {
        /// Number of feature rows supplied.
        rows: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// A row had a different dimensionality than the first row.
    RaggedRow {
        /// Index of the offending row.
        index: usize,
        /// Its length.
        got: usize,
        /// Expected length.
        expected: usize,
    },
    /// A feature value was NaN or infinite.
    NonFinite {
        /// Row index.
        row: usize,
        /// Column index.
        col: usize,
    },
    /// The dataset was empty.
    Empty,
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::LengthMismatch { rows, labels } => {
                write!(f, "{rows} rows but {labels} labels")
            }
            DatasetError::RaggedRow { index, got, expected } => {
                write!(f, "row {index} has {got} features, expected {expected}")
            }
            DatasetError::NonFinite { row, col } => {
                write!(f, "non-finite feature at row {row}, column {col}")
            }
            DatasetError::Empty => write!(f, "empty dataset"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Builds a dataset, validating shape and finiteness.
    ///
    /// # Errors
    ///
    /// Returns an error for empty input, ragged rows, length mismatches or
    /// non-finite feature values.
    pub fn new(rows: Vec<Vec<f64>>, labels: Vec<bool>) -> Result<Self, DatasetError> {
        if rows.is_empty() {
            return Err(DatasetError::Empty);
        }
        if rows.len() != labels.len() {
            return Err(DatasetError::LengthMismatch { rows: rows.len(), labels: labels.len() });
        }
        let dim = rows[0].len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != dim {
                return Err(DatasetError::RaggedRow { index: i, got: row.len(), expected: dim });
            }
            for (j, v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(DatasetError::NonFinite { row: i, col: j });
                }
            }
        }
        Ok(Dataset { rows, labels, dim })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if there are no rows (impossible by construction).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The feature row at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// The label of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Count of positive rows.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// A new dataset containing the given row indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            rows: indices.iter().map(|&i| self.rows[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            dim: self.dim,
        }
    }

    /// Per-column `(mean, std)` used for feature standardisation; a std of
    /// zero is reported as 1 so division is always safe.
    pub fn column_stats(&self) -> Vec<(f64, f64)> {
        let n = self.rows.len() as f64;
        (0..self.dim)
            .map(|j| {
                let mean = self.rows.iter().map(|r| r[j]).sum::<f64>() / n;
                let var = self.rows.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n;
                let std = var.sqrt();
                (mean, if std > 0.0 { std } else { 1.0 })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_indexes() {
        let d = Dataset::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![true, false]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.row(1), &[3.0, 4.0]);
        assert!(d.label(0));
        assert_eq!(d.positives(), 1);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert_eq!(Dataset::new(vec![], vec![]), Err(DatasetError::Empty));
        assert!(matches!(
            Dataset::new(vec![vec![1.0]], vec![true, false]),
            Err(DatasetError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![true, false]),
            Err(DatasetError::RaggedRow { index: 1, .. })
        ));
        assert!(matches!(
            Dataset::new(vec![vec![f64::NAN]], vec![true]),
            Err(DatasetError::NonFinite { row: 0, col: 0 })
        ));
    }

    #[test]
    fn subset_picks_rows() {
        let d =
            Dataset::new(vec![vec![0.0], vec![1.0], vec![2.0]], vec![false, true, false]).unwrap();
        let s = d.subset(&[2, 1]);
        assert_eq!(s.row(0), &[2.0]);
        assert!(s.label(1));
    }

    #[test]
    fn column_stats_handle_constant_columns() {
        let d = Dataset::new(vec![vec![5.0, 1.0], vec![5.0, 3.0]], vec![true, false]).unwrap();
        let stats = d.column_stats();
        assert_eq!(stats[0], (5.0, 1.0)); // zero variance → std reported as 1
        assert_eq!(stats[1].0, 2.0);
    }
}
