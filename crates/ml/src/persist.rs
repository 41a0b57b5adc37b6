//! Plain-text persistence for trained LAD-tree models.
//!
//! A trained miner is a long-lived operational asset (the paper trains
//! once and mines daily), so the model needs to survive process restarts.
//! The format is line-oriented and human-auditable:
//!
//! ```text
//! ladtree v1 shrinkage=0.5
//! stump feature=6 threshold=0.45 left=1.2 right=-0.8
//! …
//! ```

use std::fmt::Write as _;

use crate::ladtree::LadTreeModel;
use crate::stump::RegressionStump;

/// Errors while parsing a persisted model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The header line was missing or malformed.
    BadHeader(String),
    /// A stump line failed to parse (1-based line number, description).
    BadStump(usize, String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadHeader(line) => write!(f, "bad model header: {line:?}"),
            PersistError::BadStump(n, msg) => write!(f, "line {n}: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Serialises a model to the text format.
pub fn model_to_text(model: &LadTreeModel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "ladtree v1 shrinkage={}", model.shrinkage());
    for stump in model.stumps() {
        let _ = writeln!(
            out,
            "stump feature={} threshold={} left={} right={}",
            stump.feature, stump.threshold, stump.left, stump.right
        );
    }
    out
}

fn field<'a>(part: &'a str, key: &str, line: usize) -> Result<&'a str, PersistError> {
    part.strip_prefix(key)
        .and_then(|s| s.strip_prefix('='))
        .ok_or_else(|| PersistError::BadStump(line, format!("expected {key}=…, got {part:?}")))
}

/// Parses a model from the text format. Blank lines and `#` comments are
/// skipped.
///
/// # Errors
///
/// Returns the first malformed line.
pub fn model_from_text(text: &str) -> Result<LadTreeModel, PersistError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (_, header) = lines.next().ok_or_else(|| PersistError::BadHeader("<empty>".into()))?;
    let shrinkage: f64 = header
        .strip_prefix("ladtree v1 shrinkage=")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| s.is_finite())
        .ok_or_else(|| PersistError::BadHeader(header.to_owned()))?;

    let mut stumps = Vec::new();
    for (n, line) in lines {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("stump") => {}
            _ => return Err(PersistError::BadStump(n, "expected 'stump'".into())),
        }
        let feature = field(parts.next().unwrap_or(""), "feature", n)?
            .parse::<usize>()
            .map_err(|e| PersistError::BadStump(n, e.to_string()))?;
        let threshold = field(parts.next().unwrap_or(""), "threshold", n)?
            .parse::<f64>()
            .map_err(|e| PersistError::BadStump(n, e.to_string()))?;
        let left = field(parts.next().unwrap_or(""), "left", n)?
            .parse::<f64>()
            .map_err(|e| PersistError::BadStump(n, e.to_string()))?;
        let right = field(parts.next().unwrap_or(""), "right", n)?
            .parse::<f64>()
            .map_err(|e| PersistError::BadStump(n, e.to_string()))?;
        if !(threshold.is_finite() || threshold == f64::INFINITY)
            || !left.is_finite()
            || !right.is_finite()
        {
            return Err(PersistError::BadStump(n, "non-finite stump parameters".into()));
        }
        stumps.push(RegressionStump { feature, threshold, left, right });
    }
    Ok(LadTreeModel::from_parts(stumps, shrinkage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::ladtree::LadTree;
    use crate::Model;

    fn trained() -> LadTreeModel {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![f64::from(i), f64::from(60 - i)]).collect();
        let labels: Vec<bool> = (0..60).map(|i| i >= 30).collect();
        let data = Dataset::new(rows, labels).unwrap();
        LadTree::default().fit_ladtree(&data)
    }

    #[test]
    fn roundtrip_preserves_scores() {
        let model = trained();
        let text = model_to_text(&model);
        let back = model_from_text(&text).unwrap();
        for i in 0..60 {
            let x = [f64::from(i), f64::from(60 - i)];
            assert!((model.score(&x) - back.score(&x)).abs() < 1e-12, "score diverged at {i}");
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let model = trained();
        let mut text = String::from("# trained on day 0\n\n");
        text.push_str(&model_to_text(&model));
        assert!(model_from_text(&text).is_ok());
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(matches!(model_from_text(""), Err(PersistError::BadHeader(_))));
        assert!(matches!(model_from_text("gradientboost v9"), Err(PersistError::BadHeader(_))));
        let bad = "ladtree v1 shrinkage=0.5\nstump feature=x threshold=1 left=1 right=1\n";
        assert!(matches!(model_from_text(bad), Err(PersistError::BadStump(2, _))));
        let nan = "ladtree v1 shrinkage=0.5\nstump feature=0 threshold=1 left=NaN right=1\n";
        assert!(matches!(model_from_text(nan), Err(PersistError::BadStump(2, _))));
    }

    #[test]
    fn a_non_finite_shrinkage_is_a_bad_header() {
        // Such a model scores every row NaN and so finds nothing.
        for shrinkage in ["NaN", "inf", "-inf"] {
            let text = format!(
                "ladtree v1 shrinkage={shrinkage}\nstump feature=0 threshold=1 left=1 right=-1\n"
            );
            let err = model_from_text(&text).unwrap_err();
            assert_eq!(err, PersistError::BadHeader(format!("ladtree v1 shrinkage={shrinkage}")));
        }
    }

    #[test]
    fn infinity_threshold_survives() {
        // Constant stumps use an infinite threshold.
        let text = "ladtree v1 shrinkage=0.5\nstump feature=0 threshold=inf left=0.3 right=0.3\n";
        let model = model_from_text(text).unwrap();
        assert!((model.score(&[123.0]) - 1.0 / (1.0 + (-2.0f64 * 0.15).exp())).abs() < 1e-12);
    }
}
