//! Training-set construction (§IV-B): labeled disposable and
//! non-disposable zones.
//!
//! The paper manually labeled 398 disposable zones ("we took a
//! conservative approach to include zones with as few as 15 disposable
//! domains") and 401 2LD zones sampled from the Alexa top-1000 as
//! non-disposable. With a synthetic trace the labels come from ground
//! truth, but the selection protocol is kept identical: disposable zones
//! need ≥ 15 observed child names; non-disposable zones are the most
//! popular Alexa-like sites.

use dnsnoise_dns::Name;
use dnsnoise_ml::{Dataset, DatasetError};
use dnsnoise_workload::GroundTruth;

use crate::features::GroupFeatures;
use crate::tree::DomainTree;

/// Selection parameters for the labeled training set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingSetBuilder {
    /// Minimum observed child names for a disposable zone to be labeled
    /// (the paper's 15).
    pub min_disposable_names: usize,
    /// Cap on disposable training zones (the paper's 398).
    pub max_disposable_zones: usize,
    /// Cap on non-disposable training zones (the paper's 401).
    pub max_nondisposable_zones: usize,
}

impl Default for TrainingSetBuilder {
    fn default() -> Self {
        TrainingSetBuilder {
            min_disposable_names: 15,
            max_disposable_zones: 398,
            max_nondisposable_zones: 401,
        }
    }
}

/// The labeled zone rows: features, labels, and the `(zone, depth)` each
/// row came from.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledZones {
    /// Feature rows.
    pub rows: Vec<Vec<f64>>,
    /// `true` = disposable.
    pub labels: Vec<bool>,
    /// Row provenance.
    pub zones: Vec<(Name, usize)>,
}

impl LabeledZones {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when no rows were selected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Count of disposable rows.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Converts to an ML dataset.
    ///
    /// # Errors
    ///
    /// Returns an error if the set is empty (no zone met the selection
    /// thresholds).
    pub fn dataset(&self) -> Result<Dataset, DatasetError> {
        Dataset::new(self.rows.clone(), self.labels.clone())
    }
}

impl TrainingSetBuilder {
    /// Builds the labeled set from a day's tree and the scenario ground
    /// truth.
    pub fn build(&self, tree: &DomainTree, gt: &GroundTruth) -> LabeledZones {
        let mut out = LabeledZones { rows: Vec::new(), labels: Vec::new(), zones: Vec::new() };

        // Disposable class: the zone's machine-generated depth group.
        let mut pos = 0usize;
        for zone in gt.disposable_zones() {
            if pos >= self.max_disposable_zones {
                break;
            }
            let Some(depth) = zone.child_depth else { continue };
            let Some(groups) = tree.groups_under(&zone.apex) else { continue };
            let Some(group) = groups.groups.get(&depth) else { continue };
            if group.members.len() < self.min_disposable_names {
                continue;
            }
            out.rows.push(GroupFeatures::compute(tree, group).to_vec());
            out.labels.push(true);
            out.zones.push((zone.apex.clone(), depth));
            pos += 1;
        }

        // Non-disposable class: the largest depth group of each known
        // benign zone, most-observed zones first (the Alexa-like sample).
        let mut candidates: Vec<(usize, Name, usize, Vec<f64>)> = Vec::new();
        for zone in gt.nondisposable_zones() {
            let Some(groups) = tree.groups_under(&zone.apex) else { continue };
            let Some((depth, group)) = groups.groups.iter().max_by_key(|(_, g)| g.members.len())
            else {
                continue;
            };
            if group.members.is_empty() {
                continue;
            }
            candidates.push((
                group.members.len(),
                zone.apex.clone(),
                *depth,
                GroupFeatures::compute(tree, group).to_vec(),
            ));
        }
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for (_, apex, depth, row) in candidates.into_iter().take(self.max_nondisposable_zones) {
            out.rows.push(row);
            out.labels.push(false);
            out.zones.push((apex, depth));
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_workload::{Scenario, ScenarioConfig};

    fn day_tree(scale: f64, seed: u64) -> (DomainTree, GroundTruth) {
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(scale), seed);
        let trace = scenario.generate_day(0);
        let mut sim = dnsnoise_resolver::ResolverSim::new(dnsnoise_resolver::SimConfig::default());
        let report = sim.day(&trace).ground_truth(scenario.ground_truth()).run();
        (DomainTree::from_day_stats(&report.rr_stats), scenario.ground_truth().clone())
    }

    #[test]
    fn builds_both_classes() {
        let (tree, gt) = day_tree(0.1, 5);
        // At 1/10 experiment scale most tracker zones see < 15 names/day,
        // so use a proportionally smaller floor.
        let labeled =
            TrainingSetBuilder { min_disposable_names: 4, ..Default::default() }.build(&tree, &gt);
        assert!(labeled.positives() > 10, "disposable rows: {}", labeled.positives());
        assert!(
            labeled.len() - labeled.positives() > 50,
            "non-disposable rows: {}",
            labeled.len() - labeled.positives()
        );
        assert!(labeled.dataset().is_ok());
    }

    #[test]
    fn min_names_threshold_filters_small_zones() {
        let (tree, gt) = day_tree(0.1, 5);
        let strict = TrainingSetBuilder { min_disposable_names: 1_000_000, ..Default::default() };
        let labeled = strict.build(&tree, &gt);
        assert_eq!(labeled.positives(), 0);
    }

    #[test]
    fn caps_are_respected() {
        let (tree, gt) = day_tree(0.1, 5);
        let capped = TrainingSetBuilder {
            min_disposable_names: 5,
            max_disposable_zones: 3,
            max_nondisposable_zones: 7,
        };
        let labeled = capped.build(&tree, &gt);
        assert!(labeled.positives() <= 3);
        assert!(labeled.len() - labeled.positives() <= 7);
    }

    #[test]
    fn feature_separation_matches_figure_seven() {
        // Fig. 7: ~90% of disposable CHR weight is at zero; non-disposable
        // zones have a much better distribution.
        let (tree, gt) = day_tree(0.15, 5);
        let labeled = TrainingSetBuilder::default().build(&tree, &gt);
        let zero_frac_idx = 7; // chr_zero_fraction
        let mut disp = Vec::new();
        let mut non = Vec::new();
        for (row, &label) in labeled.rows.iter().zip(&labeled.labels) {
            if label {
                disp.push(row[zero_frac_idx]);
            } else {
                non.push(row[zero_frac_idx]);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(mean(&disp) > 0.75, "disposable zero-CHR fraction {}", mean(&disp));
        assert!(
            mean(&non) < mean(&disp),
            "non-disposable {} vs disposable {}",
            mean(&non),
            mean(&disp)
        );
    }
}
