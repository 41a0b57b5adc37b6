//! Algorithm 1: the recursive disposable-zone classification process.

use dnsnoise_dns::{Name, SuffixList};
use dnsnoise_ml::{LadTree, Model};
use serde::{Deserialize, Serialize};

use crate::features::GroupFeatures;
use crate::labeling::LabeledZones;
use crate::tree::DomainTree;

/// Miner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinerConfig {
    /// Classification confidence threshold θ (Algorithm 1 line 5 sets
    /// 0.9).
    pub theta: f64,
    /// Smallest group worth classifying. Tiny groups carry too little
    /// signal; the paper's training floor of 15 names motivates a
    /// comparable mining floor.
    pub min_group_size: usize,
    /// LAD-tree boosting iterations.
    pub iterations: usize,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig { theta: 0.9, min_group_size: 10, iterations: 60 }
    }
}

/// One Algorithm 1 output: the pair `(zone, k)` with its confidence and
/// the number of decolored member names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// The inspected zone `z`.
    pub zone: Name,
    /// The depth `k` of the disposable group.
    pub depth: usize,
    /// The classifier's confidence `p`.
    pub confidence: f64,
    /// Number of member names decolored.
    pub members: usize,
}

/// The trained disposable zone miner.
pub struct Miner {
    model: Box<dyn Model>,
    config: MinerConfig,
}

impl std::fmt::Debug for Miner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Miner").field("config", &self.config).finish()
    }
}

impl Miner {
    /// Wraps an already-trained model.
    pub fn new(model: Box<dyn Model>, config: MinerConfig) -> Self {
        Miner { model, config }
    }

    /// Trains a LAD tree on the labeled zones, as §V-C does.
    ///
    /// # Panics
    ///
    /// Panics if the labeled set is empty.
    pub fn train(labeled: &LabeledZones, config: MinerConfig) -> Self {
        Miner { model: Box::new(Self::train_model(labeled, config)), config }
    }

    /// Trains and returns the concrete LAD-tree model, for persistence
    /// with [`dnsnoise_ml::persist`].
    ///
    /// # Panics
    ///
    /// Panics if the labeled set is empty.
    pub fn train_model(labeled: &LabeledZones, config: MinerConfig) -> dnsnoise_ml::LadTreeModel {
        let data = labeled.dataset().expect("training set must be non-empty");
        LadTree::with_iterations(config.iterations).fit_ladtree(&data)
    }

    /// The configuration in use.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Scores a single group feature vector (the classifier `C`).
    pub fn score(&self, features: &GroupFeatures) -> f64 {
        self.model.score(&features.to_vec())
    }

    /// Runs Algorithm 1 over the whole tree: from every effective 2LD,
    /// classify depth groups, decolor disposable ones, recurse.
    ///
    /// The tree is mutated (decoloring); [`DomainTree::fold`] colours it
    /// again before the next run, so the streaming miner mines one tree
    /// per day at every epoch close, as the paper's daily process mines
    /// one per day (Fig. 10).
    pub fn mine(&self, tree: &mut DomainTree, psl: &SuffixList) -> Vec<Finding> {
        let mut findings = Vec::new();
        for zone in tree.registered_ids(psl) {
            self.classify_zone(tree, zone, &mut findings);
        }
        findings
    }

    /// Algorithm 1 for one zone `z`, by node id (recursive). The zone's
    /// name is built only for a finding.
    fn classify_zone(&self, tree: &mut DomainTree, zone: usize, out: &mut Vec<Finding>) {
        let groups = tree.groups_under_id(zone, tree.depth_of(zone));
        // Line 1-3: no black descendants → stop.
        if groups.groups.is_empty() {
            return;
        }
        // Lines 6-14: classify each G_k, shallowest first; decolor and
        // emit on a confident disposable verdict.
        for (&k, group) in &groups.groups {
            if group.members.len() < self.config.min_group_size {
                continue;
            }
            let features = GroupFeatures::compute(tree, group);
            let p = self.model.score(&features.to_vec());
            if p >= self.config.theta {
                for &member in &group.members {
                    tree.decolor(member);
                }
                out.push(Finding {
                    zone: tree.name_of(zone),
                    depth: k,
                    confidence: p,
                    members: group.members.len(),
                });
            }
        }
        // Lines 15-17: recurse into children.
        let mut i = 0;
        while let Some(child) = tree.child(zone, i) {
            self.classify_zone(tree, child, out);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_ml::{Dataset, Learner as _};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// A stand-in model: flags groups with many distinct high-entropy
    /// labels and near-total zero cache hit rates. (A single human word
    /// like "metrics" also has per-character entropy > 2.5, so cardinality
    /// is essential — exactly what the trained classifier learns.)
    struct RuleModel;
    impl Model for RuleModel {
        fn score(&self, x: &[f64]) -> f64 {
            let cardinality = x[0];
            let entropy_mean = x[3];
            let zero_frac = x[7];
            if cardinality >= 10.0 && zero_frac >= 0.9 && entropy_mean > 2.5 {
                0.99
            } else {
                0.01
            }
        }
    }

    fn hashy_tree() -> DomainTree {
        let mut tree = DomainTree::new();
        // Disposable-looking: 50 hash children of tracker zone.
        for i in 0..50u64 {
            let name = format!("{}.metrics.tracker.com", dnsnoise_workload::label_base32(i, 20));
            tree.observe(&n(&name), 0.0, 1);
        }
        // Benign: stable hosts with good hit rates.
        for host in [
            "www", "mail", "api", "img", "static", "login", "m", "news", "shop", "blog", "cdn",
            "sso",
        ] {
            tree.observe(&n(&format!("{host}.bigsite.com")), 0.9, 10);
        }
        tree
    }

    #[test]
    fn algorithm_one_finds_the_disposable_zone() {
        let mut tree = hashy_tree();
        let miner = Miner::new(
            Box::new(RuleModel),
            MinerConfig { min_group_size: 10, ..Default::default() },
        );
        let findings = miner.mine(&mut tree, &SuffixList::builtin());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].zone, n("metrics.tracker.com"));
        assert_eq!(findings[0].depth, 4);
        assert_eq!(findings[0].members, 50);
    }

    #[test]
    fn decoloring_prevents_double_reporting() {
        let mut tree = hashy_tree();
        let miner = Miner::new(
            Box::new(RuleModel),
            MinerConfig { min_group_size: 10, ..Default::default() },
        );
        let findings = miner.mine(&mut tree, &SuffixList::builtin());
        // The group members were decolored: re-running on the same
        // (already-decolored) tree finds nothing new.
        let again = miner.mine(&mut tree, &SuffixList::builtin());
        assert_eq!(findings.len(), 1);
        assert!(again.is_empty(), "{again:?}");
    }

    #[test]
    fn small_groups_are_skipped() {
        let mut tree = DomainTree::new();
        for i in 0..5u64 {
            let name = format!("{}.tiny.example.com", dnsnoise_workload::label_base32(i, 20));
            tree.observe(&n(&name), 0.0, 1);
        }
        let miner = Miner::new(
            Box::new(RuleModel),
            MinerConfig { min_group_size: 10, ..Default::default() },
        );
        let findings = miner.mine(&mut tree, &SuffixList::builtin());
        assert!(findings.is_empty());
    }

    #[test]
    fn trained_miner_separates_synthetic_classes() {
        // Train a real LAD tree on synthetic feature rows and check the
        // end-to-end mine() finds the hashy zone.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let e = 3.5 + f64::from(i % 7) * 0.1;
            rows.push(vec![40.0 + f64::from(i), e, e - 0.5, e, e, 0.05, 0.0, 0.97]);
            labels.push(true);
            rows.push(vec![5.0 + f64::from(i % 10), 2.0, 1.0, 1.5, 1.5, 0.2, 0.7, 0.1]);
            labels.push(false);
        }
        let data = Dataset::new(rows.clone(), labels.clone()).unwrap();
        let model = dnsnoise_ml::LadTree::default().fit(&data);
        let miner = Miner::new(model, MinerConfig { min_group_size: 10, ..Default::default() });

        let mut tree = hashy_tree();
        let findings = miner.mine(&mut tree, &SuffixList::builtin());
        assert!(findings.iter().any(|f| f.zone == n("metrics.tracker.com")), "{findings:?}");
        assert!(!findings.iter().any(|f| f.zone == n("bigsite.com")), "{findings:?}");
    }
}
