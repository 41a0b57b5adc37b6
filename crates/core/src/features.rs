//! The statistical feature families of §V-A2.

use dnsnoise_resolver::ChrDistribution;

use crate::tree::{DomainTree, GroupMembers};

/// Number of features per group vector.
pub const FEATURE_COUNT: usize = 8;

/// Display names for the eight features, in vector order.
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "label_set_cardinality",
    "entropy_max",
    "entropy_min",
    "entropy_mean",
    "entropy_median",
    "entropy_variance",
    "chr_median",
    "chr_zero_fraction",
];

/// The feature vector of one depth-group `G_k`: six tree-structure
/// features over the label set `L_k` and two cache-hit-rate features over
/// the group's RRs (§V-A2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupFeatures {
    /// `|L_k|` — how many distinct labels sit next to the inspected zone.
    pub cardinality: f64,
    /// Maximum Shannon entropy over the labels of `L_k`.
    pub entropy_max: f64,
    /// Minimum Shannon entropy.
    pub entropy_min: f64,
    /// Mean Shannon entropy.
    pub entropy_mean: f64,
    /// Median Shannon entropy.
    pub entropy_median: f64,
    /// Variance of the Shannon entropies.
    pub entropy_variance: f64,
    /// Median of the group's cache-hit-rate distribution.
    pub chr_median: f64,
    /// Fraction of the group's CHR weight at exactly zero.
    pub chr_zero_fraction: f64,
}

impl GroupFeatures {
    /// Computes the vector for a group in a tree.
    pub fn compute(tree: &DomainTree, group: &GroupMembers) -> GroupFeatures {
        let entropy = entropy_stats(group.adjacent.iter().map(|&id| tree.entropy_of(id)).collect());
        let chr = group_chr(tree, group);
        GroupFeatures {
            cardinality: group.adjacent.len() as f64,
            entropy_max: entropy.max,
            entropy_min: entropy.min,
            entropy_mean: entropy.mean,
            entropy_median: entropy.median,
            entropy_variance: entropy.variance,
            chr_median: chr.median(),
            chr_zero_fraction: chr.zero_fraction(),
        }
    }

    /// The vector as a feature slice for the ML crate, ordered per
    /// [`FEATURE_NAMES`].
    pub fn to_vec(self) -> Vec<f64> {
        vec![
            self.cardinality,
            self.entropy_max,
            self.entropy_min,
            self.entropy_mean,
            self.entropy_median,
            self.entropy_variance,
            self.chr_median,
            self.chr_zero_fraction,
        ]
    }
}

/// The group's cache-hit-rate distribution: every member RR's DHR value,
/// weighted by its miss count (§V-A2's "Cache Hit Rate Features").
pub(crate) fn group_chr(tree: &DomainTree, group: &GroupMembers) -> ChrDistribution {
    let samples: Vec<(f64, u64)> = group
        .members
        .iter()
        .flat_map(|&id| tree.node_chr(id).map(|(dhr, misses)| (dhr, u64::from(misses))))
        .collect();
    ChrDistribution::from_samples(samples)
}

struct EntropyStats {
    max: f64,
    min: f64,
    mean: f64,
    median: f64,
    variance: f64,
}

/// The entropy statistics of `L_k`, given each label's entropy `h`.
fn entropy_stats(mut h: Vec<f64>) -> EntropyStats {
    if h.is_empty() {
        return EntropyStats { max: 0.0, min: 0.0, mean: 0.0, median: 0.0, variance: 0.0 };
    }
    h.sort_unstable_by(|a, b| a.partial_cmp(b).expect("entropy is finite"));
    let n = h.len() as f64;
    let mean = h.iter().sum::<f64>() / n;
    let variance = h.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let median =
        if h.len() % 2 == 1 { h[h.len() / 2] } else { (h[h.len() / 2 - 1] + h[h.len() / 2]) / 2.0 };
    EntropyStats { max: *h.last().expect("non-empty"), min: h[0], mean, median, variance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::{Label, Name};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn label(s: &str) -> Label {
        s.parse().unwrap()
    }

    #[test]
    fn disposable_looking_group_scores_high_entropy_and_zero_chr() {
        let mut tree = DomainTree::new();
        // Machine-generated children, each looked up once and missed once.
        for i in 0..100 {
            let name = format!("{}.avqs.vendor.com", dnsnoise_workload::label_base32(i, 24));
            tree.observe(&n(&name), 0.0, 1);
        }
        let groups = tree.groups_under(&n("avqs.vendor.com")).unwrap();
        let f = GroupFeatures::compute(&tree, &groups.groups[&4]);
        assert_eq!(f.cardinality, 100.0);
        assert!(f.entropy_mean > 3.0, "hash labels have high entropy: {}", f.entropy_mean);
        assert_eq!(f.chr_median, 0.0);
        assert_eq!(f.chr_zero_fraction, 1.0);
    }

    #[test]
    fn popular_looking_group_scores_low_entropy_and_good_chr() {
        let mut tree = DomainTree::new();
        for (host, dhr, misses) in [("www", 0.95, 20), ("mail", 0.9, 12), ("api", 0.8, 30)] {
            tree.observe(&n(&format!("{host}.bigsite.com")), dhr, misses);
        }
        let groups = tree.groups_under(&n("bigsite.com")).unwrap();
        let f = GroupFeatures::compute(&tree, &groups.groups[&3]);
        assert_eq!(f.cardinality, 3.0);
        assert!(f.entropy_mean < 2.5, "human labels have low entropy: {}", f.entropy_mean);
        assert!(f.chr_median >= 0.8);
        assert_eq!(f.chr_zero_fraction, 0.0);
    }

    #[test]
    fn entropy_stats_on_singleton() {
        let stats = entropy_stats(vec![label("aaaa").entropy()]);
        assert_eq!(stats.max, 0.0);
        assert_eq!(stats.min, 0.0);
        assert_eq!(stats.variance, 0.0);
    }

    #[test]
    fn entropy_median_even_count() {
        let stats = entropy_stats(vec![label("aaaa").entropy(), label("abcd").entropy()]);
        assert!((stats.median - 1.0).abs() < 1e-12); // (0 + 2) / 2
        assert_eq!(stats.max, 2.0);
        assert_eq!(stats.min, 0.0);
    }

    #[test]
    fn to_vec_matches_feature_names() {
        let f = GroupFeatures {
            cardinality: 1.0,
            entropy_max: 2.0,
            entropy_min: 3.0,
            entropy_mean: 4.0,
            entropy_median: 5.0,
            entropy_variance: 6.0,
            chr_median: 7.0,
            chr_zero_fraction: 8.0,
        };
        let v = f.to_vec();
        assert_eq!(v.len(), FEATURE_COUNT);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
    }
}
