//! Mining-run reporting and evaluation against ground truth.

use std::collections::HashSet;

use dnsnoise_dns::{Name, SuffixList};
use dnsnoise_workload::GroundTruth;

use crate::miner::Finding;
use crate::tree::DomainTree;

/// A ranked disposable-zone finding (the "Disposable Zone Ranking" output
/// of Fig. 10).
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneRanking {
    /// The zone.
    pub zone: Name,
    /// Disposable group depth.
    pub depth: usize,
    /// Classifier confidence.
    pub confidence: f64,
    /// Decolored names.
    pub members: usize,
}

/// The outcome of one daily mining run, with ground-truth evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MiningReport {
    /// Zero-based day.
    pub day: u64,
    /// Raw findings in discovery order.
    pub found: Vec<Finding>,
    /// Findings sorted by confidence, then size.
    pub ranking: Vec<ZoneRanking>,
    /// Distinct effective 2LDs among found zones (Fig. 11 reports 12,397
    /// 2LDs for 14,488 zones).
    pub unique_2lds: usize,
    /// Ground-truth disposable zones large enough to be found.
    pub eligible_disposable: usize,
    /// Of those, how many a finding covered (zone + depth match).
    pub detected_disposable: usize,
    /// Ground-truth non-disposable zones with a classifiable group.
    pub eligible_nondisposable: usize,
    /// Non-disposable zones wrongly covered by a finding.
    pub false_disposable: usize,
    /// Findings that match no ground-truth disposable zone.
    pub unmatched_findings: usize,
}

impl MiningReport {
    /// Zone-level true positive rate.
    pub fn tpr(&self) -> f64 {
        if self.eligible_disposable == 0 {
            0.0
        } else {
            self.detected_disposable as f64 / self.eligible_disposable as f64
        }
    }

    /// Zone-level false positive rate.
    pub fn fpr(&self) -> f64 {
        if self.eligible_nondisposable == 0 {
            0.0
        } else {
            self.false_disposable as f64 / self.eligible_nondisposable as f64
        }
    }

    /// Fraction of findings that correspond to a real disposable zone.
    pub fn precision(&self) -> f64 {
        if self.found.is_empty() {
            0.0
        } else {
            1.0 - self.unmatched_findings as f64 / self.found.len() as f64
        }
    }

    /// Builds the report: ranks findings and scores them against ground
    /// truth.
    ///
    /// `min_group_size` must match the miner's configuration — it defines
    /// which ground-truth zones were findable at all.
    pub fn evaluate(
        day: u64,
        found: Vec<Finding>,
        tree: &DomainTree,
        gt: &GroundTruth,
        psl: &SuffixList,
        min_group_size: usize,
    ) -> MiningReport {
        let mut ranking: Vec<ZoneRanking> = found
            .iter()
            .map(|f| ZoneRanking {
                zone: f.zone.clone(),
                depth: f.depth,
                confidence: f.confidence,
                members: f.members,
            })
            .collect();
        ranking.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .expect("confidence is finite")
                .then(b.members.cmp(&a.members))
                .then_with(|| a.zone.cmp(&b.zone))
                .then_with(|| a.depth.cmp(&b.depth))
        });

        let unique_2lds = found
            .iter()
            .filter_map(|f| psl.registered_domain(&f.zone))
            .collect::<HashSet<_>>()
            .len();

        // A finding covers a GT zone when the GT apex is the finding's
        // zone or a descendant of it, and the group depth matches the GT
        // child depth (for disposable zones) or any observed depth (for
        // non-disposable zones).
        let covers = |f: &Finding, apex: &Name, depth: Option<usize>| -> bool {
            apex.is_subdomain_of(&f.zone) && depth.is_none_or(|d| d == f.depth)
        };

        let mut eligible_disposable = 0;
        let mut detected_disposable = 0;
        let mut matched_findings: HashSet<usize> = HashSet::new();
        for zone in gt.disposable_zones() {
            let Some(depth) = zone.child_depth else { continue };
            let findable = tree
                .groups_under(&zone.apex)
                .and_then(|g| g.groups.get(&depth).map(|m| m.members.len()))
                .unwrap_or(0)
                >= min_group_size;
            if !findable {
                continue;
            }
            eligible_disposable += 1;
            let mut hit = false;
            for (i, f) in found.iter().enumerate() {
                if covers(f, &zone.apex, Some(depth)) {
                    matched_findings.insert(i);
                    hit = true;
                }
            }
            if hit {
                detected_disposable += 1;
            }
        }

        let mut eligible_nondisposable = 0;
        let mut false_disposable = 0;
        for zone in gt.nondisposable_zones() {
            let classifiable = tree
                .groups_under(&zone.apex)
                .map(|g| g.groups.values().any(|m| m.members.len() >= min_group_size))
                .unwrap_or(false);
            if !classifiable {
                continue;
            }
            eligible_nondisposable += 1;
            // Any finding rooted at or below this benign apex flags it —
            // unless that finding also matched a real disposable zone
            // nested underneath (e.g. an experiment zone under a popular
            // 2LD like google.com).
            let flagged = found.iter().enumerate().any(|(i, f)| {
                !matched_findings.contains(&i)
                    && (f.zone.is_subdomain_of(&zone.apex) || zone.apex.is_subdomain_of(&f.zone))
            });
            if flagged {
                false_disposable += 1;
            }
        }

        let unmatched_findings = (0..found.len()).filter(|i| !matched_findings.contains(i)).count();

        MiningReport {
            day,
            found,
            ranking,
            unique_2lds,
            eligible_disposable,
            detected_disposable,
            eligible_nondisposable,
            false_disposable,
            unmatched_findings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_workload::{Scenario, ScenarioConfig};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn gt() -> GroundTruth {
        Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.05), 7).ground_truth().clone()
    }

    fn tree_with(gt: &GroundTruth, per_zone: usize) -> DomainTree {
        let mut tree = DomainTree::new();
        for (zi, zone) in gt.disposable_zones().enumerate() {
            let depth = zone.child_depth.unwrap();
            let pad = depth - zone.apex.depth() - 1;
            for i in 0..per_zone {
                let mut name = zone.apex.clone();
                for p in 0..pad {
                    name = name.child(format!("x{p}").parse().unwrap());
                }
                name = name.child(dnsnoise_workload::label_base32((zi * 1000 + i) as u64, 16));
                tree.observe(&name, 0.0, 1);
            }
        }
        for zone in gt.nondisposable_zones().take(50) {
            for host in
                ["www", "mail", "api", "img", "static", "login", "m", "news", "shop", "blog"]
            {
                tree.observe(&zone.apex.child(host.parse().unwrap()), 0.8, 5);
            }
        }
        tree
    }

    #[test]
    fn perfect_findings_score_perfectly() {
        let gt = gt();
        let tree = tree_with(&gt, 20);
        let found: Vec<Finding> = gt
            .disposable_zones()
            .map(|z| Finding {
                zone: z.apex.clone(),
                depth: z.child_depth.unwrap(),
                confidence: 0.95,
                members: 20,
            })
            .collect();
        let report = MiningReport::evaluate(0, found, &tree, &gt, &SuffixList::builtin(), 10);
        assert_eq!(report.tpr(), 1.0);
        assert_eq!(report.fpr(), 0.0);
        assert_eq!(report.precision(), 1.0);
        assert!(report.unique_2lds > 0);
    }

    #[test]
    fn no_findings_scores_zero_tpr() {
        let gt = gt();
        let tree = tree_with(&gt, 20);
        let report = MiningReport::evaluate(0, vec![], &tree, &gt, &SuffixList::builtin(), 10);
        assert_eq!(report.tpr(), 0.0);
        assert_eq!(report.fpr(), 0.0);
        assert!(report.eligible_disposable > 0);
    }

    #[test]
    fn benign_finding_counts_as_false_positive() {
        let gt = gt();
        let tree = tree_with(&gt, 20);
        let benign = gt.nondisposable_zones().next().unwrap().apex.clone();
        let found = vec![Finding { zone: benign, depth: 3, confidence: 0.92, members: 10 }];
        let report = MiningReport::evaluate(0, found, &tree, &gt, &SuffixList::builtin(), 10);
        assert!(report.fpr() > 0.0);
        assert_eq!(report.precision(), 0.0);
        assert_eq!(report.unmatched_findings, 1);
    }

    #[test]
    fn small_zones_are_not_eligible() {
        let gt = gt();
        let tree = tree_with(&gt, 3); // below min_group_size
        let report = MiningReport::evaluate(0, vec![], &tree, &gt, &SuffixList::builtin(), 10);
        assert_eq!(report.eligible_disposable, 0);
    }

    #[test]
    fn ranking_sorts_by_confidence_then_size() {
        let gt = gt();
        let tree = tree_with(&gt, 20);
        let found = vec![
            Finding { zone: n("a.example.com"), depth: 4, confidence: 0.91, members: 50 },
            Finding { zone: n("b.example.com"), depth: 4, confidence: 0.99, members: 10 },
            Finding { zone: n("c.example.com"), depth: 4, confidence: 0.91, members: 90 },
        ];
        let report = MiningReport::evaluate(0, found, &tree, &gt, &SuffixList::builtin(), 10);
        let order: Vec<String> = report.ranking.iter().map(|r| r.zone.to_string()).collect();
        assert_eq!(order, vec!["b.example.com", "c.example.com", "a.example.com"]);
    }
}
