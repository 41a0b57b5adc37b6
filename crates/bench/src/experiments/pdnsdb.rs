//! §VI-C what-if: passive-DNS storage costs and the wildcard mitigation.
//!
//! Shape targets: after a 13-day bootstrap the store is mostly disposable
//! records (paper: 88%), and collapsing disposable children under a
//! wildcard shrinks the disposable portion to well under 10% of its raw
//! size (the paper reports 0.7%: 129,674,213 → 945,065).

use dnsnoise_core::{DailyPipeline, MinerConfig};
use dnsnoise_pdns::{RunStore, WildcardAggregator};

use crate::experiments::common;
use crate::util::{pct, scenario, Table};

/// The storage experiment result.
#[derive(Debug, Clone, Default)]
pub struct PdnsDbResult {
    /// Stored distinct records after the window.
    pub total_records: u64,
    /// Disposable records among them.
    pub disposable_records: u64,
    /// Modelled storage bytes without mitigation.
    pub storage_bytes: u64,
    /// Stored entries after wildcard aggregation with ground-truth rules.
    pub aggregated_entries_gt: u64,
    /// Disposable-portion reduction ratio with ground-truth rules.
    pub disposable_reduction_gt: f64,
    /// Stored entries after aggregation with *mined* rules.
    pub aggregated_entries_mined: u64,
    /// Disposable-portion reduction ratio with mined rules.
    pub disposable_reduction_mined: f64,
}

impl PdnsDbResult {
    /// Disposable share of the store.
    pub fn disposable_share(&self) -> f64 {
        self.disposable_records as f64 / self.total_records.max(1) as f64
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::from("== §VI-C: passive-DNS storage and wildcard aggregation ==\n");
        let mut t = Table::new(["metric", "value"]);
        t.row(["stored distinct records".to_owned(), self.total_records.to_string()]);
        t.row(["disposable records".to_owned(), self.disposable_records.to_string()]);
        t.row([
            "disposable share".to_owned(),
            format!("{} (paper: 88%)", pct(self.disposable_share())),
        ]);
        t.row(["modelled storage bytes".to_owned(), self.storage_bytes.to_string()]);
        t.row([
            "entries after wildcarding (ground-truth rules)".to_owned(),
            self.aggregated_entries_gt.to_string(),
        ]);
        t.row([
            "disposable reduction (ground-truth rules)".to_owned(),
            format!("{} of original (paper: 0.7%)", pct(self.disposable_reduction_gt)),
        ]);
        t.row([
            "entries after wildcarding (mined rules)".to_owned(),
            self.aggregated_entries_mined.to_string(),
        ]);
        t.row([
            "disposable reduction (mined rules)".to_owned(),
            format!("{} of original", pct(self.disposable_reduction_mined)),
        ]);
        out.push_str(&t.render());
        out
    }
}

/// Runs the 13-day bootstrap into `store` plus both aggregation variants;
/// the result is bit-identical with or without a spill directory.
pub fn run(scale_factor: f64, store: &mut RunStore) -> PdnsDbResult {
    let s = scenario(0.9, 0.15 * scale_factor, 40.0, 151);
    let gt = s.ground_truth();
    let mut sim = common::default_sim();
    // BTreeSet so the mined rules feed the aggregator in name order,
    // keeping the experiment output reproducible run to run.
    let mut mined_rules: std::collections::BTreeSet<(dnsnoise_dns::Name, usize)> =
        std::collections::BTreeSet::new();
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    // Every record the store took as new: the store's contents, in the
    // order they arrived. Aggregation counts and collects a set, so the
    // order does not matter.
    let mut stored = Vec::new();

    for day in 0..13 {
        let m = common::measure_day(&s, &mut sim, day);
        for (key, _) in m.report.rr_stats.iter() {
            if store.observe_key(key, day) {
                stored.push(key.clone());
            }
        }
        // Mine the first three days to accumulate wildcard rules, like an
        // operator seeding the aggregation filter.
        if day < 3 {
            let report = pipeline.run_day(&s, day);
            for f in &report.found {
                mined_rules.insert((f.zone.clone(), f.depth));
            }
        }
    }

    let mut gt_agg = WildcardAggregator::new();
    for zone in gt.disposable_zones() {
        if let Some(depth) = zone.child_depth {
            gt_agg.add_rule(zone.apex.clone(), depth);
        }
    }
    let mut mined_agg = WildcardAggregator::new();
    for (zone, depth) in &mined_rules {
        mined_agg.add_rule(zone.clone(), *depth);
    }

    let outcome_gt = gt_agg.aggregate(&stored);
    let outcome_mined = mined_agg.aggregate(&stored);

    PdnsDbResult {
        total_records: store.len() as u64,
        disposable_records: stored.iter().filter(|k| gt.is_disposable_name(&k.name)).count() as u64,
        storage_bytes: store.storage_bytes(),
        aggregated_entries_gt: outcome_gt.stored_entries(),
        disposable_reduction_gt: outcome_gt.disposable_reduction_ratio(),
        aggregated_entries_mined: outcome_mined.stored_entries(),
        disposable_reduction_mined: outcome_mined.disposable_reduction_ratio(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcarding_collapses_disposable_storage() {
        let r = run(0.3, &mut RunStore::new());
        assert!(r.disposable_share() > 0.5, "disposable share {}", r.disposable_share());
        assert!(
            r.aggregated_entries_gt < r.total_records / 2,
            "gt aggregation {} of {}",
            r.aggregated_entries_gt,
            r.total_records
        );
        assert!(r.disposable_reduction_gt < 0.05, "gt reduction {}", r.disposable_reduction_gt);
        // Mined rules are a subset of ground truth but still help a lot.
        assert!(r.aggregated_entries_mined < r.total_records);
        assert!(
            r.disposable_reduction_mined < 0.6,
            "mined reduction {}",
            r.disposable_reduction_mined
        );
        assert!(!r.render().is_empty());
    }
}
