//! Multi-day campaign tracking: the operational layer over the daily
//! miner.
//!
//! The paper runs its miner over months of traffic ("over the period of
//! 11 months, we discovered 14,488 new disposable zones") and reports
//! campaign-level aggregates: distinct zones, distinct 2LDs, newly-found
//! zones per day. [`CampaignTracker`] accumulates daily
//! [`MiningReport`]s into exactly those aggregates, with a stability-aware
//! ranking (zones confirmed on many days outrank one-day wonders of equal
//! confidence).

use std::collections::HashMap;

use dnsnoise_dns::{Name, SuffixList};

use crate::report::MiningReport;

/// Accumulated state for one discovered `(zone, depth)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneHistory {
    /// The zone.
    pub zone: Name,
    /// The disposable group depth.
    pub depth: usize,
    /// First day the miner emitted it.
    pub first_seen: u64,
    /// Most recent day it was emitted.
    pub last_seen: u64,
    /// Number of days it was emitted.
    pub days_seen: u32,
    /// Highest confidence observed.
    pub peak_confidence: f64,
    /// Total decolored names across all sightings.
    pub total_names: u64,
}

impl ZoneHistory {
    /// The ranking score: confirmation days weighted by peak confidence
    /// and (log-)volume. Monotone in every component.
    pub fn score(&self) -> f64 {
        f64::from(self.days_seen) * self.peak_confidence * (1.0 + (self.total_names as f64).ln_1p())
    }
}

/// Aggregates daily mining reports into a campaign view.
///
/// # Examples
///
/// ```
/// use dnsnoise_core::{CampaignTracker, DailyPipeline, MinerConfig};
/// use dnsnoise_workload::{Scenario, ScenarioConfig};
///
/// let scenario = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.05), 3);
/// let mut pipeline = DailyPipeline::new(MinerConfig::default());
/// let mut campaign = CampaignTracker::new();
/// for day in 0..2 {
///     campaign.ingest(&pipeline.run_day(&scenario, day));
/// }
/// assert!(campaign.zone_count() > 0);
/// assert!(campaign.new_on_day(0) >= campaign.new_on_day(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CampaignTracker {
    zones: HashMap<(Name, usize), ZoneHistory>,
    new_per_day: HashMap<u64, u32>,
    days_ingested: u32,
}

impl CampaignTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        CampaignTracker::default()
    }

    /// Folds one day's report into the campaign.
    pub fn ingest(&mut self, report: &MiningReport) {
        self.days_ingested += 1;
        for finding in &report.found {
            let key = (finding.zone.clone(), finding.depth);
            match self.zones.get_mut(&key) {
                Some(history) => {
                    history.last_seen = report.day;
                    history.days_seen += 1;
                    history.peak_confidence = history.peak_confidence.max(finding.confidence);
                    history.total_names += finding.members as u64;
                }
                None => {
                    *self.new_per_day.entry(report.day).or_insert(0) += 1;
                    self.zones.insert(
                        key,
                        ZoneHistory {
                            zone: finding.zone.clone(),
                            depth: finding.depth,
                            first_seen: report.day,
                            last_seen: report.day,
                            days_seen: 1,
                            peak_confidence: finding.confidence,
                            total_names: finding.members as u64,
                        },
                    );
                }
            }
        }
    }

    /// Distinct `(zone, depth)` pairs discovered so far.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Distinct effective 2LDs among discovered zones (the Fig. 11
    /// "12,397 unique 2LDs" statistic).
    pub fn unique_2lds(&self, psl: &SuffixList) -> usize {
        self.zones
            .keys()
            .filter_map(|(zone, _)| psl.registered_domain(zone))
            .collect::<std::collections::HashSet<_>>()
            .len()
    }

    /// Zones first discovered on `day`.
    pub fn new_on_day(&self, day: u64) -> u32 {
        self.new_per_day.get(&day).copied().unwrap_or(0)
    }

    /// Number of days ingested.
    pub fn days_ingested(&self) -> u32 {
        self.days_ingested
    }

    /// The history of one zone, if discovered.
    pub fn history(&self, zone: &Name, depth: usize) -> Option<&ZoneHistory> {
        self.zones.get(&(zone.clone(), depth))
    }

    /// All histories ranked by [`ZoneHistory::score`], descending.
    pub fn ranking(&self) -> Vec<&ZoneHistory> {
        let mut all: Vec<&ZoneHistory> = self.zones.values().collect();
        all.sort_by(|a, b| {
            b.score()
                .partial_cmp(&a.score())
                .expect("scores are finite")
                .then_with(|| a.zone.cmp(&b.zone))
                .then_with(|| a.depth.cmp(&b.depth))
        });
        all
    }

    /// Zones seen on at least `min_days` distinct days — the stable core
    /// an operator would act on (e.g. feed to the §VI-C wildcard filter).
    /// Ordered by `(zone, depth)` so exports built from it are
    /// reproducible run to run.
    pub fn stable_zones(&self, min_days: u32) -> impl Iterator<Item = &ZoneHistory> {
        let mut picked: Vec<&ZoneHistory> =
            self.zones.values().filter(|h| h.days_seen >= min_days).collect();
        picked.sort_by(|a, b| a.zone.cmp(&b.zone).then_with(|| a.depth.cmp(&b.depth)));
        picked.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::Finding;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn report(day: u64, findings: Vec<Finding>) -> MiningReport {
        MiningReport { day, found: findings, ..MiningReport::default() }
    }

    fn finding(zone: &str, depth: usize, confidence: f64, members: usize) -> Finding {
        Finding { zone: n(zone), depth, confidence, members }
    }

    #[test]
    fn tracks_first_and_last_seen() {
        let mut c = CampaignTracker::new();
        c.ingest(&report(0, vec![finding("avqs.mcafee.com", 4, 0.95, 100)]));
        c.ingest(&report(3, vec![finding("avqs.mcafee.com", 4, 0.99, 150)]));
        let h = c.history(&n("avqs.mcafee.com"), 4).unwrap();
        assert_eq!(h.first_seen, 0);
        assert_eq!(h.last_seen, 3);
        assert_eq!(h.days_seen, 2);
        assert_eq!(h.peak_confidence, 0.99);
        assert_eq!(h.total_names, 250);
    }

    #[test]
    fn new_per_day_counts_only_first_sightings() {
        let mut c = CampaignTracker::new();
        c.ingest(&report(0, vec![finding("a.x.com", 3, 0.9, 20), finding("b.y.com", 3, 0.9, 20)]));
        c.ingest(&report(1, vec![finding("a.x.com", 3, 0.9, 20), finding("c.z.com", 3, 0.9, 20)]));
        assert_eq!(c.new_on_day(0), 2);
        assert_eq!(c.new_on_day(1), 1);
        assert_eq!(c.zone_count(), 3);
    }

    #[test]
    fn same_zone_different_depth_is_distinct() {
        let mut c = CampaignTracker::new();
        c.ingest(&report(
            0,
            vec![finding("exp.l.google.com", 4, 0.9, 50), finding("exp.l.google.com", 5, 0.9, 10)],
        ));
        assert_eq!(c.zone_count(), 2);
    }

    #[test]
    fn ranking_prefers_stability() {
        let mut c = CampaignTracker::new();
        // Same confidence and volume, but one zone confirmed twice.
        c.ingest(&report(
            0,
            vec![finding("stable.x.com", 3, 0.95, 50), finding("flash.y.com", 3, 0.95, 50)],
        ));
        c.ingest(&report(1, vec![finding("stable.x.com", 3, 0.95, 50)]));
        let ranking = c.ranking();
        assert_eq!(ranking[0].zone, n("stable.x.com"));
    }

    #[test]
    fn stable_zone_filter() {
        let mut c = CampaignTracker::new();
        c.ingest(&report(0, vec![finding("a.x.com", 3, 0.9, 10), finding("b.y.com", 3, 0.9, 10)]));
        c.ingest(&report(1, vec![finding("a.x.com", 3, 0.9, 10)]));
        let stable: Vec<_> = c.stable_zones(2).collect();
        assert_eq!(stable.len(), 1);
        assert_eq!(stable[0].zone, n("a.x.com"));
    }

    #[test]
    fn stable_zones_are_ordered_by_zone_then_depth() {
        // Regression: `stable_zones` used to expose raw HashMap order.
        let mut c = CampaignTracker::new();
        for day in 0..2 {
            c.ingest(&report(
                day,
                vec![
                    finding("z.last.com", 3, 0.9, 10),
                    finding("a.first.com", 5, 0.9, 10),
                    finding("a.first.com", 3, 0.9, 10),
                    finding("m.mid.com", 4, 0.9, 10),
                ],
            ));
        }
        let order: Vec<(String, usize)> =
            c.stable_zones(2).map(|h| (h.zone.to_string(), h.depth)).collect();
        assert_eq!(
            order,
            vec![
                ("a.first.com".to_string(), 3),
                ("a.first.com".to_string(), 5),
                ("m.mid.com".to_string(), 4),
                ("z.last.com".to_string(), 3),
            ]
        );
    }

    #[test]
    fn ranking_breaks_score_ties_by_zone_then_depth() {
        // Two depths of the same zone with identical scores: the ranking
        // must still be a total order, not hash order.
        let mut c = CampaignTracker::new();
        c.ingest(&report(
            0,
            vec![finding("exp.l.google.com", 5, 0.9, 50), finding("exp.l.google.com", 4, 0.9, 50)],
        ));
        let ranking = c.ranking();
        assert_eq!(ranking[0].depth, 4);
        assert_eq!(ranking[1].depth, 5);
    }

    #[test]
    fn unique_2lds_deduplicate() {
        let mut c = CampaignTracker::new();
        c.ingest(&report(
            0,
            vec![
                finding("avqs.mcafee.com", 4, 0.9, 10),
                finding("gti.mcafee.com", 4, 0.9, 10),
                finding("zen.spamhaus.org", 7, 0.9, 10),
            ],
        ));
        assert_eq!(c.unique_2lds(&SuffixList::builtin()), 2);
    }
}
