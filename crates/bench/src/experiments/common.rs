//! Shared per-day measurement pipeline.

use std::collections::HashSet;

use dnsnoise_dns::Name;
use dnsnoise_resolver::{DayReport, ResolverSim, SimConfig};
use dnsnoise_workload::Scenario;

/// Name-level and record-level measurements of one simulated day.
#[derive(Debug, Clone)]
pub struct DayMeasurement {
    /// The resolver-side report (traffic, per-RR stats, cache counters).
    pub report: DayReport,
    /// Distinct queried names (successful or not).
    pub queried_uniques: usize,
    /// Distinct successfully resolved names.
    pub resolved_uniques: usize,
    /// Distinct disposable names (ground truth).
    pub disposable_uniques: usize,
    /// Distinct resource records observed.
    pub total_rrs: usize,
    /// Distinct resource records under disposable zones.
    pub disposable_rrs: usize,
}

impl DayMeasurement {
    /// Disposable share of unique queried domains (Fig. 13 series 1).
    pub fn disposable_of_queried(&self) -> f64 {
        self.disposable_uniques as f64 / self.queried_uniques.max(1) as f64
    }

    /// Disposable share of unique resolved domains (Fig. 13 series 2).
    pub fn disposable_of_resolved(&self) -> f64 {
        self.disposable_uniques as f64 / self.resolved_uniques.max(1) as f64
    }

    /// Disposable share of distinct RRs (Fig. 13 series 3).
    pub fn disposable_of_rrs(&self) -> f64 {
        self.disposable_rrs as f64 / self.total_rrs.max(1) as f64
    }
}

/// Runs one scenario day through `sim` and computes the measurement.
pub fn measure_day(scenario: &Scenario, sim: &mut ResolverSim, day: u64) -> DayMeasurement {
    let trace = scenario.generate_day(day);
    let gt = scenario.ground_truth();
    let report = sim.day(&trace).ground_truth(gt).run();

    let mut queried: HashSet<&Name> = HashSet::new();
    let mut resolved: HashSet<&Name> = HashSet::new();
    let mut disposable: HashSet<&Name> = HashSet::new();
    for ev in &trace.events {
        queried.insert(&ev.name);
        if !ev.outcome.is_nxdomain() {
            resolved.insert(&ev.name);
            if gt.tag_is_disposable(ev.zone_tag) {
                disposable.insert(&ev.name);
            }
        }
    }

    let total_rrs = report.rr_stats.len();
    let disposable_rrs =
        report.rr_stats.iter().filter(|(key, _)| gt.is_disposable_name(&key.name)).count();

    DayMeasurement {
        queried_uniques: queried.len(),
        resolved_uniques: resolved.len(),
        disposable_uniques: disposable.len(),
        total_rrs,
        disposable_rrs,
        report,
    }
}

/// A fresh default cluster simulator.
pub fn default_sim() -> ResolverSim {
    ResolverSim::new(SimConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::scenario;

    #[test]
    fn measurement_is_consistent() {
        let s = scenario(0.5, 0.03, 40.0, 5);
        let mut sim = default_sim();
        let m = measure_day(&s, &mut sim, 0);
        assert!(m.queried_uniques >= m.resolved_uniques);
        assert!(m.resolved_uniques >= m.disposable_uniques);
        assert!(m.total_rrs >= m.disposable_rrs);
        assert!(m.disposable_of_resolved() > m.disposable_of_queried() * 0.9);
        assert!(m.disposable_of_rrs() > 0.0);
    }
}
