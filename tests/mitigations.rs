//! The paper's §VI mitigations must move the metrics in the documented
//! direction, end to end.
//!
//! Each scenario runs at a reduced scale by default so the whole file
//! stays fast; the original full-scale runs are preserved behind
//! `#[ignore]` (`cargo test -- --ignored`) for occasional deep checks.

use std::sync::Arc;

use dnsnoise::dns::{Record, Ttl};
use dnsnoise::dnssec::{DnssecConfig, DnssecCostModel};
use dnsnoise::pdns::{RpDns, WildcardAggregator};
use dnsnoise::resolver::{Observer, ResolverSim, Served, SimConfig};
use dnsnoise::workload::{QueryEvent, Scenario, ScenarioConfig};

fn scenario_at(scale: f64) -> Scenario {
    Scenario::new(
        ScenarioConfig::paper_epoch(1.0).with_scale(scale).with_events_per_unique(120.0),
        99,
    )
}

fn check_low_priority_caching(scale: f64, capacity_each: usize) {
    let s = scenario_at(scale);
    let gt = Arc::new(s.ground_truth().clone());
    let trace = s.generate_day(0);

    let mut plain =
        ResolverSim::new(SimConfig { members: 2, capacity_each, ..SimConfig::default() });
    let plain_report = plain.day(&trace).run();

    let gt2 = Arc::clone(&gt);
    let mut mitigated = ResolverSim::new(
        SimConfig { members: 2, capacity_each, ..SimConfig::default() }
            .with_low_priority(move |name| gt2.is_disposable_name(name)),
    );
    let mitigated_report = mitigated.day(&trace).run();

    assert!(
        mitigated_report.cache.premature_evictions_normal
            < plain_report.cache.premature_evictions_normal,
        "mitigated {} vs plain {}",
        mitigated_report.cache.premature_evictions_normal,
        plain_report.cache.premature_evictions_normal
    );
}

#[test]
fn low_priority_caching_shields_nondisposable_entries() {
    check_low_priority_caching(0.02, 240);
}

#[test]
#[ignore = "full-scale variant; run with -- --ignored"]
fn low_priority_caching_shields_nondisposable_entries_full_scale() {
    check_low_priority_caching(0.05, 600);
}

fn check_negative_cache(scale: f64) {
    let s = scenario_at(scale);
    let trace = s.generate_day(0);

    let mut ignoring = ResolverSim::new(SimConfig::default());
    let r_ignore = ignoring.day(&trace).run();

    let mut honoring =
        ResolverSim::new(SimConfig::default().with_negative_ttl(Ttl::from_secs(900)));
    let r_honor = honoring.day(&trace).run();

    assert_eq!(
        r_ignore.nx_above(),
        r_ignore.nx_below(),
        "unhonoured: every NXDOMAIN goes upstream"
    );
    assert!(r_honor.nx_above() < r_ignore.nx_above(), "honoured cache absorbs repeats");
    assert_eq!(r_honor.nx_below(), r_ignore.nx_below(), "client-visible NXDOMAIN volume unchanged");
}

#[test]
fn honoring_negative_cache_cuts_upstream_nxdomain() {
    check_negative_cache(0.02);
}

#[test]
#[ignore = "full-scale variant; run with -- --ignored"]
fn honoring_negative_cache_cuts_upstream_nxdomain_full_scale() {
    check_negative_cache(0.05);
}

struct Validator<'a> {
    model: DnssecCostModel,
    gt: &'a dnsnoise::workload::GroundTruth,
}

impl Observer for Validator<'_> {
    fn observe(&mut self, event: &QueryEvent, served: Served, answers: &[Record]) {
        let _ = self.gt;
        if served.went_above() {
            self.model.validate_upstream_answer(answers, event.time);
        }
    }
}

fn check_wildcard_signing(scale: f64) {
    let s = scenario_at(scale);
    let gt = s.ground_truth();
    let trace = s.generate_day(0);
    let rules: Vec<(dnsnoise::dns::Name, usize)> =
        gt.disposable_zones().filter_map(|z| z.child_depth.map(|d| (z.apex.clone(), d))).collect();

    let run = |config: DnssecConfig| {
        let mut sim = ResolverSim::new(SimConfig::default());
        let mut obs = Validator { model: DnssecCostModel::new(config), gt };
        let _ = sim.day(&trace).ground_truth(gt).observer(&mut obs).run();
        (obs.model.stats().signature_validations, obs.model.signature_cache_bytes())
    };

    let (plain_validations, plain_bytes) = run(DnssecConfig::default());
    let (wild_validations, wild_bytes) = run(DnssecConfig::default().with_wildcard_rules(rules));

    assert!(wild_validations < plain_validations, "{wild_validations} vs {plain_validations}");
    assert!(wild_bytes < plain_bytes, "{wild_bytes} vs {plain_bytes}");
}

#[test]
fn wildcard_signing_reduces_dnssec_costs() {
    check_wildcard_signing(0.02);
}

#[test]
#[ignore = "full-scale variant; run with -- --ignored"]
fn wildcard_signing_reduces_dnssec_costs_full_scale() {
    check_wildcard_signing(0.05);
}

fn check_pdns_wildcarding(scale: f64, days: u64, min_aggregated: u64, max_ratio: f64) {
    let s = scenario_at(scale);
    let gt = s.ground_truth();
    let mut sim = ResolverSim::new(SimConfig::default());
    let mut store = RpDns::new();
    for day in 0..days {
        let trace = s.generate_day(day);
        let report = sim.day(&trace).ground_truth(gt).run();
        for (key, _) in report.rr_stats.iter() {
            let rr =
                Record::new(key.name.clone(), key.qtype, Ttl::from_secs(60), key.rdata.clone());
            store.observe(&rr, day);
        }
    }

    let mut agg = WildcardAggregator::new();
    for zone in gt.disposable_zones() {
        if let Some(depth) = zone.child_depth {
            agg.add_rule(zone.apex.clone(), depth);
        }
    }
    let keys: Vec<&dnsnoise::dns::RrKey> = store.iter().map(|(k, _)| k).collect();
    let outcome = agg.aggregate(keys);

    assert!(
        outcome.aggregated_records > min_aggregated,
        "aggregated {}",
        outcome.aggregated_records
    );
    // The reduction ratio is records-per-zone, which scales with trace
    // size: the paper's 0.7% reflects ISP volume (≈9k records/zone); at
    // this test scale each zone only holds tens of records, so the bound
    // is proportionally looser — the mechanism (one entry per zone+type)
    // is what is being verified.
    assert!(
        outcome.disposable_reduction_ratio() < max_ratio,
        "disposable reduction {} (paper at ISP scale: 0.007)",
        outcome.disposable_reduction_ratio()
    );
    assert!(outcome.stored_entries() < store.len() as u64 / 2);
}

#[test]
fn pdns_wildcarding_shrinks_the_store_dramatically() {
    check_pdns_wildcarding(0.02, 2, 200, 0.25);
}

#[test]
#[ignore = "full-scale variant; run with -- --ignored"]
fn pdns_wildcarding_shrinks_the_store_dramatically_full_scale() {
    check_pdns_wildcarding(0.05, 3, 500, 0.15);
}
