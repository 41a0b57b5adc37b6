//! End-to-end integration: workload → resolver → tree → classifier →
//! Algorithm 1 → evaluation, across crate boundaries.
//!
//! Default runs use reduced trace scales with proportionally relaxed
//! thresholds so the file stays fast; the original full-scale checks are
//! preserved behind `#[ignore]` (`cargo test -- --ignored`).

use dnsnoise::core::{DailyPipeline, MinerConfig};
use dnsnoise::workload::{Scenario, ScenarioConfig};

fn check_full_pipeline(
    scale: f64,
    min_eligible: usize,
    min_tpr: f64,
    max_fpr: f64,
    min_2lds: usize,
) {
    let scenario = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(scale), 404);
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let report = pipeline.run_day(&scenario, 0);

    assert!(report.eligible_disposable >= min_eligible, "eligible {}", report.eligible_disposable);
    assert!(report.tpr() >= min_tpr, "tpr {}", report.tpr());
    assert!(report.fpr() <= max_fpr, "fpr {}", report.fpr());
    assert!(report.precision() >= min_tpr, "precision {}", report.precision());
    assert!(report.unique_2lds >= min_2lds);
    // The ranking is sorted by confidence.
    assert!(report.ranking.windows(2).all(|w| w[0].confidence >= w[1].confidence));
}

#[test]
fn full_pipeline_discovers_disposable_zones_accurately() {
    check_full_pipeline(0.12, 10, 0.75, 0.08, 8);
}

#[test]
#[ignore = "full-scale variant; run with -- --ignored"]
fn full_pipeline_discovers_disposable_zones_accurately_full_scale() {
    check_full_pipeline(0.2, 20, 0.8, 0.05, 10);
}

#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(0.8).with_scale(0.05), 777);
        let mut pipeline = DailyPipeline::new(MinerConfig::default());
        let report = pipeline.run_day(&scenario, 0);
        let mut zones: Vec<String> =
            report.found.iter().map(|f| format!("{}#{}", f.zone, f.depth)).collect();
        zones.sort();
        (zones, report.eligible_disposable, report.detected_disposable)
    };
    assert_eq!(run(), run());
}

fn check_day_transfer(scale: f64, min_tpr: f64, max_fpr: f64) {
    let scenario = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(scale), 55);
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let day0 = pipeline.run_day(&scenario, 0);
    let day3 = pipeline.run_day(&scenario, 3);
    assert!(day0.tpr() >= min_tpr, "day-0 tpr {}", day0.tpr());
    assert!(day3.tpr() >= min_tpr, "day-3 tpr {}", day3.tpr());
    assert!(day3.fpr() <= max_fpr, "day-3 fpr {}", day3.fpr());
}

#[test]
fn model_trained_on_day_zero_transfers_to_later_days() {
    check_day_transfer(0.06, 0.65, 0.1);
}

#[test]
#[ignore = "full-scale variant; run with -- --ignored"]
fn model_trained_on_day_zero_transfers_to_later_days_full_scale() {
    check_day_transfer(0.15, 0.7, 0.1);
}

fn check_cross_epoch(scale: f64, min_tpr: f64, max_fpr: f64) {
    // Train at December volumes, mine a February-like day: the feature
    // families should transfer across the growth epoch.
    let dec = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(scale), 31);
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let _ = pipeline.run_day(&dec, 0);
    assert!(pipeline.miner().is_some());

    let feb = Scenario::new(ScenarioConfig::paper_epoch(0.0).with_scale(scale), 32);
    let report = pipeline.run_day(&feb, 0);
    assert!(report.tpr() >= min_tpr, "cross-epoch tpr {}", report.tpr());
    assert!(report.fpr() <= max_fpr, "cross-epoch fpr {}", report.fpr());
}

#[test]
fn classifier_trained_late_in_year_works_on_early_traffic() {
    check_cross_epoch(0.08, 0.55, 0.12);
}

#[test]
#[ignore = "full-scale variant; run with -- --ignored"]
fn classifier_trained_late_in_year_works_on_early_traffic_full_scale() {
    check_cross_epoch(0.2, 0.6, 0.1);
}
