//! Multi-day ISP monitoring: the paper's operational deployment.
//!
//! Simulates a resolver cluster over a week of growing traffic, mines
//! every day with a classifier trained on day 0, and tracks how the
//! discovered-zone population and the passive-DNS store evolve — the
//! combination of the paper's Fig. 10 pipeline with its §VI-C storage
//! observations.
//!
//! ```text
//! cargo run --release --example isp_monitoring
//! ```

use dnsnoise::core::{CampaignTracker, DailyPipeline, MinerConfig};
use dnsnoise::dns::SuffixList;
use dnsnoise::pdns::RunStore;
use dnsnoise::resolver::{ResolverSim, SimConfig};
use dnsnoise::workload::{Scenario, ScenarioConfig};

fn main() {
    let scenario = Scenario::new(ScenarioConfig::paper_epoch(0.9).with_scale(0.15), 2024);
    let gt = scenario.ground_truth();

    // One simulator for passive-DNS collection (kept warm across days)…
    let mut pdns_sim = ResolverSim::new(SimConfig::default());
    let mut store = RunStore::new();
    let mut disposable = 0u64;
    // …and the mining pipeline with its own cluster.
    let mut pipeline = DailyPipeline::new(MinerConfig::default());

    let mut campaign = CampaignTracker::new();
    println!(
        "day | new zones | cumulative zones | TPR    | new RRs | store size | disposable share"
    );
    println!(
        "----|-----------|------------------|--------|---------|------------|-----------------"
    );

    for day in 0..7 {
        // Mining.
        let report = pipeline.run_day(&scenario, day);
        campaign.ingest(&report);

        // Passive-DNS accounting on the same day's traffic.
        let trace = scenario.generate_day(day);
        let day_report = pdns_sim.day(&trace).ground_truth(gt).run();
        let mut new_rrs = 0u64;
        for (key, _) in day_report.rr_stats.iter() {
            if store.observe_key(key, day) {
                new_rrs += 1;
                disposable += u64::from(gt.is_disposable_name(&key.name));
            }
        }
        println!(
            "{:>3} | {:>9} | {:>16} | {:>5.1}% | {:>7} | {:>10} | {:>15.1}%",
            day + 1,
            campaign.new_on_day(day),
            campaign.zone_count(),
            report.tpr() * 100.0,
            new_rrs,
            store.len(),
            disposable as f64 / store.len().max(1) as f64 * 100.0,
        );
    }

    println!("\nafter one week:");
    println!(
        "  {} distinct (zone, depth) pairs discovered under {} unique 2LDs",
        campaign.zone_count(),
        campaign.unique_2lds(&SuffixList::builtin())
    );
    println!("  {} zones confirmed on every day", campaign.stable_zones(7).count());
    println!(
        "  {} distinct records in the pDNS store ({} bytes modelled)",
        store.len(),
        store.storage_bytes()
    );
    println!("\ntop stable zones:");
    for h in campaign.ranking().into_iter().take(8) {
        println!(
            "  {:55} depth {:2}  {}d seen  peak {:.2}  {} names",
            h.zone.to_string(),
            h.depth,
            h.days_seen,
            h.peak_confidence,
            h.total_names
        );
    }
}
