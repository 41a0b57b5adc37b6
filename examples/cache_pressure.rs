//! §VI-A what-if: how disposable domains pressure a resolver cache, and
//! how the paper's "treat disposables with low priority" policy helps.
//!
//! Sweeps cache capacity under the same day of traffic with and without
//! the mitigation and prints premature-eviction and upstream-traffic
//! numbers.
//!
//! ```text
//! cargo run --release --example cache_pressure
//! ```

use std::sync::Arc;

use dnsnoise::resolver::{ResolverSim, SimConfig};
use dnsnoise::workload::{Scenario, ScenarioConfig};

fn main() {
    let scenario = Scenario::new(
        ScenarioConfig::paper_epoch(1.0).with_scale(0.05).with_events_per_unique(250.0),
        7,
    );
    let gt = Arc::new(scenario.ground_truth().clone());
    let trace = scenario.generate_day(0);
    println!("{} responses, {} clients\n", trace.events.len(), scenario.config().n_clients);

    println!("capacity | policy                  | premature evictions (normal/low) | hit rate | above traffic");
    println!("---------|-------------------------|----------------------------------|----------|--------------");
    for capacity in [300usize, 1_000, 3_000, 10_000] {
        for mitigated in [false, true] {
            let mut config =
                SimConfig { members: 2, capacity_each: capacity, ..SimConfig::default() };
            if mitigated {
                let gt = Arc::clone(&gt);
                config = config.with_low_priority(move |name| gt.is_disposable_name(name));
            }
            let mut sim = ResolverSim::new(config);
            let report = sim.day(&trace).ground_truth(scenario.ground_truth()).run();
            println!(
                "{:>8} | {:<23} | {:>15} / {:<14} | {:>7.1}% | {:>13}",
                capacity,
                if mitigated { "low-priority-disposable" } else { "plain LRU" },
                report.cache.premature_evictions_normal,
                report.cache.premature_evictions_low,
                report.cache.hit_rate() * 100.0,
                report.above_total(),
            );
        }
    }

    println!("\nreading: under pressure (small capacities), the mitigation shifts premature");
    println!("evictions from the non-disposable working set (normal) onto disposable");
    println!("entries (low), protecting cache hit rates for real sites.");
}
