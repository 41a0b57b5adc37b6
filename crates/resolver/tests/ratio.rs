//! Shape test: the above/below traffic asymmetry (paper Fig. 2) emerges as
//! query density (responses per unique name) approaches the paper's.

use dnsnoise_resolver::{ResolverSim, SimConfig};
use dnsnoise_workload::{Scenario, ScenarioConfig};

fn run(scale: f64, epu: f64, members: usize) -> (u64, u64, f64, f64) {
    let s = Scenario::new(
        ScenarioConfig::paper_epoch(0.5).with_scale(scale).with_events_per_unique(epu),
        3,
    );
    let mut sim = ResolverSim::new(SimConfig { members, ..SimConfig::default() });
    let r = sim.day(&s.generate_day(0)).ground_truth(s.ground_truth()).run_serial();
    (
        r.below_total(),
        r.above_total(),
        r.nx_above() as f64 / r.above_total() as f64,
        r.nx_below() as f64 / r.below_total() as f64,
    )
}

#[test]
fn caching_gap_grows_with_query_density() {
    let (b1, a1, _, _) = run(0.05, 40.0, 2);
    let (b2, a2, _, _) = run(0.05, 800.0, 2);
    let r1 = b1 as f64 / a1 as f64;
    let r2 = b2 as f64 / a2 as f64;
    assert!(r2 > r1 * 1.5, "density 800 ratio {r2:.2} vs density 40 ratio {r1:.2}");
    assert!(r2 > 3.5, "expected a wide above/below gap, got {r2:.2}");
}

#[test]
fn nxdomain_share_is_asymmetric() {
    // Fig. 2: NXDOMAIN ≈ 40% of above-traffic, ≈ 6% below.
    let (_, _, nx_above, nx_below) = run(0.05, 800.0, 2);
    assert!(nx_below < 0.12, "nx below share {nx_below:.3}");
    assert!(nx_above > 3.0 * nx_below, "nx above {nx_above:.3} vs below {nx_below:.3}");
}
