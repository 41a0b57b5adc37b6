//! Observability-layer guarantees, end to end: the metrics registry and
//! timeline a run exports must be bit-identical whichever driver replayed
//! the day (and for every value of the benchmark's inert thread shim), and
//! the histogram bucket boundaries must be compile-time stable — independent
//! of `--scale`, seed, or trace size — so exported histograms stay
//! comparable across runs. Two fixed days pin both exports to the byte:
//! a faulted day with serve-stale, and an overloaded day whose flood
//! fills the shed columns and the queue-backlog histogram.

use dnsnoise::resolver::{
    EventSession, FaultPlan, MetricsRegistry, OverloadConfig, ResolverSim, SimConfig,
    ATTEMPT_BOUNDS, LATENCY_BOUNDS_MS, RETRY_BOUNDS,
};
use dnsnoise::workload::{AttackPlan, DayTrace, Scenario, ScenarioConfig};

/// The golden-trace fault plan: packet loss (retries), an upstream
/// timeout outage (stale serves), and a member crash (failover).
fn fault_plan() -> FaultPlan {
    "seed=9; loss=0.15; outage=all,timeout,21600,32400; member=1,39600,54000"
        .parse()
        .expect("static fault spec")
}

fn fixture() -> (Scenario, DayTrace, ResolverSim) {
    let s = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.02), 20140622);
    let trace = s.generate_day(0);
    let config = SimConfig { members: 3, ..SimConfig::default() }
        .with_serve_stale(dnsnoise::dns::Ttl::from_secs(43_200));
    (s, trace, ResolverSim::new(config))
}

fn run_with_metrics(buckets: usize) -> MetricsRegistry {
    let (s, trace, mut sim) = fixture();
    let mut registry = MetricsRegistry::with_buckets(buckets);
    let plan = fault_plan();
    sim.day(&trace).ground_truth(s.ground_truth()).faults(&plan).metrics(&mut registry).run();
    registry
}

#[test]
fn registry_exports_are_bit_identical_across_thread_counts() {
    let reference = run_with_metrics(24);
    let (json, csv) =
        (include_str!("golden/metrics_faults.json"), include_str!("golden/metrics_faults.csv"));
    assert_golden(&reference, json, csv, "DayRun");
    assert!(json.contains("\"queries\":"), "{json}");
    assert!(reference.counters().queries > 0);
    assert!(reference.counters().stale_serves > 0, "outage must trigger stale serves");

    // `DayRun::threads` is the shim the benchmark compiles against: inert.
    let plan = fault_plan();
    for threads in [2, 8] {
        let (s, trace, mut sim) = fixture();
        let mut shimmed = MetricsRegistry::new();
        sim.day(&trace)
            .ground_truth(s.ground_truth())
            .faults(&plan)
            .threads(threads)
            .metrics(&mut shimmed)
            .run();
        assert_golden(&shimmed, json, csv, &format!("DayRun at {threads} threads"));
    }

    // The other driver: the same day pushed through a session.
    let (s, trace, sim) = fixture();
    let mut session =
        EventSession::begin(sim, trace.day, Some(&plan), None, Some(MetricsRegistry::new()));
    for event in &trace.events {
        session.push(event, Some(s.ground_truth()), &mut ());
    }
    let streamed = session.finish_with_metrics().2.expect("the session was given a registry");
    assert_golden(&streamed, json, csv, "EventSession");
}

#[test]
fn timeline_respects_the_requested_bucket_count() {
    for buckets in [8, 96] {
        let reg = run_with_metrics(buckets);
        let csv = reg.timeline_csv();
        assert_eq!(csv.lines().count(), buckets + 1, "header + {buckets} rows");
        // Every recorded query lands in exactly one slot.
        let total: u64 = reg.timeline().slots().iter().map(|s| s.served.iter().sum::<u64>()).sum();
        assert_eq!(total, reg.counters().queries);
    }
}

#[test]
fn histogram_bucket_boundaries_are_stable_across_scale() {
    // The bounds are compile-time constants; two runs at very different
    // scales must expose the very same boundary vectors, so their
    // exported histograms are comparable bucket-for-bucket.
    let mut registries = Vec::new();
    for scale in [0.005, 0.03] {
        let s = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(scale), 11);
        let trace = s.generate_day(0);
        let mut sim = ResolverSim::new(SimConfig::default());
        let mut reg = MetricsRegistry::new();
        let plan = FaultPlan::default().with_seed(3).with_packet_loss(0.2);
        sim.day(&trace).ground_truth(s.ground_truth()).faults(&plan).metrics(&mut reg).run();
        registries.push(reg);
    }
    for reg in &registries {
        assert_eq!(reg.latency_ms().bounds(), LATENCY_BOUNDS_MS);
        assert_eq!(reg.upstream_attempts().bounds(), ATTEMPT_BOUNDS);
        assert_eq!(reg.retries_per_fetch().bounds(), RETRY_BOUNDS);
        assert!(reg.latency_ms().count() > 0);
    }
    // The counts differ (different traffic volume) but the shape is the
    // same: every histogram has bounds.len() + 1 buckets.
    assert_ne!(registries[0].counters().queries, registries[1].counters().queries);
    assert_eq!(
        registries[0].latency_ms().counts().len(),
        registries[1].latency_ms().counts().len()
    );
}

/// The overloaded day: the fixture's scenario with a two-hour
/// random-subdomain flood injected, over two serve-stale members behind
/// a 4-deep queue retiring one query a second, with NXDOMAIN rate
/// limiting at one fetch a second.
fn overloaded_fixture() -> (Scenario, DayTrace, ResolverSim, OverloadConfig) {
    let s = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.02), 20140622);
    let mut trace = s.generate_day(0);
    let attack: AttackPlan =
        "seed=9; victim=flood.example; labellen=16; clients=300; surge=28800,36000,20"
            .parse()
            .expect("static attack spec");
    attack.inject(&mut trace);
    let overload = OverloadConfig::default().with_queue_depth(4).with_service_rate(1).with_rrl(1);
    let config = SimConfig { members: 2, ..SimConfig::default() }
        .with_serve_stale(dnsnoise::dns::Ttl::from_secs(43_200));
    (s, trace, ResolverSim::new(config), overload)
}

/// Asserts that `registry` exports exactly the committed golden pair.
fn assert_golden(registry: &MetricsRegistry, json: &str, csv: &str, driver: &str) {
    assert_eq!(registry.to_json(), json, "{driver}: JSON export drifted from its golden");
    assert_eq!(registry.timeline_csv(), csv, "{driver}: timeline drifted from its golden");
}

#[test]
fn overloaded_day_exports_match_their_goldens() {
    let json = include_str!("golden/metrics_attack.json");
    let csv = include_str!("golden/metrics_attack.csv");
    assert!(json.contains("\"queue_backlog\"") && csv.contains(",dropped,rate_limited"));

    let (s, trace, mut sim, overload) = overloaded_fixture();
    let mut registry = MetricsRegistry::new();
    let report = sim
        .day(&trace)
        .ground_truth(s.ground_truth())
        .overload(&overload)
        .metrics(&mut registry)
        .run();
    let o = &report.overload;
    assert!(o.dropped > 0 && o.rate_limited > 0 && o.stale_under_pressure > 0, "{o:?}");
    assert_golden(&registry, json, csv, "DayRun");

    let (s, trace, sim, overload) = overloaded_fixture();
    let mut session =
        EventSession::begin(sim, trace.day, None, Some(&overload), Some(MetricsRegistry::new()));
    for event in &trace.events {
        session.push(event, Some(s.ground_truth()), &mut ());
    }
    let registry = session.finish_with_metrics().2.expect("the session was given a registry");
    assert_golden(&registry, json, csv, "EventSession");
}
