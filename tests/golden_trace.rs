//! Golden-trace regression harness: a small fixed-seed scenario replayed
//! through the cluster (faults included) must serialize to exactly the
//! committed snapshot, from a day run and from an event session.
//!
//! The snapshot pins every counter the simulation produces — traffic
//! totals, cache counters, resilience accounting, and an order-free
//! digest of the per-record stats — so any behavioural drift in the
//! workload generator, the cache, the fault engine, or the replay loop
//! shows up as a one-line diff. To intentionally rebless after a
//! semantic change: `UPDATE_GOLDEN=1 cargo test --test golden_trace`.

use std::fmt::Write as _;

use dnsnoise::dns::Timestamp;
use dnsnoise::resolver::{DayReport, EventSession, FaultPlan, ResolverSim, Series, SimConfig};
use dnsnoise::workload::{Scenario, ScenarioConfig};

const SNAPSHOT_PATH: &str = "tests/golden/day0.snapshot";

fn scenario() -> Scenario {
    Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.02), 20140622)
}

/// A fault plan exercising every resilience path: packet loss (retries),
/// an upstream outage window (stale serves / SERVFAILs), and a member
/// crash (failover + cold restart).
fn fault_plan() -> FaultPlan {
    "seed=9; loss=0.15; outage=all,timeout,21600,32400; member=1,39600,54000"
        .parse()
        .expect("static fault spec")
}

fn sim() -> ResolverSim {
    let config = SimConfig { members: 3, ..SimConfig::default() }
        .with_serve_stale(dnsnoise::dns::Ttl::from_secs(43_200));
    ResolverSim::new(config)
}

fn run() -> DayReport {
    let s = scenario();
    let trace = s.generate_day(0);
    sim().day(&trace).ground_truth(s.ground_truth()).faults(&fault_plan()).run()
}

/// FNV-1a over the sorted per-record stat lines: order-free, float-free,
/// platform-independent.
fn rr_digest(report: &DayReport) -> u64 {
    let mut lines: Vec<String> = report
        .rr_stats
        .iter()
        .map(|(key, stat)| {
            format!("{}/{}/{} q={} m={}", key.name, key.qtype, key.rdata, stat.queries, stat.misses)
        })
        .collect();
    lines.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn render(report: &DayReport) -> String {
    let mut out = String::new();
    let mut line = |k: &str, v: u64| writeln!(out, "{k} = {v}").expect("string write");
    line("day", report.day);
    line("below_total", report.below_total());
    line("above_total", report.above_total());
    line("nx_below", report.nx_below());
    line("nx_above", report.nx_above());
    line("cache.hits", report.cache.hits);
    line("cache.misses", report.cache.misses);
    line("cache.expired", report.cache.expired);
    line("cache.inserts", report.cache.inserts);
    line("cache.premature_evictions_normal", report.cache.premature_evictions_normal);
    line("cache.premature_evictions_low", report.cache.premature_evictions_low);
    line("cache.expired_evictions", report.cache.expired_evictions);
    line("resilience.retries", report.resilience.retries);
    line("resilience.failed_attempts", report.resilience.failed_attempts);
    line("resilience.timeouts", report.resilience.timeouts);
    line("resilience.upstream_servfails", report.resilience.upstream_servfails);
    line("resilience.servfails_below", report.resilience.servfails_below);
    line("resilience.stale_serves", report.resilience.stale_serves);
    line("resilience.disposable.answered", report.resilience.disposable.answered);
    line("resilience.disposable.failed", report.resilience.disposable.failed);
    line("resilience.nondisposable.answered", report.resilience.nondisposable.answered);
    line("resilience.nondisposable.failed", report.resilience.nondisposable.failed);
    for series in Series::all() {
        line(&format!("traffic.below.{series}"), report.traffic.below_total(series));
        line(&format!("traffic.above.{series}"), report.traffic.above_total(series));
    }
    line("rr_stats.len", report.rr_stats.len() as u64);
    line("rr_stats.digest", rr_digest(report));
    out
}

#[test]
fn day_report_matches_committed_snapshot() {
    let report = run();
    // Sanity: the fixture is non-trivial — faults fired, stale entries
    // served, every traffic series populated.
    assert!(report.resilience.failed_attempts > 0, "fixture must exercise faults");
    assert!(report.resilience.stale_serves > 0, "fixture must exercise serve-stale");
    assert!(report.traffic.below_total(Series::Google) > 0);
    let _ = Timestamp::ZERO; // anchor: timestamps are simulated, not wall-clock

    let rendered = render(&report);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(SNAPSHOT_PATH, &rendered).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(SNAPSHOT_PATH)
        .expect("snapshot missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, expected,
        "day report drifted from the golden snapshot; if the change is \
         intentional, rebless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn session_replay_matches_the_same_snapshot() {
    // The replay's other driver must serialize to the identical snapshot
    // — not merely an equal struct — when the day is pushed event by event.
    let s = scenario();
    let trace = s.generate_day(0);
    let mut session = EventSession::begin(sim(), trace.day, Some(&fault_plan()), None, None);
    for event in &trace.events {
        session.push(event, Some(s.ground_truth()), &mut ());
    }
    assert_eq!(render(&session.finish().0), render(&run()));
}
