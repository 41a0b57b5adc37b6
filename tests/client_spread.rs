//! §IV's client-spread claim: "disposable domain names are only queried a
//! few times by a handful of clients", while popular records are queried
//! by many. Counted exactly: an observer keeps every client that received
//! each record.

use std::collections::{BTreeMap, BTreeSet};

use dnsnoise::dns::{Record, RrKey};
use dnsnoise::resolver::{Observer, ResolverSim, Served, SimConfig};
use dnsnoise::workload::{Category, QueryEvent, Scenario, ScenarioConfig};

/// The distinct clients each record was delivered to, over the responses
/// that carried an answer (neither shed nor failed).
#[derive(Default)]
struct ClientsPerRecord(BTreeMap<RrKey, BTreeSet<u64>>);

impl Observer for ClientsPerRecord {
    fn observe(&mut self, event: &QueryEvent, served: Served, answers: &[Record]) {
        if served.is_shed() || served.is_failure() {
            return;
        }
        for rr in answers {
            self.0.entry(rr.key()).or_default().insert(event.client);
        }
    }
}

#[test]
fn disposable_records_are_seen_by_a_handful_of_clients() {
    let scenario = Scenario::new(
        ScenarioConfig::paper_epoch(1.0).with_scale(0.05).with_events_per_unique(120.0),
        808,
    );
    let gt = scenario.ground_truth();
    let mut clients = ClientsPerRecord::default();
    let mut sim = ResolverSim::new(SimConfig::default());
    sim.day(&scenario.generate_day(0)).ground_truth(gt).observer(&mut clients).run();

    let mut disposable = Vec::new();
    let mut popular = Vec::new();
    for (key, seen) in &clients.0 {
        match gt.zone_of(&key.name) {
            Some(z) if z.disposable => disposable.push(seen.len()),
            Some(z) if z.category == Category::Popular => popular.push(seen.len()),
            _ => {}
        }
    }
    assert!(disposable.len() > 200, "disposable RRs: {}", disposable.len());
    assert!(popular.len() > 20, "popular RRs: {}", popular.len());

    // The "handful": the overwhelming majority of disposable records are
    // seen from at most 3 clients.
    let handful = disposable.iter().filter(|&&c| c <= 3).count();
    let frac = handful as f64 / disposable.len() as f64;
    assert!(frac > 0.95, "disposable handful fraction {frac}");

    // Popular records are spread over far more clients on average.
    let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len() as f64;
    assert!(
        mean(&popular) > 10.0 * mean(&disposable),
        "popular mean {} vs disposable mean {}",
        mean(&popular),
        mean(&disposable)
    );
}
