//! Passive-DNS collection through the wire codec: the collector must
//! parse every packet the simulated cluster serves, and its counts must
//! agree with the resolver's own accounting.

use dnsnoise::dns::Record;
use dnsnoise::pdns::FpDnsLog;
use dnsnoise::resolver::{Observer, ResolverSim, Served, SimConfig};
use dnsnoise::workload::{QueryEvent, Scenario, ScenarioConfig};

/// Feeds every served response to each of its logs.
struct Collector<const N: usize> {
    logs: [FpDnsLog; N],
}

impl<const N: usize> Observer for Collector<N> {
    fn observe(&mut self, event: &QueryEvent, _served: Served, answers: &[Record]) {
        for log in &mut self.logs {
            log.collect(event.time, event.client, &event.name, event.qtype, answers);
        }
    }
}

#[test]
fn collector_parses_every_packet_and_counts_match() {
    let s = Scenario::new(ScenarioConfig::paper_epoch(0.7).with_scale(0.04), 1234);
    let trace = s.generate_day(0);
    let mut sim = ResolverSim::new(SimConfig::default());
    let mut collector = Collector {
        logs: [FpDnsLog::new(1000, true), FpDnsLog::new(0, false), FpDnsLog::new(1000, false)],
    };
    let report = sim.day(&trace).ground_truth(s.ground_truth()).observer(&mut collector).run();
    let [log, uncapped, capped] = &collector.logs;

    // Every response round-tripped the RFC 1035 codec without loss.
    assert_eq!(log.wire_roundtrips(), trace.events.len() as u64);
    assert_eq!(log.wire_parse_failures(), 0);

    // The collector's record count equals the resolver's below volume.
    assert_eq!(log.total_records(), report.below_total - report.nx_below);
    assert_eq!(log.nx_responses(), report.nx_below);
    assert_eq!(log.total_responses(), trace.events.len() as u64);

    // The retained sample carries plausible tuples.
    assert_eq!(log.retained().len(), 1000);
    for tuple in log.retained().iter().take(50) {
        assert!(tuple.name.depth() >= 1);
        assert!(tuple.storage_bytes() > 20);
    }

    // Records past the retention cap are sized without being built: a
    // log that keeps no tuple and one that keeps a thousand count alike.
    assert!(uncapped.retained().is_empty() && capped.retained().len() == 1000);
    assert!(capped.total_records() > 1000, "the day must outrun the cap");
    for other in [uncapped, capped] {
        assert_eq!(other.total_records(), log.total_records());
        assert_eq!(other.total_responses(), log.total_responses());
        assert_eq!(other.nx_responses(), log.nx_responses());
        assert_eq!(other.storage_bytes(), log.storage_bytes());
        assert_eq!(other.hourly_records(), log.hourly_records());
        assert_eq!(other.hourly_storage_bytes(), log.hourly_storage_bytes());
    }
}

#[test]
fn fpdns_storage_dwarfs_rpdns_storage() {
    // §III-A: fpDNS is 60-145 GB/day compressed; rpDNS is 7-9 GB — an
    // order of magnitude apart. The same gap must appear in the models.
    let s = Scenario::new(
        ScenarioConfig::paper_epoch(0.7).with_scale(0.04).with_events_per_unique(120.0),
        9,
    );
    let trace = s.generate_day(0);
    let mut sim = ResolverSim::new(SimConfig::default());
    let mut collector = Collector { logs: [FpDnsLog::new(0, false)] };
    let report = sim.day(&trace).observer(&mut collector).run();
    let [log] = &collector.logs;

    let mut store = dnsnoise::pdns::RpDns::new();
    for (key, _) in report.rr_stats.iter() {
        let rr = Record::new(
            key.name.clone(),
            key.qtype,
            dnsnoise::dns::Ttl::from_secs(60),
            key.rdata.clone(),
        );
        store.observe(&rr, 0);
    }
    assert!(
        log.storage_bytes() > 5 * store.storage_bytes(),
        "fpdns {} vs rpdns {}",
        log.storage_bytes(),
        store.storage_bytes()
    );
}
