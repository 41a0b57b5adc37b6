//! Passive-DNS collection through the wire codec: the collector must
//! parse every packet the simulated cluster serves, and its counts must
//! agree with the resolver's own accounting.

use dnsnoise::dns::Record;
use dnsnoise::pdns::FpDnsLog;
use dnsnoise::resolver::{Observer, ResolverSim, Served, SimConfig};
use dnsnoise::workload::{QueryEvent, Scenario, ScenarioConfig};

struct Collector {
    log: FpDnsLog,
}

impl Observer for Collector {
    fn observe(&mut self, event: &QueryEvent, _served: Served, answers: &[Record]) {
        self.log.collect(event.time, event.client, &event.name, event.qtype, answers);
    }
}

#[test]
fn collector_parses_every_packet_and_counts_match() {
    let s = Scenario::new(ScenarioConfig::paper_epoch(0.7).with_scale(0.04), 1234);
    let trace = s.generate_day(0);
    let mut sim = ResolverSim::new(SimConfig::default());
    let mut collector = Collector { log: FpDnsLog::new(1000, true) };
    let report = sim.day(&trace).ground_truth(s.ground_truth()).observer(&mut collector).run();

    // Every response round-tripped the RFC 1035 codec without loss.
    assert_eq!(collector.log.wire_roundtrips(), trace.events.len() as u64);
    assert_eq!(collector.log.wire_parse_failures(), 0);

    // The collector's record count equals the resolver's below volume.
    assert_eq!(collector.log.total_records(), report.below_total - report.nx_below);
    assert_eq!(collector.log.nx_responses(), report.nx_below);
    assert_eq!(collector.log.total_responses(), trace.events.len() as u64);

    // The retained sample carries plausible tuples.
    assert_eq!(collector.log.retained().len(), 1000);
    for tuple in collector.log.retained().iter().take(50) {
        assert!(tuple.name.depth() >= 1);
        assert!(tuple.storage_bytes() > 20);
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
    let mut collector = Collector { log: FpDnsLog::new(0, false) };
    let report = sim.day(&trace).observer(&mut collector).run();

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
        collector.log.storage_bytes() > 5 * store.storage_bytes(),
        "fpdns {} vs rpdns {}",
        collector.log.storage_bytes(),
        store.storage_bytes()
    );
}
