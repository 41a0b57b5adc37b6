//! Passive-DNS collection through the wire codec: the collector must
//! parse every packet the simulated cluster serves, and its counts must
//! agree with the resolver's own accounting.

use dnsnoise::dns::{wire, Message, Name, QType, Question, RData, Rcode, Record, Ttl};
use dnsnoise::pdns::FpDnsSummary;
use dnsnoise::resolver::{Observer, ResolverSim, Served, SimConfig};
use dnsnoise::workload::{QueryEvent, Scenario, ScenarioConfig};

/// Counts every served response into the fpDNS totals after encoding it
/// as an RFC 1035 packet and parsing it back, as a collector reading
/// packets off the wire would, counting failures instead of panicking.
#[derive(Default)]
struct Collector {
    encoder: wire::Encoder,
    packet: Vec<u8>,
    fpdns: FpDnsSummary,
    roundtrips: u64,
    parse_failures: u64,
}

impl Collector {
    /// The response to `qname`/`qtype` carrying `answers`. An empty
    /// section is an NXDOMAIN with a synthetic SOA in the authority
    /// section, like real RFC 2308 negative responses.
    fn response(&self, qname: &Name, qtype: QType, answers: &[Record]) -> Message {
        let txid = self.roundtrips as u16;
        if !answers.is_empty() {
            let question = Question::new(qname.clone(), qtype);
            return Message::response(txid, question, Rcode::NoError, answers.to_vec());
        }
        let zone = qname.nld(2.min(qname.depth())).unwrap_or_else(|| qname.clone());
        let soa = Record::new(
            zone.clone(),
            QType::Soa,
            Ttl::from_secs(900),
            RData::Soa {
                mname: zone.child("ns1".parse().expect("static label")),
                rname: zone.child("hostmaster".parse().expect("static label")),
                serial: 2_011_113_001,
                refresh: 7_200,
                retry: 900,
                expire: 1_209_600,
                minimum: 900,
            },
        );
        Message::negative_response(txid, Question::new(qname.clone(), qtype), soa)
    }
}

impl Observer for Collector {
    fn observe(&mut self, event: &QueryEvent, _served: Served, answers: &[Record]) {
        let msg = self.response(&event.name, event.qtype, answers);
        self.roundtrips += 1;
        self.packet.clear();
        let (header, q) = (wire::Header::response(msg.id, msg.rcode), &msg.question);
        let encoded = self.encoder.append(
            &mut self.packet,
            header,
            &q.name,
            q.qtype,
            &msg.answers,
            &msg.authority,
        );
        match encoded.map(|()| wire::decode(&self.packet)) {
            Ok(Ok(parsed)) if parsed == msg => {}
            _ => self.parse_failures += 1,
        }
        self.fpdns.collect(answers);
    }
}

#[test]
fn collector_parses_every_packet_and_counts_match() {
    let s = Scenario::new(ScenarioConfig::paper_epoch(0.7).with_scale(0.04), 1234);
    let trace = s.generate_day(0);
    let mut sim = ResolverSim::new(SimConfig::default());
    let mut collector = Collector::default();
    let report = sim.day(&trace).ground_truth(s.ground_truth()).observer(&mut collector).run();

    // Every response round-tripped the RFC 1035 codec without loss.
    assert_eq!(collector.roundtrips, trace.events.len() as u64);
    assert_eq!(collector.parse_failures, 0);

    // The collector's record count equals the resolver's below volume.
    let fpdns = collector.fpdns;
    assert_eq!(fpdns.total_records, report.below_total() - report.nx_below());
    assert_eq!(fpdns.nx_responses, report.nx_below());
    assert_eq!(fpdns.total_responses, trace.events.len() as u64);
    assert!(fpdns.storage_bytes > 20 * fpdns.total_records, "every tuple sized");
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
    let mut collector = Collector::default();
    let report = sim.day(&trace).observer(&mut collector).run();

    let mut store = dnsnoise::pdns::RunStore::new();
    for (key, _) in report.rr_stats.iter() {
        store.observe_key(key, 0);
    }
    let fpdns = collector.fpdns.storage_bytes;
    assert!(fpdns > 5 * store.storage_bytes(), "fpdns {fpdns} vs rpdns {}", store.storage_bytes());
}
