//! The full passive DNS (fpDNS) dataset.

use serde::{Deserialize, Serialize};

use dnsnoise_dns::{wire, Message, QType, Question, RData, Rcode, Record, RrKey, Timestamp, Ttl};

/// One fpDNS tuple (§III-A): "the timestamp of the DNS resolution event
/// (in the granularity of seconds), an anonymized client ID, the queried
/// domain name, the DNS query type, the time-to-live value, and the
/// resolution data".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FpDnsRecord {
    /// Resolution time.
    pub timestamp: Timestamp,
    /// Anonymised client id.
    pub client: u64,
    /// Queried name.
    pub name: dnsnoise_dns::Name,
    /// Query type.
    pub qtype: QType,
    /// Record TTL.
    pub ttl: Ttl,
    /// Resolution data.
    pub rdata: RData,
}

impl FpDnsRecord {
    /// Approximate storage footprint in bytes (name + fixed fields +
    /// rdata), used by the §VI-C storage model.
    pub fn storage_bytes(&self) -> usize {
        FpDnsRecord::storage_bytes_of(&self.name, &self.rdata)
    }

    /// The footprint of a tuple carrying `name` and `rdata`, from
    /// borrowed fields: the shared per-record accounting (name +
    /// type/ttl + rdata, see `RrKey::storage_bytes`) plus the fpDNS-only
    /// timestamp (8) and client id (8). Collectors size every answer
    /// record with it without building the tuple.
    pub fn storage_bytes_of(name: &dnsnoise_dns::Name, rdata: &RData) -> usize {
        RrKey::storage_bytes_of(name, rdata) + 16
    }
}

/// The fpDNS collector: accumulates answer-section tuples and storage
/// accounting, optionally round-tripping each response through the wire
/// codec (as a real collector parsing packets would).
///
/// Retention is bounded: at most `retain` tuples are kept in memory while
/// counters keep exact totals, since a day of ISP traffic does not fit in
/// a test process (the paper's fpDNS runs 60–145 GB/day compressed).
///
/// # Examples
///
/// ```
/// use dnsnoise_pdns::FpDnsLog;
/// use dnsnoise_dns::{QType, RData, Record, Timestamp, Ttl};
/// use std::net::Ipv4Addr;
///
/// let mut log = FpDnsLog::new(100, true);
/// let name: dnsnoise_dns::Name = "www.example.com".parse()?;
/// let rr = Record::new(name.clone(), QType::A, Ttl::from_secs(60), RData::A(Ipv4Addr::new(192, 0, 2, 1)));
/// log.collect(Timestamp::ZERO, 7, &name, QType::A, &[rr]);
/// assert_eq!(log.total_records(), 1);
/// assert_eq!(log.wire_parse_failures(), 0);
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FpDnsLog {
    retain: usize,
    exercise_wire: bool,
    retained: Vec<FpDnsRecord>,
    total_records: u64,
    total_responses: u64,
    nx_responses: u64,
    storage_bytes: u64,
    wire_roundtrips: u64,
    wire_parse_failures: u64,
    next_txid: u16,
    /// Collector growth by hour of (simulated) day: tuples appended and
    /// storage bytes added per hour — the intra-day growth curve a
    /// capacity planner watches (§VI-C storage model).
    hourly_records: [u64; 24],
    hourly_storage_bytes: [u64; 24],
}

impl FpDnsLog {
    /// Creates a collector retaining up to `retain` tuples in memory.
    /// With `exercise_wire`, every response is encoded to RFC 1035 wire
    /// format and re-decoded, verifying the parse path end to end.
    pub fn new(retain: usize, exercise_wire: bool) -> Self {
        FpDnsLog {
            retain,
            exercise_wire,
            retained: Vec::new(),
            total_records: 0,
            total_responses: 0,
            nx_responses: 0,
            storage_bytes: 0,
            wire_roundtrips: 0,
            wire_parse_failures: 0,
            next_txid: 1,
            hourly_records: [0; 24],
            hourly_storage_bytes: [0; 24],
        }
    }

    /// Records one response's answer section (empty = NXDOMAIN).
    pub fn collect(
        &mut self,
        timestamp: Timestamp,
        client: u64,
        qname: &dnsnoise_dns::Name,
        qtype: QType,
        answers: &[Record],
    ) {
        self.total_responses += 1;
        if answers.is_empty() {
            self.nx_responses += 1;
        }
        if self.exercise_wire {
            self.roundtrip_wire(qname, qtype, answers);
        }
        let hour = (timestamp.hour_of_day() as usize).min(23);
        for rr in answers {
            self.total_records += 1;
            let bytes = FpDnsRecord::storage_bytes_of(&rr.name, &rr.rdata) as u64;
            self.storage_bytes += bytes;
            self.hourly_records[hour] += 1;
            self.hourly_storage_bytes[hour] += bytes;
            if self.retained.len() < self.retain {
                self.retained.push(FpDnsRecord {
                    timestamp,
                    client,
                    name: rr.name.clone(),
                    qtype: rr.qtype,
                    ttl: rr.ttl,
                    rdata: rr.rdata.clone(),
                });
            }
        }
    }

    /// Encodes the response as a packet and parses it back, counting
    /// failures instead of panicking (a collector must survive bad
    /// packets). NXDOMAIN responses carry a synthetic SOA in the
    /// authority section, like real RFC 2308 negative responses.
    fn roundtrip_wire(&mut self, qname: &dnsnoise_dns::Name, qtype: QType, answers: &[Record]) {
        let msg = if answers.is_empty() {
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
            Message::negative_response(self.next_txid, Question::new(qname.clone(), qtype), soa)
        } else {
            Message::response(
                self.next_txid,
                Question::new(qname.clone(), qtype),
                Rcode::NoError,
                answers.to_vec(),
            )
        };
        self.next_txid = self.next_txid.wrapping_add(1);
        self.wire_roundtrips += 1;
        match wire::encode(&msg).map(|bytes| wire::decode(&bytes)) {
            Ok(Ok(parsed)) if parsed == msg => {}
            _ => self.wire_parse_failures += 1,
        }
    }

    /// The retained tuple sample (up to the retention cap).
    pub fn retained(&self) -> &[FpDnsRecord] {
        &self.retained
    }

    /// Total answer-section records observed.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Total responses observed (including NXDOMAIN).
    pub fn total_responses(&self) -> u64 {
        self.total_responses
    }

    /// NXDOMAIN responses observed.
    pub fn nx_responses(&self) -> u64 {
        self.nx_responses
    }

    /// Modelled storage footprint of the full log in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.storage_bytes
    }

    /// Wire round-trips performed.
    pub fn wire_roundtrips(&self) -> u64 {
        self.wire_roundtrips
    }

    /// Wire round-trips that failed to re-parse identically.
    pub fn wire_parse_failures(&self) -> u64 {
        self.wire_parse_failures
    }

    /// Tuples appended per hour of simulated day (collector growth).
    pub fn hourly_records(&self) -> &[u64; 24] {
        &self.hourly_records
    }

    /// Storage bytes added per hour of simulated day.
    pub fn hourly_storage_bytes(&self) -> &[u64; 24] {
        &self.hourly_storage_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn rr(name: &str, ip: u8) -> Record {
        Record::new(
            name.parse().unwrap(),
            QType::A,
            Ttl::from_secs(60),
            RData::A(Ipv4Addr::new(192, 0, 2, ip)),
        )
    }

    #[test]
    fn counts_and_retains() {
        let mut log = FpDnsLog::new(1, false);
        let n = "a.example.com".parse().unwrap();
        log.collect(
            Timestamp::ZERO,
            1,
            &n,
            QType::A,
            &[rr("a.example.com", 1), rr("b.example.com", 2)],
        );
        log.collect(Timestamp::from_secs(5), 2, &n, QType::A, &[rr("a.example.com", 1)]);
        assert_eq!(log.total_records(), 3);
        assert_eq!(log.total_responses(), 2);
        // Retention capped at 1.
        assert_eq!(log.retained().len(), 1);
        assert!(log.storage_bytes() > 0);
    }

    #[test]
    fn nxdomain_is_counted_separately() {
        let mut log = FpDnsLog::new(10, false);
        let n = "no.example.com".parse().unwrap();
        log.collect(Timestamp::ZERO, 1, &n, QType::A, &[]);
        assert_eq!(log.nx_responses(), 1);
        assert_eq!(log.total_records(), 0);
    }

    #[test]
    fn wire_roundtrip_path_is_clean() {
        let mut log = FpDnsLog::new(0, true);
        let n = "www.example.com".parse().unwrap();
        for i in 0..50u8 {
            log.collect(
                Timestamp::from_secs(u64::from(i)),
                1,
                &n,
                QType::A,
                &[rr("www.example.com", i)],
            );
        }
        log.collect(Timestamp::ZERO, 1, &n, QType::A, &[]);
        assert_eq!(log.wire_roundtrips(), 51);
        assert_eq!(log.wire_parse_failures(), 0);
    }

    #[test]
    fn hourly_growth_buckets_by_timestamp() {
        let mut log = FpDnsLog::new(0, false);
        let n: dnsnoise_dns::Name = "a.example.com".parse().unwrap();
        log.collect(Timestamp::from_secs(30), 1, &n, QType::A, &[rr("a.example.com", 1)]);
        log.collect(
            Timestamp::from_secs(7 * 3_600 + 5),
            1,
            &n,
            QType::A,
            &[rr("a.example.com", 2), rr("b.example.com", 3)],
        );
        assert_eq!(log.hourly_records()[0], 1);
        assert_eq!(log.hourly_records()[7], 2);
        assert_eq!(log.hourly_records().iter().sum::<u64>(), log.total_records());
        assert_eq!(log.hourly_storage_bytes().iter().sum::<u64>(), log.storage_bytes());
        assert!(log.hourly_storage_bytes()[7] > log.hourly_storage_bytes()[0]);
    }

    #[test]
    fn storage_grows_with_name_length() {
        let mut short = FpDnsLog::new(0, false);
        let mut long = FpDnsLog::new(0, false);
        let ns = "a.com".parse().unwrap();
        let nl = "load-0-p-01.up-1852280.device.trans.manage.esoft.com".parse().unwrap();
        short.collect(Timestamp::ZERO, 1, &ns, QType::A, &[rr("a.com", 1)]);
        long.collect(
            Timestamp::ZERO,
            1,
            &nl,
            QType::A,
            &[rr("load-0-p-01.up-1852280.device.trans.manage.esoft.com", 1)],
        );
        assert!(long.storage_bytes() > short.storage_bytes());
    }
}
