//! Query events: the unit the resolver simulation consumes.

use dnsnoise_dns::{QType, Record, Timestamp};

/// The authoritative-side result a query would receive if it misses every
/// cache.
///
/// The generator attaches the answer to the query (rather than modelling a
/// separate authoritative lookup) because the simulated authoritative tier
/// is deterministic: a given name always resolves to the same answer set
/// within a day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A successful resolution carrying the full answer section. The first
    /// record owns the queried name; CNAME chains append records owned by
    /// other zones (e.g. a CDN edge name), exactly as real answer sections
    /// do.
    Answer(Vec<Record>),
    /// The name does not exist.
    NxDomain,
}

impl Outcome {
    /// `true` for NXDOMAIN.
    pub fn is_nxdomain(&self) -> bool {
        matches!(self, Outcome::NxDomain)
    }

    /// The answer records, or an empty slice for NXDOMAIN.
    pub fn records(&self) -> &[Record] {
        match self {
            Outcome::Answer(records) => records,
            Outcome::NxDomain => &[],
        }
    }
}

/// A single client query as observed below the recursive cluster, together
/// with the authoritative outcome it would produce on a full cache miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryEvent {
    /// When the stub resolver issued the query.
    pub time: Timestamp,
    /// Anonymised client identifier (the fpDNS tuple's client ID).
    pub client: u64,
    /// The queried name.
    pub name: dnsnoise_dns::Name,
    /// The queried type.
    pub qtype: QType,
    /// What the authoritative tier answers.
    pub outcome: Outcome,
    /// Index of the generating zone model in the scenario's zone table —
    /// ground-truth bookkeeping, not visible to the miner.
    pub zone_tag: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::{RData, Ttl};
    use std::net::Ipv4Addr;

    #[test]
    fn outcome_records_accessor() {
        let nx = Outcome::NxDomain;
        assert!(nx.is_nxdomain());
        assert!(nx.records().is_empty());

        let rr = Record::new(
            "x.com".parse().unwrap(),
            QType::A,
            Ttl::from_secs(60),
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        );
        let ans = Outcome::Answer(vec![rr.clone()]);
        assert!(!ans.is_nxdomain());
        assert_eq!(ans.records(), &[rr]);
    }
}
