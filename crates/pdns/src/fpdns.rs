//! The full passive DNS (fpDNS) dataset, counted.

use dnsnoise_dns::{Name, RData, Record, RrKey};

/// The fpDNS dataset (§III-A) as its four totals: one tuple "the
/// timestamp of the DNS resolution event (in the granularity of
/// seconds), an anonymized client ID, the queried domain name, the DNS
/// query type, the time-to-live value, and the resolution data" per
/// answer-section record observed below the recursives, counted and
/// sized instead of kept (the paper's fpDNS runs 60–145 GB/day
/// compressed).
///
/// # Examples
///
/// ```
/// use dnsnoise_pdns::FpDnsSummary;
/// use dnsnoise_dns::{QType, RData, Record, Ttl};
/// use std::net::Ipv4Addr;
///
/// let mut fpdns = FpDnsSummary::default();
/// let name: dnsnoise_dns::Name = "www.example.com".parse()?;
/// let rr = Record::new(name, QType::A, Ttl::from_secs(60), RData::A(Ipv4Addr::new(192, 0, 2, 1)));
/// fpdns.collect(&[rr]);
/// fpdns.collect(&[]); // NXDOMAIN
/// assert_eq!((fpdns.total_responses, fpdns.total_records, fpdns.nx_responses), (2, 1, 1));
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpDnsSummary {
    /// Responses collected (answers and NXDOMAINs).
    pub total_responses: u64,
    /// Resource records across those responses.
    pub total_records: u64,
    /// Responses with an empty answer section (NXDOMAIN, and NODATA).
    pub nx_responses: u64,
    /// Modeled storage of the full log: [`FpDnsSummary::storage_bytes_of`]
    /// summed over every record.
    pub storage_bytes: u64,
}

impl FpDnsSummary {
    /// Counts one response's answer section (empty = NXDOMAIN).
    pub fn collect(&mut self, answers: &[Record]) {
        self.total_responses += 1;
        if answers.is_empty() {
            self.nx_responses += 1;
        }
        for rr in answers {
            self.total_records += 1;
            self.storage_bytes += FpDnsSummary::storage_bytes_of(&rr.name, &rr.rdata) as u64;
        }
    }

    /// The footprint of one fpDNS tuple carrying `name` and `rdata`, used
    /// by the §VI-C storage model: the shared per-record accounting
    /// (name, type/ttl and rdata, see `RrKey::storage_bytes`) plus the
    /// fpDNS-only timestamp (8) and client id (8).
    pub fn storage_bytes_of(name: &Name, rdata: &RData) -> usize {
        RrKey::storage_bytes_of(name, rdata) + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::{QType, Ttl};
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
    fn counts_responses_and_records() {
        let mut fpdns = FpDnsSummary::default();
        fpdns.collect(&[rr("a.example.com", 1), rr("b.example.com", 2)]);
        fpdns.collect(&[rr("a.example.com", 1)]);
        assert_eq!(fpdns.total_records, 3);
        assert_eq!(fpdns.total_responses, 2);
        assert!(fpdns.storage_bytes > 0);
    }

    #[test]
    fn nxdomain_is_counted_separately() {
        let mut fpdns = FpDnsSummary::default();
        fpdns.collect(&[]);
        assert_eq!(fpdns.nx_responses, 1);
        assert_eq!(fpdns.total_records, 0);
    }

    #[test]
    fn storage_grows_with_name_length() {
        let mut short = FpDnsSummary::default();
        let mut long = FpDnsSummary::default();
        short.collect(&[rr("a.com", 1)]);
        long.collect(&[rr("load-0-p-01.up-1852280.device.trans.manage.esoft.com", 1)]);
        assert!(long.storage_bytes > short.storage_bytes);
    }
}
