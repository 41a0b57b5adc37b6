//! Wildcard aggregation of disposable records (§VI-C mitigation).
//!
//! "The problem can be mitigated by filtering disposable domains and
//! storing a single wildcard domain in the pDNS-DB. For example, a domain
//! name like `1022vr5.dns.xx.fbcdn.net` can be replaced by
//! `*.dns.xx.fbcdn.net`."

use std::collections::{HashMap, HashSet};

use dnsnoise_dns::{Name, RrKey};

/// The effect of aggregating a record set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggregationOutcome {
    /// Records that matched a disposable `(zone, depth)` rule.
    pub aggregated_records: u64,
    /// Distinct wildcard entries those records collapsed into.
    pub wildcard_entries: u64,
    /// Records kept verbatim (no rule matched).
    pub passthrough_records: u64,
}

impl AggregationOutcome {
    /// Stored entries after aggregation.
    pub fn stored_entries(&self) -> u64 {
        self.wildcard_entries + self.passthrough_records
    }

    /// `stored / original` over only the aggregated (disposable) portion:
    /// the paper reports 0.7%.
    pub fn disposable_reduction_ratio(&self) -> f64 {
        if self.aggregated_records == 0 {
            1.0
        } else {
            self.wildcard_entries as f64 / self.aggregated_records as f64
        }
    }
}

/// Aggregates records under mined disposable `(zone, depth)` pairs into
/// wildcard entries.
///
/// # Examples
///
/// ```
/// use dnsnoise_pdns::WildcardAggregator;
///
/// let zone: dnsnoise_dns::Name = "dns.xx.fbcdn.net".parse()?;
/// let mut agg = WildcardAggregator::new();
/// agg.add_rule(zone, 5);
/// let name: dnsnoise_dns::Name = "1022vr5.dns.xx.fbcdn.net".parse()?;
/// assert_eq!(agg.wildcard_of(&name).unwrap().to_string(), "_star.dns.xx.fbcdn.net");
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct WildcardAggregator {
    /// `zone → depths` with disposable children.
    rules: HashMap<Name, HashSet<usize>>,
}

impl WildcardAggregator {
    /// Creates an aggregator with no rules.
    pub fn new() -> Self {
        WildcardAggregator::default()
    }

    /// Adds a mined `(zone, depth)` rule.
    pub fn add_rule(&mut self, zone: Name, depth: usize) {
        self.rules.entry(zone).or_default().insert(depth);
    }

    /// The wildcard name replacing `name`, if a rule covers it. The `*`
    /// label is spelled `_star` because `*` is not a hostname character in
    /// this model's label alphabet; semantics are identical.
    pub fn wildcard_of(&self, name: &Name) -> Option<Name> {
        // A rule (zone, k) covers names at exactly depth k under zone; the
        // wildcard owner is one label below the zone (RFC 1034 wildcards
        // only expand one level conceptually, and the paper's example
        // collapses the whole child space into `*.<zone>`).
        for k in (1..name.depth()).rev() {
            let zone = name.nld(k).expect("k < depth");
            if let Some(depths) = self.rules.get(&zone) {
                if depths.contains(&name.depth()) {
                    return Some(zone.child("_star".parse().expect("static label")));
                }
            }
        }
        None
    }

    /// Aggregates an iterator of stored record keys.
    pub fn aggregate<'a, I>(&self, records: I) -> AggregationOutcome
    where
        I: IntoIterator<Item = &'a RrKey>,
    {
        let mut outcome = AggregationOutcome::default();
        let mut wildcards: HashSet<(Name, dnsnoise_dns::QType)> = HashSet::new();
        for key in records {
            match self.wildcard_of(&key.name) {
                Some(wild) => {
                    outcome.aggregated_records += 1;
                    wildcards.insert((wild, key.qtype));
                }
                None => outcome.passthrough_records += 1,
            }
        }
        outcome.wildcard_entries = wildcards.len() as u64;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::{QType, RData};
    use std::net::Ipv4Addr;

    fn key(name: &str, ip: u8) -> RrKey {
        RrKey {
            name: name.parse().unwrap(),
            qtype: QType::A,
            rdata: RData::A(Ipv4Addr::new(192, 0, 2, ip)),
        }
    }

    fn agg_with_rule(zone: &str, depth: usize) -> WildcardAggregator {
        let mut agg = WildcardAggregator::new();
        agg.add_rule(zone.parse().unwrap(), depth);
        agg
    }

    #[test]
    fn collapses_disposable_children() {
        let agg = agg_with_rule("avqs.mcafee.com", 4);
        let keys: Vec<RrKey> =
            (0..100).map(|i| key(&format!("h{i}.avqs.mcafee.com"), (i % 250) as u8)).collect();
        let outcome = agg.aggregate(keys.iter());
        assert_eq!(outcome.aggregated_records, 100);
        assert_eq!(outcome.wildcard_entries, 1);
        assert_eq!(outcome.passthrough_records, 0);
        assert!((outcome.disposable_reduction_ratio() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn depth_mismatch_passes_through() {
        let agg = agg_with_rule("avqs.mcafee.com", 4);
        // Depth 5, rule says 4.
        let outcome = agg.aggregate([&key("x.y.avqs.mcafee.com", 1)]);
        assert_eq!(outcome.aggregated_records, 0);
        assert_eq!(outcome.passthrough_records, 1);
        assert_eq!(outcome.stored_entries(), 1);
    }

    #[test]
    fn unrelated_zone_passes_through() {
        let agg = agg_with_rule("avqs.mcafee.com", 4);
        let outcome = agg.aggregate([&key("a.example.com", 1)]);
        assert_eq!(outcome.passthrough_records, 1);
    }

    #[test]
    fn per_qtype_wildcards() {
        let agg = agg_with_rule("z.example.com", 4);
        let a = key("h1.z.example.com", 1);
        let mut aaaa = key("h2.z.example.com", 2);
        aaaa.qtype = QType::Aaaa;
        let outcome = agg.aggregate([&a, &aaaa]);
        assert_eq!(outcome.wildcard_entries, 2, "one wildcard per qtype");
    }

    #[test]
    fn multiple_rules_coexist() {
        let mut agg = WildcardAggregator::new();
        agg.add_rule("a.example.com".parse().unwrap(), 4);
        agg.add_rule("b.example.net".parse().unwrap(), 4);
        let outcome = agg.aggregate([&key("x.a.example.com", 1), &key("y.b.example.net", 2)]);
        assert_eq!(outcome.wildcard_entries, 2);
        assert_eq!(outcome.aggregated_records, 2);
    }

    #[test]
    fn empty_input_is_benign() {
        let agg = agg_with_rule("z.example.com", 4);
        let outcome = agg.aggregate(std::iter::empty::<&RrKey>());
        assert_eq!(outcome.stored_entries(), 0);
        assert_eq!(outcome.disposable_reduction_ratio(), 1.0);
    }
}
