//! The validating-resolver cost accounting.

use std::collections::{HashMap, HashSet};

use dnsnoise_dns::{Name, QType, Record, SuffixList, Timestamp, Ttl};

/// Configuration of the cost model.
#[derive(Debug, Clone)]
pub struct DnssecConfig {
    /// How long validated zone keys stay in the key cache.
    pub key_ttl: Ttl,
    /// Modelled size of one cached RRSIG in bytes.
    pub rrsig_bytes: usize,
    /// Zones (with child depth) that sign a single wildcard instead of
    /// per-child records — the §VI-B mitigation. `(zone, depth)` pairs,
    /// typically the miner's findings.
    pub wildcard_rules: Vec<(Name, usize)>,
}

impl Default for DnssecConfig {
    fn default() -> Self {
        DnssecConfig {
            key_ttl: Ttl::from_secs(86_400),
            rrsig_bytes: 96,
            wildcard_rules: Vec::new(),
        }
    }
}

impl DnssecConfig {
    /// Adds a wildcard-signing rule.
    pub fn with_wildcard_rules(mut self, rules: Vec<(Name, usize)>) -> Self {
        self.wildcard_rules = rules;
        self
    }
}

/// Accumulated validation costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DnssecStats {
    /// Upstream answers whose signatures had to be checked.
    pub validated_responses: u64,
    /// Individual signature verifications performed.
    pub signature_validations: u64,
    /// Validations skipped because the (wildcard) signature was already
    /// validated and cached.
    pub validations_reused: u64,
    /// DNSKEY/DS chain fetch-and-verify operations.
    pub chain_validations: u64,
}

/// The validating resolver model. Feed it every upstream (cache-miss)
/// answer; query the accumulated [`DnssecStats`] and cache footprint.
///
/// # Examples
///
/// ```
/// use dnsnoise_dnssec::{DnssecConfig, DnssecCostModel};
/// use dnsnoise_dns::{QType, RData, Record, Timestamp, Ttl};
/// use std::net::Ipv4Addr;
///
/// let mut model = DnssecCostModel::new(DnssecConfig::default());
/// let rr = Record::new(
///     "a.example.com".parse()?,
///     QType::A,
///     Ttl::from_secs(60),
///     RData::A(Ipv4Addr::new(192, 0, 2, 1)),
/// );
/// model.validate_upstream_answer(&[rr], Timestamp::ZERO);
/// assert_eq!(model.stats().signature_validations, 1);
/// assert_eq!(model.stats().chain_validations, 1); // cold key cache
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug)]
pub struct DnssecCostModel {
    config: DnssecConfig,
    psl: SuffixList,
    /// Signing zone → key-cache expiry.
    key_cache: HashMap<Name, Timestamp>,
    /// Distinct validated-and-cached signature owners.
    sig_cache: HashSet<(Name, QType)>,
    stats: DnssecStats,
}

impl DnssecCostModel {
    /// Creates a model with a cold key cache.
    pub fn new(config: DnssecConfig) -> Self {
        DnssecCostModel {
            config,
            psl: SuffixList::builtin(),
            key_cache: HashMap::new(),
            sig_cache: HashSet::new(),
            stats: DnssecStats::default(),
        }
    }

    /// The accumulated counters.
    pub fn stats(&self) -> &DnssecStats {
        &self.stats
    }

    /// Modelled RRSIG cache memory in bytes.
    pub fn signature_cache_bytes(&self) -> u64 {
        (self.sig_cache.len() * self.config.rrsig_bytes) as u64
    }

    /// The name whose signature covers `name`: the wildcard owner when a
    /// rule matches, otherwise the name itself.
    fn signing_name(&self, name: &Name) -> Name {
        for (zone, depth) in &self.config.wildcard_rules {
            if name.depth() == *depth && name.is_subdomain_of(zone) && name != zone {
                return zone.child("_star".parse().expect("static label"));
            }
        }
        name.clone()
    }

    /// Accounts the validation work for one upstream answer at `now`.
    pub fn validate_upstream_answer(&mut self, answers: &[Record], now: Timestamp) {
        if answers.is_empty() {
            return;
        }
        self.stats.validated_responses += 1;
        for rr in answers {
            let signing = self.signing_name(&rr.name);
            // One chain validation per signing zone whose keys expired.
            let zone = self.psl.registered_domain(&rr.name).unwrap_or_else(|| rr.name.clone());
            let fresh = self.key_cache.get(&zone).is_some_and(|&exp| exp > now);
            if !fresh {
                self.stats.chain_validations += 1;
                self.key_cache.insert(zone, now + self.config.key_ttl);
            }
            // A cached (already validated) signature is reused.
            if self.sig_cache.contains(&(signing.clone(), rr.qtype)) {
                self.stats.validations_reused += 1;
            } else {
                self.stats.signature_validations += 1;
                self.sig_cache.insert((signing, rr.qtype));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::RData;
    use std::net::Ipv4Addr;

    fn rr(name: &str) -> Record {
        Record::new(
            name.parse().unwrap(),
            QType::A,
            Ttl::from_secs(60),
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        )
    }

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    #[test]
    fn distinct_disposable_names_each_cost_a_validation() {
        let mut model = DnssecCostModel::new(DnssecConfig::default());
        for i in 0..100 {
            model.validate_upstream_answer(&[rr(&format!("h{i}.avqs.mcafee.com"))], t(i));
        }
        assert_eq!(model.stats().signature_validations, 100);
        // Same zone keys stay cached after the first chain build.
        assert_eq!(model.stats().chain_validations, 1);
        assert_eq!(model.sig_cache.len(), 100);
    }

    #[test]
    fn key_cache_expires() {
        let cfg = DnssecConfig { key_ttl: Ttl::from_secs(10), ..Default::default() };
        let mut model = DnssecCostModel::new(cfg);
        model.validate_upstream_answer(&[rr("a.example.com")], t(0));
        model.validate_upstream_answer(&[rr("b.example.com")], t(5));
        model.validate_upstream_answer(&[rr("c.example.com")], t(20));
        assert_eq!(model.stats().chain_validations, 2);
    }

    #[test]
    fn wildcard_signing_collapses_signatures() {
        let cfg = DnssecConfig::default()
            .with_wildcard_rules(vec![("avqs.mcafee.com".parse().unwrap(), 4)]);
        let mut model = DnssecCostModel::new(cfg);
        for i in 0..100 {
            model.validate_upstream_answer(&[rr(&format!("h{i}.avqs.mcafee.com"))], t(i));
        }
        // One real validation; the other 99 reuse the wildcard signature.
        assert_eq!(model.stats().signature_validations, 1);
        assert_eq!(model.stats().validations_reused, 99);
        assert_eq!(model.sig_cache.len(), 1);
    }

    #[test]
    fn wildcard_rule_depth_is_respected() {
        let cfg = DnssecConfig::default()
            .with_wildcard_rules(vec![("z.example.com".parse().unwrap(), 4)]);
        let mut model = DnssecCostModel::new(cfg);
        model.validate_upstream_answer(&[rr("a.b.z.example.com")], t(0)); // depth 5: no match
        model.validate_upstream_answer(&[rr("c.z.example.com")], t(1)); // depth 4: match
        assert_eq!(model.sig_cache.len(), 2);
    }

    #[test]
    fn empty_answers_cost_nothing() {
        let mut model = DnssecCostModel::new(DnssecConfig::default());
        model.validate_upstream_answer(&[], t(0));
        assert_eq!(model.stats(), &DnssecStats::default());
    }

    #[test]
    fn signature_cache_bytes_scale_with_entries() {
        let mut model =
            DnssecCostModel::new(DnssecConfig { rrsig_bytes: 100, ..Default::default() });
        model.validate_upstream_answer(&[rr("a.example.com"), rr("b.example.com")], t(0));
        assert_eq!(model.signature_cache_bytes(), 200);
    }
}
