//! The reduced passive DNS (rpDNS) dataset: deduplicated resource records.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use dnsnoise_dns::{Record, RrKey};

/// Per-day new-record accounting (Fig. 5 / Fig. 15's unit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DailyNewRrs {
    /// Distinct records first seen this day.
    pub new_records: u64,
    /// Records observed this day that were already known.
    pub repeated_records: u64,
}

/// The rpDNS store: "the distinct (no duplicates) resource records from
/// all successful DNS resolutions", each with the first date the tuple was
/// seen (§III-A).
///
/// # Examples
///
/// ```
/// use dnsnoise_pdns::RpDns;
/// use dnsnoise_dns::{QType, RData, Record, Ttl};
/// use std::net::Ipv4Addr;
///
/// let mut store = RpDns::new();
/// let rr = Record::new(
///     "www.example.com".parse()?,
///     QType::A,
///     Ttl::from_secs(60),
///     RData::A(Ipv4Addr::new(192, 0, 2, 1)),
/// );
/// assert!(store.observe(&rr, 0));  // new on day 0
/// assert!(!store.observe(&rr, 3)); // already known on day 3
/// assert_eq!(store.first_seen(&rr.key()), Some(0));
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RpDns {
    records: HashMap<RrKey, u64>,
    per_day: Vec<DailyNewRrs>,
    storage_bytes: u64,
}

impl RpDns {
    /// Creates an empty store.
    pub fn new() -> Self {
        RpDns::default()
    }

    /// Observes one successfully-resolved record on `day`; returns `true`
    /// if it is new to the store. TTL is not part of the identity
    /// (§III-A's tuple is name/type/RDATA/first-seen).
    pub fn observe(&mut self, record: &Record, day: u64) -> bool {
        self.observe_key(&record.key(), day)
    }

    /// [`RpDns::observe`] by the record's key.
    pub fn observe_key(&mut self, key: &RrKey, day: u64) -> bool {
        let d = day as usize;
        if self.per_day.len() <= d {
            self.per_day.resize(d + 1, DailyNewRrs::default());
        }
        if self.records.contains_key(key) {
            self.per_day[d].repeated_records += 1;
            return false;
        }
        self.storage_bytes += key.storage_bytes() as u64;
        self.records.insert(key.clone(), day);
        self.per_day[d].new_records += 1;
        true
    }

    /// Number of distinct records stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The day a record was first seen.
    pub fn first_seen(&self, key: &RrKey) -> Option<u64> {
        self.records.get(key).copied()
    }

    /// The daily new/repeated counters (index = day).
    pub fn per_day(&self) -> &[DailyNewRrs] {
        &self.per_day
    }

    /// New records on `day` (0 for days never observed).
    pub fn new_on_day(&self, day: u64) -> u64 {
        self.per_day.get(day as usize).map_or(0, |d| d.new_records)
    }

    /// Modelled storage footprint in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.storage_bytes
    }

    /// Iterates `(record key, first-seen day)`.
    pub fn iter(&self) -> impl Iterator<Item = (&RrKey, u64)> {
        // lint:allow(hash-iter): documented-unordered view; consumers reduce order-free or sort
        self.records.iter().map(|(k, &d)| (k, d))
    }

    /// Counts stored records matching a predicate (e.g. "disposable" per
    /// ground truth) — the paper's "88% of all unique resource records in
    /// the database are disposable" measure (§VI-C).
    pub fn count_matching<F>(&self, mut predicate: F) -> usize
    where
        F: FnMut(&RrKey) -> bool,
    {
        self.records.keys().filter(|k| predicate(k)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::{QType, RData, Ttl};
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
    fn dedup_ignores_ttl() {
        let mut store = RpDns::new();
        let mut a = rr("x.com", 1);
        assert!(store.observe(&a, 0));
        a.ttl = Ttl::from_secs(999);
        assert!(!store.observe(&a, 1), "same key, different TTL");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn distinct_rdata_is_distinct_record() {
        let mut store = RpDns::new();
        assert!(store.observe(&rr("x.com", 1), 0));
        assert!(store.observe(&rr("x.com", 2), 0));
        assert_eq!(store.len(), 2);
        assert_eq!(store.new_on_day(0), 2);
    }

    #[test]
    fn per_day_accounting() {
        let mut store = RpDns::new();
        store.observe(&rr("a.com", 1), 0);
        store.observe(&rr("a.com", 1), 0);
        store.observe(&rr("b.com", 1), 2);
        assert_eq!(store.per_day().len(), 3);
        assert_eq!(store.per_day()[0], DailyNewRrs { new_records: 1, repeated_records: 1 });
        assert_eq!(store.per_day()[1], DailyNewRrs::default());
        assert_eq!(store.new_on_day(2), 1);
        assert_eq!(store.new_on_day(99), 0);
    }

    #[test]
    fn first_seen_is_stable() {
        let mut store = RpDns::new();
        let r = rr("x.com", 1);
        store.observe(&r, 3);
        store.observe(&r, 7);
        assert_eq!(store.first_seen(&r.key()), Some(3));
    }

    #[test]
    fn count_matching_filters() {
        let mut store = RpDns::new();
        store.observe(&rr("a.tracker.com", 1), 0);
        store.observe(&rr("www.site.com", 1), 0);
        let trackers = store.count_matching(|k| k.name.to_string().ends_with("tracker.com"));
        assert_eq!(trackers, 1);
    }

    #[test]
    fn storage_bytes_accumulate_once_per_unique() {
        let mut store = RpDns::new();
        let r = rr("x.com", 1);
        store.observe(&r, 0);
        let bytes = store.storage_bytes();
        store.observe(&r, 1);
        assert_eq!(store.storage_bytes(), bytes, "duplicates cost nothing");
    }
}
