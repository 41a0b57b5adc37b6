//! Per-resource-record statistics: lookup volumes, DHR and CHR.

use std::hash::BuildHasher;

use dnsnoise_dns::hash::SeededState;
use dnsnoise_dns::table::PositionTable;
use dnsnoise_dns::{Name, QType, RData, RrKey};
use serde::{Deserialize, Serialize};

/// Query/miss counters for one distinct resource record over one day.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RrStat {
    /// Answers containing this record observed below the recursives.
    pub queries: u32,
    /// Answers containing this record observed above the recursives
    /// (cache misses).
    pub misses: u32,
}

impl RrStat {
    /// The paper's domain hit rate (Eq. 1):
    /// `(queries − misses) / queries`, or 0 when no queries were seen.
    pub fn dhr(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            f64::from(self.queries - self.misses) / f64::from(self.queries)
        }
    }
}

/// Per-RR statistics for one day of traffic.
///
/// Rows are held once, in first-seen order: the rows past any earlier
/// [`RrDayStats::len`] are exactly the records first seen since, which
/// is how the streaming miner folds each epoch's new rows into its tree
/// and hands the store each record once ([`RrDayStats::rows_since`]).
/// A [`PositionTable`] of row positions, hashed under a per-table
/// [`SeededState`], finds a row by its borrowed parts.
///
/// # Examples
///
/// ```
/// use dnsnoise_resolver::RrDayStats;
/// use dnsnoise_dns::{QType, RData, RrKey};
/// use std::net::Ipv4Addr;
///
/// let mut stats = RrDayStats::new();
/// let key = RrKey {
///     name: "www.example.com".parse()?,
///     qtype: QType::A,
///     rdata: RData::A(Ipv4Addr::new(192, 0, 2, 1)),
/// };
/// assert!(stats.record(&key.name, key.qtype, &key.rdata, false));
/// assert!(!stats.record(&key.name, key.qtype, &key.rdata, true));
/// assert_eq!(stats.get(&key).unwrap().dhr(), 0.5);
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RrDayStats {
    /// Every distinct record with its counters, in first-seen order.
    rows: Vec<(RrKey, RrStat)>,
    /// The rows' positions.
    index: PositionTable,
    hasher: SeededState,
    /// Σ [`RrKey::storage_bytes`] + one [`RrStat`] per row.
    state_bytes: usize,
}

impl PartialEq for RrDayStats {
    /// Two tables are equal when they hold the same rows with the same
    /// counters, whatever order they were first seen in.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.rows.iter().all(|(key, stat)| other.get(key) == Some(stat))
    }
}

impl RrDayStats {
    /// Creates an empty stats table.
    pub fn new() -> Self {
        RrDayStats::default()
    }

    /// Counts one served answer carrying the record `(name, qtype,
    /// rdata)`: a query, and a miss when the response was fetched from
    /// above. Returns `true` when the record is new today. The record is
    /// found by its borrowed parts, so only a first sighting clones them
    /// into an owned key.
    pub fn record(&mut self, name: &Name, qtype: QType, rdata: &RData, missed: bool) -> bool {
        let misses = u32::from(missed);
        if let Some(pos) = self.find(name, qtype, rdata) {
            let stat = &mut self.rows[pos].1;
            stat.queries += 1;
            stat.misses += misses;
            return false;
        }
        let key = RrKey { name: name.clone(), qtype, rdata: rdata.clone() };
        self.insert(key, RrStat { queries: 1, misses });
        true
    }

    /// The row position of `(name, qtype, rdata)`, if the table holds it.
    fn find(&self, name: &Name, qtype: QType, rdata: &RData) -> Option<usize> {
        self.index.find(self.hasher.hash_one((name, qtype, rdata)), |pos| {
            let key = &self.rows[pos].0;
            key.qtype == qtype && key.name == *name && key.rdata == *rdata
        })
    }

    /// Appends a row for a key the table does not hold.
    fn insert(&mut self, key: RrKey, stat: RrStat) {
        self.state_bytes += key.storage_bytes() + std::mem::size_of::<RrStat>();
        self.rows.push((key, stat));
        let (rows, hasher) = (&self.rows, &self.hasher);
        let hash_of = |pos: usize| {
            let RrKey { name, qtype, rdata } = &rows[pos].0;
            hasher.hash_one((name, *qtype, rdata))
        };
        let pos = rows.len() - 1;
        self.index.insert(hash_of(pos), pos, hash_of);
    }

    /// The stat for a record, if observed.
    pub fn get(&self, key: &RrKey) -> Option<&RrStat> {
        self.find(&key.name, key.qtype, &key.rdata).map(|pos| &self.rows[pos].1)
    }

    /// Number of distinct records observed.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Modeled resident size of the table in bytes: per row, the key's
    /// [`RrKey::storage_bytes`] plus one [`RrStat`]. The size model
    /// behind the streaming report's `state_bytes`, kept as a running
    /// sum.
    pub fn state_bytes(&self) -> usize {
        self.state_bytes
    }

    /// Iterates over `(record key, stat)` pairs in first-seen order.
    pub fn iter(&self) -> impl Iterator<Item = (&RrKey, &RrStat)> {
        self.rows_since(0)
    }

    /// The rows first seen after the first `cursor` ones, in first-seen
    /// order: what is new since the table's [`RrDayStats::len`] read
    /// `cursor`. Empty when `cursor` is at or past the end.
    pub fn rows_since(&self, cursor: usize) -> impl Iterator<Item = (&RrKey, &RrStat)> {
        self.rows.get(cursor..).unwrap_or_default().iter().map(|(key, stat)| (key, stat))
    }

    fn stats(&self) -> impl Iterator<Item = &RrStat> {
        self.rows.iter().map(|(_, stat)| stat)
    }

    /// Sorted per-record lookup counts, descending — Fig. 3a's
    /// lookup-volume distribution.
    pub fn lookup_volumes_desc(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.stats().map(|s| s.queries).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Fraction of records with fewer than `threshold` lookups — the
    /// paper's long-tail measure (Table I uses `threshold = 10`).
    pub fn tail_fraction(&self, threshold: u32) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let tail = self.stats().filter(|s| s.queries < threshold).count();
        tail as f64 / self.rows.len() as f64
    }

    /// Fraction of records with a domain hit rate of zero (Fig. 3b's tail,
    /// Table II).
    pub fn zero_dhr_fraction(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let zero = self.stats().filter(|s| s.dhr() == 0.0).count();
        zero as f64 / self.rows.len() as f64
    }

    /// The empirical CDF of DHR values evaluated at `points`.
    pub fn dhr_cdf(&self, points: &[f64]) -> Vec<f64> {
        let mut dhrs: Vec<f64> = self.stats().map(RrStat::dhr).collect();
        dhrs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("dhr is finite"));
        points
            .iter()
            .map(|&p| {
                let idx = dhrs.partition_point(|&d| d <= p);
                if dhrs.is_empty() {
                    0.0
                } else {
                    idx as f64 / dhrs.len() as f64
                }
            })
            .collect()
    }

    /// The cache-hit-rate distribution of all records (Eq. 2): each
    /// record's DHR value counted once per cache miss.
    pub fn chr_distribution(&self) -> ChrDistribution {
        ChrDistribution::from_stats(self.stats())
    }

    /// Merges another day's stats into this table (used by multi-day
    /// aggregates like Fig. 4b); rows new to this table follow its own
    /// in `other`'s first-seen order.
    pub fn merge(&mut self, other: &RrDayStats) {
        for (k, s) in other.iter() {
            match self.find(&k.name, k.qtype, &k.rdata) {
                Some(pos) => {
                    let e = &mut self.rows[pos].1;
                    e.queries += s.queries;
                    e.misses += s.misses;
                }
                None => self.insert(k.clone(), *s),
            }
        }
    }
}

/// A weighted multiset of cache-hit-rate values (the paper's "cache hit
/// rate distribution", §III-C2): value `dhr` with multiplicity equal to
/// the record's miss count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChrDistribution {
    /// `(chr value, weight)` pairs sorted by value.
    entries: Vec<(f64, u64)>,
    total_weight: u64,
}

impl ChrDistribution {
    /// Builds the distribution from per-RR stats.
    pub fn from_stats<'a, I>(stats: I) -> Self
    where
        I: IntoIterator<Item = &'a RrStat>,
    {
        let mut entries: Vec<(f64, u64)> = stats
            .into_iter()
            .filter(|s| s.misses > 0)
            .map(|s| (s.dhr(), u64::from(s.misses)))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("chr is finite"));
        let total_weight = entries.iter().map(|(_, w)| w).sum();
        ChrDistribution { entries, total_weight }
    }

    /// Builds a distribution directly from `(chr, weight)` samples.
    pub fn from_samples(mut samples: Vec<(f64, u64)>) -> Self {
        samples.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("chr is finite"));
        let total_weight = samples.iter().map(|(_, w)| w).sum();
        ChrDistribution { entries: samples, total_weight }
    }

    /// Total weight (number of cache misses represented).
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Returns `true` if the distribution carries no weight.
    pub fn is_empty(&self) -> bool {
        self.total_weight == 0
    }

    /// The weighted CDF at `x`: fraction of CHR values ≤ `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let mut acc = 0u64;
        for &(v, w) in &self.entries {
            if v <= x {
                acc += w;
            } else {
                break;
            }
        }
        acc as f64 / self.total_weight as f64
    }

    /// The weighted median CHR (0 when empty) — one of the paper's two
    /// cache-hit-rate classifier features.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The weighted `q`-quantile, `q ∈ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.total_weight as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for &(v, w) in &self.entries {
            acc += w;
            if acc >= target {
                return v;
            }
        }
        self.entries.last().map_or(0.0, |&(v, _)| v)
    }

    /// Fraction of weight at CHR exactly zero — the paper's other
    /// cache-hit-rate feature ("90% of cache hit rates from disposable RRs
    /// are zero", Fig. 7).
    pub fn zero_fraction(&self) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let zero: u64 = self.entries.iter().take_while(|&&(v, _)| v == 0.0).map(|(_, w)| w).sum();
        zero as f64 / self.total_weight as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::{QType, RData};
    use std::net::Ipv4Addr;

    fn record(s: &mut RrDayStats, key: &RrKey, missed: bool) -> bool {
        s.record(&key.name, key.qtype, &key.rdata, missed)
    }

    fn key(i: u8) -> RrKey {
        RrKey {
            name: format!("d{i}.example.com").parse().unwrap(),
            qtype: QType::A,
            rdata: RData::A(Ipv4Addr::new(192, 0, 2, i)),
        }
    }

    #[test]
    fn dhr_matches_paper_example() {
        // §III-C2: an object with 2 misses and 5 total queries has CHR 0.6
        // for both misses.
        let mut s = RrDayStats::new();
        for missed in [true, false, true, false, false] {
            record(&mut s, &key(1), missed);
        }
        let stat = s.get(&key(1)).unwrap();
        assert!((stat.dhr() - 0.6).abs() < 1e-12);
        let chr = s.chr_distribution();
        assert_eq!(chr.total_weight(), 2);
        assert!((chr.median() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn tail_and_zero_dhr_fractions() {
        let mut s = RrDayStats::new();
        // Record 1: queried once, missed once (DHR 0, tail).
        record(&mut s, &key(1), true);
        // Record 2: 20 queries, 1 miss (DHR 0.95, not tail).
        record(&mut s, &key(2), true);
        for _ in 0..19 {
            record(&mut s, &key(2), false);
        }
        assert_eq!(s.tail_fraction(10), 0.5);
        assert_eq!(s.zero_dhr_fraction(), 0.5);
    }

    #[test]
    fn lookup_volumes_sorted_descending() {
        let mut s = RrDayStats::new();
        for _ in 0..3 {
            record(&mut s, &key(1), false);
        }
        record(&mut s, &key(2), false);
        assert_eq!(s.lookup_volumes_desc(), vec![3, 1]);
    }

    #[test]
    fn chr_distribution_weights_by_misses() {
        let chr = ChrDistribution::from_samples(vec![(0.0, 9), (1.0, 1)]);
        assert_eq!(chr.zero_fraction(), 0.9);
        assert_eq!(chr.median(), 0.0);
        assert!((chr.cdf(0.5) - 0.9).abs() < 1e-12);
        assert!((chr.cdf(1.0) - 1.0).abs() < 1e-12);
        assert_eq!(chr.quantile(0.95), 1.0);
    }

    #[test]
    fn empty_distribution_is_benign() {
        let chr = ChrDistribution::from_samples(vec![]);
        assert!(chr.is_empty());
        assert_eq!(chr.median(), 0.0);
        assert_eq!(chr.zero_fraction(), 0.0);
        assert_eq!(chr.cdf(0.7), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RrDayStats::new();
        record(&mut a, &key(1), false);
        let mut b = RrDayStats::new();
        record(&mut b, &key(1), true);
        record(&mut b, &key(2), false);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(&key(1)).unwrap().queries, 2);
        assert_eq!(a.get(&key(1)).unwrap().misses, 1);
    }

    #[test]
    fn records_with_no_misses_carry_no_chr_weight() {
        let mut s = RrDayStats::new();
        record(&mut s, &key(1), false); // hit-only record (e.g. cached from yesterday)
        let chr = s.chr_distribution();
        assert!(chr.is_empty());
    }

    #[test]
    fn rows_keep_first_seen_order_and_report_what_is_new() {
        let mut s = RrDayStats::new();
        for i in [3, 1, 3, 2, 1] {
            record(&mut s, &key(i), false);
        }
        let order: Vec<RrKey> = s.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(order, vec![key(3), key(1), key(2)]);
        let cursor = s.len();
        assert!(!record(&mut s, &key(2), true), "a repeat is not new");
        assert!(record(&mut s, &key(9), true));
        let fresh: Vec<&RrKey> = s.rows_since(cursor).map(|(k, _)| k).collect();
        assert_eq!(fresh, vec![&key(9)]);
        assert_eq!(s.rows_since(99).count(), 0);
        // Many rows: the table grows, and every row is still found.
        for i in 10..=200 {
            record(&mut s, &key(i), false);
        }
        assert!((1..=200).all(|i| s.get(&key(i)).is_some() == (i >= 9 || i <= 3)));
    }

    #[test]
    fn state_bytes_is_the_running_sum_of_its_rows() {
        let mut s = RrDayStats::new();
        for i in [1, 2, 1, 7] {
            record(&mut s, &key(i), false);
        }
        let scanned: usize =
            s.iter().map(|(k, _)| k.storage_bytes() + std::mem::size_of::<RrStat>()).sum();
        assert_eq!(s.state_bytes(), scanned);
        let mut merged = RrDayStats::new();
        merged.merge(&s);
        assert_eq!(merged.state_bytes(), scanned);
    }

    #[test]
    fn equality_ignores_first_seen_order() {
        let (mut a, mut b) = (RrDayStats::new(), RrDayStats::new());
        for i in [1, 2] {
            record(&mut a, &key(i), false);
        }
        for i in [2, 1] {
            record(&mut b, &key(i), false);
        }
        assert_eq!(a, b);
        record(&mut b, &key(1), true);
        assert_ne!(a, b);
    }
}
