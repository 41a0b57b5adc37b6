//! RFC 2308 negative caching.

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use dnsnoise_dns::{Name, Timestamp, Ttl};

/// A cached negative (NXDOMAIN) answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NegativeEntry {
    /// When the entry stops being served.
    pub expires: Timestamp,
}

/// A stored entry plus its recency stamp for LRU ordering.
#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: NegativeEntry,
    stamp: u64,
}

/// A negative cache for NXDOMAIN responses.
///
/// The paper observes that the monitored resolvers were likely *not*
/// honouring RFC 2308 — NXDOMAIN made up ≈40% of traffic above the
/// recursives but only ≈6% below (§III-C1). The simulation therefore
/// supports a disabled mode ([`NegativeCache::disabled`]) in which every
/// lookup misses, so both behaviours can be reproduced and compared.
///
/// Negative entries are stored per *name* (not per type): an NXDOMAIN
/// asserts that no records of any type exist at the name.
///
/// A capacity bound ([`NegativeCache::with_capacity`]) makes NXDOMAIN
/// floods pay an honest price: once full, the least-recently-touched
/// entry is evicted, so a random-subdomain storm churns the negative
/// cache instead of growing it without limit.
///
/// # Examples
///
/// ```
/// use dnsnoise_cache::NegativeCache;
/// use dnsnoise_dns::{Timestamp, Ttl};
///
/// let mut neg = NegativeCache::new(Ttl::from_secs(900));
/// let name: dnsnoise_dns::Name = "no.such.example.com".parse()?;
/// let t0 = Timestamp::ZERO;
/// assert!(!neg.contains(&name, t0));
/// neg.insert(name.clone(), t0);
/// assert!(neg.contains(&name, t0 + Ttl::from_secs(899)));
/// assert!(!neg.contains(&name, t0 + Ttl::from_secs(900)));
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NegativeCache {
    ttl: Ttl,
    enabled: bool,
    capacity: usize,
    entries: HashMap<Name, Slot>,
    /// `(stamp, name)` pairs ordered oldest-first; the LRU victim is the
    /// smallest element.
    recency: BTreeSet<(u64, Name)>,
    next_stamp: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl NegativeCache {
    /// Creates an enabled negative cache holding entries for `ttl`
    /// (the SOA MINIMUM-derived negative TTL of RFC 2308), with no
    /// practical capacity bound.
    pub fn new(ttl: Ttl) -> Self {
        NegativeCache::with_capacity(ttl, usize::MAX)
    }

    /// Creates an enabled negative cache bounded to `capacity` entries,
    /// evicting least-recently-touched names once full.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(ttl: Ttl, capacity: usize) -> Self {
        assert!(capacity > 0, "negative cache capacity must be positive");
        NegativeCache {
            ttl,
            enabled: true,
            capacity,
            entries: HashMap::new(),
            recency: BTreeSet::new(),
            next_stamp: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Creates a cache that never stores nor serves entries — the observed
    /// behaviour of the monitored ISP resolvers.
    pub fn disabled() -> Self {
        NegativeCache {
            ttl: Ttl::ZERO,
            enabled: false,
            capacity: usize::MAX,
            entries: HashMap::new(),
            recency: BTreeSet::new(),
            next_stamp: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Whether negative answers are being cached at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn bump(&mut self) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        stamp
    }

    /// Records an NXDOMAIN for `name` observed at `now`.
    pub fn insert(&mut self, name: Name, now: Timestamp) {
        if !self.enabled || self.ttl.is_zero() {
            return;
        }
        let stamp = self.bump();
        let entry = NegativeEntry { expires: now + self.ttl };
        if let Some(old) = self.entries.insert(name.clone(), Slot { entry, stamp }) {
            self.recency.remove(&(old.stamp, name.clone()));
        } else if self.entries.len() > self.capacity {
            // A brand-new name pushed us over the bound: evict the
            // least-recently-touched entry.
            if let Some((victim_stamp, victim)) = self.recency.iter().next().cloned() {
                self.recency.remove(&(victim_stamp, victim.clone()));
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.recency.insert((stamp, name));
    }

    /// Returns `true` if a live negative entry covers `name` at `now`.
    /// Expired entries are removed on access; a hit refreshes the entry's
    /// LRU recency.
    pub fn contains(&mut self, name: &Name, now: Timestamp) -> bool {
        if !self.enabled {
            self.misses += 1;
            return false;
        }
        match self.entries.get(name).copied() {
            Some(slot) if slot.entry.expires > now => {
                self.hits += 1;
                self.recency.remove(&(slot.stamp, name.clone()));
                let stamp = self.bump();
                self.recency.insert((stamp, name.clone()));
                if let Some(s) = self.entries.get_mut(name) {
                    s.stamp = stamp;
                }
                true
            }
            Some(slot) => {
                self.entries.remove(name);
                self.recency.remove(&(slot.stamp, name.clone()));
                self.misses += 1;
                false
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Drops every stored entry while keeping the hit/miss counters — the
    /// negative cache of a member restarting cold after a crash.
    pub fn clear_entries(&mut self) {
        self.entries.clear();
        self.recency.clear();
    }

    /// Number of stored entries (live or lazily uncollected).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fraction of the capacity bound currently occupied, in `[0, 1]`.
    /// Unbounded caches report an occupancy of zero.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == usize::MAX {
            return 0.0;
        }
        self.entries.len() as f64 / self.capacity as f64
    }

    /// The configured capacity bound (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups served from the negative cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to go upstream.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to honour the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut neg = NegativeCache::disabled();
        neg.insert(n("x.com"), t(0));
        assert!(!neg.contains(&n("x.com"), t(1)));
        assert_eq!(neg.len(), 0);
        assert!(!neg.is_enabled());
    }

    #[test]
    fn entry_expires_after_ttl() {
        let mut neg = NegativeCache::new(Ttl::from_secs(10));
        neg.insert(n("x.com"), t(0));
        assert!(neg.contains(&n("x.com"), t(9)));
        assert!(!neg.contains(&n("x.com"), t(10)));
        // Expired entry was removed on access.
        assert_eq!(neg.len(), 0);
    }

    #[test]
    fn hit_miss_counters() {
        let mut neg = NegativeCache::new(Ttl::from_secs(10));
        assert!(!neg.contains(&n("x.com"), t(0)));
        neg.insert(n("x.com"), t(0));
        assert!(neg.contains(&n("x.com"), t(1)));
        assert!(neg.contains(&n("x.com"), t(2)));
        assert_eq!(neg.hits(), 2);
        assert_eq!(neg.misses(), 1);
    }

    #[test]
    fn reinsert_refreshes_expiry() {
        let mut neg = NegativeCache::new(Ttl::from_secs(10));
        neg.insert(n("x.com"), t(0));
        neg.insert(n("x.com"), t(8));
        assert!(neg.contains(&n("x.com"), t(15)));
    }

    #[test]
    fn zero_ttl_cache_stores_nothing() {
        let mut neg = NegativeCache::new(Ttl::ZERO);
        neg.insert(n("x.com"), t(0));
        assert_eq!(neg.len(), 0);
        assert!(!neg.contains(&n("x.com"), t(0)));
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        // An NXDOMAIN burst against a bounded cache: the oldest untouched
        // name goes first, and a `contains` hit refreshes recency.
        let mut neg = NegativeCache::with_capacity(Ttl::from_secs(900), 3);
        neg.insert(n("a.example.com"), t(0));
        neg.insert(n("b.example.com"), t(1));
        neg.insert(n("c.example.com"), t(2));
        assert_eq!(neg.len(), 3);
        assert_eq!(neg.occupancy(), 1.0);

        // Touch `a` so `b` becomes the LRU victim.
        assert!(neg.contains(&n("a.example.com"), t(3)));
        neg.insert(n("d.example.com"), t(4));
        assert_eq!(neg.len(), 3);
        assert_eq!(neg.evictions(), 1);
        assert!(!neg.contains(&n("b.example.com"), t(5)), "LRU name b evicted");
        assert!(neg.contains(&n("a.example.com"), t(5)), "recently touched a kept");
        assert!(neg.contains(&n("c.example.com"), t(5)));
        assert!(neg.contains(&n("d.example.com"), t(5)));

        // Next new name evicts a: the probes above touched a, then c,
        // then d, so a is now the least recently used.
        neg.insert(n("e.example.com"), t(6));
        assert!(!neg.contains(&n("a.example.com"), t(7)));
        assert!(neg.contains(&n("c.example.com"), t(7)));
        assert!(neg.contains(&n("e.example.com"), t(7)));
        assert_eq!(neg.evictions(), 2);
    }

    #[test]
    fn burst_of_unique_names_churns_at_capacity() {
        let mut neg = NegativeCache::with_capacity(Ttl::from_secs(900), 8);
        for i in 0..100 {
            neg.insert(n(&format!("x{i}.flood.example.com")), t(i));
        }
        assert_eq!(neg.len(), 8);
        assert_eq!(neg.evictions(), 92);
        // The newest 8 names survived.
        for i in 92..100 {
            assert!(neg.contains(&n(&format!("x{i}.flood.example.com")), t(100)));
        }
        assert!(!neg.contains(&n("x0.flood.example.com"), t(100)));
    }

    #[test]
    fn unbounded_cache_reports_zero_occupancy() {
        let mut neg = NegativeCache::new(Ttl::from_secs(10));
        neg.insert(n("x.com"), t(0));
        assert_eq!(neg.occupancy(), 0.0);
        assert_eq!(neg.capacity(), usize::MAX);
    }

    #[test]
    fn reinsert_does_not_evict() {
        let mut neg = NegativeCache::with_capacity(Ttl::from_secs(900), 2);
        neg.insert(n("a.com"), t(0));
        neg.insert(n("b.com"), t(1));
        neg.insert(n("a.com"), t(2));
        assert_eq!(neg.len(), 2);
        assert_eq!(neg.evictions(), 0);
        assert!(neg.contains(&n("b.com"), t(3)));
    }

    #[test]
    fn clear_entries_resets_recency() {
        let mut neg = NegativeCache::with_capacity(Ttl::from_secs(900), 2);
        neg.insert(n("a.com"), t(0));
        neg.insert(n("b.com"), t(1));
        neg.clear_entries();
        assert!(neg.is_empty());
        neg.insert(n("c.com"), t(2));
        neg.insert(n("d.com"), t(3));
        neg.insert(n("e.com"), t(4));
        assert_eq!(neg.len(), 2);
        assert!(!neg.contains(&n("c.com"), t(5)));
    }
}
