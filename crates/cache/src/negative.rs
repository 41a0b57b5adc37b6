//! RFC 2308 negative caching.

use std::collections::HashMap;

use dnsnoise_dns::hash::SeededState;
use dnsnoise_dns::{Name, Timestamp, Ttl};

/// A cached negative (NXDOMAIN) answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NegativeEntry {
    /// When the entry stops being served.
    pub expires: Timestamp,
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
/// asserts that no records of any type exist at the name. The cache is
/// unbounded; an entry leaves when it is found expired or when the member
/// restarts cold ([`NegativeCache::clear_entries`]).
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
    entries: HashMap<Name, NegativeEntry, SeededState>,
    hits: u64,
    misses: u64,
}

impl NegativeCache {
    /// Creates an enabled negative cache holding entries for `ttl`
    /// (the SOA MINIMUM-derived negative TTL of RFC 2308).
    pub fn new(ttl: Ttl) -> Self {
        NegativeCache {
            ttl,
            enabled: true,
            entries: HashMap::with_hasher(SeededState::default()),
            hits: 0,
            misses: 0,
        }
    }

    /// Creates a cache that never stores nor serves entries — the observed
    /// behaviour of the monitored ISP resolvers.
    pub fn disabled() -> Self {
        NegativeCache { enabled: false, ..NegativeCache::new(Ttl::ZERO) }
    }

    /// Records an NXDOMAIN for `name` observed at `now`.
    pub fn insert(&mut self, name: Name, now: Timestamp) {
        if !self.enabled || self.ttl.is_zero() {
            return;
        }
        self.entries.insert(name, NegativeEntry { expires: now + self.ttl });
    }

    /// Returns `true` if a live negative entry covers `name` at `now`.
    /// Expired entries are removed on access.
    pub fn contains(&mut self, name: &Name, now: Timestamp) -> bool {
        if !self.enabled {
            self.misses += 1;
            return false;
        }
        match self.entries.get(name) {
            Some(entry) if entry.expires > now => {
                self.hits += 1;
                true
            }
            Some(_) => {
                self.entries.remove(name);
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
    }

    /// Number of stored entries (live or lazily uncollected).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the negative cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to go upstream.
    pub fn misses(&self) -> u64 {
        self.misses
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
    fn clear_entries_drops_entries_and_keeps_counters() {
        let mut neg = NegativeCache::new(Ttl::from_secs(900));
        neg.insert(n("a.com"), t(0));
        assert!(neg.contains(&n("a.com"), t(1)));
        neg.clear_entries();
        assert!(neg.is_empty());
        assert!(!neg.contains(&n("a.com"), t(2)));
        assert_eq!((neg.hits(), neg.misses()), (1, 1));
    }
}
