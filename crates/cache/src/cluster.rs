//! The RDNS server cluster: several independent caches behind a
//! load-balancing strategy.

use serde::{Deserialize, Serialize};

use dnsnoise_dns::{fnv1a, splitmix_finalize};

use crate::lru::{CacheKey, CacheStats, TtlLru};
use crate::negative::NegativeCache;

/// How client queries are spread over the cluster's member caches.
///
/// §III-A: "for quality of service reasons (e.g., load balancing and fault
/// tolerance), the DNS queries from the ISP customers are served by a
/// cluster of RDNS servers". The paper's DHR/CHR measurements treat the
/// cluster as a black box with *multiple independent caches*; the strategy
/// determines how much each client's working set is split across them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadBalance {
    /// Each client sticks to one cache (hash of the client id). Typical of
    /// anycast/DNS-VIP-per-subnet deployments.
    HashClient,
    /// Queries rotate over caches regardless of client — the worst case for
    /// cache locality.
    RoundRobin,
    /// The query name picks the cache, giving each cache a disjoint
    /// keyspace (best locality).
    HashName,
}

/// Mutable access to one cluster member's positive and negative caches
/// at once, from [`CacheCluster::member_mut`].
#[derive(Debug)]
pub struct MemberShard<'a> {
    /// The member's positive record cache.
    pub cache: &'a mut TtlLru,
    /// The member's RFC 2308 negative cache.
    pub negative: &'a mut NegativeCache,
}

/// A cluster of [`TtlLru`] caches plus a shared [`NegativeCache`] per
/// member, routed by a [`LoadBalance`] strategy.
///
/// # Examples
///
/// ```
/// use dnsnoise_cache::{CacheCluster, CacheKey, InsertPriority, LoadBalance};
/// use dnsnoise_dns::{QType, RData, Record, Timestamp, Ttl};
/// use std::net::Ipv4Addr;
///
/// let mut cluster = CacheCluster::new(4, 1000, LoadBalance::HashClient);
/// let name: dnsnoise_dns::Name = "www.example.com".parse()?;
/// let key = CacheKey::new(name.clone(), QType::A);
/// let rr = Record::new(name, QType::A, Ttl::from_secs(60), RData::A(Ipv4Addr::new(192, 0, 2, 1)));
///
/// let idx = cluster.route(7, &key);
/// assert!(cluster.cache_mut(idx).get(&key, Timestamp::ZERO).is_none());
/// cluster.cache_mut(idx).insert(key.clone(), vec![rr], Timestamp::ZERO, InsertPriority::Normal);
/// assert!(cluster.cache_mut(idx).get(&key, Timestamp::from_secs(1)).is_some());
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug)]
pub struct CacheCluster {
    caches: Vec<TtlLru>,
    negatives: Vec<NegativeCache>,
    strategy: LoadBalance,
    round_robin: usize,
    /// Crash state per member: a downed member receives no routes; its
    /// keyspace rehashes onto the survivors until it restarts cold.
    down: Vec<bool>,
}

impl CacheCluster {
    /// Builds a cluster of `members` caches with `capacity_each` entries
    /// per member and disabled negative caching (the monitored ISP's
    /// observed configuration).
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero or `capacity_each` is zero.
    pub fn new(members: usize, capacity_each: usize, strategy: LoadBalance) -> Self {
        assert!(members > 0, "cluster needs at least one member");
        assert!(capacity_each > 0, "member capacity must be positive");
        CacheCluster {
            caches: (0..members).map(|_| TtlLru::new(capacity_each)).collect(),
            negatives: (0..members).map(|_| NegativeCache::disabled()).collect(),
            strategy,
            round_robin: 0,
            down: vec![false; members],
        }
    }

    /// Replaces every member's negative cache (e.g. to model an RFC
    /// 2308-honouring deployment).
    pub fn set_negative_caches<F>(&mut self, mut make: F)
    where
        F: FnMut() -> NegativeCache,
    {
        for slot in &mut self.negatives {
            *slot = make();
        }
    }

    /// Number of member caches.
    pub fn members(&self) -> usize {
        self.caches.len()
    }

    /// The configured strategy.
    pub fn strategy(&self) -> LoadBalance {
        self.strategy
    }

    /// Picks the member cache that will serve this `(client, key)` pair.
    /// Round-robin advances internal state, so successive calls differ.
    ///
    /// When the primary member is crashed (see
    /// [`CacheCluster::set_member_down`]) the query deterministically
    /// rehashes onto one of the surviving members, so a downed member's
    /// keyspace spreads over the rest of the cluster instead of being
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if every member is down.
    pub fn route(&mut self, client: u64, key: &CacheKey) -> usize {
        let seq = self.round_robin as u64;
        if self.strategy == LoadBalance::RoundRobin {
            self.round_robin = (self.round_robin + 1) % self.caches.len();
        }
        let h = self.route_hash(client, key, seq);
        Self::member_for_hash(h, &self.down)
    }

    /// The routing value for `(client, key)` under this cluster's
    /// strategy; `seq` is the round-robin sequence number, which the hash
    /// strategies ignore.
    fn route_hash(&self, client: u64, key: &CacheKey, seq: u64) -> u64 {
        match self.strategy {
            LoadBalance::HashClient => fnv1a(client.to_le_bytes()),
            LoadBalance::RoundRobin => seq % self.caches.len() as u64,
            LoadBalance::HashName => fnv1a(key.name.presentation_bytes()),
        }
    }

    /// Resolves a routing value to the serving member under the given
    /// crash flags (one per member): the primary member when it is up,
    /// otherwise a deterministic remix onto the survivors.
    fn member_for_hash(h: u64, down: &[bool]) -> usize {
        let n = down.len();
        let primary = (h % n as u64) as usize;
        if !down[primary] {
            return primary;
        }
        // Failover: remix the original routing value so the crashed
        // member's keys spread deterministically over the survivors.
        let alive: Vec<usize> = (0..n).filter(|&i| !down[i]).collect();
        assert!(!alive.is_empty(), "every cluster member is down");
        alive[(splitmix_finalize(h) % alive.len() as u64) as usize]
    }

    /// A snapshot of the per-member crash flags.
    pub fn down_flags(&self) -> Vec<bool> {
        self.down.clone()
    }

    /// Mutable access to one member's positive and negative caches at
    /// once, as a [`MemberShard`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn member_mut(&mut self, idx: usize) -> MemberShard<'_> {
        MemberShard { cache: &mut self.caches[idx], negative: &mut self.negatives[idx] }
    }

    /// Marks member `idx` as crashed: it receives no routes until
    /// [`CacheCluster::restart_member_cold`] brings it back.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_member_down(&mut self, idx: usize) {
        self.down[idx] = true;
    }

    /// Brings member `idx` back up with a *cold* cache: positive and
    /// negative entries are gone (a crash loses memory), while the
    /// accumulated counters survive so day-level accounting stays
    /// monotone.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn restart_member_cold(&mut self, idx: usize) {
        self.down[idx] = false;
        self.caches[idx].clear_entries();
        self.negatives[idx].clear_entries();
    }

    /// Whether member `idx` is currently crashed.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn member_is_down(&self, idx: usize) -> bool {
        self.down[idx]
    }

    /// Whether any member is currently crashed.
    pub fn any_member_down(&self) -> bool {
        self.down.iter().any(|&d| d)
    }

    /// Mutable access to member `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn cache_mut(&mut self, idx: usize) -> &mut TtlLru {
        &mut self.caches[idx]
    }

    /// Mutable access to the negative cache of member `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn negative_mut(&mut self, idx: usize) -> &mut NegativeCache {
        &mut self.negatives[idx]
    }

    /// Sum of all member stats.
    pub fn total_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.caches {
            total.merge(c.stats());
        }
        total
    }

    /// Entry counts per member cache, in member order — the occupancy
    /// gauge a metrics layer samples at day end.
    pub fn member_occupancy(&self) -> Vec<usize> {
        self.caches.iter().map(TtlLru::len).collect()
    }

    /// The per-member entry capacity (every member is built equal).
    pub fn capacity_each(&self) -> usize {
        self.caches.first().map_or(0, TtlLru::capacity)
    }

    /// Total entries across all members.
    pub fn len(&self) -> usize {
        self.caches.iter().map(TtlLru::len).sum()
    }

    /// Returns `true` if every member cache is empty.
    pub fn is_empty(&self) -> bool {
        self.caches.iter().all(TtlLru::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::InsertPriority;
    use dnsnoise_dns::{QType, RData, Record, Timestamp, Ttl};
    use std::net::Ipv4Addr;

    fn key(s: &str) -> CacheKey {
        CacheKey::new(s.parse().unwrap(), QType::A)
    }

    fn rr(s: &str, ttl: u32) -> Record {
        Record::new(
            s.parse().unwrap(),
            QType::A,
            Ttl::from_secs(ttl),
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        )
    }

    #[test]
    fn hash_client_is_sticky() {
        let mut cl = CacheCluster::new(4, 10, LoadBalance::HashClient);
        let k = key("a.com");
        let first = cl.route(42, &k);
        for _ in 0..10 {
            assert_eq!(cl.route(42, &k), first);
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut cl = CacheCluster::new(3, 10, LoadBalance::RoundRobin);
        let k = key("a.com");
        let seq: Vec<usize> = (0..6).map(|_| cl.route(1, &k)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn hash_name_is_client_independent() {
        let mut cl = CacheCluster::new(4, 10, LoadBalance::HashName);
        let k = key("a.com");
        let a = cl.route(1, &k);
        let b = cl.route(999, &k);
        assert_eq!(a, b);
    }

    #[test]
    fn independent_caches_do_not_share_entries() {
        let mut cl = CacheCluster::new(2, 10, LoadBalance::RoundRobin);
        let k = key("a.com");
        cl.cache_mut(0).insert(
            k.clone(),
            vec![rr("a.com", 100)],
            Timestamp::ZERO,
            InsertPriority::Normal,
        );
        assert!(cl.cache_mut(0).get(&k, Timestamp::from_secs(1)).is_some());
        assert!(cl.cache_mut(1).get(&k, Timestamp::from_secs(1)).is_none());
    }

    #[test]
    fn total_stats_aggregates_members() {
        let mut cl = CacheCluster::new(2, 10, LoadBalance::RoundRobin);
        let k = key("a.com");
        let _ = cl.cache_mut(0).get(&k, Timestamp::ZERO); // miss
        let _ = cl.cache_mut(1).get(&k, Timestamp::ZERO); // miss
        assert_eq!(cl.total_stats().misses, 2);
    }

    #[test]
    fn negative_cache_swap() {
        let mut cl = CacheCluster::new(2, 10, LoadBalance::HashClient);
        assert!(!cl.negative_mut(0).is_enabled());
        cl.set_negative_caches(|| NegativeCache::new(Ttl::from_secs(900)));
        assert!(cl.negative_mut(0).is_enabled());
        assert!(cl.negative_mut(1).is_enabled());
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_members_panics() {
        let _ = CacheCluster::new(0, 10, LoadBalance::HashClient);
    }

    #[test]
    #[should_panic(expected = "member capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = CacheCluster::new(2, 0, LoadBalance::HashClient);
    }

    #[test]
    fn downed_member_fails_over_deterministically() {
        let mut cl = CacheCluster::new(4, 10, LoadBalance::HashClient);
        let k = key("a.com");
        // Find a client that routes to member 0.
        let client = (0..256).find(|&c| cl.route(c, &k) == 0).expect("some client maps to 0");
        cl.set_member_down(0);
        let rerouted = cl.route(client, &k);
        assert_ne!(rerouted, 0, "downed member must receive no routes");
        for _ in 0..10 {
            assert_eq!(cl.route(client, &k), rerouted, "failover must be sticky");
        }
        // Different clients of the downed member spread over survivors.
        let mut spread = std::collections::HashSet::new();
        for c in 0..4096 {
            cl.restart_member_cold(0);
            let primary = cl.route(c, &k) == 0;
            cl.set_member_down(0);
            if primary {
                spread.insert(cl.route(c, &k));
            }
        }
        assert!(spread.len() > 1, "failover should use more than one survivor: {spread:?}");
        cl.restart_member_cold(0);
        assert_eq!(cl.route(client, &k), 0, "restart restores the original routing");
    }

    #[test]
    fn restart_is_cold_but_keeps_counters() {
        let mut cl = CacheCluster::new(2, 10, LoadBalance::HashClient);
        let k = key("a.com");
        cl.cache_mut(0).insert(
            k.clone(),
            vec![rr("a.com", 100)],
            Timestamp::ZERO,
            InsertPriority::Normal,
        );
        assert!(cl.cache_mut(0).get(&k, Timestamp::from_secs(1)).is_some());
        cl.set_member_down(0);
        assert!(cl.member_is_down(0));
        assert!(cl.any_member_down());
        cl.restart_member_cold(0);
        assert!(!cl.any_member_down());
        assert!(cl.cache_mut(0).get(&k, Timestamp::from_secs(2)).is_none(), "entries lost");
        assert_eq!(cl.total_stats().hits, 1, "counters survive the restart");
    }

    #[test]
    #[should_panic(expected = "every cluster member is down")]
    fn all_members_down_panics_on_route() {
        let mut cl = CacheCluster::new(2, 10, LoadBalance::HashClient);
        cl.set_member_down(0);
        cl.set_member_down(1);
        let _ = cl.route(1, &key("a.com"));
    }
}
