//! TTL-aware LRU record cache with priority classes and eviction accounting.
//!
//! A cache's `capacity` bounds its entries and decides its evictions; it
//! reserves nothing. The slab, the recency lists and the index of slot
//! numbers all grow with the entries the cache holds, and the key is held
//! once, in the slab: a 50,000-entry member that a day fills with a few
//! thousand keys costs what those keys cost (`tests/heap.rs` pins it).

use std::hash::BuildHasher;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dnsnoise_dns::hash::SeededState;
use dnsnoise_dns::table::PositionTable;
use dnsnoise_dns::{Name, QType, Record, Timestamp, Ttl};

/// The cache lookup key: `(name, qtype)` — one cached answer set per
/// question, as a recursive resolver stores it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CacheKey {
    /// The queried name.
    pub name: Name,
    /// The queried type.
    pub qtype: QType,
}

impl CacheKey {
    /// Convenience constructor.
    pub fn new(name: Name, qtype: QType) -> Self {
        CacheKey { name, qtype }
    }
}

/// Eviction priority class for an inserted answer.
///
/// [`InsertPriority::Low`] models the §VI-A mitigation: "disposable domains
/// could be treated with low priority". Low-priority entries are always
/// evicted before any normal-priority entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InsertPriority {
    /// Regular caching behaviour.
    Normal,
    /// Evict before all normal-priority entries.
    Low,
}

/// How an entry left the cache — used by the §VI-A pressure experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvictionKind {
    /// Removed by capacity pressure while its TTL was still live: the
    /// paper's *premature eviction*.
    Premature,
    /// Removed by capacity pressure after its TTL had already lapsed
    /// (harmless — it could not have served another hit).
    Expired,
}

/// Counters maintained by [`TtlLru`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from a live entry.
    pub hits: u64,
    /// Lookups that found no entry at all.
    pub misses: u64,
    /// Lookups that found an entry whose TTL had lapsed (counted as a miss
    /// as well).
    pub expired: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Capacity evictions of still-live normal-priority entries.
    pub premature_evictions_normal: u64,
    /// Capacity evictions of still-live low-priority entries.
    pub premature_evictions_low: u64,
    /// Capacity evictions of already-expired entries.
    pub expired_evictions: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.expired
    }

    /// Overall hit rate in `[0, 1]`; `0` if no lookups were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total premature (still-live) evictions across both priorities.
    pub fn premature_evictions(&self) -> u64 {
        self.premature_evictions_normal + self.premature_evictions_low
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.expired += other.expired;
        self.inserts += other.inserts;
        self.premature_evictions_normal += other.premature_evictions_normal;
        self.premature_evictions_low += other.premature_evictions_low;
        self.expired_evictions += other.expired_evictions;
    }

    /// The counts accrued since `before`, an earlier snapshot of the
    /// same counters.
    pub fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            expired: self.expired - before.expired,
            inserts: self.inserts - before.inserts,
            premature_evictions_normal: self.premature_evictions_normal
                - before.premature_evictions_normal,
            premature_evictions_low: self.premature_evictions_low - before.premature_evictions_low,
            expired_evictions: self.expired_evictions - before.expired_evictions,
        }
    }
}

/// Outcome of a staleness-aware lookup ([`TtlLru::lookup`]).
#[derive(Debug)]
pub enum Lookup<'a> {
    /// A live entry: its TTL has not lapsed.
    Fresh(Arc<[Record]>),
    /// No live entry: the answers fetched in its stead go through the
    /// [`Miss`].
    Miss(Miss<'a>),
}

/// A lookup that found no live entry. It holds the cache until the caller
/// either [fills](Miss::fill) it with the fetched answers or drops it.
///
/// A key whose entry has expired keeps its slot in the miss, so filling it
/// rewrites that slot in place: no second index probe, and no new answer
/// block when the answers are unchanged. Dropping the miss unfilled leaves
/// the cache as a lookup that removed the expired entry at once would
/// have: an entry past the serve-stale window is removed then, one inside
/// it retained (RFC 8767).
#[derive(Debug)]
#[must_use = "a miss removes an expired entry when dropped unfilled"]
pub struct Miss<'a> {
    cache: &'a mut TtlLru,
    key: &'a CacheKey,
    /// The expired entry's slot, or [`NIL`] when the key has none (or the
    /// miss was filled).
    slot: u32,
    /// The expired entry's answers while it is inside the serve-stale
    /// window; the entry is then retained.
    stale: Option<Arc<[Record]>>,
}

impl Miss<'_> {
    /// The expired entry's answers while it is inside the serve-stale
    /// window: what a resolver falls back on if the refresh fails. Such a
    /// lookup still counts as [`CacheStats::expired`] — staleness never
    /// inflates the hit rate.
    pub fn stale(&self) -> Option<&Arc<[Record]>> {
        self.stale.as_ref()
    }

    /// Caches `answers` for the missed key at `now`, exactly as
    /// [`TtlLru::insert`] would, and returns the block the cache now holds
    /// (the expired entry's own when the answers are unchanged) with the
    /// evictions the fill caused. Zero-TTL answers are handed back in a
    /// block of their own and not cached.
    pub fn fill(
        mut self,
        answers: &[Record],
        now: Timestamp,
        priority: InsertPriority,
    ) -> (Arc<[Record]>, Vec<(CacheKey, EvictionKind)>) {
        let block = match self.cache.slots.get(self.slot as usize).and_then(|s| s.entry.as_ref()) {
            Some(old) if *old.answers == *answers => Arc::clone(&old.answers),
            _ => Arc::from(answers),
        };
        let Some(ttl) = live_ttl(&block) else {
            return (block, Vec::new());
        };
        let evicted = self.cache.store(self.slot, self.key, Arc::clone(&block), now, ttl, priority);
        self.slot = NIL;
        (block, evicted)
    }
}

impl Drop for Miss<'_> {
    fn drop(&mut self) {
        if self.slot != NIL && self.stale.is_none() {
            self.cache.remove_slot(self.slot);
        }
    }
}

/// The TTL an answer set is cached for — the minimum of its records'
/// (resolver semantics) — or `None` when it is zero and the set is not
/// cached at all.
fn live_ttl(answers: &[Record]) -> Option<Ttl> {
    answers.iter().map(|r| r.ttl).min().filter(|ttl| !ttl.is_zero())
}

/// "No slot": the end of a recency list or of the free chain.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Entry {
    key: CacheKey,
    answers: Arc<[Record]>,
    expires: Timestamp,
    priority: InsertPriority,
}

/// One slab cell: a cached entry linked into its priority's recency list,
/// or a vacant cell (`entry` is `None`) chained through `next` into the
/// free chain.
#[derive(Debug)]
struct Slot {
    entry: Option<Entry>,
    prev: u32,
    next: u32,
}

/// One recency list: `head` is the least recently used slot (the next
/// eviction victim), `tail` the most recently used.
#[derive(Debug, Clone, Copy)]
struct RecencyList {
    head: u32,
    tail: u32,
}

impl RecencyList {
    const EMPTY: RecencyList = RecencyList { head: NIL, tail: NIL };
}

/// A TTL-aware LRU cache of DNS answer sets with a fixed entry capacity.
///
/// Entries live in a slab that holds each key once; `index` is a
/// [`PositionTable`] of slot numbers, probed from the key's hash and
/// compared through the slab, and every occupied slot sits on
/// one of two doubly linked recency lists — one per [`InsertPriority`] —
/// threaded through the slab by slot number. An insert or a live hit
/// moves the slot to its list's tail, so each list is always in
/// least-to-most-recently-used order and its head is the eviction victim:
/// a hit costs one hash probe and a constant number of link updates, and
/// so does a refresh of an expired entry through its [`Miss`].
/// Low-priority entries are always the first victims under capacity
/// pressure. Lookups on expired entries count as misses
/// ([`CacheStats::expired`]) and remove the entry unless it is refilled,
/// matching resolver behaviour.
#[derive(Debug)]
pub struct TtlLru {
    capacity: usize,
    /// The occupied slots' numbers.
    index: PositionTable,
    hasher: SeededState,
    slots: Vec<Slot>,
    /// First vacant slot, chained through `Slot::next`.
    free: u32,
    /// Recency list per priority, indexed by [`prio_idx`].
    recency: [RecencyList; 2],
    stats: CacheStats,
}

/// The entry in slot `id`, which the index or a recency list named.
fn occupied(slots: &[Slot], id: u32) -> &Entry {
    slots[id as usize].entry.as_ref().expect("an indexed or listed slot is occupied")
}

/// The index's hash of the key in an occupied slot, by slot number.
fn slot_hash<'a>(slots: &'a [Slot], hasher: &'a SeededState) -> impl Fn(usize) -> u64 + 'a {
    move |id| hasher.hash_one(&occupied(slots, id as u32).key)
}

fn prio_idx(p: InsertPriority) -> usize {
    match p {
        InsertPriority::Low => 0,
        InsertPriority::Normal => 1,
    }
}

impl TtlLru {
    /// Creates a cache holding at most `capacity` answer sets. Nothing is
    /// reserved for them: the cache allocates as entries arrive.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, or too large for 32-bit slot numbers.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(capacity < PositionTable::LIMIT, "cache capacity must fit 32-bit slot numbers");
        TtlLru {
            capacity,
            index: PositionTable::default(),
            hasher: SeededState::default(),
            slots: Vec::new(),
            free: NIL,
            recency: [RecencyList::EMPTY; 2],
            stats: CacheStats::default(),
        }
    }

    /// The configured capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached entries (live or not-yet-collected expired).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Looks up `key` at time `now`.
    ///
    /// A live entry refreshes its recency and returns its answers. An
    /// expired entry is removed and `None` is returned (counted in
    /// [`CacheStats::expired`]).
    // lint:allow(dead-api): crates/cache/tests/proptests.rs drives the cache through it
    pub fn get(&mut self, key: &CacheKey, now: Timestamp) -> Option<Arc<[Record]>> {
        match self.lookup(key, now, Ttl::ZERO) {
            Lookup::Fresh(answers) => Some(answers),
            Lookup::Miss(_) => None,
        }
    }

    /// Staleness-aware lookup of `key` at time `now` (RFC 8767): one index
    /// probe.
    ///
    /// A live entry behaves exactly as in [`TtlLru::get`]. Anything else is
    /// a [`Miss`], counted as [`CacheStats::expired`] when the key had an
    /// entry and [`CacheStats::misses`] when it had none; an expired entry
    /// within `stale_window` past its expiry offers its answers through
    /// [`Miss::stale`]. A zero `stale_window` reproduces [`TtlLru::get`]
    /// exactly — state and counters included.
    pub fn lookup<'a>(
        &'a mut self,
        key: &'a CacheKey,
        now: Timestamp,
        stale_window: Ttl,
    ) -> Lookup<'a> {
        let Some(id) = self.find(key) else {
            self.stats.misses += 1;
            return Lookup::Miss(Miss { cache: self, key, slot: NIL, stale: None });
        };
        let entry = occupied(&self.slots, id);
        if entry.expires <= now {
            self.stats.expired += 1;
            // Within the window the entry stays, recency untouched, so a
            // stale entry remains a likely eviction victim.
            let stale = (!stale_window.is_zero() && entry.expires + stale_window > now)
                .then(|| Arc::clone(&entry.answers));
            return Lookup::Miss(Miss { cache: self, key, slot: id, stale });
        }
        self.stats.hits += 1;
        let (answers, priority) = (Arc::clone(&entry.answers), entry.priority);
        self.unlink(id, priority);
        self.push_tail(id, priority);
        Lookup::Fresh(answers)
    }

    /// Drops every entry while keeping the accumulated counters — a
    /// member process restarting with a cold cache after a crash.
    pub fn clear_entries(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free = NIL;
        self.recency = [RecencyList::EMPTY; 2];
    }

    /// Inserts an answer set. The TTL of the entry is the minimum TTL of
    /// the supplied records (resolver semantics). Zero-TTL answers are not
    /// cached at all. A shared `Arc<[Record]>` is stored as is, so a
    /// caller that also hands the answers on copies none of them.
    ///
    /// Returns the evictions this insert caused, if any.
    // lint:allow(dead-api): crates/cache/tests/proptests.rs fills the cache through it
    pub fn insert(
        &mut self,
        key: CacheKey,
        answers: impl Into<Arc<[Record]>>,
        now: Timestamp,
        priority: InsertPriority,
    ) -> Vec<(CacheKey, EvictionKind)> {
        let answers: Arc<[Record]> = answers.into();
        let Some(ttl) = live_ttl(&answers) else {
            return Vec::new();
        };
        let slot = self.find(&key).unwrap_or(NIL);
        self.store(slot, &key, answers, now, ttl, priority)
    }

    /// Caches `answers` under `key` for `ttl` from `now`: rewritten in place
    /// when the key already holds `slot` (which is then the vacated slot
    /// a removal would hand straight back, so nothing is evicted), else in
    /// a new slot after evicting down to capacity.
    fn store(
        &mut self,
        slot: u32,
        key: &CacheKey,
        answers: Arc<[Record]>,
        now: Timestamp,
        ttl: Ttl,
        priority: InsertPriority,
    ) -> Vec<(CacheKey, EvictionKind)> {
        self.stats.inserts += 1;
        let expires = now + ttl;
        if slot != NIL {
            let entry = self.slots[slot as usize]
                .entry
                .as_mut()
                .expect("an indexed or listed slot is occupied");
            let old_priority = std::mem::replace(&mut entry.priority, priority);
            (entry.answers, entry.expires) = (answers, expires);
            self.unlink(slot, old_priority);
            self.push_tail(slot, priority);
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.len() >= self.capacity {
            match self.evict_one(now) {
                Some(e) => evicted.push(e),
                None => break,
            }
        }
        let id = self.occupy(Entry { key: key.clone(), answers, expires, priority });
        let hash_of = slot_hash(&self.slots, &self.hasher);
        self.index.insert(hash_of(id as usize), id as usize, hash_of);
        self.push_tail(id, priority);
        evicted
    }

    /// The slot holding `key`, if the cache holds it.
    fn find(&self, key: &CacheKey) -> Option<u32> {
        let hash = self.hasher.hash_one(key);
        let id = self.index.find(hash, |id| occupied(&self.slots, id as u32).key == *key)?;
        Some(id as u32)
    }

    /// Evicts the least recently used entry, preferring the low-priority
    /// class, and classifies the eviction.
    fn evict_one(&mut self, now: Timestamp) -> Option<(CacheKey, EvictionKind)> {
        let victim = self.recency.iter().map(|list| list.head).find(|&head| head != NIL)?;
        let entry = self.remove_slot(victim);
        let kind = if entry.expires > now {
            match entry.priority {
                InsertPriority::Normal => self.stats.premature_evictions_normal += 1,
                InsertPriority::Low => self.stats.premature_evictions_low += 1,
            }
            EvictionKind::Premature
        } else {
            self.stats.expired_evictions += 1;
            EvictionKind::Expired
        };
        Some((entry.key, kind))
    }

    /// Stores `entry` in a vacant slot (or a new one), not yet on a list.
    fn occupy(&mut self, entry: Entry) -> u32 {
        let slot = Slot { entry: Some(entry), prev: NIL, next: NIL };
        if self.free == NIL {
            self.slots.push(slot);
            return (self.slots.len() - 1) as u32;
        }
        let id = self.free;
        self.free = std::mem::replace(&mut self.slots[id as usize], slot).next;
        id
    }

    /// Takes the entry out of slot `id`: out of the index, off its list,
    /// the slot onto the free chain.
    fn remove_slot(&mut self, id: u32) -> Entry {
        let hash_of = slot_hash(&self.slots, &self.hasher);
        self.index.remove(hash_of(id as usize), id as usize, hash_of);
        let entry =
            self.slots[id as usize].entry.take().expect("an indexed or listed slot is occupied");
        self.unlink(id, entry.priority);
        self.slots[id as usize].next = self.free;
        self.free = id;
        entry
    }

    fn unlink(&mut self, id: u32, priority: InsertPriority) {
        let Slot { prev, next, .. } = self.slots[id as usize];
        let list = &mut self.recency[prio_idx(priority)];
        match prev {
            NIL => list.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => list.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_tail(&mut self, id: u32, priority: InsertPriority) {
        let list = &mut self.recency[prio_idx(priority)];
        let old_tail = std::mem::replace(&mut list.tail, id);
        match old_tail {
            NIL => list.head = id,
            t => self.slots[t as usize].next = id,
        }
        let slot = &mut self.slots[id as usize];
        slot.prev = old_tail;
        slot.next = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    use dnsnoise_dns::RData;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    #[test]
    fn hit_within_ttl_miss_after() {
        let mut c = TtlLru::new(4);
        c.insert(key("a.com"), vec![rr("a.com", 10)], t(0), InsertPriority::Normal);
        assert!(c.get(&key("a.com"), t(9)).is_some());
        assert!(c.get(&key("a.com"), t(10)).is_none()); // expires <= now
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().expired, 1);
    }

    #[test]
    fn zero_ttl_is_not_cached() {
        let mut c = TtlLru::new(4);
        let evicted = c.insert(key("a.com"), vec![rr("a.com", 0)], t(0), InsertPriority::Normal);
        assert!(evicted.is_empty());
        assert_eq!(c.len(), 0);
        assert!(c.get(&key("a.com"), t(0)).is_none());
    }

    #[test]
    fn min_ttl_of_answer_set_governs() {
        let mut c = TtlLru::new(4);
        c.insert(
            key("a.com"),
            vec![rr("a.com", 100), rr("b.com", 5)],
            t(0),
            InsertPriority::Normal,
        );
        assert!(c.get(&key("a.com"), t(4)).is_some());
        assert!(c.get(&key("a.com"), t(5)).is_none());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = TtlLru::new(2);
        c.insert(key("a.com"), vec![rr("a.com", 100)], t(0), InsertPriority::Normal);
        c.insert(key("b.com"), vec![rr("b.com", 100)], t(1), InsertPriority::Normal);
        // Touch a so that b is LRU.
        assert!(c.get(&key("a.com"), t(2)).is_some());
        let evicted = c.insert(key("c.com"), vec![rr("c.com", 100)], t(3), InsertPriority::Normal);
        assert_eq!(evicted, vec![(key("b.com"), EvictionKind::Premature)]);
        assert!(c.get(&key("a.com"), t(4)).is_some());
        assert!(c.get(&key("b.com"), t(4)).is_none());
    }

    #[test]
    fn eviction_of_expired_entry_is_not_premature() {
        let mut c = TtlLru::new(2);
        c.insert(key("a.com"), vec![rr("a.com", 1)], t(0), InsertPriority::Normal);
        c.insert(key("b.com"), vec![rr("b.com", 100)], t(0), InsertPriority::Normal);
        // a.com has expired by t(50); inserting c.com evicts it harmlessly.
        let evicted = c.insert(key("c.com"), vec![rr("c.com", 100)], t(50), InsertPriority::Normal);
        assert_eq!(evicted, vec![(key("a.com"), EvictionKind::Expired)]);
        assert_eq!(c.stats().expired_evictions, 1);
        assert_eq!(c.stats().premature_evictions(), 0);
    }

    #[test]
    fn low_priority_evicted_before_normal() {
        let mut c = TtlLru::new(2);
        c.insert(
            key("disposable.x.com"),
            vec![rr("disposable.x.com", 300)],
            t(0),
            InsertPriority::Low,
        );
        c.insert(key("stable.com"), vec![rr("stable.com", 300)], t(1), InsertPriority::Normal);
        // Even though the low-priority entry is *more* recently touched,
        // it is still the first victim.
        assert!(c.get(&key("disposable.x.com"), t(2)).is_some());
        let evicted =
            c.insert(key("new.com"), vec![rr("new.com", 300)], t(3), InsertPriority::Normal);
        assert_eq!(evicted, vec![(key("disposable.x.com"), EvictionKind::Premature)]);
        assert_eq!(c.stats().premature_evictions_low, 1);
        assert_eq!(c.stats().premature_evictions_normal, 0);
        assert!(c.get(&key("stable.com"), t(4)).is_some());
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut c = TtlLru::new(1);
        c.insert(key("a.com"), vec![rr("a.com", 10)], t(0), InsertPriority::Normal);
        let evicted = c.insert(key("a.com"), vec![rr("a.com", 50)], t(5), InsertPriority::Normal);
        assert!(evicted.is_empty());
        assert_eq!(c.len(), 1);
        // New TTL applies: live at t(30) (5 + 50 > 30).
        assert!(c.get(&key("a.com"), t(30)).is_some());
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = TtlLru::new(3);
        for i in 0..100 {
            c.insert(
                key(&format!("d{i}.com")),
                vec![rr("x.com", 1000)],
                t(i),
                InsertPriority::Normal,
            );
            assert!(c.len() <= 3);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TtlLru::new(0);
    }

    /// What a lookup offered: `Some(true)` live answers, `Some(false)`
    /// stale ones, `None` nothing.
    fn offered(lookup: Lookup<'_>) -> Option<bool> {
        match lookup {
            Lookup::Fresh(_) => Some(true),
            Lookup::Miss(miss) => miss.stale().map(|_| false),
        }
    }

    #[test]
    fn stale_lookup_never_serves_past_the_window() {
        let mut c = TtlLru::new(4);
        c.insert(key("a.com"), vec![rr("a.com", 10)], t(0), InsertPriority::Normal);
        let w = Ttl::from_secs(5);
        assert_eq!(offered(c.lookup(&key("a.com"), t(9), w)), Some(true));
        // Expired at t = 10; stale until (exclusive) 10 + 5.
        assert_eq!(offered(c.lookup(&key("a.com"), t(10), w)), Some(false));
        assert_eq!(offered(c.lookup(&key("a.com"), t(14), w)), Some(false));
        assert_eq!(c.len(), 1, "stale entry is retained for refresh");
        // One second past the window: removed, never served again.
        assert_eq!(offered(c.lookup(&key("a.com"), t(15), w)), None);
        assert_eq!(c.len(), 0);
        assert_eq!(offered(c.lookup(&key("a.com"), t(15), w)), None);
        // Every expired-entry touch counted as expired; the final lookup
        // found nothing at all.
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().expired, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn zero_window_lookup_is_exactly_get() {
        let mut via_get = TtlLru::new(2);
        let mut via_lookup = TtlLru::new(2);
        for cache in [&mut via_get, &mut via_lookup] {
            cache.insert(key("a.com"), vec![rr("a.com", 10)], t(0), InsertPriority::Normal);
            cache.insert(key("b.com"), vec![rr("b.com", 100)], t(1), InsertPriority::Normal);
        }
        for (k, now) in [("a.com", 5), ("a.com", 11), ("b.com", 11), ("c.com", 11)] {
            let got = via_get.get(&key(k), t(now));
            let k = key(k);
            match via_lookup.lookup(&k, t(now), Ttl::ZERO) {
                Lookup::Fresh(a) => assert_eq!(got.as_deref(), Some(&*a)),
                Lookup::Miss(miss) => {
                    assert!(got.is_none());
                    assert!(miss.stale().is_none(), "zero window must never yield stale");
                }
            };
        }
        assert_eq!(via_get.stats(), via_lookup.stats());
        assert_eq!(via_get.len(), via_lookup.len());
    }

    #[test]
    fn a_refill_rewrites_the_expired_slot_and_keeps_equal_answers() {
        let mut c = TtlLru::new(2);
        c.insert(key("a.com"), vec![rr("a.com", 10)], t(0), InsertPriority::Normal);
        c.insert(key("b.com"), vec![rr("b.com", 100)], t(1), InsertPriority::Normal);
        let k = key("a.com");
        let Lookup::Miss(miss) = c.lookup(&k, t(20), Ttl::ZERO) else { panic!("a.com expired") };
        let Some(old) = miss.cache.slots[0].entry.as_ref().map(|e| Arc::clone(&e.answers)) else {
            panic!("slot 0 holds a.com")
        };
        let (block, evicted) = miss.fill(&[rr("a.com", 10)], t(20), InsertPriority::Normal);
        assert!(evicted.is_empty());
        assert!(Arc::ptr_eq(&block, &old), "unchanged answers keep their block");
        assert_eq!((c.len(), c.stats().inserts, c.stats().expired), (2, 3, 1));
        // Rewritten as most recently used: b.com is the next victim.
        let evicted = c.insert(key("c.com"), vec![rr("c.com", 100)], t(21), InsertPriority::Normal);
        assert_eq!(evicted, vec![(key("b.com"), EvictionKind::Premature)]);
        assert!(c.get(&key("a.com"), t(29)).is_some());
    }

    #[test]
    fn an_unfilled_miss_removes_only_an_entry_past_the_window() {
        let mut c = TtlLru::new(4);
        c.insert(key("a.com"), vec![rr("a.com", 10)], t(0), InsertPriority::Normal);
        let k = key("a.com");
        let zero_ttl = |c: &mut TtlLru, now| match c.lookup(&k, t(now), Ttl::from_secs(5)) {
            Lookup::Miss(miss) => {
                drop(miss.fill(&[rr("a.com", 0)], t(now), InsertPriority::Normal))
            }
            Lookup::Fresh(_) => panic!("a.com expired"),
        };
        // Inside the window a zero-TTL refill caches nothing and keeps the
        // stale entry; past it the entry goes.
        zero_ttl(&mut c, 12);
        assert_eq!((c.len(), c.stats().inserts), (1, 1));
        zero_ttl(&mut c, 15);
        assert_eq!((c.len(), c.stats().inserts), (0, 1));
    }

    #[test]
    fn clear_entries_keeps_counters() {
        let mut c = TtlLru::new(4);
        c.insert(key("a.com"), vec![rr("a.com", 100)], t(0), InsertPriority::Normal);
        assert!(c.get(&key("a.com"), t(1)).is_some());
        c.clear_entries();
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().hits, 1, "a cold restart must not reset accounting");
        assert_eq!(c.stats().inserts, 1);
        assert!(c.get(&key("a.com"), t(2)).is_none());
    }

    #[test]
    fn the_index_stays_whole_through_growth_and_removals() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(49);
        let mut c = TtlLru::new(300);
        let names: Vec<String> = (0..1_024).map(|i| format!("n{i}.example.com")).collect();
        let mut removals = 0;
        for step in 0..10_000u64 {
            let name = &names[rng.gen_range(0..names.len())];
            let now = t(step / 4);
            match rng.gen_range(0..10u32) {
                // Lookups drop their misses: an expired entry goes.
                0..=3 => {
                    let before = c.len();
                    drop(c.get(&key(name), now));
                    removals += before - c.len();
                }
                4 if step == 5_000 => c.clear_entries(),
                _ => {
                    let ttl = rng.gen_range(1..200);
                    removals +=
                        c.insert(key(name), vec![rr(name, ttl)], now, InsertPriority::Normal).len();
                }
            }
            // The index finds every occupied slot by its key, and holds
            // nothing else.
            let held =
                c.slots.iter().enumerate().filter_map(|(id, s)| Some((id, s.entry.as_ref()?)));
            let mut occupied_slots = 0;
            for (id, entry) in held {
                assert_eq!(c.find(&entry.key), Some(id as u32));
                occupied_slots += 1;
            }
            assert_eq!(c.len(), occupied_slots);
        }
        // 300 entries need 1,024 cells: six doublings from 16.
        assert_eq!(c.index.cells(), 1_024);
        assert!(removals > 1_000, "{removals} removals");
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = CacheStats { hits: 1, misses: 2, ..Default::default() };
        let b = CacheStats { hits: 10, expired: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.hits, 11);
        assert_eq!(a.misses, 2);
        assert_eq!(a.expired, 5);
        assert_eq!(a.lookups(), 18);
    }

    #[test]
    fn hit_rate_bounds() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        let s = CacheStats { hits: 3, misses: 1, ..Default::default() };
        assert_eq!(s.hit_rate(), 0.75);
    }
}
