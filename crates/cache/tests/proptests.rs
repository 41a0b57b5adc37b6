//! Property-based tests for the TTL-LRU cache invariants.

use dnsnoise_cache::{CacheKey, CacheStats, EvictionKind, InsertPriority, Lookup, TtlLru};
use dnsnoise_dns::{QType, RData, Record, Timestamp, Ttl};
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
enum Op {
    Get { key: u8, at: u64 },
    Insert { key: u8, ttl: u32, at: u64, low: bool },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0u64..1_000).prop_map(|(key, at)| Op::Get { key, at }),
        (any::<u8>(), 0u32..200, 0u64..1_000, any::<bool>())
            .prop_map(|(key, ttl, at, low)| Op::Insert { key, ttl, at, low }),
    ]
}

fn key(i: u8) -> CacheKey {
    CacheKey::new(format!("d{i}.example.com").parse().unwrap(), QType::A)
}

fn rr(i: u8, ttl: u32) -> Record {
    Record::new(
        format!("d{i}.example.com").parse().unwrap(),
        QType::A,
        Ttl::from_secs(ttl),
        RData::A(Ipv4Addr::new(10, 0, 0, i)),
    )
}

/// The cache as its documentation states it, with nothing clever: entries
/// in one `Vec`, least recently used first, scanned for everything.
struct NaiveLru {
    capacity: usize,
    entries: Vec<NaiveEntry>,
    stats: CacheStats,
}

struct NaiveEntry {
    key: u8,
    answers: Vec<Record>,
    expires: u64,
    low: bool,
}

impl NaiveLru {
    fn lookup(&mut self, key: u8, now: u64, stale_window: u64) -> Lookup {
        let Some(at) = self.entries.iter().position(|e| e.key == key) else {
            self.stats.misses += 1;
            return Lookup::Absent;
        };
        if self.entries[at].expires <= now {
            self.stats.expired += 1;
            if stale_window > 0 && self.entries[at].expires + stale_window > now {
                return Lookup::Stale(self.entries[at].answers.clone().into());
            }
            self.entries.remove(at);
            return Lookup::Absent;
        }
        self.stats.hits += 1;
        let entry = self.entries.remove(at);
        let answers = entry.answers.clone();
        self.entries.push(entry);
        Lookup::Fresh(answers.into())
    }

    fn insert(&mut self, key: u8, ttl: u32, now: u64, low: bool) -> Vec<(CacheKey, EvictionKind)> {
        if ttl == 0 {
            return Vec::new();
        }
        self.stats.inserts += 1;
        self.entries.retain(|e| e.key != key);
        let mut evicted = Vec::new();
        while self.entries.len() >= self.capacity {
            // The least recently used low-priority entry, else the least
            // recently used entry outright.
            let at = self.entries.iter().position(|e| e.low).unwrap_or(0);
            let victim = self.entries.remove(at);
            let kind = if victim.expires > now {
                if victim.low {
                    self.stats.premature_evictions_low += 1;
                } else {
                    self.stats.premature_evictions_normal += 1;
                }
                EvictionKind::Premature
            } else {
                self.stats.expired_evictions += 1;
                EvictionKind::Expired
            };
            evicted.push((self::key(victim.key), kind));
        }
        let expires = now + u64::from(ttl);
        self.entries.push(NaiveEntry { key, answers: vec![rr(key, ttl)], expires, low });
        evicted
    }
}

#[derive(Debug, Clone)]
enum ModelOp {
    Lookup { key: u8, at: u64, stale_window: u64 },
    Insert { key: u8, ttl: u32, at: u64, low: bool },
    Clear,
}

/// Few keys, short TTLs and a clock that wanders both ways, so hits,
/// in-place replacements, stale serves and both eviction kinds all occur
/// at capacities of a handful.
fn arb_model_op() -> impl Strategy<Value = ModelOp> {
    let lookup = |stale_window| {
        (0u8..8, 0u64..60).prop_map(move |(key, at)| ModelOp::Lookup { key, at, stale_window })
    };
    prop_oneof![
        lookup(0),
        lookup(0),
        (0u8..8, 0u64..60, 1u64..30).prop_map(|(key, at, stale_window)| ModelOp::Lookup {
            key,
            at,
            stale_window
        }),
        (0u8..8, 0u32..40, 0u64..60, any::<bool>())
            .prop_map(|(key, ttl, at, low)| ModelOp::Insert { key, ttl, at, low }),
        (0u8..8, 0u32..40, 0u64..60, any::<bool>())
            .prop_map(|(key, ttl, at, low)| ModelOp::Insert { key, ttl, at, low }),
        Just(ModelOp::Clear),
    ]
}

proptest! {
    /// The index-linked recency lists are observably the naive cache:
    /// identical lookup results, eviction lists (key and kind, in order),
    /// length and counters after every operation, over both priorities.
    #[test]
    fn recency_lists_match_the_naive_model(
        cap in 1usize..6,
        ops in proptest::collection::vec(arb_model_op(), 0..300),
    ) {
        let mut cache = TtlLru::new(cap);
        let mut model = NaiveLru { capacity: cap, entries: Vec::new(), stats: CacheStats::default() };
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                ModelOp::Lookup { key: k, at, stale_window } => {
                    let got =
                        cache.lookup(&key(k), Timestamp::from_secs(at), Ttl::from_secs(stale_window as u32));
                    prop_assert_eq!(got, model.lookup(k, at, stale_window), "step {}", step);
                }
                ModelOp::Insert { key: k, ttl, at, low } => {
                    let prio = if low { InsertPriority::Low } else { InsertPriority::Normal };
                    let got = cache.insert(key(k), vec![rr(k, ttl)], Timestamp::from_secs(at), prio);
                    prop_assert_eq!(got, model.insert(k, ttl, at, low), "step {}", step);
                }
                ModelOp::Clear => {
                    cache.clear_entries();
                    model.entries.clear();
                }
            }
            prop_assert_eq!(cache.len(), model.entries.len(), "step {}", step);
            prop_assert_eq!(cache.stats(), &model.stats, "step {}", step);
        }
        // Drain what is left through evictions: the full recency order of
        // both lists must agree, not only the victims met along the way.
        for k in 100..100 + cap as u8 {
            let got = cache.insert(key(k), vec![rr(k, 1)], Timestamp::from_secs(1_000), InsertPriority::Normal);
            prop_assert_eq!(got, model.insert(k, 1, 1_000, false), "drain {}", k);
        }
    }

    /// Capacity is never exceeded, regardless of operation sequence.
    #[test]
    fn capacity_invariant(cap in 1usize..16, ops in proptest::collection::vec(arb_op(), 0..200)) {
        let mut cache = TtlLru::new(cap);
        let mut now = 0u64;
        for op in ops {
            match op {
                Op::Get { key: k, at } => {
                    now = now.max(at);
                    let _ = cache.get(&key(k), Timestamp::from_secs(now));
                }
                Op::Insert { key: k, ttl, at, low } => {
                    now = now.max(at);
                    let prio = if low { InsertPriority::Low } else { InsertPriority::Normal };
                    cache.insert(key(k), vec![rr(k, ttl)], Timestamp::from_secs(now), prio);
                }
            }
            prop_assert!(cache.len() <= cap);
        }
    }

    /// A get never returns answers whose entry TTL has lapsed: an oracle
    /// tracking (insert time + ttl) agrees on every "hit after expiry is
    /// impossible" claim.
    #[test]
    fn never_serves_expired(ops in proptest::collection::vec(arb_op(), 0..200)) {
        let mut cache = TtlLru::new(64);
        let mut expiry_oracle: HashMap<u8, u64> = HashMap::new();
        let mut now = 0u64;
        for op in ops {
            match op {
                Op::Get { key: k, at } => {
                    now = now.max(at);
                    let got = cache.get(&key(k), Timestamp::from_secs(now));
                    if got.is_some() {
                        let exp = expiry_oracle.get(&k).copied().unwrap_or(0);
                        prop_assert!(exp > now, "served entry past its expiry");
                    }
                }
                Op::Insert { key: k, ttl, at, low } => {
                    now = now.max(at);
                    let prio = if low { InsertPriority::Low } else { InsertPriority::Normal };
                    cache.insert(key(k), vec![rr(k, ttl)], Timestamp::from_secs(now), prio);
                    if ttl > 0 {
                        expiry_oracle.insert(k, now + u64::from(ttl));
                    }
                }
            }
        }
    }

    /// Hit + miss + expired accounting always equals the number of gets.
    #[test]
    fn lookup_accounting_conserved(ops in proptest::collection::vec(arb_op(), 0..200)) {
        let mut cache = TtlLru::new(8);
        let mut gets = 0u64;
        let mut now = 0u64;
        for op in ops {
            match op {
                Op::Get { key: k, at } => {
                    now = now.max(at);
                    let _ = cache.get(&key(k), Timestamp::from_secs(now));
                    gets += 1;
                }
                Op::Insert { key: k, ttl, at, low } => {
                    now = now.max(at);
                    let prio = if low { InsertPriority::Low } else { InsertPriority::Normal };
                    cache.insert(key(k), vec![rr(k, ttl)], Timestamp::from_secs(now), prio);
                }
            }
        }
        prop_assert_eq!(cache.stats().lookups(), gets);
    }

    /// With mixed priorities under pressure, no normal-priority entry is
    /// prematurely evicted while a live low-priority entry remains cached.
    #[test]
    fn low_priority_shields_normal(n_low in 1usize..10, n_normal in 1usize..10) {
        let cap = n_low + n_normal; // exactly full
        let mut cache = TtlLru::new(cap);
        let t0 = Timestamp::ZERO;
        for i in 0..n_low {
            cache.insert(key(i as u8), vec![rr(i as u8, 10_000)], t0, InsertPriority::Low);
        }
        for i in 0..n_normal {
            let k = 100 + i as u8;
            cache.insert(key(k), vec![rr(k, 10_000)], t0, InsertPriority::Normal);
        }
        // Push `n_low` more normal entries: every eviction must hit the
        // low-priority class first.
        for i in 0..n_low {
            let k = 200 + i as u8;
            cache.insert(key(k), vec![rr(k, 10_000)], t0, InsertPriority::Normal);
        }
        prop_assert_eq!(cache.stats().premature_evictions_low, n_low as u64);
        prop_assert_eq!(cache.stats().premature_evictions_normal, 0);
    }
}
