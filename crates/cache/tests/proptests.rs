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

fn key(i: impl Into<u16>) -> CacheKey {
    let i = i.into();
    CacheKey::new(format!("d{i}.example.com").parse().unwrap(), QType::A)
}

fn rr(i: impl Into<u16>, ttl: u32) -> Record {
    let i = i.into();
    let [hi, lo] = i.to_be_bytes();
    Record::new(
        format!("d{i}.example.com").parse().unwrap(),
        QType::A,
        Ttl::from_secs(ttl),
        RData::A(Ipv4Addr::new(10, 0, hi, lo)),
    )
}

/// What a lookup offered: live answers, stale ones, or nothing.
#[derive(Debug, PartialEq)]
enum Offer {
    Fresh(Vec<Record>),
    Stale(Vec<Record>),
    Nothing,
}

fn offer(lookup: &Lookup<'_>) -> Offer {
    match lookup {
        Lookup::Fresh(answers) => Offer::Fresh(answers.to_vec()),
        Lookup::Miss(miss) => miss.stale().map_or(Offer::Nothing, |a| Offer::Stale(a.to_vec())),
    }
}

/// The cache as its documentation states it, with nothing clever: entries
/// in one `Vec`, least recently used first, scanned for everything. A
/// lookup removes an entry past its serve-stale window at once, and an
/// insert removes the key's old entry before pushing the new one: the
/// remove-then-insert logic a refill through [`dnsnoise_cache::Miss`]
/// must be observably equal to.
struct NaiveLru {
    capacity: usize,
    entries: Vec<NaiveEntry>,
    stats: CacheStats,
}

struct NaiveEntry {
    key: u16,
    answers: Vec<Record>,
    expires: u64,
    low: bool,
}

impl NaiveLru {
    fn lookup(&mut self, key: u16, now: u64, stale_window: u64) -> Offer {
        let Some(at) = self.entries.iter().position(|e| e.key == key) else {
            self.stats.misses += 1;
            return Offer::Nothing;
        };
        if self.entries[at].expires <= now {
            self.stats.expired += 1;
            if stale_window > 0 && self.entries[at].expires + stale_window > now {
                return Offer::Stale(self.entries[at].answers.clone());
            }
            self.entries.remove(at);
            return Offer::Nothing;
        }
        self.stats.hits += 1;
        let entry = self.entries.remove(at);
        let answers = entry.answers.clone();
        self.entries.push(entry);
        Offer::Fresh(answers)
    }

    fn insert(&mut self, key: u16, ttl: u32, now: u64, low: bool) -> Vec<(CacheKey, EvictionKind)> {
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
    /// A lookup whose miss, if any, is dropped unfilled.
    Lookup {
        key: u16,
        at: u64,
        stale_window: u64,
    },
    /// A lookup whose miss, if any, is filled: a resolver's refresh.
    Refill {
        key: u16,
        at: u64,
        stale_window: u64,
        ttl: u32,
        low: bool,
    },
    Insert {
        key: u16,
        ttl: u32,
        at: u64,
        low: bool,
    },
    Clear,
}

/// Few keys, short TTLs (10 s often, so a refill often brings the answers
/// back unchanged) and a clock that wanders both ways, so hits, in-place
/// refills, stale serves, zero-TTL refills and both eviction kinds all
/// occur at capacities of a handful.
fn arb_model_op() -> impl Strategy<Value = ModelOp> {
    model_op(0u16..8, [1, 2, 1, 1])
}

/// Ops over 1,024 names, a sixteenth of them hot so that lookups still
/// hit, mostly inserts and refills: enough distinct keys stay cached for
/// the index to double again and again, while lookups of expired
/// entries, evictions, unfilled misses and a rare clear take keys out of
/// the middle of its probe runs.
fn arb_wide_op() -> impl Strategy<Value = ModelOp> {
    model_op(prop_oneof![0u16..64, 0u16..1_024], [100, 100, 299, 1])
}

/// One op over the keys `keys` draws, of each kind — lookup, refill,
/// insert, clear — in the proportions `weights` gives them.
fn model_op(keys: impl Strategy<Value = u16>, weights: [u32; 4]) -> impl Strategy<Value = ModelOp> {
    let window = prop_oneof![Just(0u64), Just(0u64), 1u64..30];
    let ttl = prop_oneof![0u32..40, Just(10u32)];
    let total = weights.iter().sum::<u32>();
    (0..total, keys, 0u64..60, window, ttl, any::<bool>()).prop_map(
        move |(draw, key, at, stale_window, ttl, low)| {
            let mut bounds = weights.iter().scan(0, |sum, &w| {
                *sum += w;
                Some(*sum)
            });
            match bounds.position(|bound| draw < bound) {
                Some(0) => ModelOp::Lookup { key, at, stale_window },
                Some(1) => ModelOp::Refill { key, at, stale_window, ttl, low },
                Some(2) => ModelOp::Insert { key, ttl, at, low },
                _ => ModelOp::Clear,
            }
        },
    )
}

fn priority(low: bool) -> InsertPriority {
    if low {
        InsertPriority::Low
    } else {
        InsertPriority::Normal
    }
}

proptest! {
    /// The index-linked recency lists, the slot-number index and the
    /// in-place refill are observably the naive remove-then-insert cache:
    /// identical lookup offers, eviction lists (key and kind, in order),
    /// length and counters after every operation, over both priorities.
    /// Half the cases crowd a handful of keys into a cache of a handful
    /// of entries; the other half run up to 1,500 ops over 1,024 names
    /// into a cache of up to 512, through at least three doublings of
    /// the index.
    #[test]
    fn recency_lists_match_the_naive_model(
        (cap, ops) in prop_oneof![
            (1usize..6, proptest::collection::vec(arb_model_op(), 0..300)),
            (40usize..513, proptest::collection::vec(arb_wide_op(), 600..1_500)),
        ],
    ) {
        let mut cache = TtlLru::new(cap);
        let mut model = NaiveLru { capacity: cap, entries: Vec::new(), stats: CacheStats::default() };
        let mut most = 0;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                ModelOp::Lookup { key: k, at, stale_window } => {
                    let kk = key(k);
                    let window = Ttl::from_secs(stale_window as u32);
                    let got = offer(&cache.lookup(&kk, Timestamp::from_secs(at), window));
                    prop_assert_eq!(got, model.lookup(k, at, stale_window), "step {}", step);
                }
                ModelOp::Refill { key: k, at, stale_window, ttl, low } => {
                    let kk = key(k);
                    let (now, window) = (Timestamp::from_secs(at), Ttl::from_secs(stale_window as u32));
                    let lookup = cache.lookup(&kk, now, window);
                    let got = offer(&lookup);
                    let evicted = match lookup {
                        Lookup::Fresh(_) => Vec::new(),
                        Lookup::Miss(miss) => {
                            let (block, evicted) = miss.fill(&[rr(k, ttl)], now, priority(low));
                            prop_assert_eq!(&*block, &[rr(k, ttl)][..], "step {}", step);
                            evicted
                        }
                    };
                    let want = model.lookup(k, at, stale_window);
                    let want_evicted = match want {
                        Offer::Fresh(_) => Vec::new(),
                        _ => model.insert(k, ttl, at, low),
                    };
                    prop_assert_eq!(got, want, "step {}", step);
                    prop_assert_eq!(evicted, want_evicted, "step {}", step);
                }
                ModelOp::Insert { key: k, ttl, at, low } => {
                    let got = cache.insert(key(k), vec![rr(k, ttl)], Timestamp::from_secs(at), priority(low));
                    prop_assert_eq!(got, model.insert(k, ttl, at, low), "step {}", step);
                }
                ModelOp::Clear => {
                    cache.clear_entries();
                    model.entries.clear();
                }
            }
            prop_assert_eq!(cache.len(), model.entries.len(), "step {}", step);
            prop_assert_eq!(cache.stats(), &model.stats, "step {}", step);
            most = most.max(model.entries.len());
        }
        // From 16 cells, the index doubles for the 9th, 17th and 33rd
        // entry held.
        prop_assert!(cap < 33 || most >= 33, "{} entries at most in a cache of {}", most, cap);
        // Drain what is left through evictions: the full recency order of
        // both lists must agree, not only the victims met along the way.
        for k in 2_000..2_000 + cap as u16 {
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
