//! Recursive-resolver caching for the `dnsnoise` workspace.
//!
//! The paper measures a production RDNS cluster as a black box; this crate
//! provides the white-box equivalent the simulation runs on:
//!
//! * [`TtlLru`] — a TTL-aware least-recently-used record cache with
//!   capacity-based eviction and *premature eviction* accounting (evicting a
//!   record whose TTL had not yet expired — the §VI-A failure mode caused by
//!   disposable-domain pressure).
//! * [`InsertPriority`] — the paper's proposed mitigation of caching
//!   disposable records with low priority, modelled as a two-class eviction
//!   order.
//! * [`NegativeCache`] — RFC 2308 negative caching, which the monitored ISP
//!   resolvers were observed *not* to honour (fpDNS NXDOMAIN volume above the
//!   recursives was ≈40%); honouring is therefore configurable.
//! * [`CacheCluster`] — the "cluster of RDNS servers" of §III-A: several
//!   independent caches behind a load-balancing strategy.
//!
//! # Examples
//!
//! ```
//! use dnsnoise_cache::{CacheKey, InsertPriority, TtlLru};
//! use dnsnoise_dns::{QType, RData, Record, Timestamp, Ttl};
//! use std::net::Ipv4Addr;
//!
//! let mut cache = TtlLru::new(2);
//! let name: dnsnoise_dns::Name = "www.example.com".parse()?;
//! let rr = Record::new(name.clone(), QType::A, Ttl::from_secs(60), RData::A(Ipv4Addr::new(192, 0, 2, 1)));
//! let key = CacheKey::new(name, QType::A);
//! let t0 = Timestamp::ZERO;
//!
//! assert!(cache.get(&key, t0).is_none());
//! cache.insert(key.clone(), vec![rr], t0, InsertPriority::Normal);
//! assert!(cache.get(&key, t0 + Ttl::from_secs(30)).is_some()); // within TTL
//! assert!(cache.get(&key, t0 + Ttl::from_secs(61)).is_none()); // expired
//! # Ok::<(), dnsnoise_dns::NameParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod lru;
mod negative;

pub use cluster::{CacheCluster, LoadBalance, MemberShard};
pub use lru::{CacheKey, CacheStats, EvictionKind, InsertPriority, Lookup, Miss, TtlLru};
pub use negative::{NegativeCache, NegativeEntry};
