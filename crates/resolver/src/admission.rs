//! Deterministic admission control: bounded per-member queues, per-client
//! token buckets, and NXDOMAIN response-rate-limiting (RRL).
//!
//! A real recursive under a random-subdomain flood protects itself by
//! shedding load *before* the expensive work: cache hits are served from
//! the fast path, but a query that needs an upstream fetch must claim a
//! slot in a bounded per-member queue drained at a simulated service
//! rate. When the queue saturates, the resolver degrades gracefully —
//! clients that exceed their token budget (flood suspects) are refused
//! first, stale entries are served in place of a drop where RFC 8767
//! allows, and only then are queries dropped outright.
//!
//! # Determinism contract
//!
//! Every decision here is a pure function of the owning member's private
//! [`AdmissionState`] and the event being processed, and state advances
//! in member-stream order, so an attacked day replays bit-identically,
//! exactly like the fault engine. No wall clock, no scheduling, no
//! randomness.

use std::collections::HashMap;

use dnsnoise_dns::Name;

/// Knobs of the admission-control stage. Attached to a run via
/// [`DayRun::overload`](crate::DayRun::overload); absent config means the
/// stage is compiled out of the replay entirely (bit-identical to main).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Miss-path queries a member may hold queued before dropping.
    pub queue_depth: u64,
    /// Queued queries one member retires per simulated second.
    pub service_rate: u64,
    /// Token-bucket refill per client per second; clients querying faster
    /// than this are flood suspects under pressure.
    pub client_rate: u64,
    /// Token-bucket capacity (burst allowance) per client.
    pub client_burst: u64,
    /// Enable NXDOMAIN response-rate-limiting.
    pub rrl: bool,
    /// RRL budget: NXDOMAIN fetches allowed per second per member for
    /// names under one registered (2-label) zone.
    pub rrl_limit: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_depth: 64,
            service_rate: 200,
            client_rate: 20,
            client_burst: 40,
            rrl: false,
            rrl_limit: 50,
        }
    }
}

impl OverloadConfig {
    /// Returns the config with a different queue depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_queue_depth(mut self, depth: u64) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        self.queue_depth = depth;
        self
    }

    /// Returns the config with RRL enabled at `limit` NXDOMAINs per
    /// second per member per registered zone.
    pub fn with_rrl(mut self, limit: u64) -> Self {
        self.rrl = true;
        self.rrl_limit = limit.max(1);
        self
    }

    /// Returns the config with a different per-member service rate.
    pub fn with_service_rate(mut self, rate: u64) -> Self {
        self.service_rate = rate.max(1);
        self
    }
}

/// What the admission stage decided for one miss-path query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The query claimed a queue slot and may go upstream.
    Admit,
    /// The queue is full (or the query is an RRL casualty): no response.
    Drop,
    /// The query was refused to protect the service (token bucket or RRL).
    RateLimit,
}

#[derive(Debug, Clone, Copy)]
struct ClientBucket {
    tokens: u64,
    last_secs: u64,
}

#[derive(Debug, Clone, Copy)]
struct RrlWindow {
    window_secs: u64,
    count: u64,
}

/// One member's admission bookkeeping: queue backlog, per-client token
/// buckets, and per-zone RRL windows, mutated only in member-stream order.
#[derive(Debug, Clone, Default)]
pub struct AdmissionState {
    backlog: u64,
    last_secs: Option<u64>,
    buckets: HashMap<u64, ClientBucket>,
    rrl: HashMap<Name, RrlWindow>,
}

impl AdmissionState {
    /// Drains the queue for the simulated time that passed since the last
    /// event this member saw.
    fn advance(&mut self, cfg: &OverloadConfig, now_secs: u64) {
        if let Some(last) = self.last_secs {
            let elapsed = now_secs.saturating_sub(last);
            self.backlog = self.backlog.saturating_sub(elapsed.saturating_mul(cfg.service_rate));
        }
        self.last_secs = Some(now_secs);
    }

    /// Takes one token from `client`'s bucket; `false` means the client
    /// is over budget (a flood suspect).
    fn take_token(&mut self, cfg: &OverloadConfig, client: u64, now_secs: u64) -> bool {
        let bucket = self
            .buckets
            .entry(client)
            .or_insert(ClientBucket { tokens: cfg.client_burst, last_secs: now_secs });
        let elapsed = now_secs.saturating_sub(bucket.last_secs);
        bucket.tokens = bucket
            .tokens
            .saturating_add(elapsed.saturating_mul(cfg.client_rate))
            .min(cfg.client_burst);
        bucket.last_secs = now_secs;
        if bucket.tokens > 0 {
            bucket.tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Charges one NXDOMAIN fetch against the registered zone owning
    /// `name`; `true` means the per-second RRL budget is exhausted.
    fn rrl_exceeded(&mut self, cfg: &OverloadConfig, name: &Name, now_secs: u64) -> bool {
        let Some(zone) = name.nld(2) else { return false };
        let window = self.rrl.entry(zone).or_insert(RrlWindow { window_secs: now_secs, count: 0 });
        if window.window_secs != now_secs {
            window.window_secs = now_secs;
            window.count = 0;
        }
        window.count += 1;
        window.count > cfg.rrl_limit
    }

    /// Whether the member is under pressure: the queue is at or beyond
    /// half its depth, so suspect traffic starts being refused.
    fn under_pressure(&self, cfg: &OverloadConfig) -> bool {
        self.backlog.saturating_mul(2) >= cfg.queue_depth
    }

    /// Admission decision for one query that cannot be served from the
    /// member-local fast path (positive or negative cache hit) and would
    /// otherwise go upstream. `is_nxdomain` marks queries whose
    /// authoritative outcome is NXDOMAIN — the traffic RRL meters.
    pub(crate) fn admit(
        &mut self,
        cfg: &OverloadConfig,
        client: u64,
        name: &Name,
        now_secs: u64,
        is_nxdomain: bool,
    ) -> Admission {
        self.advance(cfg, now_secs);
        let in_budget = self.take_token(cfg, client, now_secs);
        if cfg.rrl && is_nxdomain && self.rrl_exceeded(cfg, name, now_secs) {
            return Admission::RateLimit;
        }
        if self.backlog >= cfg.queue_depth {
            return Admission::Drop;
        }
        if !in_budget && self.under_pressure(cfg) {
            return Admission::RateLimit;
        }
        self.backlog += 1;
        Admission::Admit
    }

    /// Current queue backlog (post-drain of the last processed event).
    pub fn backlog(&self) -> u64 {
        self.backlog
    }
}

/// Shed/served accounting for one day under an [`OverloadConfig`]. All
/// counters stay zero when no config is attached, keeping overload-free
/// reports bit-identical to the plain simulation.
///
/// Conservation: `offered = admitted + dropped + rate_limited`, and
/// `dropped + rate_limited = shed_attack + shed_legit`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Query events seen while admission control was active.
    pub offered: u64,
    /// Events served normally (fast path or an admitted queue slot).
    pub admitted: u64,
    /// Events dropped because a member queue was full.
    pub dropped: u64,
    /// Events refused by the token bucket or RRL.
    pub rate_limited: u64,
    /// Shed events carrying the flood tag ([`ATTACK_TAG`]).
    ///
    /// [`ATTACK_TAG`]: dnsnoise_workload::ATTACK_TAG
    pub shed_attack: u64,
    /// Shed events from legitimate (non-flood) traffic.
    pub shed_legit: u64,
    /// Queries that would have been shed but were answered from a stale
    /// cache entry instead (RFC 8767 under pressure).
    pub stale_under_pressure: u64,
    /// Highest queue backlog any member reached (max over members).
    pub queue_peak: u64,
}

impl OverloadStats {
    /// Total shed responses.
    pub fn shed(&self) -> u64 {
        self.dropped + self.rate_limited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn cfg() -> OverloadConfig {
        OverloadConfig {
            queue_depth: 4,
            service_rate: 2,
            client_rate: 1,
            client_burst: 2,
            rrl: false,
            rrl_limit: 3,
        }
    }

    #[test]
    fn queue_fills_then_drops() {
        let c = cfg();
        let mut s = AdmissionState::default();
        // Four well-behaved clients fill the queue within one second…
        for client in 0..4 {
            assert_eq!(s.admit(&c, client, &name("a.example.com"), 10, false), Admission::Admit);
        }
        // …the fifth (still in token budget) is dropped: queue full.
        assert_eq!(s.admit(&c, 4, &name("a.example.com"), 10, false), Admission::Drop);
        assert_eq!(s.backlog(), 4);
    }

    #[test]
    fn queue_drains_at_service_rate() {
        let c = cfg();
        let mut s = AdmissionState::default();
        for client in 0..4 {
            s.admit(&c, client, &name("a.example.com"), 10, false);
        }
        // One second later two slots have been serviced.
        assert_eq!(s.admit(&c, 4, &name("a.example.com"), 11, false), Admission::Admit);
        assert_eq!(s.backlog(), 3);
    }

    #[test]
    fn suspects_are_shed_first_under_pressure() {
        let c = cfg();
        let mut s = AdmissionState::default();
        // Client 7 burns its burst of 2 and hits pressure (backlog 2 ≥
        // depth/2), so its third query is rate-limited, not dropped.
        assert_eq!(s.admit(&c, 7, &name("a.example.com"), 10, false), Admission::Admit);
        assert_eq!(s.admit(&c, 7, &name("a.example.com"), 10, false), Admission::Admit);
        assert_eq!(s.admit(&c, 7, &name("a.example.com"), 10, false), Admission::RateLimit);
        // A fresh client is still admitted: shedding targeted the suspect.
        assert_eq!(s.admit(&c, 8, &name("a.example.com"), 10, false), Admission::Admit);
    }

    #[test]
    fn suspects_pass_when_queue_is_idle() {
        let c = OverloadConfig { queue_depth: 100, ..cfg() };
        let mut s = AdmissionState::default();
        for _ in 0..10 {
            // Over token budget but no pressure: still admitted.
            assert_eq!(s.admit(&c, 7, &name("a.example.com"), 10, false), Admission::Admit);
        }
    }

    #[test]
    fn rrl_meters_per_zone_per_second() {
        let c = OverloadConfig { rrl: true, queue_depth: 1000, client_burst: 1000, ..cfg() };
        let mut s = AdmissionState::default();
        for i in 0..3 {
            assert_eq!(
                s.admit(&c, i, &name(&format!("x{i}.victim.com")), 10, true),
                Admission::Admit
            );
        }
        // Fourth NXDOMAIN under victim.com in the same second: refused.
        assert_eq!(s.admit(&c, 9, &name("x9.victim.com"), 10, true), Admission::RateLimit);
        // Another zone is unaffected…
        assert_eq!(s.admit(&c, 9, &name("y.other.net"), 10, true), Admission::Admit);
        // …and the window resets next second.
        assert_eq!(s.admit(&c, 9, &name("z.victim.com"), 11, true), Admission::Admit);
    }

    #[test]
    fn token_buckets_refill() {
        let c = cfg();
        let mut s = AdmissionState::default();
        s.admit(&c, 7, &name("a.com"), 10, false);
        s.admit(&c, 7, &name("a.com"), 10, false);
        // Burst exhausted; 3 seconds later 2 tokens are back (capped at
        // burst) and the queue has drained.
        assert_eq!(s.admit(&c, 7, &name("a.com"), 13, false), Admission::Admit);
    }

    #[test]
    fn shed_is_dropped_plus_rate_limited() {
        let a = OverloadStats {
            offered: 14,
            admitted: 12,
            dropped: 1,
            rate_limited: 1,
            ..OverloadStats::default()
        };
        assert_eq!(a.shed(), 2);
        assert_eq!(OverloadStats::default().shed(), 0);
    }

    #[test]
    fn decisions_are_replay_deterministic() {
        let c = OverloadConfig { rrl: true, ..cfg() };
        let run = || {
            let mut s = AdmissionState::default();
            (0..200u64)
                .map(|i| {
                    s.admit(
                        &c,
                        i % 7,
                        &name(&format!("x{}.v.com", i % 13)),
                        10 + i / 20,
                        i % 3 == 0,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
