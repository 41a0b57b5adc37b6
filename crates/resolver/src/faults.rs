//! Deterministic fault injection for the resolver cluster.
//!
//! A [`FaultPlan`] schedules upstream outages (per-operator or per-zone
//! timeout and SERVFAIL windows), an independent packet-loss probability,
//! and cache-member crash/restart windows. Everything is driven from a
//! seed and the (day, event, attempt) coordinates of each upstream fetch,
//! so a plan replays bit-identically across runs — resilience experiments
//! are reproducible the same way the workload itself is.
//!
//! The plan round-trips through a compact text spec (see
//! [`FaultPlan::from_str`]), which is also what the CLI's
//! `simulate --faults <spec>` accepts:
//!
//! ```text
//! seed=7;loss=0.02;outage=all,timeout,28800,57600;member=0,3600,7200
//! ```

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use dnsnoise_dns::{splitmix_finalize, Name, Timestamp};
use dnsnoise_workload::Operator;

/// Latency modelled for an upstream that answers SERVFAIL immediately
/// (reached, but failing) — much cheaper than a timeout.
pub const SERVFAIL_LATENCY_MS: u64 = 50;

/// Latency modelled for a healthy upstream round trip: the simulated-time
/// cost of one successful fetch attempt. Purely observational — it feeds
/// the metrics latency histogram and never influences replay behaviour.
pub const UPSTREAM_RTT_MS: u64 = 30;

/// What a faulted upstream does during an outage window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The upstream never answers; each attempt burns the full
    /// per-attempt timeout from the retry budget.
    Timeout,
    /// The upstream answers SERVFAIL quickly.
    ServFail,
}

/// Which upstream queries an outage window applies to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OutageScope {
    /// Every upstream query.
    All,
    /// Queries attributed to one operator (requires ground truth; without
    /// it no query matches this scope).
    Operator(Operator),
    /// Queries for names at or under this suffix.
    Zone(Name),
}

/// A scheduled upstream outage: `[start, end)` in absolute trace time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// Which queries are affected.
    pub scope: OutageScope,
    /// How the upstream fails.
    pub kind: FaultKind,
    /// First affected instant (inclusive).
    pub start: Timestamp,
    /// First unaffected instant (exclusive).
    pub end: Timestamp,
}

impl OutageWindow {
    fn covers(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    fn matches(&self, t: Timestamp, name: &Name, operator: Option<Operator>) -> bool {
        self.covers(t)
            && match &self.scope {
                OutageScope::All => true,
                OutageScope::Operator(op) => operator == Some(*op),
                OutageScope::Zone(zone) => name.is_subdomain_of(zone),
            }
    }
}

/// A cache-member crash window: the member is unreachable during
/// `[start, end)` and restarts *cold* (entries lost, counters kept) at
/// `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemberOutage {
    /// Index of the crashed member.
    pub member: usize,
    /// Crash instant (inclusive).
    pub start: Timestamp,
    /// Restart instant (exclusive).
    pub end: Timestamp,
}

/// Bounded-retry parameters for upstream fetches.
///
/// Attempt `k` (1-based) that fails is followed — budget permitting — by a
/// backoff of `backoff_base_ms << (k - 1)` and another attempt, up to
/// `max_retries` retries. A timed-out attempt costs `timeout_ms`; the
/// whole query abandons once `budget_ms` is spent and the resolver falls
/// back to serve-stale or SERVFAIL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retries after the initial attempt.
    pub max_retries: u32,
    /// Cost of one timed-out attempt, in milliseconds.
    pub timeout_ms: u64,
    /// Backoff before the first retry; doubles per retry.
    pub backoff_base_ms: u64,
    /// Total per-query time budget in milliseconds.
    pub budget_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2, timeout_ms: 1_500, backoff_base_ms: 200, budget_ms: 4_000 }
    }
}

impl RetryPolicy {
    /// Backoff after failed attempt `attempt` (1-based).
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.backoff_base_ms.saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
    }
}

/// A seeded, replayable schedule of faults for one simulation.
///
/// The all-zero plan ([`FaultPlan::default`]) injects nothing and leaves
/// [`ResolverSim::day`](crate::ResolverSim::day) replays bit-identical
/// to the fault-free code path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the packet-loss hash; independent of the workload seed.
    pub seed: u64,
    /// Probability that any single upstream attempt is lost in transit.
    pub packet_loss: f64,
    /// Scheduled upstream outages; the first matching window wins.
    pub outages: Vec<OutageWindow>,
    /// Scheduled cache-member crashes.
    pub member_outages: Vec<MemberOutage>,
    /// Retry behaviour used while any fault is active.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            packet_loss: 0.0,
            outages: Vec::new(),
            member_outages: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }
}

impl FaultPlan {
    /// Returns `true` if this plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.packet_loss <= 0.0 && self.outages.is_empty() && self.member_outages.is_empty()
    }

    /// Returns the plan with a different loss-sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the plan with per-attempt packet loss probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_packet_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "packet loss must be in [0, 1]");
        self.packet_loss = p;
        self
    }

    /// Returns the plan with an upstream outage appended.
    pub fn with_outage(
        mut self,
        scope: OutageScope,
        kind: FaultKind,
        start: Timestamp,
        end: Timestamp,
    ) -> Self {
        self.outages.push(OutageWindow { scope, kind, start, end });
        self
    }

    /// Returns the plan with a member crash window appended.
    pub fn with_member_outage(mut self, member: usize, start: Timestamp, end: Timestamp) -> Self {
        self.member_outages.push(MemberOutage { member, start, end });
        self
    }

    /// Returns the plan with a different retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The outage kind affecting a query at `t` for `name` (attributed to
    /// `operator`), if any. The first matching window wins.
    pub fn upstream_fault(
        &self,
        t: Timestamp,
        name: &Name,
        operator: Option<Operator>,
    ) -> Option<FaultKind> {
        self.outages.iter().find(|w| w.matches(t, name, operator)).map(|w| w.kind)
    }

    /// Whether upstream attempt `attempt` (1-based) of event `event_index`
    /// on `day` is lost in transit. Deterministic in the plan seed and the
    /// coordinates, so reruns replay the identical loss pattern.
    pub fn attempt_lost(&self, day: u64, event_index: u64, attempt: u32) -> bool {
        if self.packet_loss <= 0.0 {
            return false;
        }
        let coords = splitmix_finalize(day)
            .wrapping_add(event_index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(u64::from(attempt).rotate_left(48));
        let h = splitmix_finalize(self.seed ^ coords);
        // 53 uniform bits → an exact dyadic fraction in [0, 1).
        ((h >> 11) as f64) / ((1u64 << 53) as f64) < self.packet_loss
    }

    /// Whether cluster member `member` is crashed at `t`.
    pub fn member_down(&self, member: usize, t: Timestamp) -> bool {
        self.member_outages.iter().any(|o| o.member == member && o.start <= t && t < o.end)
    }
}

/// A malformed `--faults` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

fn parse_num<T: FromStr>(what: &str, s: &str) -> Result<T, FaultSpecError> {
    s.trim().parse().map_err(|_| FaultSpecError(format!("{what}: cannot parse {s:?}")))
}

fn parse_scope(s: &str) -> Result<OutageScope, FaultSpecError> {
    if s == "all" {
        return Ok(OutageScope::All);
    }
    if let Some(op) = s.strip_prefix("op:") {
        return match op {
            "google" => Ok(OutageScope::Operator(Operator::Google)),
            "akamai" => Ok(OutageScope::Operator(Operator::Akamai)),
            other => Err(FaultSpecError(format!("unknown operator {other:?}"))),
        };
    }
    if let Some(zone) = s.strip_prefix("zone:") {
        let name: Name =
            zone.parse().map_err(|_| FaultSpecError(format!("bad zone name {zone:?}")))?;
        return Ok(OutageScope::Zone(name));
    }
    Err(FaultSpecError(format!("unknown scope {s:?} (want all, op:<name>, or zone:<name>)")))
}

impl FromStr for FaultPlan {
    type Err = FaultSpecError;

    /// Parses the semicolon-separated spec format:
    ///
    /// * `seed=<u64>` — loss-sampling seed;
    /// * `loss=<f64>` — per-attempt packet loss in `[0, 1]`;
    /// * `outage=<scope>,<kind>,<start>,<end>` — upstream outage, with
    ///   `scope` one of `all` / `op:google` / `op:akamai` / `zone:<name>`,
    ///   `kind` one of `timeout` / `servfail`, and times in seconds;
    /// * `member=<idx>,<start>,<end>` — member crash window in seconds;
    /// * `retries=<u32>`, `timeout=<ms>`, `backoff=<ms>`, `budget=<ms>` —
    ///   retry-policy overrides.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::default();
        for clause in s.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| FaultSpecError(format!("clause {clause:?} is not key=value")))?;
            match key.trim() {
                "seed" => plan.seed = parse_num("seed", value)?,
                "loss" => {
                    let p: f64 = parse_num("loss", value)?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(FaultSpecError(format!("loss {p} outside [0, 1]")));
                    }
                    plan.packet_loss = p;
                }
                "retries" => plan.retry.max_retries = parse_num("retries", value)?,
                "timeout" => plan.retry.timeout_ms = parse_num("timeout", value)?,
                "backoff" => plan.retry.backoff_base_ms = parse_num("backoff", value)?,
                "budget" => plan.retry.budget_ms = parse_num("budget", value)?,
                "outage" => {
                    let parts: Vec<&str> = value.split(',').map(str::trim).collect();
                    let [scope, kind, start, end] = parts.as_slice() else {
                        return Err(FaultSpecError(format!(
                            "outage wants scope,kind,start,end — got {value:?}"
                        )));
                    };
                    let kind = match *kind {
                        "timeout" => FaultKind::Timeout,
                        "servfail" => FaultKind::ServFail,
                        other => {
                            return Err(FaultSpecError(format!("unknown outage kind {other:?}")))
                        }
                    };
                    let start = Timestamp::from_secs(parse_num("outage start", start)?);
                    let end = Timestamp::from_secs(parse_num("outage end", end)?);
                    if end <= start {
                        return Err(FaultSpecError(format!("outage window {value:?} is empty")));
                    }
                    plan.outages.push(OutageWindow {
                        scope: parse_scope(scope)?,
                        kind,
                        start,
                        end,
                    });
                }
                "member" => {
                    let parts: Vec<&str> = value.split(',').map(str::trim).collect();
                    let [member, start, end] = parts.as_slice() else {
                        return Err(FaultSpecError(format!(
                            "member wants idx,start,end — got {value:?}"
                        )));
                    };
                    let start = Timestamp::from_secs(parse_num("member start", start)?);
                    let end = Timestamp::from_secs(parse_num("member end", end)?);
                    if end <= start {
                        return Err(FaultSpecError(format!("member window {value:?} is empty")));
                    }
                    plan.member_outages.push(MemberOutage {
                        member: parse_num("member index", member)?,
                        start,
                        end,
                    });
                }
                other => return Err(FaultSpecError(format!("unknown clause {other:?}"))),
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    /// Renders the plan in the exact spec format [`FaultPlan::from_str`]
    /// accepts, so plans round-trip as text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut clauses: Vec<String> = Vec::new();
        if self.seed != 0 {
            clauses.push(format!("seed={}", self.seed));
        }
        if self.packet_loss > 0.0 {
            clauses.push(format!("loss={}", self.packet_loss));
        }
        for w in &self.outages {
            let scope = match &w.scope {
                OutageScope::All => "all".to_string(),
                OutageScope::Operator(op) => format!("op:{op}"),
                OutageScope::Zone(zone) => format!("zone:{zone}"),
            };
            let kind = match w.kind {
                FaultKind::Timeout => "timeout",
                FaultKind::ServFail => "servfail",
            };
            clauses.push(format!(
                "outage={scope},{kind},{},{}",
                w.start.as_secs(),
                w.end.as_secs()
            ));
        }
        for m in &self.member_outages {
            clauses.push(format!("member={},{},{}", m.member, m.start.as_secs(), m.end.as_secs()));
        }
        let d = RetryPolicy::default();
        if self.retry.max_retries != d.max_retries {
            clauses.push(format!("retries={}", self.retry.max_retries));
        }
        if self.retry.timeout_ms != d.timeout_ms {
            clauses.push(format!("timeout={}", self.retry.timeout_ms));
        }
        if self.retry.backoff_base_ms != d.backoff_base_ms {
            clauses.push(format!("backoff={}", self.retry.backoff_base_ms));
        }
        if self.retry.budget_ms != d.budget_ms {
            clauses.push(format!("budget={}", self.retry.budget_ms));
        }
        f.write_str(&clauses.join(";"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        let name: Name = "www.example.com".parse().unwrap();
        assert_eq!(plan.upstream_fault(t(0), &name, None), None);
        assert!(!plan.attempt_lost(0, 0, 1));
        assert!(!plan.member_down(0, t(0)));
    }

    #[test]
    fn outage_scopes_match_correctly() {
        let zone: Name = "cdn.example.com".parse().unwrap();
        let plan = FaultPlan::default()
            .with_outage(
                OutageScope::Operator(Operator::Google),
                FaultKind::ServFail,
                t(100),
                t(200),
            )
            .with_outage(OutageScope::Zone(zone.clone()), FaultKind::Timeout, t(100), t(200));

        let g_name: Name = "maps.google.com".parse().unwrap();
        let z_name: Name = "a.cdn.example.com".parse().unwrap();
        let other: Name = "unrelated.org".parse().unwrap();

        // Operator scope needs the attribution.
        assert_eq!(
            plan.upstream_fault(t(150), &g_name, Some(Operator::Google)),
            Some(FaultKind::ServFail)
        );
        assert_eq!(plan.upstream_fault(t(150), &g_name, None), None);
        // Zone scope matches subdomains (and the apex itself) by suffix.
        assert_eq!(plan.upstream_fault(t(150), &z_name, None), Some(FaultKind::Timeout));
        assert_eq!(plan.upstream_fault(t(150), &zone, None), Some(FaultKind::Timeout));
        assert_eq!(plan.upstream_fault(t(150), &other, None), None);
        // Window edges: start inclusive, end exclusive.
        assert_eq!(plan.upstream_fault(t(99), &z_name, None), None);
        assert_eq!(plan.upstream_fault(t(100), &z_name, None), Some(FaultKind::Timeout));
        assert_eq!(plan.upstream_fault(t(200), &z_name, None), None);
    }

    #[test]
    fn packet_loss_is_deterministic_and_calibrated() {
        let plan = FaultPlan::default().with_seed(42).with_packet_loss(0.3);
        let mut lost = 0u32;
        for i in 0..10_000u64 {
            let l = plan.attempt_lost(0, i, 1);
            assert_eq!(l, plan.attempt_lost(0, i, 1), "must replay identically");
            lost += u32::from(l);
        }
        let rate = f64::from(lost) / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed loss rate {rate}");
        // Different attempts of the same event sample independently.
        let differs =
            (0..1_000u64).any(|i| plan.attempt_lost(0, i, 1) != plan.attempt_lost(0, i, 2));
        assert!(differs);
    }

    #[test]
    fn member_windows_cover_half_open_ranges() {
        let plan = FaultPlan::default().with_member_outage(1, t(3_600), t(7_200));
        assert!(!plan.member_down(1, t(3_599)));
        assert!(plan.member_down(1, t(3_600)));
        assert!(plan.member_down(1, t(7_199)));
        assert!(!plan.member_down(1, t(7_200)));
        assert!(!plan.member_down(0, t(5_000)));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(1), 200);
        assert_eq!(p.backoff_ms(2), 400);
        assert_eq!(p.backoff_ms(3), 800);
        // Deep attempts cap rather than overflow.
        assert!(p.backoff_ms(200) >= p.backoff_ms(17));
    }

    #[test]
    fn spec_round_trips() {
        let spec = "seed=9;loss=0.05;outage=all,timeout,28800,57600;outage=op:google,servfail,0,3600;outage=zone:api.example.com,timeout,100,200;member=0,3600,7200;retries=4;budget=9000";
        let plan: FaultPlan = spec.parse().unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.packet_loss, 0.05);
        assert_eq!(plan.outages.len(), 3);
        assert_eq!(plan.member_outages.len(), 1);
        assert_eq!(plan.retry.max_retries, 4);
        assert_eq!(plan.retry.budget_ms, 9_000);

        let rendered = plan.to_string();
        let back: FaultPlan = rendered.parse().unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "nonsense",
            "loss=2.0",
            "loss=x",
            "outage=all,timeout,100",
            "outage=all,explode,0,100",
            "outage=all,timeout,200,100",
            "outage=elsewhere,timeout,0,100",
            "member=0,5,5",
            "frobnicate=1",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?} should not parse");
        }
        // Empty specs and stray separators are fine.
        assert!("".parse::<FaultPlan>().unwrap().is_empty());
        assert!("; ;".parse::<FaultPlan>().unwrap().is_empty());
    }
}
