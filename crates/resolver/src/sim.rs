//! The cluster simulation loop.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dnsnoise_cache::{
    CacheCluster, CacheKey, CacheStats, InsertPriority, LoadBalance, Lookup, MemberShard,
    NegativeCache,
};
use dnsnoise_dns::{Name, Record, Timestamp, Ttl};
use dnsnoise_workload::{GroundTruth, Operator, Outcome, QueryEvent};

use crate::admission::{Admission, AdmissionState, OverloadConfig, OverloadStats};
use crate::faults::{FaultKind, FaultPlan, SERVFAIL_LATENCY_MS, UPSTREAM_RTT_MS};
use crate::metrics::{MetricsRegistry, QueryClass};
use crate::observer::{Observer, Served};

use crate::stats::RrDayStats;
use crate::traffic::{Series, TrafficProfile};

/// A shared predicate deciding whether a name is cached with low priority.
pub type PriorityPredicate = Arc<dyn Fn(&Name) -> bool + Send + Sync>;

/// Cluster configuration for a simulation run.
#[derive(Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of member caches in the cluster.
    pub members: usize,
    /// Entry capacity of each member cache.
    pub capacity_each: usize,
    /// Load-balancing strategy.
    pub load_balance: LoadBalance,
    /// RFC 2308 negative-cache TTL; `None` reproduces the monitored ISP's
    /// observed behaviour of not honouring negative caching (§III-C1).
    pub negative_ttl: Option<Ttl>,
    /// Optional mitigation hook (§VI-A): names for which this returns
    /// `true` are cached with low eviction priority.
    #[serde(skip)]
    pub low_priority: Option<PriorityPredicate>,
    /// RFC 8767 serve-stale window: how long past its TTL an expired
    /// entry may still be served when every upstream attempt fails.
    /// `None` disables serve-stale entirely.
    pub stale_window: Option<Ttl>,
}

impl std::fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("members", &self.members)
            .field("capacity_each", &self.capacity_each)
            .field("load_balance", &self.load_balance)
            .field("negative_ttl", &self.negative_ttl)
            .field("low_priority", &self.low_priority.is_some())
            .field("stale_window", &self.stale_window)
            .finish()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            members: 4,
            capacity_each: 50_000,
            load_balance: LoadBalance::HashClient,
            negative_ttl: None,
            low_priority: None,
            stale_window: None,
        }
    }
}

impl SimConfig {
    /// Returns the config with a different per-member capacity.
    pub fn with_capacity(mut self, capacity_each: usize) -> Self {
        self.capacity_each = capacity_each;
        self
    }

    /// Returns the config with the low-priority mitigation predicate set.
    pub fn with_low_priority<F>(mut self, predicate: F) -> Self
    where
        F: Fn(&Name) -> bool + Send + Sync + 'static,
    {
        self.low_priority = Some(Arc::new(predicate));
        self
    }

    /// Returns the config with RFC 8767 serve-stale enabled: expired
    /// entries may be served up to `window` past their TTL when the
    /// upstream is unreachable.
    pub fn with_serve_stale(mut self, window: Ttl) -> Self {
        self.stale_window = Some(window);
        self
    }
}

/// Answered-vs-failed tallies for one traffic slice under faults or
/// overload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Availability {
    /// Queries that received a usable response (hit, miss, stale, or
    /// NXDOMAIN).
    pub answered: u64,
    /// Queries that received SERVFAIL.
    pub failed: u64,
    /// Queries shed by admission control (dropped or rate-limited);
    /// always zero without an [`OverloadConfig`](crate::OverloadConfig).
    pub shed: u64,
}

impl Availability {
    /// Adds another slice's tallies into this one.
    pub fn merge(&mut self, other: &Availability) {
        self.answered += other.answered;
        self.failed += other.failed;
        self.shed += other.shed;
    }

    /// Fraction of queries answered; `1.0` when nothing was observed.
    pub fn fraction(&self) -> f64 {
        let total = self.answered + self.failed + self.shed;
        if total == 0 {
            1.0
        } else {
            self.answered as f64 / total as f64
        }
    }
}

/// Resilience accounting for one simulated day under a
/// [`FaultPlan`](crate::FaultPlan).
///
/// All counters stay zero when the plan is empty, keeping fault-free
/// reports bit-identical to the plain simulation. The conservation
/// invariants extend to:
///
/// * `Σ rr queries = below_total() − nx_below() − servfails_below`
/// * `Σ rr misses  = above_total() − nx_above() − failed_attempts`
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceStats {
    /// Backoff retries performed after failed upstream attempts.
    pub retries: u64,
    /// Upstream attempts that produced no answer (each one is counted as
    /// above-traffic, making retry amplification observable).
    pub failed_attempts: u64,
    /// Failed attempts lost in transit or timed out.
    pub timeouts: u64,
    /// Failed attempts the upstream answered with SERVFAIL.
    pub upstream_servfails: u64,
    /// SERVFAIL responses delivered to clients (below).
    pub servfails_below: u64,
    /// Responses served from stale cache entries (RFC 8767).
    pub stale_serves: u64,
    /// Availability of queries for disposable names (needs ground truth).
    pub disposable: Availability,
    /// Availability of all other queries.
    pub nondisposable: Availability,
}

impl ResilienceStats {
    /// Adds another day's accounting into this one.
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.retries += other.retries;
        self.failed_attempts += other.failed_attempts;
        self.timeouts += other.timeouts;
        self.upstream_servfails += other.upstream_servfails;
        self.servfails_below += other.servfails_below;
        self.stale_serves += other.stale_serves;
        self.disposable.merge(&other.disposable);
        self.nondisposable.merge(&other.nondisposable);
    }
}

/// Everything the monitoring point learned from one simulated day.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DayReport {
    /// Zero-based day index.
    pub day: u64,
    /// Per-record query/miss statistics.
    pub rr_stats: RrDayStats,
    /// Hourly above/below volumes by series; the day's totals are its
    /// daily sums.
    pub traffic: TrafficProfile,
    /// Member-cache counter deltas for the day.
    pub cache: CacheStats,
    /// Fault-injection accounting; all-zero without a fault plan.
    pub resilience: ResilienceStats,
    /// Admission-control accounting; all-zero without an
    /// [`OverloadConfig`](crate::OverloadConfig).
    pub overload: OverloadStats,
}

impl DayReport {
    /// Total records delivered to clients (below), each NXDOMAIN or
    /// SERVFAIL response counting one.
    pub fn below_total(&self) -> u64 {
        self.traffic.below_total(Series::All)
    }

    /// Total records fetched from upstream (above), failed attempts
    /// included.
    pub fn above_total(&self) -> u64 {
        self.traffic.above_total(Series::All)
    }

    /// NXDOMAIN responses below.
    pub fn nx_below(&self) -> u64 {
        self.traffic.below_total(Series::NxDomain)
    }

    /// NXDOMAIN fetches above.
    pub fn nx_above(&self) -> u64 {
        self.traffic.above_total(Series::NxDomain)
    }
}

/// The recursive-resolver cluster simulator.
///
/// Cache contents persist across [`ResolverSim::day`] replays, so
/// multi-day traces behave like a long-lived production cluster.
#[derive(Debug)]
pub struct ResolverSim {
    pub(crate) config: SimConfig,
    pub(crate) cluster: CacheCluster,
}

impl ResolverSim {
    /// Builds a cluster from the config.
    pub fn new(config: SimConfig) -> Self {
        let mut cluster =
            CacheCluster::new(config.members, config.capacity_each, config.load_balance);
        if let Some(ttl) = config.negative_ttl {
            cluster.set_negative_caches(|| NegativeCache::new(ttl));
        }
        ResolverSim { config, cluster }
    }

    /// The configuration this simulator runs with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Read access to the underlying cluster (for inspecting occupancy).
    pub fn cluster(&self) -> &CacheCluster {
        &self.cluster
    }

    /// Syncs cluster member up/down state with the plan at `now`. A member
    /// leaving its crash window restarts cold (entries lost, counters
    /// kept).
    pub(crate) fn apply_member_faults(&mut self, plan: &FaultPlan, now: Timestamp) {
        for m in 0..self.cluster.members() {
            let want_down = plan.member_down(m, now);
            if want_down != self.cluster.member_is_down(m) {
                if want_down {
                    self.cluster.set_member_down(m);
                } else {
                    self.cluster.restart_member_cold(m);
                }
            }
        }
    }
}

/// Per-day context shared by every event of a run: the fault plan, the
/// day coordinate fault sampling is keyed on, and the config knobs the
/// per-event logic needs. Owning the plan and a clone of the
/// [`PriorityPredicate`] `Arc` (both made once per day) lets it live
/// inside an `EventSession` borrowing nothing.
pub(crate) struct EventCtx {
    pub(crate) plan: FaultPlan,
    pub(crate) day: u64,
    pub(crate) stale_window: Ttl,
    pub(crate) low_priority: Option<PriorityPredicate>,
    pub(crate) faults_active: bool,
    /// Admission-control knobs; `None` compiles the overload stage out of
    /// the replay entirely (bit-identical to an overload-free build).
    pub(crate) overload: Option<OverloadConfig>,
}

/// The day-scoped state of a replay. `begin` / `step` per event / `finish`
/// *is* the replay loop; the simulator is an argument because a `DayRun`
/// borrows it and an `EventSession` owns it.
pub(crate) struct DayState {
    pub(crate) ctx: EventCtx,
    /// Sync member crash windows per event: the plan schedules some, or a
    /// previous day left a member down (it restarts cold at event one).
    drive_members: bool,
    /// One admission queue per cluster member, fresh at day start; empty
    /// without an [`OverloadConfig`].
    admission: Vec<AdmissionState>,
    /// The running report; `finish` stamps its `day` from the context.
    pub(crate) report: DayReport,
    stats_before: CacheStats,
    index: u64,
}

// Manual impl: the context's `PriorityPredicate` is not `Debug`.
impl std::fmt::Debug for DayState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DayState")
            .field("day", &self.ctx.day)
            .field("index", &self.index)
            .finish_non_exhaustive()
    }
}

impl DayState {
    /// Opens `day` over `sim`: an absent plan becomes the empty one, the
    /// cache counters are snapshotted and `metrics` learns the day.
    pub(crate) fn begin(
        sim: &ResolverSim,
        day: u64,
        plan: Option<&FaultPlan>,
        overload: Option<&OverloadConfig>,
        metrics: Option<&mut MetricsRegistry>,
    ) -> DayState {
        let plan = plan.cloned().unwrap_or_default();
        let members = sim.cluster.members();
        if let Some(m) = metrics {
            m.set_overload_enabled(overload.is_some());
            m.begin_day(day, members);
        }
        DayState {
            drive_members: !plan.member_outages.is_empty() || sim.cluster.any_member_down(),
            admission: overload.map_or_else(Vec::new, |_| vec![AdmissionState::default(); members]),
            report: DayReport::default(),
            stats_before: sim.cluster.total_stats(),
            index: 0,
            ctx: EventCtx {
                day,
                stale_window: sim.config.stale_window.unwrap_or(Ttl::ZERO),
                low_priority: sim.config.low_priority.clone(),
                faults_active: !plan.is_empty(),
                overload: overload.copied(),
                plan,
            },
        }
    }

    /// Serves the next event of the day: syncs member crash windows,
    /// routes, [`serve`]s the event on the owning member, shows the
    /// response to `observer` and books it.
    ///
    /// This is the entire per-event logic of the simulation (a `DayRun`
    /// runs it over a trace and an `EventSession` steps it per push). The
    /// only randomness — fault loss sampling — is a pure function of
    /// `(plan seed, day, event index, attempt)`, so a replay never depends
    /// on anything but its inputs.
    pub(crate) fn step<Obs: Observer + ?Sized>(
        &mut self,
        sim: &mut ResolverSim,
        event: &QueryEvent,
        ground_truth: Option<&GroundTruth>,
        observer: &mut Obs,
        metrics: Option<&mut MetricsRegistry>,
    ) {
        if self.drive_members {
            sim.apply_member_faults(&self.ctx.plan, event.time);
        }
        let key = CacheKey::new(event.name.clone(), event.qtype);
        let member = sim.cluster.route(event.client, &key);
        let shard = sim.cluster.member_mut(member);
        let operator = ground_truth.and_then(|gt| gt.operator_of(&event.name));
        let response = serve(
            &self.ctx,
            self.index,
            event,
            &key,
            operator,
            shard,
            self.admission.get_mut(member),
        );
        observer.observe(event, response.served, response.answers());
        self.book(event, ground_truth, operator, member, &response, metrics);
        self.index += 1;
    }

    /// Folds one response into the running report, and into `metrics`
    /// when a registry is attached: the one place a response is counted.
    fn book(
        &mut self,
        event: &QueryEvent,
        ground_truth: Option<&GroundTruth>,
        operator: Option<Operator>,
        member: usize,
        response: &Response,
        metrics: Option<&mut MetricsRegistry>,
    ) {
        let report = &mut self.report;
        let served = response.served;
        let hour = event.time.hour_of_day() as usize;
        // Shed queries deliver nothing; SERVFAIL and NXDOMAIN responses
        // count one unit and carry no records; answers count their records.
        let answers = response.answers();
        let below = match served {
            Served::Dropped | Served::RateLimited => 0,
            Served::ServFail | Served::NegativeHit | Served::NxMiss => 1,
            Served::CacheHit | Served::CacheMiss | Served::StaleHit => answers.len() as u64,
        };
        let went_above = served.went_above();
        report.traffic.record(hour, operator, served.is_nxdomain(), below, went_above);
        for rr in answers {
            report.rr_stats.record(&rr.name, rr.qtype, &rr.rdata, went_above);
        }
        if let Some(fetch) = &response.fetch {
            // Failed attempts are above traffic (retry amplification).
            report.traffic.record_above_only(hour, operator, fetch.failed_attempts);
            let r = &mut report.resilience;
            r.failed_attempts += fetch.failed_attempts;
            r.retries += fetch.retries;
            r.timeouts += fetch.timeouts;
            r.upstream_servfails += fetch.upstream_servfails;
        }
        match served {
            Served::ServFail => report.resilience.servfails_below += 1,
            Served::StaleHit => report.resilience.stale_serves += 1,
            _ => {}
        }

        if self.ctx.overload.is_some() {
            let o = &mut report.overload;
            o.offered += 1;
            match served {
                Served::Dropped => o.dropped += 1,
                Served::RateLimited => o.rate_limited += 1,
                // A stale answer with no fetch behind it was refused a
                // queue slot: graceful degradation under pressure.
                Served::StaleHit if response.fetch.is_none() => {
                    o.admitted += 1;
                    o.stale_under_pressure += 1;
                }
                _ => o.admitted += 1,
            }
            if served.is_shed() {
                if event.zone_tag == dnsnoise_workload::ATTACK_TAG {
                    o.shed_attack += 1;
                } else {
                    o.shed_legit += 1;
                }
            }
            // A member's backlog peaks right after an admission, so the
            // samples' maximum is the day's queue peak.
            o.queue_peak = o.queue_peak.max(response.backlog.unwrap_or(0));
        }

        if self.ctx.faults_active || self.ctx.overload.is_some() {
            let disposable = ground_truth.is_some_and(|gt| gt.is_disposable_name(&event.name));
            let slice = if disposable {
                &mut report.resilience.disposable
            } else {
                &mut report.resilience.nondisposable
            };
            if served.is_shed() {
                slice.shed += 1;
            } else if served.is_failure() {
                slice.failed += 1;
            } else {
                slice.answered += 1;
            }
        }

        if let Some(m) = metrics {
            let failed_attempts = response.fetch.map_or(0, |f| f.failed_attempts);
            let above = if went_above { below } else { 0 } + failed_attempts;
            m.record_event(
                event.time.as_secs() % 86_400,
                member,
                served,
                QueryClass::classify(ground_truth, event.zone_tag),
                below,
                above,
                response.fetch.as_ref(),
                response.backlog,
            );
        }
    }

    /// Closes the day: stamps the report with the day and the cache-counter
    /// delta, and hands the day-end cluster state to `metrics`.
    pub(crate) fn finish(
        mut self,
        sim: &ResolverSim,
        metrics: Option<&mut MetricsRegistry>,
    ) -> DayReport {
        let cluster = &sim.cluster;
        self.report.day = self.ctx.day;
        self.report.cache = cluster.total_stats().since(&self.stats_before);
        if let Some(m) = metrics {
            m.set_day_end(&cluster.member_occupancy(), &cluster.down_flags(), &self.report);
        }
        self.report
    }
}

/// What serving one event produced, before anything is booked.
struct Response {
    served: Served,
    /// The records delivered: the cache's shared block, `None` when
    /// nothing was (shed, SERVFAIL, NXDOMAIN). A hit copies no record,
    /// and a miss builds the one block the cache and the observer share.
    answers: Option<Arc<[Record]>>,
    /// The upstream fetch, when the query was admitted to one.
    fetch: Option<FetchOutcome>,
    /// The member's queue backlog after the admission decision, when one
    /// was taken.
    backlog: Option<u64>,
}

impl Response {
    fn answers(&self) -> &[Record] {
        self.answers.as_deref().unwrap_or_default()
    }
}

/// Serves one query event, whose cache key is `key`, against one member's
/// `shard` of the caches: the cache lookup, the admission gate and the upstream fetch.
/// Counts nothing; [`DayState::book`] folds the [`Response`] into the
/// report.
fn serve(
    ctx: &EventCtx,
    index: u64,
    event: &QueryEvent,
    key: &CacheKey,
    operator: Option<Operator>,
    shard: MemberShard<'_>,
    admission: Option<&mut AdmissionState>,
) -> Response {
    let MemberShard { cache, negative } = shard;
    let mut fetch = None;
    let mut backlog = None;
    let (served, answers) = match &event.outcome {
        // Negative-cache fast path: never pays an admission toll.
        Outcome::NxDomain if negative.contains(&event.name, event.time) => {
            (Served::NegativeHit, None)
        }
        Outcome::NxDomain => match admit(ctx, admission, event, true, &mut backlog) {
            Admission::Drop => (Served::Dropped, None),
            Admission::RateLimit => (Served::RateLimited, None),
            Admission::Admit => {
                let outcome = fetch.insert(fetch_upstream(ctx, index, event, operator));
                if outcome.success {
                    negative.insert(event.name.clone(), event.time);
                    (Served::NxMiss, None)
                } else {
                    (Served::ServFail, None)
                }
            }
        },
        Outcome::Answer(auth_answers) => match cache.lookup(key, event.time, ctx.stale_window) {
            // Cache-hit fast path: protected, never queued or shed.
            Lookup::Fresh(records) => (Served::CacheHit, Some(records)),
            // A miss that is not filled leaves the cache as if the lookup
            // had removed an expired entry outright.
            Lookup::Miss(miss) => match admit(ctx, admission, event, false, &mut backlog) {
                Admission::Admit => {
                    let outcome = fetch.insert(fetch_upstream(ctx, index, event, operator));
                    if outcome.success {
                        let priority = match &ctx.low_priority {
                            Some(pred) if pred(&event.name) => InsertPriority::Low,
                            _ => InsertPriority::Normal,
                        };
                        let (answers, _) = miss.fill(auth_answers, event.time, priority);
                        (Served::CacheMiss, Some(answers))
                    } else if let Some(records) = miss.stale() {
                        (Served::StaleHit, Some(Arc::clone(records)))
                    } else {
                        (Served::ServFail, None)
                    }
                }
                // Graceful degradation: answer from a stale entry rather
                // than shed, when RFC 8767 allows.
                decision => match (miss.stale(), decision) {
                    (Some(records), _) => (Served::StaleHit, Some(Arc::clone(records))),
                    (None, Admission::Drop) => (Served::Dropped, None),
                    (None, _) => (Served::RateLimited, None),
                },
            },
        },
    };
    Response { served, answers, fetch, backlog }
}

/// Runs the admission stage for one miss-path query, when an
/// [`OverloadConfig`] is attached, and samples the member's backlog after
/// the decision.
fn admit(
    ctx: &EventCtx,
    admission: Option<&mut AdmissionState>,
    event: &QueryEvent,
    is_nxdomain: bool,
    backlog: &mut Option<u64>,
) -> Admission {
    let (Some(cfg), Some(adm)) = (&ctx.overload, admission) else {
        return Admission::Admit;
    };
    let decision = adm.admit(cfg, event.client, &event.name, event.time.as_secs(), is_nxdomain);
    *backlog = Some(adm.backlog());
    decision
}

/// Result of one bounded-retry upstream fetch.
#[derive(Clone, Copy)]
pub(crate) struct FetchOutcome {
    pub(crate) success: bool,
    pub(crate) failed_attempts: u64,
    pub(crate) retries: u64,
    pub(crate) timeouts: u64,
    pub(crate) upstream_servfails: u64,
    /// Simulated milliseconds the whole fetch (attempts + backoffs) took
    /// — metrics-only; never feeds back into replay decisions.
    pub(crate) elapsed_ms: u64,
}

/// Attempts the upstream fetch for `event` under `plan`, retrying with
/// exponential backoff until success, the retry cap, or the per-query time
/// budget — whichever comes first.
fn fetch_upstream(
    ctx: &EventCtx,
    event_index: u64,
    event: &QueryEvent,
    operator: Option<Operator>,
) -> FetchOutcome {
    let (plan, day) = (&ctx.plan, ctx.day);
    let mut out = FetchOutcome {
        success: false,
        failed_attempts: 0,
        retries: 0,
        timeouts: 0,
        upstream_servfails: 0,
        elapsed_ms: 0,
    };
    if plan.is_empty() {
        out.success = true;
        out.elapsed_ms = UPSTREAM_RTT_MS;
        return out;
    }
    let policy = &plan.retry;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let fault = plan.upstream_fault(event.time, &event.name, operator);
        let lost = plan.attempt_lost(day, event_index, attempt);
        match fault {
            None if !lost => {
                out.success = true;
                out.elapsed_ms += UPSTREAM_RTT_MS;
                return out;
            }
            Some(FaultKind::ServFail) if !lost => {
                out.failed_attempts += 1;
                out.upstream_servfails += 1;
                out.elapsed_ms += SERVFAIL_LATENCY_MS;
            }
            _ => {
                // Outage timeout, or the packet was lost in transit.
                out.failed_attempts += 1;
                out.timeouts += 1;
                out.elapsed_ms += policy.timeout_ms;
            }
        }
        if attempt > policy.max_retries {
            return out;
        }
        let backoff = policy.backoff_ms(attempt);
        if out.elapsed_ms.saturating_add(backoff) >= policy.budget_ms {
            return out;
        }
        out.elapsed_ms += backoff;
        out.retries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::OutageScope;
    use dnsnoise_workload::{Scenario, ScenarioConfig};

    fn tiny_scenario() -> Scenario {
        Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.05), 3)
    }

    #[test]
    fn below_exceeds_above() {
        let s = tiny_scenario();
        let mut sim = ResolverSim::new(SimConfig::default());
        let report = sim.day(&s.generate_day(0)).ground_truth(s.ground_truth()).run();
        assert!(report.below_total() > report.above_total());
        assert!(report.above_total() > 0);
    }

    #[test]
    fn nxdomain_without_negative_cache_always_goes_above() {
        let s = tiny_scenario();
        let mut sim = ResolverSim::new(SimConfig::default());
        let report = sim.day(&s.generate_day(0)).run();
        // Negative caching disabled: every NXDOMAIN below also appears above.
        assert_eq!(report.nx_below(), report.nx_above());
        assert!(report.nx_below() > 0);
    }

    #[test]
    fn negative_cache_absorbs_repeat_probes() {
        let s = tiny_scenario();
        let trace = s.generate_day(0);
        let config = SimConfig { negative_ttl: Some(Ttl::from_secs(900)), ..SimConfig::default() };
        let mut sim = ResolverSim::new(config);
        let report = sim.day(&trace).run();
        // Browser probes repeat the same name 3× within seconds; with
        // RFC 2308 honoured the repeats are served below only.
        assert!(
            report.nx_above() < report.nx_below(),
            "above {} below {}",
            report.nx_above(),
            report.nx_below()
        );
    }

    #[test]
    fn nx_share_above_far_exceeds_share_below() {
        // The Fig. 2 asymmetry: NXDOMAIN ≈ 40% of traffic above but only
        // ≈ 6% below. Needs paper-like query density; two members keep the
        // per-cache density high at test scale.
        let s = Scenario::new(
            ScenarioConfig::paper_epoch(0.5).with_scale(0.02).with_events_per_unique(700.0),
            3,
        );
        let mut sim = ResolverSim::new(SimConfig { members: 2, ..SimConfig::default() });
        let report = sim.day(&s.generate_day(0)).ground_truth(s.ground_truth()).run();
        let share_below = report.nx_below() as f64 / report.below_total() as f64;
        let share_above = report.nx_above() as f64 / report.above_total() as f64;
        assert!(share_above > 2.0 * share_below, "above {share_above:.3} below {share_below:.3}");
        assert!(share_below < 0.15);
    }

    #[test]
    fn warm_cache_reduces_above_traffic_on_day_two() {
        let s = tiny_scenario();
        let mut sim = ResolverSim::new(SimConfig::default());
        let r0 = sim.day(&s.generate_day(0)).run();
        let r1 = sim.day(&s.generate_day(1)).run();
        // Day-scale TTLs carry over: day 1 misses fewer long-tail records.
        let miss_rate0 = r0.above_total() as f64 / r0.below_total() as f64;
        let miss_rate1 = r1.above_total() as f64 / r1.below_total() as f64;
        assert!(miss_rate1 <= miss_rate0 * 1.05, "day0 {miss_rate0:.3} day1 {miss_rate1:.3}");
    }

    #[test]
    fn google_and_akamai_series_are_populated() {
        let s = tiny_scenario();
        let mut sim = ResolverSim::new(SimConfig::default());
        let report = sim.day(&s.generate_day(0)).ground_truth(s.ground_truth()).run();
        assert!(report.traffic.below_total(Series::Google) > 0);
        assert!(report.traffic.below_total(Series::Akamai) > 0);
        // Together they are less than half of all traffic (§III-C1:
        // "collectively account for less than half of the total").
        let g = report.traffic.below_total(Series::Google);
        let a = report.traffic.below_total(Series::Akamai);
        assert!(g + a < report.traffic.below_total(Series::All));
    }

    #[test]
    fn tiny_cache_causes_premature_evictions() {
        let s = tiny_scenario();
        let mut sim = ResolverSim::new(SimConfig::default().with_capacity(50));
        let report = sim.day(&s.generate_day(0)).run();
        assert!(report.cache.premature_evictions() > 0);
    }

    #[test]
    fn low_priority_mitigation_shifts_evictions() {
        let s = tiny_scenario();
        let gt = s.ground_truth().clone();
        let trace = s.generate_day(0);

        let mut baseline = ResolverSim::new(SimConfig::default().with_capacity(200));
        let rb = baseline.day(&trace).run();

        let gt2 = gt.clone();
        let mut mitigated = ResolverSim::new(
            SimConfig::default()
                .with_capacity(200)
                .with_low_priority(move |name| gt2.is_disposable_name(name)),
        );
        let rm = mitigated.day(&trace).run();

        // With the mitigation, fewer normal-priority (non-disposable)
        // records are prematurely evicted.
        assert!(
            rm.cache.premature_evictions_normal < rb.cache.premature_evictions_normal,
            "mitigated {} vs baseline {}",
            rm.cache.premature_evictions_normal,
            rb.cache.premature_evictions_normal
        );
    }

    #[test]
    fn zero_fault_plan_is_bit_identical() {
        let s = tiny_scenario();
        let d0 = s.generate_day(0);
        let d1 = s.generate_day(1);

        let mut plain = ResolverSim::new(SimConfig::default());
        let mut faulted = ResolverSim::new(SimConfig::default());
        let plan = FaultPlan::default();
        // Two days, warm cache carried over — reports must match exactly.
        for day in [&d0, &d1] {
            let a = plain.day(day).ground_truth(s.ground_truth()).run();
            let b = faulted.day(day).ground_truth(s.ground_truth()).faults(&plan).run();
            assert_eq!(a, b);
            assert_eq!(b.resilience, ResilienceStats::default());
        }
    }

    fn all_day_outage(kind: FaultKind) -> FaultPlan {
        FaultPlan::default().with_outage(
            OutageScope::All,
            kind,
            Timestamp::ZERO,
            Timestamp::from_days(2),
        )
    }

    #[test]
    fn full_outage_without_stale_fails_every_fetch() {
        let s = tiny_scenario();
        let trace = s.generate_day(0);
        let plan = all_day_outage(FaultKind::Timeout);
        let mut sim = ResolverSim::new(SimConfig::default());
        let report = sim.day(&trace).ground_truth(s.ground_truth()).faults(&plan).run();

        // Nothing ever reaches the upstream successfully: no NXDOMAIN or
        // answers fetched above, only failed attempts.
        assert_eq!(report.nx_above(), 0);
        assert_eq!(report.above_total(), report.resilience.failed_attempts);
        assert!(report.resilience.servfails_below > 0);
        assert!(report.resilience.retries > 0, "budget allows at least one retry");
        assert_eq!(report.resilience.stale_serves, 0, "no stale window configured");
        // Cache hits from earlier successful... none here: day starts cold,
        // so every non-hit query fails. Some repeats may still hit entries
        // cached before the outage — impossible here, so availability is
        // exactly the (zero) hit rate.
        let r = &report.resilience;
        assert_eq!(r.disposable.failed + r.nondisposable.failed, r.servfails_below);
    }

    #[test]
    fn serve_stale_recovers_nondisposable_availability() {
        let s = tiny_scenario();
        let gt = s.ground_truth();
        let d0 = s.generate_day(0);
        let d1 = s.generate_day(1);
        let outage = FaultPlan::default().with_outage(
            OutageScope::All,
            FaultKind::Timeout,
            Timestamp::from_days(1),
            Timestamp::from_days(2),
        );

        let run = |stale: Option<Ttl>| {
            let mut config = SimConfig::default();
            if let Some(w) = stale {
                config = config.with_serve_stale(w);
            }
            let mut sim = ResolverSim::new(config);
            sim.day(&d0).ground_truth(gt).run(); // warm day, no faults
            sim.day(&d1).ground_truth(gt).faults(&outage).run()
        };

        let without = run(None);
        let with = run(Some(Ttl::from_secs(86_400)));

        assert!(with.resilience.stale_serves > 0);
        assert_eq!(without.resilience.stale_serves, 0);
        let gain_nondisp =
            with.resilience.nondisposable.fraction() - without.resilience.nondisposable.fraction();
        assert!(gain_nondisp > 0.0, "serve-stale must recover non-disposable availability");
        // Disposable names are one-shot: they are never in the cache to go
        // stale, so the outage hits them regardless of the stale window.
        assert!(
            with.resilience.nondisposable.fraction() > with.resilience.disposable.fraction(),
            "non-disposable {:.3} vs disposable {:.3}",
            with.resilience.nondisposable.fraction(),
            with.resilience.disposable.fraction()
        );
    }

    #[test]
    fn member_crash_is_absorbed_deterministically() {
        let s = tiny_scenario();
        let trace = s.generate_day(0);
        let plan = FaultPlan::default().with_member_outage(
            0,
            Timestamp::from_secs(6 * 3_600),
            Timestamp::from_secs(12 * 3_600),
        );

        let run = || {
            let mut sim = ResolverSim::new(SimConfig::default());
            sim.day(&trace).ground_truth(s.ground_truth()).faults(&plan).run()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "crash absorption must replay identically");

        let mut plain = ResolverSim::new(SimConfig::default());
        let baseline = plain.day(&trace).ground_truth(s.ground_truth()).run();
        // The survivors answer everything the crashed member would have:
        // no client loses service, it just gets a different cache.
        assert_eq!(first.below_total(), baseline.below_total());
        assert_eq!(first.resilience.servfails_below, 0);
        // Upstream volume shifts: rerouted clients miss on the survivors and
        // the restarted member comes back cold, but a downed member also
        // stops paying TTL refreshes for six hours. The directions compete;
        // the test pins only that the crash visibly perturbs above traffic.
        assert_ne!(
            first.above_total(),
            baseline.above_total(),
            "a six-hour member outage must perturb upstream traffic"
        );
    }

    #[test]
    fn retries_amplify_above_traffic_under_packet_loss() {
        let s = tiny_scenario();
        let trace = s.generate_day(0);
        let mut sim = ResolverSim::new(SimConfig::default());
        let plan = FaultPlan::default().with_seed(11).with_packet_loss(0.3);
        let report = sim.day(&trace).ground_truth(s.ground_truth()).faults(&plan).run();

        let mut plain = ResolverSim::new(SimConfig::default());
        let baseline = plain.day(&trace).ground_truth(s.ground_truth()).run();

        assert!(report.resilience.failed_attempts > 0);
        assert!(report.resilience.retries > 0);
        // Lost attempts are retried and every attempt is billed above, so
        // the same trace costs strictly more upstream traffic. (Exact
        // equality with baseline + failed_attempts does not hold: a query
        // whose every attempt is lost never performs the successful fetch
        // the baseline did, and its missing cache entry diverges later
        // lookups.)
        assert!(
            report.above_total() > baseline.above_total(),
            "retries must amplify above traffic: {} vs {}",
            report.above_total(),
            baseline.above_total()
        );
        // Retries almost always rescue the query at 30% loss, so clients
        // stay nearly fully served.
        let mut all = report.resilience.disposable;
        all.merge(&report.resilience.nondisposable);
        assert!(all.fraction() > 0.9);
    }

    #[test]
    fn observer_sees_every_event() {
        struct Counter(u64);
        impl Observer for Counter {
            fn observe(&mut self, _: &dnsnoise_workload::QueryEvent, _: Served, _: &[Record]) {
                self.0 += 1;
            }
        }
        let s = tiny_scenario();
        let trace = s.generate_day(0);
        let mut sim = ResolverSim::new(SimConfig::default());
        let mut counter = Counter(0);
        sim.day(&trace).observer(&mut counter).run();
        assert_eq!(counter.0, trace.events.len() as u64);
    }
}
