//! The observability layer: a deterministic, allocation-light metrics
//! registry plus a time-bucketed intra-day timeline recorder.
//!
//! Everything in a [`MetricsRegistry`] except [`PhaseTimings`] is derived
//! purely from simulated events: every counter and histogram bucket is a
//! `u64` under compile-time-constant bounds, and every timeline slot is
//! keyed by simulated time, so the same replay always fills the same
//! registry.
//!
//! Wall-clock phase timing (generate / replay) is the one
//! non-deterministic ingredient, so it lives in a separate
//! [`PhaseTimings`] struct that is deliberately **excluded** from
//! [`MetricsRegistry::to_json`] and [`MetricsRegistry::timeline_csv`]:
//! exported artifacts stay byte-identical across runs and machines while
//! the phase table remains printable for humans.

use std::fmt::Write as _;
use std::time::Duration;

use dnsnoise_cache::CacheStats;
use dnsnoise_workload::{Category, GroundTruth};

use crate::observer::Served;
use crate::sim::{DayReport, FetchOutcome, ResilienceStats};

/// Upper-inclusive bucket bounds (simulated milliseconds) for the lookup
/// latency histogram. Compile-time constants: bucket boundaries never
/// depend on `--scale` or trace size.
pub const LATENCY_BOUNDS_MS: &[u64] = &[0, 10, 30, 50, 100, 250, 500, 1_000, 2_000, 4_000];

/// Upper-inclusive bucket bounds for upstream attempts per fetch (a
/// fetch that succeeds first try made 1 attempt).
pub const ATTEMPT_BOUNDS: &[u64] = &[1, 2, 3, 4, 6];

/// Upper-inclusive bucket bounds for backoff retries per fetch.
pub const RETRY_BOUNDS: &[u64] = &[0, 1, 2, 3, 4];

/// Upper-inclusive bucket bounds for the admission-queue backlog sampled
/// after each admission decision (only populated when an
/// [`OverloadConfig`](crate::OverloadConfig) is attached).
pub const QUEUE_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Default number of intra-day timeline buckets (hourly).
pub const DEFAULT_TIMELINE_BUCKETS: usize = 24;

const SECS_PER_DAY: u64 = 86_400;

/// A bounded histogram over `u64` samples: `counts[i]` tallies samples
/// `<= bounds[i]` (and greater than the previous bound); the final slot
/// is the overflow bucket. Bounds are `'static` constants, so two
/// histograms built from the same metric always compare
/// bucket-for-bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram over the given upper-inclusive bounds.
    pub fn new(bounds: &'static [u64]) -> Self {
        Histogram { bounds, counts: vec![0; bounds.len() + 1], count: 0, sum: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// The upper-inclusive bucket bounds.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket tallies; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The behavioural class a query is attributed to in the timeline's
/// query-mix breakdown — the paper's zone categories collapsed to the
/// classes Fig. 2/Fig. 11 distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Any of the disposable categories (telemetry, AV reputation, IPv6
    /// experiments, DNSBL, trackers).
    Disposable,
    /// CDN zones.
    Cdn,
    /// Popular sites and user-content portals.
    Popular,
    /// The long tail of rarely-visited zones.
    LongTail,
    /// Typo/probe NXDOMAIN noise.
    NxNoise,
    /// No ground truth available for attribution.
    Unknown,
}

impl QueryClass {
    /// Number of classes (the width of a timeline slot's mix array).
    pub const COUNT: usize = 6;

    /// All classes in index order.
    pub const ALL: [QueryClass; QueryClass::COUNT] = [
        QueryClass::Disposable,
        QueryClass::Cdn,
        QueryClass::Popular,
        QueryClass::LongTail,
        QueryClass::NxNoise,
        QueryClass::Unknown,
    ];

    /// Attributes one event's zone tag using the ground truth. Tags with
    /// no scenario zone behind them — injected attack traffic
    /// ([`ATTACK_TAG`](dnsnoise_workload::ATTACK_TAG)), replayed traces
    /// with sentinel tags — classify as [`QueryClass::Unknown`] instead
    /// of panicking.
    pub fn classify(ground_truth: Option<&GroundTruth>, zone_tag: u32) -> QueryClass {
        let Some(gt) = ground_truth else { return QueryClass::Unknown };
        match gt.try_category_of_tag(zone_tag) {
            Some(c) if c.is_disposable() => QueryClass::Disposable,
            Some(Category::Cdn) => QueryClass::Cdn,
            Some(Category::Popular | Category::Portal) => QueryClass::Popular,
            Some(Category::LongTail) => QueryClass::LongTail,
            Some(Category::NxNoise) => QueryClass::NxNoise,
            _ => QueryClass::Unknown,
        }
    }

    /// Stable position in mix arrays and export columns.
    pub fn index(self) -> usize {
        match self {
            QueryClass::Disposable => 0,
            QueryClass::Cdn => 1,
            QueryClass::Popular => 2,
            QueryClass::LongTail => 3,
            QueryClass::NxNoise => 4,
            QueryClass::Unknown => 5,
        }
    }

    /// Snake-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::Disposable => "disposable",
            QueryClass::Cdn => "cdn",
            QueryClass::Popular => "popular",
            QueryClass::LongTail => "long_tail",
            QueryClass::NxNoise => "nx_noise",
            QueryClass::Unknown => "unknown",
        }
    }
}

/// Number of [`Served`] outcomes tracked per timeline slot. The final
/// two (shed outcomes) only occur when admission control is enabled; the
/// exports omit their columns otherwise so pre-overload artifacts stay
/// byte-identical.
pub const SERVED_KINDS: usize = 8;

/// Served-outcome columns exported when admission control is off.
pub const BASELINE_SERVED_KINDS: usize = 6;

/// Export labels for the served-outcome columns, in [`served_index`]
/// order.
pub const SERVED_LABELS: [&str; SERVED_KINDS] = [
    "cache_hit",
    "cache_miss",
    "negative_hit",
    "nx_miss",
    "stale_hit",
    "servfail",
    "dropped",
    "rate_limited",
];

/// Stable position of a served outcome in timeline arrays and exports.
pub fn served_index(served: Served) -> usize {
    match served {
        Served::CacheHit => 0,
        Served::CacheMiss => 1,
        Served::NegativeHit => 2,
        Served::NxMiss => 3,
        Served::StaleHit => 4,
        Served::ServFail => 5,
        Served::Dropped => 6,
        Served::RateLimited => 7,
    }
}

/// The run's counters, derived on demand: the served-outcome and record
/// counts are sums over the timeline slots, `upstream_fetches` is the
/// attempts histogram's sample count, and the fault counters are the
/// day reports' [`ResilienceStats`] folded in at day end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// Query events processed.
    pub queries: u64,
    /// Fresh positive cache hits.
    pub cache_hits: u64,
    /// Positive cache misses answered by a successful upstream fetch.
    pub cache_misses: u64,
    /// NXDOMAIN answers served from the negative cache.
    pub negative_hits: u64,
    /// NXDOMAIN answers fetched upstream.
    pub nx_misses: u64,
    /// RFC 8767 stale serves.
    pub stale_serves: u64,
    /// SERVFAIL responses delivered to clients.
    pub servfails: u64,
    /// Records delivered below (client side).
    pub records_below: u64,
    /// Records fetched above (upstream side), failed attempts included.
    pub records_above: u64,
    /// Upstream fetch operations performed (each may span retries).
    pub upstream_fetches: u64,
    /// Upstream attempts that produced no answer.
    pub failed_attempts: u64,
    /// Backoff retries performed.
    pub retries: u64,
    /// Failed attempts lost in transit or timed out.
    pub timeouts: u64,
    /// Failed attempts answered with upstream SERVFAIL.
    pub upstream_servfails: u64,
    /// Queries shed by admission control with no response (full queue).
    pub dropped: u64,
    /// Queries refused by admission control (token bucket or RRL).
    pub rate_limited: u64,
}

/// One time bucket of the intra-day timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSlot {
    /// Served outcomes, indexed by [`served_index`].
    pub served: [u64; SERVED_KINDS],
    /// Query mix by zone class, indexed by [`QueryClass::index`].
    pub classes: [u64; QueryClass::COUNT],
    /// Events served per cluster member.
    pub member_load: Vec<u64>,
    /// Records delivered below during this bucket.
    pub records_below: u64,
    /// Records fetched above during this bucket.
    pub records_above: u64,
}

impl TimeSlot {
    fn empty(members: usize) -> Self {
        TimeSlot {
            served: [0; SERVED_KINDS],
            classes: [0; QueryClass::COUNT],
            member_load: vec![0; members],
            records_below: 0,
            records_above: 0,
        }
    }

    /// Total events in this bucket.
    pub fn total(&self) -> u64 {
        self.served.iter().sum()
    }
}

/// Records time-bucketed intra-day snapshots: hit/miss/stale/SERVFAIL
/// mix, query mix by zone class, and per-member load, per bucket.
///
/// Bucketing is by *simulated* seconds-into-day, so the recorder is as
/// deterministic as the counters: the slot an event lands in depends only
/// on the event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineRecorder {
    slots: Vec<TimeSlot>,
}

impl TimelineRecorder {
    /// A recorder with `buckets` equal slices of the day (minimum 1).
    pub fn new(buckets: usize) -> Self {
        let buckets = buckets.max(1);
        TimelineRecorder { slots: (0..buckets).map(|_| TimeSlot::empty(0)).collect() }
    }

    /// Number of buckets the day is divided into.
    pub fn buckets(&self) -> usize {
        self.slots.len()
    }

    /// The populated slots, in time order.
    pub fn slots(&self) -> &[TimeSlot] {
        &self.slots
    }

    /// Simulated start second (within the day) of bucket `idx`.
    pub fn slot_start_secs(&self, idx: usize) -> u64 {
        (idx as u64 * SECS_PER_DAY) / self.slots.len() as u64
    }

    fn slot_for(&mut self, secs_in_day: u64) -> &mut TimeSlot {
        let buckets = self.slots.len();
        let idx = ((secs_in_day % SECS_PER_DAY) as usize * buckets) / SECS_PER_DAY as usize;
        &mut self.slots[idx.min(buckets - 1)]
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        secs_in_day: u64,
        member: usize,
        served: Served,
        class: QueryClass,
        records_below: u64,
        records_above: u64,
    ) {
        let slot = self.slot_for(secs_in_day);
        slot.served[served_index(served)] += 1;
        slot.classes[class.index()] += 1;
        if slot.member_load.len() <= member {
            slot.member_load.resize(member + 1, 0);
        }
        slot.member_load[member] += 1;
        slot.records_below += records_below;
        slot.records_above += records_above;
    }
}

/// Wall-clock timing of a run's phases. Collected *outside* the
/// simulated-time metrics so measurement never perturbs results, and
/// excluded from the deterministic exports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Workload generation (trace synthesis), when the caller timed it.
    pub generate_ns: u128,
    /// Event replay (the longest-running phase).
    pub replay_ns: u128,
}

impl PhaseTimings {
    /// Adds to the generate phase.
    pub fn add_generate(&mut self, d: Duration) {
        self.generate_ns += d.as_nanos();
    }

    /// Adds to the replay phase.
    pub fn add_replay(&mut self, d: Duration) {
        self.replay_ns += d.as_nanos();
    }

    /// Total wall time across all phases.
    pub fn total_ns(&self) -> u128 {
        self.generate_ns + self.replay_ns
    }

    /// Renders the phase-timing table the bench experiments print.
    pub fn render_table(&self) -> String {
        let total = self.total_ns().max(1);
        let mut out = String::from("phase      wall_ms   share\n");
        for (name, ns) in [("generate", self.generate_ns), ("replay", self.replay_ns)] {
            let ms = ns as f64 / 1e6;
            let share = ns as f64 * 100.0 / total as f64;
            writeln!(out, "{name:<9} {ms:>9.3} {share:>6.1}%").expect("string write");
        }
        writeln!(out, "{:<9} {:>9.3} {:>6.1}%", "total", self.total_ns() as f64 / 1e6, 100.0)
            .expect("string write");
        out
    }
}

/// The deterministic metrics registry: bounded histograms, per-member
/// gauges, an intra-day [`TimelineRecorder`], and (separately, see the
/// module docs) wall-clock [`PhaseTimings`]. Its [`QueryCounters`] and
/// whole-day member load are derived from those, never booked twice.
///
/// # Examples
///
/// ```
/// use dnsnoise_resolver::{MetricsRegistry, ResolverSim, SimConfig};
/// use dnsnoise_workload::{Scenario, ScenarioConfig};
///
/// let s = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.02), 7);
/// let trace = s.generate_day(0);
/// let mut reg = MetricsRegistry::with_buckets(24);
/// let mut sim = ResolverSim::new(SimConfig::default());
/// let report = sim.day(&trace).ground_truth(s.ground_truth()).metrics(&mut reg).run();
/// assert_eq!(reg.counters().queries, trace.events.len() as u64);
/// assert_eq!(reg.counters().records_below, report.below_total());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    day: u64,
    /// The widest cluster a day has begun with: the whole-day load's width.
    members: usize,
    latency_ms: Histogram,
    upstream_attempts: Histogram,
    retries_per_fetch: Histogram,
    queue_backlog: Histogram,
    overload_enabled: bool,
    timeline: TimelineRecorder,
    member_occupancy: Vec<u64>,
    member_down: Vec<bool>,
    cache: CacheStats,
    resilience: ResilienceStats,
    phases: PhaseTimings,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A registry with the default hourly timeline.
    pub fn new() -> Self {
        MetricsRegistry::with_buckets(DEFAULT_TIMELINE_BUCKETS)
    }

    /// A registry whose timeline divides the day into `buckets` slices.
    pub fn with_buckets(buckets: usize) -> Self {
        MetricsRegistry {
            day: 0,
            members: 0,
            latency_ms: Histogram::new(LATENCY_BOUNDS_MS),
            upstream_attempts: Histogram::new(ATTEMPT_BOUNDS),
            retries_per_fetch: Histogram::new(RETRY_BOUNDS),
            queue_backlog: Histogram::new(QUEUE_BOUNDS),
            overload_enabled: false,
            timeline: TimelineRecorder::new(buckets),
            member_occupancy: Vec::new(),
            member_down: Vec::new(),
            cache: CacheStats::default(),
            resilience: ResilienceStats::default(),
            phases: PhaseTimings::default(),
        }
    }

    /// Called by the replay loop at the start of a run: pins the day index and
    /// sizes the per-member gauges.
    pub fn begin_day(&mut self, day: u64, members: usize) {
        self.day = day;
        self.members = self.members.max(members);
        if self.member_occupancy.len() < members {
            self.member_occupancy.resize(members, 0);
        }
        if self.member_down.len() < members {
            self.member_down.resize(members, false);
        }
    }

    /// Records one served event into its timeline slot and the
    /// histograms. Called from the per-event hot path; all work is a
    /// handful of array increments. The flat argument list is deliberate
    /// — a parameter struct would cost a copy per event for a
    /// crate-private call.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_event(
        &mut self,
        secs_in_day: u64,
        member: usize,
        served: Served,
        class: QueryClass,
        records_below: u64,
        records_above: u64,
        fetch: Option<&FetchOutcome>,
        backlog: Option<u64>,
    ) {
        if let Some(depth) = backlog {
            self.queue_backlog.record(depth);
        }
        self.latency_ms.record(fetch.map_or(0, |f| f.elapsed_ms));
        if let Some(f) = fetch {
            self.upstream_attempts.record(f.failed_attempts + u64::from(f.success));
            self.retries_per_fetch.record(f.retries);
        }
        self.timeline.record(secs_in_day, member, served, class, records_below, records_above);
    }

    /// Called by the replay loop at day end: samples the day-end gauges
    /// (per-member occupancy and down-state) and folds in the day's cache
    /// counter deltas and fault accounting.
    pub fn set_day_end(&mut self, occupancy: &[usize], down: &[bool], day: &DayReport) {
        self.member_occupancy = occupancy.iter().map(|&n| n as u64).collect();
        self.member_down = down.to_vec();
        self.cache.merge(&day.cache);
        self.resilience.merge(&day.resilience);
    }

    /// Marks whether admission control is active for this run: the
    /// replay loop calls this before [`MetricsRegistry::begin_day`]. Gates the
    /// export of the shed columns, the dropped/rate-limited counters, and
    /// the queue-backlog histogram so a run without an
    /// [`OverloadConfig`](crate::OverloadConfig) exports byte-identical
    /// artifacts to pre-overload builds.
    pub fn set_overload_enabled(&mut self, enabled: bool) {
        self.overload_enabled = enabled;
    }

    /// Whether the shed columns are included in exports.
    pub fn overload_enabled(&self) -> bool {
        self.overload_enabled
    }

    /// Served-outcome columns the exports carry:
    /// [`BASELINE_SERVED_KINDS`] normally, [`SERVED_KINDS`] when
    /// admission control is enabled.
    pub fn exported_kinds(&self) -> usize {
        if self.overload_enabled {
            SERVED_KINDS
        } else {
            BASELINE_SERVED_KINDS
        }
    }

    /// Admission-queue backlog sampled after each admission decision
    /// (empty unless admission control is enabled).
    pub fn queue_backlog(&self) -> &Histogram {
        &self.queue_backlog
    }

    /// The day index the registry last recorded.
    pub fn day(&self) -> u64 {
        self.day
    }

    /// The run's counters, derived from the timeline, the attempts
    /// histogram and the folded-in fault accounting.
    pub fn counters(&self) -> QueryCounters {
        let mut served = [0u64; SERVED_KINDS];
        let (mut records_below, mut records_above) = (0, 0);
        for slot in self.timeline.slots() {
            for (total, n) in served.iter_mut().zip(slot.served) {
                *total += n;
            }
            records_below += slot.records_below;
            records_above += slot.records_above;
        }
        let count = |kind: Served| served[served_index(kind)];
        let r = &self.resilience;
        QueryCounters {
            queries: served.iter().sum(),
            cache_hits: count(Served::CacheHit),
            cache_misses: count(Served::CacheMiss),
            negative_hits: count(Served::NegativeHit),
            nx_misses: count(Served::NxMiss),
            stale_serves: count(Served::StaleHit),
            servfails: count(Served::ServFail),
            records_below,
            records_above,
            upstream_fetches: self.upstream_attempts.count(),
            failed_attempts: r.failed_attempts,
            retries: r.retries,
            timeouts: r.timeouts,
            upstream_servfails: r.upstream_servfails,
            dropped: count(Served::Dropped),
            rate_limited: count(Served::RateLimited),
        }
    }

    /// Lookup latency in simulated milliseconds.
    pub fn latency_ms(&self) -> &Histogram {
        &self.latency_ms
    }

    /// Upstream attempts per fetch.
    pub fn upstream_attempts(&self) -> &Histogram {
        &self.upstream_attempts
    }

    /// Backoff retries per fetch.
    pub fn retries_per_fetch(&self) -> &Histogram {
        &self.retries_per_fetch
    }

    /// The intra-day timeline.
    pub fn timeline(&self) -> &TimelineRecorder {
        &self.timeline
    }

    /// Events served per member over the whole day: the timeline slots'
    /// per-member sums, one column per member of the widest cluster.
    pub fn member_load(&self) -> Vec<u64> {
        let mut load = vec![0; self.members];
        for slot in self.timeline.slots() {
            if load.len() < slot.member_load.len() {
                load.resize(slot.member_load.len(), 0);
            }
            for (total, n) in load.iter_mut().zip(&slot.member_load) {
                *total += n;
            }
        }
        load
    }

    /// Day-end cache occupancy per member (gauge).
    pub fn member_occupancy(&self) -> &[u64] {
        &self.member_occupancy
    }

    /// Day-end crash flag per member (gauge).
    pub fn member_down(&self) -> &[bool] {
        &self.member_down
    }

    /// Accumulated member-cache counter deltas.
    pub fn cache(&self) -> &CacheStats {
        &self.cache
    }

    /// Wall-clock phase timings (non-deterministic; excluded from
    /// exports).
    pub fn phases(&self) -> &PhaseTimings {
        &self.phases
    }

    /// Mutable access for the replay loop and harnesses that time phases.
    pub fn phases_mut(&mut self) -> &mut PhaseTimings {
        &mut self.phases
    }

    /// Serializes the deterministic portion of the registry as JSON.
    ///
    /// Hand-rendered (integers only, fixed key order, no whitespace
    /// variation) so the same simulated run always produces the same
    /// bytes on every platform.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"day\": {},", self.day);
        let kinds = self.exported_kinds();
        out.push_str("  \"counters\": {");
        let c = self.counters();
        let mut fields: Vec<(&str, u64)> = vec![
            ("queries", c.queries),
            ("cache_hits", c.cache_hits),
            ("cache_misses", c.cache_misses),
            ("negative_hits", c.negative_hits),
            ("nx_misses", c.nx_misses),
            ("stale_serves", c.stale_serves),
            ("servfails", c.servfails),
            ("records_below", c.records_below),
            ("records_above", c.records_above),
            ("upstream_fetches", c.upstream_fetches),
            ("failed_attempts", c.failed_attempts),
            ("retries", c.retries),
            ("timeouts", c.timeouts),
            ("upstream_servfails", c.upstream_servfails),
        ];
        if self.overload_enabled {
            fields.push(("dropped", c.dropped));
            fields.push(("rate_limited", c.rate_limited));
        }
        push_u64_fields(&mut out, &fields);
        out.push_str("},\n  \"cache\": {");
        push_u64_fields(
            &mut out,
            &[
                ("hits", self.cache.hits),
                ("misses", self.cache.misses),
                ("expired", self.cache.expired),
                ("inserts", self.cache.inserts),
                ("premature_evictions_normal", self.cache.premature_evictions_normal),
                ("premature_evictions_low", self.cache.premature_evictions_low),
                ("expired_evictions", self.cache.expired_evictions),
            ],
        );
        out.push_str("},\n  \"histograms\": {\n");
        push_histogram(&mut out, "latency_ms", &self.latency_ms, true);
        push_histogram(&mut out, "upstream_attempts", &self.upstream_attempts, true);
        push_histogram(
            &mut out,
            "retries_per_fetch",
            &self.retries_per_fetch,
            self.overload_enabled,
        );
        if self.overload_enabled {
            push_histogram(&mut out, "queue_backlog", &self.queue_backlog, false);
        }
        out.push_str("  },\n  \"members\": {");
        let _ = write!(out, "\"load\": ");
        push_u64_array(&mut out, &self.member_load());
        let _ = write!(out, ", \"occupancy\": ");
        push_u64_array(&mut out, &self.member_occupancy);
        let _ = write!(out, ", \"down\": ");
        let down: Vec<u64> = self.member_down.iter().map(|&d| u64::from(d)).collect();
        push_u64_array(&mut out, &down);
        out.push_str("},\n");
        let _ = writeln!(out, "  \"timeline\": {{\"buckets\": {},", self.timeline.buckets());
        out.push_str("    \"slots\": [\n");
        let last = self.timeline.slots().len().saturating_sub(1);
        for (i, slot) in self.timeline.slots().iter().enumerate() {
            let _ = write!(out, "      {{\"start_secs\": {}, ", self.timeline.slot_start_secs(i));
            out.push_str("\"served\": ");
            push_u64_array(&mut out, &slot.served[..kinds]);
            out.push_str(", \"classes\": ");
            push_u64_array(&mut out, &slot.classes);
            out.push_str(", \"member_load\": ");
            push_u64_array(&mut out, &slot.member_load);
            let _ = write!(
                out,
                ", \"records_below\": {}, \"records_above\": {}}}",
                slot.records_below, slot.records_above
            );
            out.push_str(if i == last { "\n" } else { ",\n" });
        }
        out.push_str("    ]\n  }\n}\n");
        out
    }

    /// Serializes the timeline as CSV, one row per bucket: served
    /// outcomes, query mix by class, record volumes, and per-member load.
    pub fn timeline_csv(&self) -> String {
        let members = self.member_load().len();
        let kinds = self.exported_kinds();
        let mut out = String::with_capacity(2048);
        out.push_str("bucket,start_secs");
        for label in &SERVED_LABELS[..kinds] {
            let _ = write!(out, ",{label}");
        }
        for class in QueryClass::ALL {
            let _ = write!(out, ",{}", class.label());
        }
        out.push_str(",records_below,records_above");
        for m in 0..members {
            let _ = write!(out, ",m{m}");
        }
        out.push('\n');
        for (i, slot) in self.timeline.slots().iter().enumerate() {
            let _ = write!(out, "{i},{}", self.timeline.slot_start_secs(i));
            for v in &slot.served[..kinds] {
                let _ = write!(out, ",{v}");
            }
            for v in slot.classes {
                let _ = write!(out, ",{v}");
            }
            let _ = write!(out, ",{},{}", slot.records_below, slot.records_above);
            for m in 0..members {
                let _ = write!(out, ",{}", slot.member_load.get(m).copied().unwrap_or(0));
            }
            out.push('\n');
        }
        out
    }
}

fn push_u64_fields(out: &mut String, fields: &[(&str, u64)]) {
    for (i, (name, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {value}");
    }
}

fn push_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn push_histogram(out: &mut String, name: &str, h: &Histogram, trailing_comma: bool) {
    let _ = write!(out, "    \"{name}\": {{\"bounds\": ");
    push_u64_array(out, h.bounds());
    out.push_str(", \"counts\": ");
    push_u64_array(out, h.counts());
    let _ = write!(out, ", \"count\": {}, \"sum\": {}}}", h.count(), h.sum());
    out.push_str(if trailing_comma { ",\n" } else { "\n" });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_upper_inclusive() {
        let mut h = Histogram::new(&[0, 10, 100]);
        for v in [0, 5, 10, 11, 100, 101, 9999] {
            h.record(v);
        }
        // 0 → bucket 0; 5, 10 → bucket 1; 11, 100 → bucket 2;
        // 101, 9999 → overflow.
        assert_eq!(h.counts(), &[1, 2, 2, 2]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 10_226);
    }

    #[test]
    fn timeline_buckets_by_simulated_time() {
        let mut t = TimelineRecorder::new(24);
        t.record(0, 0, Served::CacheHit, QueryClass::Unknown, 1, 0);
        t.record(3_599, 1, Served::CacheMiss, QueryClass::Cdn, 1, 1);
        t.record(3_600, 0, Served::ServFail, QueryClass::Unknown, 1, 0);
        t.record(86_399, 2, Served::NxMiss, QueryClass::NxNoise, 1, 1);
        assert_eq!(t.slots()[0].total(), 2);
        assert_eq!(t.slots()[1].total(), 1);
        assert_eq!(t.slots()[23].total(), 1);
        assert_eq!(t.slots()[0].member_load, vec![1, 1]);
        assert_eq!(t.slot_start_secs(1), 3_600);
    }

    #[test]
    fn json_export_has_stable_shape() {
        let mut reg = MetricsRegistry::with_buckets(2);
        reg.begin_day(0, 1);
        reg.record_event(10, 0, Served::CacheHit, QueryClass::Cdn, 1, 0, None, None);
        let json = reg.to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"queries\": 1"));
        assert!(json.contains("\"timeline\": {\"buckets\": 2"));
        assert!(json.ends_with("}\n"));
        // Phase timings are wall-clock and must never leak into the
        // deterministic export.
        assert!(!json.contains("phase"));
        assert!(!json.contains("wall"));
    }

    #[test]
    fn disabled_overload_exports_hide_shed_columns() {
        let mut reg = MetricsRegistry::with_buckets(2);
        reg.begin_day(0, 1);
        reg.record_event(10, 0, Served::CacheHit, QueryClass::Cdn, 1, 0, None, None);
        let json = reg.to_json();
        let csv = reg.timeline_csv();
        for hidden in ["dropped", "rate_limited", "queue_backlog"] {
            assert!(!json.contains(hidden), "{hidden} leaked into disabled json");
            assert!(!csv.contains(hidden), "{hidden} leaked into disabled csv");
        }
        assert_eq!(reg.exported_kinds(), BASELINE_SERVED_KINDS);
    }

    #[test]
    fn enabled_overload_exports_carry_shed_columns() {
        let mut reg = MetricsRegistry::with_buckets(2);
        reg.set_overload_enabled(true);
        reg.begin_day(0, 1);
        reg.record_event(10, 0, Served::Dropped, QueryClass::Unknown, 0, 0, None, Some(5));
        reg.record_event(20, 0, Served::RateLimited, QueryClass::Unknown, 0, 0, None, Some(3));
        assert_eq!(reg.counters().dropped, 1);
        assert_eq!(reg.counters().rate_limited, 1);
        assert_eq!(reg.queue_backlog().count(), 2);
        let json = reg.to_json();
        assert!(json.contains("\"dropped\": 1"));
        assert!(json.contains("\"rate_limited\": 1"));
        assert!(json.contains("\"queue_backlog\""));
        let csv = reg.timeline_csv();
        assert!(csv.contains(",dropped,rate_limited"));
    }

    #[test]
    fn phase_table_lists_every_phase() {
        let mut p = PhaseTimings::default();
        p.add_replay(Duration::from_millis(12));
        let table = p.render_table();
        for phase in ["generate", "replay", "total"] {
            assert!(table.contains(phase), "missing {phase} in:\n{table}");
        }
        for gone in ["partition", "merge"] {
            assert!(!table.contains(gone), "{gone} is no phase of a serial replay:\n{table}");
        }
    }
}
