//! The unified day-run entry point: [`ResolverSim::day`] returns a
//! [`DayRun`] builder, the one way to replay a day. It dispatches to one
//! of the two drivers of `process_event`: the serial reference loop
//! (`DayState`, also what an [`EventSession`](crate::EventSession) steps)
//! or the sharded engine.
//!
//! ```
//! use dnsnoise_resolver::{FaultPlan, MetricsRegistry, ResolverSim, SimConfig};
//! use dnsnoise_workload::{Scenario, ScenarioConfig};
//!
//! let s = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.02), 7);
//! let trace = s.generate_day(0);
//! let plan: FaultPlan = "seed=3; loss=0.1".parse()?;
//! let mut reg = MetricsRegistry::with_buckets(96);
//!
//! let mut sim = ResolverSim::new(SimConfig::default());
//! let report = sim
//!     .day(&trace)
//!     .ground_truth(s.ground_truth())
//!     .faults(&plan)
//!     .threads(4)
//!     .metrics(&mut reg)
//!     .run();
//! assert_eq!(reg.counters().records_below, report.below_total);
//! # Ok::<(), dnsnoise_resolver::FaultSpecError>(())
//! ```

use dnsnoise_workload::{DayTrace, GroundTruth};

use crate::admission::OverloadConfig;
use crate::engine::{run_sharded, ShardObserver};
use crate::faults::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::observer::Observer;
use crate::sim::{DayReport, DayState, ResolverSim};

/// A configured-but-not-yet-run day replay, built by
/// [`ResolverSim::day`].
///
/// Every knob is optional: with none set, [`DayRun::run`] is the plain
/// single-threaded fault-free replay. The observer is a type parameter
/// (starting at `()`) so the sharded path can fork it; call
/// [`DayRun::observer`] to attach one, and [`DayRun::run_serial`] to run
/// with an observer that is not a [`ShardObserver`] (e.g. `&mut dyn
/// Observer`).
pub struct DayRun<'a, O: Observer + ?Sized = ()> {
    sim: &'a mut ResolverSim,
    trace: &'a DayTrace,
    ground_truth: Option<&'a GroundTruth>,
    plan: Option<&'a FaultPlan>,
    overload: Option<&'a OverloadConfig>,
    threads: usize,
    observer: Option<&'a mut O>,
    metrics: Option<&'a mut MetricsRegistry>,
}

// Manual impl: the observer type is `?Sized` and need not be `Debug`,
// so derive can't apply. Shows the replay configuration, not the
// borrowed simulator state.
impl<O: Observer + ?Sized> std::fmt::Debug for DayRun<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DayRun")
            .field("day", &self.trace.day)
            .field("events", &self.trace.events.len())
            .field("ground_truth", &self.ground_truth.is_some())
            .field("faults", &self.plan.is_some())
            .field("overload", &self.overload.is_some())
            .field("threads", &self.threads)
            .field("observer", &self.observer.is_some())
            .field("metrics", &self.metrics.is_some())
            .finish_non_exhaustive()
    }
}

impl ResolverSim {
    /// Starts building a replay of one day of traffic. See [`DayRun`].
    pub fn day<'a>(&'a mut self, trace: &'a DayTrace) -> DayRun<'a, ()> {
        DayRun {
            sim: self,
            trace,
            ground_truth: None,
            plan: None,
            overload: None,
            threads: 1,
            observer: None,
            metrics: None,
        }
    }
}

impl<'a, O: Observer + ?Sized> DayRun<'a, O> {
    /// Attributes traffic to the Google / Akamai series of Fig. 2 and
    /// enables disposable-vs-other availability slicing. Accepts a
    /// `&GroundTruth` or an `Option<&GroundTruth>`.
    pub fn ground_truth(mut self, gt: impl Into<Option<&'a GroundTruth>>) -> Self {
        self.ground_truth = gt.into();
        self
    }

    /// Injects faults from `plan` during the replay (see
    /// [`FaultPlan`]). An empty plan is equivalent to not setting one.
    ///
    /// On a cache miss the resolver attempts the upstream fetch with
    /// bounded exponential-backoff retries inside a per-query time budget
    /// (see [`RetryPolicy`](crate::RetryPolicy)); every failed attempt is
    /// counted as above-traffic so fault amplification is observable. When
    /// the budget is exhausted the resolver serves a stale entry if
    /// [`SimConfig::stale_window`](crate::SimConfig::stale_window) allows
    /// (RFC 8767), and SERVFAIL otherwise. Member crash windows reroute
    /// traffic onto the surviving caches and restart the member cold
    /// afterwards.
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Enables the admission-control stage with `config` (see
    /// [`OverloadConfig`]): bounded per-member queues, per-client token
    /// buckets, and optional NXDOMAIN rate limiting. Without this knob no
    /// query is ever shed and the replay is bit-identical to builds that
    /// predate admission control.
    pub fn overload(mut self, config: &'a OverloadConfig) -> Self {
        self.overload = Some(config);
        self
    }

    /// Replays on up to `n` worker threads (clamped to the member count;
    /// `0` and `1` both mean single-threaded). The report, the cluster
    /// state, and any attached [`MetricsRegistry`] are bit-identical for
    /// every value.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Records counters, histograms, and the intra-day timeline into
    /// `registry` (see [`MetricsRegistry`]).
    pub fn metrics(mut self, registry: &'a mut MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attaches an observer that sees every served response. Rebinds the
    /// builder's observer type: use a [`ShardObserver`] to keep
    /// [`DayRun::run`] available, or any `Observer` (including `dyn`)
    /// with [`DayRun::run_serial`].
    pub fn observer<O2: Observer + ?Sized>(self, observer: &'a mut O2) -> DayRun<'a, O2> {
        DayRun {
            sim: self.sim,
            trace: self.trace,
            ground_truth: self.ground_truth,
            plan: self.plan,
            overload: self.overload,
            threads: self.threads,
            observer: Some(observer),
            metrics: self.metrics,
        }
    }

    /// Runs the replay on the calling thread, ignoring
    /// [`DayRun::threads`]. This is the entry for observers that cannot
    /// be forked across shards; prefer [`DayRun::run`] otherwise.
    pub fn run_serial(self) -> DayReport {
        let DayRun { sim, trace, ground_truth, plan, overload, threads: _, observer, metrics } =
            self;
        match observer {
            Some(o) => run_serial_impl(sim, trace, ground_truth, plan, overload, o, metrics),
            None => run_serial_impl(sim, trace, ground_truth, plan, overload, &mut (), metrics),
        }
    }
}

impl<'a, O: ShardObserver> DayRun<'a, O> {
    /// Runs the configured replay and returns its [`DayReport`].
    ///
    /// Dispatches to the sharded engine when more than one effective
    /// shard is requested, and to the single-threaded reference loop
    /// otherwise; both produce bit-identical reports, cluster state, and
    /// metrics.
    ///
    /// Each worker collects into a private fork of the observer; forks
    /// are absorbed in shard order after the join, so observer output is
    /// deterministic for a fixed shard count (though, unlike the report,
    /// not necessarily identical *across* shard counts — collectors that
    /// retain per-event state may order it differently).
    pub fn run(self) -> DayReport {
        let DayRun { sim, trace, ground_truth, plan, overload, threads, observer, metrics } = self;
        match observer {
            Some(o) => run_dispatch(sim, trace, ground_truth, plan, overload, threads, o, metrics),
            None => {
                run_dispatch(sim, trace, ground_truth, plan, overload, threads, &mut (), metrics)
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_dispatch<O: ShardObserver>(
    sim: &mut ResolverSim,
    trace: &DayTrace,
    ground_truth: Option<&GroundTruth>,
    plan: Option<&FaultPlan>,
    overload: Option<&OverloadConfig>,
    threads: usize,
    observer: &mut O,
    metrics: Option<&mut MetricsRegistry>,
) -> DayReport {
    let shards = threads.min(sim.cluster.members()).max(1);
    if shards <= 1 || trace.events.is_empty() {
        run_serial_impl(sim, trace, ground_truth, plan, overload, observer, metrics)
    } else {
        run_sharded(sim, trace, ground_truth, plan, overload, shards, observer, metrics)
    }
}

/// The single-threaded reference replay, the loop every other execution
/// mode must reproduce bit for bit: one [`DayState`] stepped over the trace.
pub(crate) fn run_serial_impl<Obs: Observer + ?Sized>(
    sim: &mut ResolverSim,
    trace: &DayTrace,
    ground_truth: Option<&GroundTruth>,
    plan: Option<&FaultPlan>,
    overload: Option<&OverloadConfig>,
    observer: &mut Obs,
    mut metrics: Option<&mut MetricsRegistry>,
) -> DayReport {
    let mut day = DayState::begin(sim, trace.day, plan, overload, metrics.as_deref_mut());
    // lint:allow(wall-clock): feeds PhaseTimings, which is excluded from deterministic exports
    let replay_start = std::time::Instant::now();
    for event in &trace.events {
        day.step(sim, event, ground_truth, observer, metrics.as_deref_mut());
    }
    if let Some(m) = metrics.as_deref_mut() {
        m.phases_mut().add_replay(replay_start.elapsed());
    }
    day.finish(sim, metrics)
}
