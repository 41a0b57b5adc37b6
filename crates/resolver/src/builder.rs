//! The unified day-run entry point: [`ResolverSim::day`] returns a
//! [`DayRun`] builder, the one way to replay a whole day. It runs the
//! serial replay loop (`DayState`, also what an
//! [`EventSession`](crate::EventSession) steps per push) over the trace
//! on the calling thread; there is no other engine (DESIGN, "Why replay
//! and decode are serial").
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
//!     .metrics(&mut reg)
//!     .run();
//! assert_eq!(reg.counters().records_below, report.below_total());
//! # Ok::<(), dnsnoise_resolver::FaultSpecError>(())
//! ```

use dnsnoise_workload::{DayTrace, GroundTruth};

use crate::admission::OverloadConfig;
use crate::faults::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::observer::Observer;
use crate::sim::{DayReport, DayState, ResolverSim};

/// A configured-but-not-yet-run day replay, built by
/// [`ResolverSim::day`].
///
/// Every knob is optional: with none set, [`DayRun::run`] is the plain
/// fault-free replay. The observer is a type parameter (starting at
/// `()`); call [`DayRun::observer`] to attach any [`Observer`], `dyn`
/// included.
pub struct DayRun<'a, O: Observer + ?Sized = ()> {
    sim: &'a mut ResolverSim,
    trace: &'a DayTrace,
    ground_truth: Option<&'a GroundTruth>,
    plan: Option<&'a FaultPlan>,
    overload: Option<&'a OverloadConfig>,
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

    /// Shim: ignored. The replay is serial; the name survives only
    /// because `benchmark/src/layers.rs` compiles against it and no
    /// ordinary PR may edit that directory. In the workspace only the
    /// tests that pin it inert call it, and it goes once the next
    /// `[benchmark]` PR has dropped that caller (ROADMAP).
    #[doc(hidden)]
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// Records counters, histograms, and the intra-day timeline into
    /// `registry` (see [`MetricsRegistry`]).
    pub fn metrics(mut self, registry: &'a mut MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attaches an observer that sees every served response. Rebinds the
    /// builder's observer type to any `Observer`, `dyn` included.
    pub fn observer<O2: Observer + ?Sized>(self, observer: &'a mut O2) -> DayRun<'a, O2> {
        DayRun {
            sim: self.sim,
            trace: self.trace,
            ground_truth: self.ground_truth,
            plan: self.plan,
            overload: self.overload,
            observer: Some(observer),
            metrics: self.metrics,
        }
    }

    /// Runs the configured replay on the calling thread and returns its
    /// [`DayReport`].
    pub fn run(self) -> DayReport {
        let DayRun { sim, trace, ground_truth, plan, overload, observer, metrics } = self;
        match observer {
            Some(o) => replay(sim, trace, ground_truth, plan, overload, o, metrics),
            None => replay(sim, trace, ground_truth, plan, overload, &mut (), metrics),
        }
    }

    /// Shim: identical to [`DayRun::run`]. Kept, like
    /// [`DayRun::threads`], only for `benchmark/src/layers.rs`, and it
    /// goes with it.
    #[doc(hidden)]
    // lint:allow(dead-api): crates/resolver/tests/ratio.rs and tests/determinism.rs call it
    pub fn run_serial(self) -> DayReport {
        self.run()
    }
}

/// The replay loop: one [`DayState`] stepped over the trace, the same
/// steps an [`EventSession`](crate::EventSession) takes per push.
fn replay<Obs: Observer + ?Sized>(
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
