//! Recursive-resolver cluster simulation.
//!
//! This crate replays a synthetic day of client queries (from
//! `dnsnoise-workload`) through a cache cluster (from `dnsnoise-cache`) and
//! records exactly what the paper's monitoring point records (§III-A):
//!
//! * **below** the recursives — every answer returned to a client;
//! * **above** the recursives — every answer fetched from the
//!   authoritative tier (i.e. every cache miss);
//! * per-resource-record query/miss counts, from which the paper's domain
//!   hit rate (DHR, Eq. 1) and cache hit rate (CHR, Eq. 2) are computed;
//! * hourly traffic volumes split into the Fig. 2 series (All / NXDOMAIN /
//!   Akamai / Google).
//!
//! Runs are configured through the [`ResolverSim::day`] builder; the
//! observability layer ([`MetricsRegistry`], [`TimelineRecorder`]) hangs
//! off the same builder and is derived from simulated events only.
//!
//! # Examples
//!
//! ```
//! use dnsnoise_resolver::{ResolverSim, SimConfig};
//! use dnsnoise_workload::{Scenario, ScenarioConfig};
//!
//! let scenario = Scenario::new(ScenarioConfig::paper_epoch(0.0).with_scale(0.02), 7);
//! let trace = scenario.generate_day(0);
//! let mut sim = ResolverSim::new(SimConfig::default());
//! let report = sim.day(&trace).ground_truth(scenario.ground_truth()).run();
//! assert!(report.below_total() > 0);
//! assert!(report.above_total() <= report.below_total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod builder;
mod collector;
mod faults;
mod metrics;
mod observer;
mod session;
mod sim;
mod stats;
mod traffic;

pub use admission::{AdmissionState, OverloadConfig, OverloadStats};
pub use builder::DayRun;
pub use collector::PdnsCollector;
pub use faults::{
    FaultKind, FaultPlan, FaultSpecError, MemberOutage, OutageScope, OutageWindow, RetryPolicy,
    SERVFAIL_LATENCY_MS, UPSTREAM_RTT_MS,
};
pub use metrics::{
    served_index, Histogram, MetricsRegistry, PhaseTimings, QueryClass, QueryCounters, TimeSlot,
    TimelineRecorder, ATTEMPT_BOUNDS, BASELINE_SERVED_KINDS, DEFAULT_TIMELINE_BUCKETS,
    LATENCY_BOUNDS_MS, QUEUE_BOUNDS, RETRY_BOUNDS, SERVED_KINDS, SERVED_LABELS,
};
pub use observer::{Observer, Served};
pub use session::EventSession;
pub use sim::{
    Availability, DayReport, PriorityPredicate, ResilienceStats, ResolverSim, SimConfig,
};
pub use stats::{ChrDistribution, RrDayStats, RrStat};
pub use traffic::{Series, TrafficProfile};
