//! Incremental event-at-a-time replay: the streaming face of the
//! [`ResolverSim::day`](crate::ResolverSim::day) builder.
//!
//! An [`EventSession`] owns a [`ResolverSim`] plus the day-scoped replay
//! state, and every [`EventSession::push`] is one step of the replay
//! loop: the very loop [`DayRun::run`](crate::DayRun::run) runs over a
//! [`DayTrace`](dnsnoise_workload::DayTrace), here stepped by the caller.
//! A session fed a day's events in order therefore returns the
//! [`DayReport`] and the simulator `sim.day(&trace).run()` would have,
//! including over a cluster a previous day left with a member down
//! (it restarts cold at the first event).
//!
//! [`EventSession::new`] starts a fault-free day without admission
//! control, which is what the streaming miner replays;
//! [`EventSession::begin`] takes the knobs a [`DayRun`](crate::DayRun)
//! takes, so the two drivers can be held equal under all of them.
//!
//! # Examples
//!
//! ```
//! use dnsnoise_resolver::{EventSession, ResolverSim, SimConfig};
//! use dnsnoise_workload::{Scenario, ScenarioConfig};
//!
//! let s = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.02), 7);
//! let trace = s.generate_day(0);
//!
//! let mut session = EventSession::new(ResolverSim::new(SimConfig::default()), trace.day);
//! for event in &trace.events {
//!     session.push(event, Some(s.ground_truth()), &mut ());
//! }
//! let (report, _sim) = session.finish();
//!
//! let mut batch = ResolverSim::new(SimConfig::default());
//! let expected = batch.day(&trace).ground_truth(s.ground_truth()).run();
//! assert_eq!(report, expected);
//! ```

use dnsnoise_workload::{GroundTruth, QueryEvent};

use crate::admission::OverloadConfig;
use crate::faults::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::observer::Observer;
use crate::sim::{DayReport, DayState, ResolverSim};
use crate::stats::RrDayStats;

/// An in-progress incremental replay of one day of traffic.
///
/// Create with [`EventSession::new`], feed events with
/// [`EventSession::push`], and call [`EventSession::finish`] to obtain
/// the [`DayReport`] and recover the simulator (whose caches carry over
/// to the next day, exactly as in batch multi-day replays).
#[derive(Debug)]
pub struct EventSession {
    sim: ResolverSim,
    day: DayState,
    metrics: Option<MetricsRegistry>,
}

impl EventSession {
    /// Starts a session for simulated day `day` over `sim`, snapshotting
    /// the cluster's cache counters so [`EventSession::finish`] can report
    /// this day's deltas.
    pub fn new(sim: ResolverSim, day: u64) -> EventSession {
        EventSession::begin(sim, day, None, None, None)
    }

    /// [`EventSession::new`] with the knobs of a [`DayRun`](crate::DayRun):
    /// a fault plan, admission control, and a registry the session fills
    /// and [`EventSession::finish_with_metrics`] hands back.
    pub fn begin(
        sim: ResolverSim,
        day: u64,
        plan: Option<&FaultPlan>,
        overload: Option<&OverloadConfig>,
        mut metrics: Option<MetricsRegistry>,
    ) -> EventSession {
        let day = DayState::begin(&sim, day, plan, overload, metrics.as_mut());
        EventSession { sim, day, metrics }
    }

    /// Serves one event, updating the cluster caches and the running
    /// report, and invoking `observer` with the response exactly as the
    /// batch replay would. `ground_truth` (when available) attributes
    /// traffic to the Fig. 2 operator series; it never influences cache
    /// behaviour or per-record statistics.
    pub fn push<Obs: Observer + ?Sized>(
        &mut self,
        event: &QueryEvent,
        ground_truth: Option<&GroundTruth>,
        observer: &mut Obs,
    ) {
        self.day.step(&mut self.sim, event, ground_truth, observer, self.metrics.as_mut());
    }

    /// Re-labels the simulated day. Only meaningful before the first
    /// push: callers that learn the day from the stream itself (e.g. a
    /// miner fed from stdin) set it when the first event arrives.
    pub fn set_day(&mut self, day: u64) {
        self.day.ctx.day = day;
    }

    /// The exact per-record query/miss table of the events pushed so far
    /// — what [`DayReport::rr_stats`] will hold after
    /// [`EventSession::finish`], readable mid-day.
    pub fn rr_stats(&self) -> &RrDayStats {
        &self.day.report.rr_stats
    }

    /// Closes the day: folds the cache-counter delta into the report and
    /// returns it together with the simulator for reuse on the next day.
    pub fn finish(self) -> (DayReport, ResolverSim) {
        let (report, sim, _) = self.finish_with_metrics();
        (report, sim)
    }

    /// [`EventSession::finish`], also returning the registry
    /// [`EventSession::begin`] was given, with the day-end gauges sampled.
    pub fn finish_with_metrics(mut self) -> (DayReport, ResolverSim, Option<MetricsRegistry>) {
        let report = self.day.finish(&self.sim, self.metrics.as_mut());
        (report, self.sim, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::sim::SimConfig;
    use dnsnoise_dns::Timestamp;
    use dnsnoise_workload::{DayTrace, Scenario, ScenarioConfig};

    fn scenario(seed: u64) -> Scenario {
        Scenario::new(ScenarioConfig::paper_epoch(0.6).with_scale(0.02), seed)
    }

    fn push_all(mut session: EventSession, trace: &DayTrace, s: &Scenario) -> EventSession {
        for event in &trace.events {
            session.push(event, Some(s.ground_truth()), &mut ());
        }
        session
    }

    #[test]
    fn incremental_replay_matches_batch_exactly() {
        for seed in [7, 301] {
            let s = scenario(seed);
            let trace = s.generate_day(0);

            let mut batch = ResolverSim::new(SimConfig::default());
            let expected = batch.day(&trace).ground_truth(s.ground_truth()).run();

            // Half-way, the running table is already the batch table of
            // the truncated day: the streaming miner's epoch closes read it.
            let mut half = trace.clone();
            half.events.truncate(trace.events.len() / 2);
            let session = EventSession::new(ResolverSim::new(SimConfig::default()), trace.day);
            let mut session = push_all(session, &half, &s);
            let truncated = ResolverSim::new(SimConfig::default()).day(&half).run();
            assert!(!truncated.rr_stats.is_empty());
            assert_eq!(session.rr_stats(), &truncated.rr_stats, "seed {seed}: half-way table");

            for event in &trace.events[half.events.len()..] {
                session.push(event, Some(s.ground_truth()), &mut ());
            }
            let (report, _) = session.finish();
            assert_eq!(report, expected, "seed {seed}");
        }
    }

    #[test]
    fn sessions_carry_cache_state_across_days() {
        let s = scenario(40);
        let mut batch = ResolverSim::new(SimConfig::default());
        let mut streamed = ResolverSim::new(SimConfig::default());
        for day in 0..2 {
            let trace = s.generate_day(day);
            let expected = batch.day(&trace).ground_truth(s.ground_truth()).run();
            let session = EventSession::new(streamed, trace.day);
            let (report, sim) = push_all(session, &trace, &s).finish();
            streamed = sim;
            assert_eq!(report, expected, "day {day}");
        }
    }

    #[test]
    fn session_over_a_cluster_left_with_a_member_down_equals_batch() {
        // Day 0's crash window outlasts the day, so both simulators enter
        // day 1 with member 1 down; the fault-free day 1 must restart it
        // cold at its first event on either path.
        let s = scenario(7);
        let (d0, d1) = (s.generate_day(0), s.generate_day(1));
        let crash = FaultPlan::default().with_member_outage(
            1,
            Timestamp::from_secs(20 * 3_600),
            Timestamp::from_secs(30 * 3_600),
        );
        let mut batch = ResolverSim::new(SimConfig::default());
        let mut streamed = ResolverSim::new(SimConfig::default());
        for sim in [&mut batch, &mut streamed] {
            sim.day(&d0).ground_truth(s.ground_truth()).faults(&crash).run();
            assert!(sim.cluster().any_member_down());
        }

        let expected = batch.day(&d1).ground_truth(s.ground_truth()).run();
        let (report, streamed) = push_all(EventSession::new(streamed, d1.day), &d1, &s).finish();
        assert_eq!(report, expected);
        assert!(!batch.cluster().any_member_down());
        assert!(!streamed.cluster().any_member_down());
    }

    #[test]
    fn set_day_before_the_first_push_equals_constructing_with_the_day() {
        // Packet-loss sampling is keyed on the day, so a re-label that
        // reached the report but not the hoisted context would diverge.
        let s = scenario(9);
        let trace = s.generate_day(3);
        let lossy = FaultPlan::default().with_seed(5).with_packet_loss(0.3);
        let begin = |day| {
            let sim = ResolverSim::new(SimConfig::default());
            EventSession::begin(sim, day, Some(&lossy), None, None)
        };

        let (expected, _) = push_all(begin(trace.day), &trace, &s).finish();
        assert!(expected.resilience.failed_attempts > 0);

        let mut relabelled = begin(0);
        relabelled.set_day(trace.day);
        let (report, _) = push_all(relabelled, &trace, &s).finish();
        assert_eq!(report, expected);

        let (unlabelled, _) = push_all(begin(0), &trace, &s).finish();
        assert_ne!(unlabelled.resilience, expected.resilience, "the day must matter");
    }
}
