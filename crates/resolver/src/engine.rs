//! The multi-threaded sharded day-simulation engine.
//!
//! [`DayRun::run`](crate::DayRun::run) with more than one thread replays
//! one day of traffic on several worker threads and produces a
//! [`DayReport`] **bit-identical** to the single-threaded
//! [`DayRun::run_serial`](crate::DayRun::run_serial) for any thread
//! count, including under an active [`FaultPlan`]. It is the second of
//! the two drivers of `process_event`: the day opens and closes through
//! the serial loop's `DayState::{begin, finish}`, and only the stepping
//! in between is sharded. Three properties make that possible:
//!
//! 1. **Pure routing.** [`CacheCluster::route_hash`] +
//!    [`CacheCluster::member_for_hash`] compute, without advancing any
//!    cluster state, exactly the member [`CacheCluster::route`] would
//!    pick — round-robin sequence numbers are reconstructed from the
//!    cursor plus the event's global index, and member crash windows are
//!    replayed against a local copy of the down flags. A sequential
//!    partition pass therefore assigns every event its owner up front.
//! 2. **Disjoint ownership.** Each cluster member's cache state is touched
//!    only by the shard that owns it (member `m` → shard `m % shards`),
//!    and each shard's stream preserves the global event order, so the
//!    per-member cache evolution is identical to the single-threaded
//!    replay no matter how threads interleave.
//! 3. **Commutative accounting + index-keyed randomness.** Everything a
//!    worker writes outside its members' caches is a sum or key-wise
//!    counter merge in its private partial [`DayReport`], and the only
//!    randomness — packet-loss sampling — is a pure function of
//!    `(plan seed, day, global event index, attempt)`, i.e. a
//!    scheduling-independent per-event RNG stream derived by SplitMix64
//!    hashing. Merging the partials in shard order reproduces the
//!    single-threaded totals exactly.
//!
//! Member crash windows are the delicate part: the single-threaded loop
//! restarts a member *cold* (entries cleared) at the first event on or
//! after the window's end. The partition pass records those restart
//! instants as global event indices; each worker clears an owned member
//! lazily before processing the first owned event at or past a recorded
//! instant, and drains any leftover instants after its stream ends. A
//! window that contains no events never triggers a clear — exactly like
//! the single-threaded fault sync, which only runs per event.

use std::collections::VecDeque;
use std::time::Instant;

use dnsnoise_cache::{CacheCluster, CacheKey, LoadBalance, MemberShard};
use dnsnoise_workload::{DayTrace, GroundTruth, ShardedTrace};

use crate::admission::{AdmissionState, OverloadConfig};
use crate::faults::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::observer::Observer;
use crate::sim::{process_event, DayReport, DayState, ResolverSim};

/// An [`Observer`] that can be split across shard workers and merged
/// back.
///
/// The engine calls [`ShardObserver::fork`] once per shard (on the main
/// thread, in shard order) before the workers start, hands each worker
/// its fork, and after all workers have joined feeds the forks back into
/// the original via [`ShardObserver::absorb`] — again in shard order, so
/// absorption is deterministic in the shard count.
pub trait ShardObserver: Observer + Send + Sized {
    /// Creates an empty observer of the same configuration to run on one
    /// shard. A fork starts with no collected state: the parent's state
    /// is never duplicated into workers.
    fn fork(&self) -> Self;

    /// Folds a shard's collected state back into `self`.
    fn absorb(&mut self, shard: Self);
}

/// The no-op observer shards trivially.
impl ShardObserver for () {
    fn fork(&self) {}
    fn absorb(&mut self, _shard: ()) {}
}

/// One cluster member as owned by a shard worker: its cache handles plus
/// the cold-restart instants the partition pass recorded for it.
struct WorkerMember<'a> {
    handles: MemberShard<'a>,
    restarts: VecDeque<u64>,
    /// The member's admission queue and rate-limit state. Owned by the
    /// shard worker like the caches, so the backlog/token evolution is
    /// identical to the single-threaded replay. Persists across member
    /// crash restarts (a restart clears caches, not the inbound queue
    /// model), matching the serial loop which never resets it mid-day.
    admission: AdmissionState,
}

impl WorkerMember<'_> {
    /// Applies every recorded restart at or before `index`: the member
    /// loses its entries, exactly as
    /// [`CacheCluster::restart_member_cold`] would have done at that
    /// point of the single-threaded replay.
    fn catch_up_restarts(&mut self, index: u64) {
        while self.restarts.front().is_some_and(|&at| at <= index) {
            self.restarts.pop_front();
            self.handles.cache.clear_entries();
            self.handles.negative.clear_entries();
        }
    }

    /// Applies restarts that fell after the member's last owned event so
    /// day-end cache contents match the single-threaded replay.
    fn drain_restarts(&mut self) {
        if !self.restarts.is_empty() {
            self.restarts.clear();
            self.handles.cache.clear_entries();
            self.handles.negative.clear_entries();
        }
    }
}

/// The sharded replay behind [`DayRun::run`](crate::DayRun::run). The
/// caller (the builder's dispatch) has already clamped `shards` to
/// `2..=members` and ruled out the empty trace.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sharded<O: ShardObserver>(
    sim: &mut ResolverSim,
    trace: &DayTrace,
    ground_truth: Option<&GroundTruth>,
    plan: Option<&FaultPlan>,
    overload: Option<&OverloadConfig>,
    shards: usize,
    observer: &mut O,
    mut metrics: Option<&mut MetricsRegistry>,
) -> DayReport {
    let mut day = DayState::begin(sim, trace.day, plan, overload, metrics.as_deref_mut());
    let (ctx, drive_members) = (&day.ctx, day.drive_members);
    let plan = &ctx.plan;
    let members = sim.cluster.members();

    // Partition pass: replay the routing decisions (and the member
    // crash schedule they depend on) purely, without touching cache
    // state.
    // lint:allow(wall-clock): feeds PhaseTimings, which is excluded from deterministic exports
    let partition_start = Instant::now();
    let rr0 = sim.cluster.rr_cursor();
    let mut down = sim.cluster.down_flags();
    let mut restarts: Vec<Vec<u64>> = vec![Vec::new(); members];
    let cluster = &sim.cluster;
    let sharded = ShardedTrace::partition(&trace.events, shards, |index, event| {
        if drive_members {
            for (m, flag) in down.iter_mut().enumerate() {
                let want_down = plan.member_down(m, event.time);
                if want_down != *flag {
                    *flag = want_down;
                    if !want_down {
                        restarts[m].push(index);
                    }
                }
            }
        }
        let key = CacheKey::new(event.name.clone(), event.qtype);
        let h = cluster.route_hash(event.client, &key, rr0 + index);
        CacheCluster::member_for_hash(h, &down)
    });
    let day_end_down = down;
    let partition_elapsed = partition_start.elapsed();

    // Deal members (with their restart schedules) onto shards.
    let mut worker_members: Vec<Vec<WorkerMember<'_>>> = (0..shards).map(|_| Vec::new()).collect();
    for (m, (handles, member_restarts)) in
        sim.cluster.member_shards().into_iter().zip(restarts).enumerate()
    {
        worker_members[m % shards].push(WorkerMember {
            handles,
            restarts: member_restarts.into(),
            admission: AdmissionState::default(),
        });
    }
    let forks: Vec<O> = (0..shards).map(|_| observer.fork()).collect();
    // Metric forks mirror observer forks: created on the main thread in
    // shard order, absorbed in shard order after the join.
    let metric_forks: Vec<Option<MetricsRegistry>> =
        (0..shards).map(|_| metrics.as_deref().map(MetricsRegistry::fork)).collect();

    // Run the shard workers; each builds a private partial report.
    // lint:allow(wall-clock): feeds PhaseTimings, which is excluded from deterministic exports
    let replay_start = Instant::now();
    let partials: Vec<(DayReport, O, Option<MetricsRegistry>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = worker_members
            .into_iter()
            .zip(forks.into_iter().zip(metric_forks))
            .enumerate()
            .map(|(s, (mut owned, (mut fork, mut metric_fork)))| {
                let stream = sharded.shard(s);
                scope.spawn(move || {
                    let mut partial = DayReport { day: ctx.day, ..DayReport::default() };
                    for routed in stream {
                        let wm = &mut owned[routed.member / shards];
                        wm.catch_up_restarts(routed.index);
                        process_event(
                            ctx,
                            routed.index,
                            routed.member,
                            routed.event,
                            ground_truth,
                            wm.handles.cache,
                            wm.handles.negative,
                            &mut partial,
                            &mut fork,
                            metric_fork.as_mut(),
                            ctx.overload.is_some().then_some(&mut wm.admission),
                        );
                    }
                    for wm in &mut owned {
                        wm.drain_restarts();
                    }
                    (partial, fork, metric_fork)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
    });
    let replay_elapsed = replay_start.elapsed();

    // Deterministic merge in shard order: reports through the canonical
    // `DayReport::merge_partials`, observers and registries via absorb.
    // lint:allow(wall-clock): feeds PhaseTimings, which is excluded from deterministic exports
    let merge_start = Instant::now();
    let mut shard_reports = Vec::with_capacity(partials.len());
    for (partial, fork, metric_fork) in partials {
        shard_reports.push(partial);
        observer.absorb(fork);
        if let (Some(m), Some(shard_metrics)) = (metrics.as_deref_mut(), metric_fork) {
            m.absorb(shard_metrics);
        }
    }
    day.report = DayReport::merge_partials(trace.day, &shard_reports);
    let merge_elapsed = merge_start.elapsed();

    // Sync the cluster state the workers bypassed: the round-robin
    // cursor and the day-end crash flags (entries were already
    // cleared at the replayed restart instants).
    if sim.cluster.strategy() == LoadBalance::RoundRobin {
        sim.cluster.advance_rr_cursor(trace.events.len() as u64);
    }
    for (m, flag) in day_end_down.into_iter().enumerate() {
        sim.cluster.set_member_flag(m, flag);
    }

    if let Some(m) = metrics.as_deref_mut() {
        m.phases_mut().add_partition(partition_elapsed);
        m.phases_mut().add_replay(replay_elapsed);
        m.phases_mut().add_merge(merge_elapsed);
    }
    day.finish(sim, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, OutageScope};
    use crate::sim::SimConfig;
    use dnsnoise_dns::Timestamp;
    use dnsnoise_workload::{Scenario, ScenarioConfig};

    fn scenario(seed: u64) -> Scenario {
        Scenario::new(ScenarioConfig::paper_epoch(0.4).with_scale(0.03), seed)
    }

    fn eventful_plan() -> FaultPlan {
        FaultPlan::default()
            .with_seed(7)
            .with_packet_loss(0.2)
            .with_outage(
                OutageScope::All,
                FaultKind::Timeout,
                Timestamp::from_secs(3 * 3_600),
                Timestamp::from_secs(5 * 3_600),
            )
            .with_member_outage(
                1,
                Timestamp::from_secs(8 * 3_600),
                Timestamp::from_secs(14 * 3_600),
            )
    }

    #[test]
    fn sharded_matches_single_thread_without_faults() {
        let s = scenario(21);
        let trace = s.generate_day(0);
        let plan = FaultPlan::default();
        let mut reference = ResolverSim::new(SimConfig::default());
        let expected =
            reference.day(&trace).ground_truth(s.ground_truth()).faults(&plan).run_serial();
        for threads in [2, 3, 4, 8] {
            let mut sim = ResolverSim::new(SimConfig::default());
            let got =
                sim.day(&trace).ground_truth(s.ground_truth()).faults(&plan).threads(threads).run();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn sharded_matches_single_thread_under_faults() {
        let s = scenario(22);
        let trace = s.generate_day(0);
        let plan = eventful_plan();
        let mut reference = ResolverSim::new(SimConfig::default());
        let expected =
            reference.day(&trace).ground_truth(s.ground_truth()).faults(&plan).run_serial();
        for threads in [2, 4, 8] {
            let mut sim = ResolverSim::new(SimConfig::default());
            let got =
                sim.day(&trace).ground_truth(s.ground_truth()).faults(&plan).threads(threads).run();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn sharded_leaves_identical_cluster_state() {
        // Day 0 sharded, day 1 single-threaded: if the sharded run left
        // any cache state (entries, counters, rr cursor, crash flags)
        // different, day 1 would diverge.
        for strategy in [LoadBalance::HashClient, LoadBalance::RoundRobin, LoadBalance::HashName] {
            let s = scenario(23);
            let d0 = s.generate_day(0);
            let d1 = s.generate_day(1);
            let plan = eventful_plan();
            let config = SimConfig { load_balance: strategy, ..SimConfig::default() };

            let mut reference = ResolverSim::new(config.clone());
            reference.day(&d0).ground_truth(s.ground_truth()).faults(&plan).run_serial();
            let expected =
                reference.day(&d1).ground_truth(s.ground_truth()).faults(&plan).run_serial();

            let mut sim = ResolverSim::new(config);
            sim.day(&d0).ground_truth(s.ground_truth()).faults(&plan).threads(4).run();
            let got = sim.day(&d1).ground_truth(s.ground_truth()).faults(&plan).run_serial();
            assert_eq!(got, expected, "strategy={strategy:?}");
        }
    }

    #[test]
    fn one_thread_delegates_to_reference_path() {
        let s = scenario(24);
        let trace = s.generate_day(0);
        let mut a = ResolverSim::new(SimConfig::default());
        let mut b = ResolverSim::new(SimConfig::default());
        let ra = a.day(&trace).threads(1).run();
        let rb = b.day(&trace).run_serial();
        assert_eq!(ra, rb);
    }

    #[test]
    fn thread_count_beyond_members_is_clamped() {
        let s = scenario(25);
        let trace = s.generate_day(0);
        let config = SimConfig { members: 2, ..SimConfig::default() };
        let mut reference = ResolverSim::new(config.clone());
        let expected = reference.day(&trace).run_serial();
        let mut sim = ResolverSim::new(config);
        let got = sim.day(&trace).threads(64).run();
        assert_eq!(got, expected);
    }
}
