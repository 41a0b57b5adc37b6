//! Property-based invariants of the cluster simulation.

use dnsnoise_cache::LoadBalance;
use dnsnoise_dns::{Timestamp, Ttl};
use dnsnoise_resolver::{
    EventSession, FaultKind, FaultPlan, OutageScope, OverloadConfig, ResolverSim, SimConfig,
};
use dnsnoise_workload::{AttackPlan, Scenario, ScenarioConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        1usize..5,
        50usize..5_000,
        prop_oneof![
            Just(LoadBalance::HashClient),
            Just(LoadBalance::RoundRobin),
            Just(LoadBalance::HashName)
        ],
    )
        .prop_map(|(members, capacity_each, load_balance)| SimConfig {
            members,
            capacity_each,
            load_balance,
            ..SimConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Accounting conservation for any cluster configuration:
    /// * every below record is either a hit or a miss (above);
    /// * the per-RR statistics sum exactly to the traffic totals;
    /// * DHR stays in [0, 1] for every record.
    #[test]
    fn accounting_is_conserved(config in arb_config(), seed in 0u64..500, epoch in 0.0f64..=1.0) {
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(epoch).with_scale(0.01), seed);
        let trace = scenario.generate_day(0);
        let mut sim = ResolverSim::new(config);
        let report = sim.day(&trace).ground_truth(scenario.ground_truth()).run();

        prop_assert!(report.above_total() <= report.below_total());
        prop_assert!(report.nx_above() <= report.nx_below());

        let sum_queries: u64 = report.rr_stats.iter().map(|(_, s)| u64::from(s.queries)).sum();
        let sum_misses: u64 = report.rr_stats.iter().map(|(_, s)| u64::from(s.misses)).sum();
        prop_assert_eq!(sum_queries, report.below_total() - report.nx_below());
        prop_assert_eq!(sum_misses, report.above_total() - report.nx_above());

        for (key, stat) in report.rr_stats.iter() {
            prop_assert!(stat.misses <= stat.queries, "{}: {stat:?}", key);
            let dhr = stat.dhr();
            prop_assert!((0.0..=1.0).contains(&dhr));
        }
    }

    /// A cache with more capacity never produces more upstream traffic on
    /// the identical trace (LRU is not anomalous under capacity growth for
    /// a fixed request order per member).
    #[test]
    fn bigger_cache_never_fetches_more(seed in 0u64..200) {
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.01), seed);
        let trace = scenario.generate_day(0);
        let mut small_sim = ResolverSim::new(SimConfig { members: 2, capacity_each: 60, ..SimConfig::default() });
        let small = small_sim.day(&trace).run();
        let mut large_sim = ResolverSim::new(SimConfig { members: 2, capacity_each: 50_000, ..SimConfig::default() });
        let large = large_sim.day(&trace).run();
        prop_assert!(large.above_total() <= small.above_total(),
            "large {} vs small {}", large.above_total(), small.above_total());
    }

    /// The extended conservation law under arbitrary fault plans:
    /// * per-RR query counts equal the below records minus NXDOMAIN and
    ///   SERVFAIL responses (which carry no records);
    /// * per-RR miss counts equal the above fetches minus NXDOMAIN fetches
    ///   and failed attempts (retries are above-only traffic);
    /// * every trace event lands in exactly one availability bucket.
    #[test]
    fn fault_accounting_is_conserved(
        seed in 0u64..200,
        fault_seed in 0u64..1_000,
        loss in 0.0f64..0.5,
        outage_start_h in 0u64..20,
        outage_len_h in 1u64..8,
        timeout in prop_oneof![Just(FaultKind::Timeout), Just(FaultKind::ServFail)],
        stale in prop_oneof![Just(None), Just(Some(Ttl::from_secs(86_400)))],
        member_fault in any::<bool>(),
    ) {
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.01), seed);
        let trace = scenario.generate_day(0);
        let mut plan = FaultPlan::default()
            .with_seed(fault_seed)
            .with_packet_loss(loss)
            .with_outage(
                OutageScope::All,
                timeout,
                Timestamp::from_secs(outage_start_h * 3_600),
                Timestamp::from_secs((outage_start_h + outage_len_h) * 3_600),
            );
        if member_fault {
            plan = plan.with_member_outage(
                0,
                Timestamp::from_secs(2 * 3_600),
                Timestamp::from_secs(10 * 3_600),
            );
        }
        let mut config = SimConfig { members: 2, ..SimConfig::default() };
        if let Some(w) = stale {
            config = config.with_serve_stale(w);
        }
        let mut sim = ResolverSim::new(config);
        let report = sim.day(&trace).ground_truth(scenario.ground_truth()).faults(&plan).run();

        let r = &report.resilience;
        let sum_queries: u64 = report.rr_stats.iter().map(|(_, s)| u64::from(s.queries)).sum();
        let sum_misses: u64 = report.rr_stats.iter().map(|(_, s)| u64::from(s.misses)).sum();
        prop_assert_eq!(sum_queries, report.below_total() - report.nx_below() - r.servfails_below);
        prop_assert_eq!(sum_misses, report.above_total() - report.nx_above() - r.failed_attempts);

        let events = trace.events.len() as u64;
        let tallied = r.disposable.answered + r.disposable.failed
            + r.nondisposable.answered + r.nondisposable.failed;
        prop_assert_eq!(tallied, events, "every event lands in one availability bucket");
        prop_assert_eq!(r.disposable.failed + r.nondisposable.failed, r.servfails_below);
        prop_assert!(r.timeouts + r.upstream_servfails == r.failed_attempts);
    }

    /// Driver equality under arbitrary cluster shapes: an `EventSession`
    /// pushed event by event yields the report of `DayRun::run()` for any
    /// member count, capacity and strategy, under a fault plan with an
    /// optional member crash — and that report satisfies every
    /// conservation invariant above.
    #[test]
    fn session_equals_day_run_and_conserves_accounting(
        config in arb_config(),
        seed in 0u64..200,
        fault_seed in 0u64..1_000,
        loss in 0.0f64..0.4,
        member_fault in any::<bool>(),
    ) {
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.01), seed);
        let trace = scenario.generate_day(0);
        let mut plan = FaultPlan::default().with_seed(fault_seed).with_packet_loss(loss);
        // A member outage needs a survivor to fail over to: crashing the
        // only member of a 1-member cluster is a (documented) panic, not
        // a resilience scenario.
        if member_fault && config.members > 1 {
            plan = plan.with_member_outage(
                0,
                Timestamp::from_secs(4 * 3_600),
                Timestamp::from_secs(11 * 3_600),
            );
        }

        let mut reference = ResolverSim::new(config.clone());
        let expected =
            reference.day(&trace).ground_truth(scenario.ground_truth()).faults(&plan).run();
        let mut session =
            EventSession::begin(ResolverSim::new(config), trace.day, Some(&plan), None, None);
        for event in &trace.events {
            session.push(event, Some(scenario.ground_truth()), &mut ());
        }
        let (report, _) = session.finish();
        prop_assert_eq!(&report, &expected, "session replay must be bit-identical");

        let r = &report.resilience;
        let sum_queries: u64 = report.rr_stats.iter().map(|(_, s)| u64::from(s.queries)).sum();
        let sum_misses: u64 = report.rr_stats.iter().map(|(_, s)| u64::from(s.misses)).sum();
        prop_assert_eq!(sum_queries, report.below_total() - report.nx_below() - r.servfails_below);
        prop_assert_eq!(sum_misses, report.above_total() - report.nx_above() - r.failed_attempts);
        if !plan.is_empty() {
            let events = trace.events.len() as u64;
            let tallied = r.disposable.answered + r.disposable.failed
                + r.nondisposable.answered + r.nondisposable.failed;
            prop_assert_eq!(tallied, events);
        }
        prop_assert_eq!(r.timeouts + r.upstream_servfails, r.failed_attempts);
    }

    /// Query accounting under admission control: every offered query is
    /// either admitted or shed (`offered = admitted + dropped +
    /// rate_limited`), the shed split by ground truth covers the shed
    /// total, and every trace event still lands in exactly one
    /// availability bucket (`answered + failed + shed = events`) — for
    /// any flood intensity, queue depth and RRL setting.
    #[test]
    fn overload_accounting_is_conserved(
        seed in 0u64..100,
        attack_seed in 0u64..500,
        clients in 1u64..400,
        mult in 2u64..40,
        depth in 4u64..64,
        rrl in any::<bool>(),
    ) {
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.005), seed);
        let mut trace = scenario.generate_day(0);
        let spec = format!(
            "seed={attack_seed}; victim=flood-target.example; clients={clients}; \
             surge=21600,43200,{mult}"
        );
        let attack: AttackPlan = spec.parse().expect("generated attack spec");
        attack.inject(&mut trace);
        let events = trace.events.len() as u64;

        // Tiny simulated capacity: the 0.005-scale day idles around
        // 0.06 qps, so a unit service rate is what lets the larger surge
        // multipliers actually overrun the queue.
        let mut cfg =
            OverloadConfig::default().with_queue_depth(depth).with_service_rate(1);
        if rrl {
            cfg = cfg.with_rrl(1);
        }
        let mut sim = ResolverSim::new(SimConfig::default());
        let report = sim
            .day(&trace)
            .ground_truth(scenario.ground_truth())
            .overload(&cfg)
            .run();

        let o = &report.overload;
        prop_assert_eq!(o.offered, events, "every event is offered exactly once");
        prop_assert_eq!(o.admitted + o.dropped + o.rate_limited, o.offered);
        prop_assert_eq!(o.shed(), o.dropped + o.rate_limited);
        prop_assert_eq!(o.shed_attack + o.shed_legit, o.shed());
        prop_assert!(o.queue_peak <= depth, "backlog never exceeds the configured depth");

        let r = &report.resilience;
        let tallied = r.disposable.answered + r.disposable.failed + r.disposable.shed
            + r.nondisposable.answered + r.nondisposable.failed + r.nondisposable.shed;
        prop_assert_eq!(tallied, events, "every event lands in one availability bucket");
        prop_assert_eq!(r.disposable.shed + r.nondisposable.shed, o.shed());
        prop_assert_eq!(r.stale_serves, o.stale_under_pressure,
            "faultless run: every stale serve is an under-pressure serve");

        // Shed queries deliver nothing: the per-record table still holds
        // exactly the records delivered below and fetched above.
        let sum_queries: u64 = report.rr_stats.iter().map(|(_, s)| u64::from(s.queries)).sum();
        let sum_misses: u64 = report.rr_stats.iter().map(|(_, s)| u64::from(s.misses)).sum();
        prop_assert_eq!(sum_queries, report.below_total() - report.nx_below() - r.servfails_below);
        prop_assert_eq!(sum_misses, report.above_total() - report.nx_above() - r.failed_attempts);
    }

    /// Fault specs round-trip: parse → render → parse is the identity
    /// for any clause combination (scoped outages, member crash windows,
    /// retry overrides), mirroring the attack-spec property on the
    /// workload side.
    #[test]
    fn fault_specs_round_trip(
        seed in any::<u64>(),
        loss_milli in 0u64..1_000,
        outages in proptest::collection::vec(
            (0usize..3, 0u64..10_000, any::<bool>(), 0u64..80_000, 1u64..6_000),
            0..4,
        ),
        members in proptest::collection::vec((0u64..6, 0u64..80_000, 1u64..6_000), 0..3),
        retries in 0u64..8,
        budget in 100u64..20_000,
    ) {
        let loss = loss_milli as f64 / 1_000.0;
        let mut spec = format!("seed={seed}; loss={loss}; retries={retries}; budget={budget}");
        for &(scope_kind, name, servfail, start, len) in &outages {
            let scope = match scope_kind {
                0 => "all".to_string(),
                1 if name % 2 == 0 => "op:google".to_string(),
                1 => "op:akamai".to_string(),
                _ => format!("zone:zone{name}.example"),
            };
            let kind = if servfail { "servfail" } else { "timeout" };
            spec.push_str(&format!("; outage={scope},{kind},{start},{}", start + len));
        }
        for &(m, start, len) in &members {
            spec.push_str(&format!("; member={m},{start},{}", start + len));
        }

        let plan: FaultPlan = spec.parse().expect("generated spec parses");
        let rendered = plan.to_string();
        let back: FaultPlan = rendered.parse().expect("rendered spec parses");
        prop_assert_eq!(&back, &plan, "parse(render(p)) == p");
        prop_assert_eq!(back.to_string(), rendered, "render is stable");
    }

    /// Replaying the identical trace twice through one warm simulator
    /// strictly increases hits (the cache was seeded by the first pass).
    #[test]
    fn warm_cache_improves_second_pass(seed in 0u64..200) {
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.01), seed);
        let trace = scenario.generate_day(0);
        let mut sim = ResolverSim::new(SimConfig::default());
        let first = sim.day(&trace).run();
        let second = sim.day(&trace).run();
        prop_assert!(second.above_total() <= first.above_total(),
            "second {} vs first {}", second.above_total(), first.above_total());
    }
}
