//! Determinism matrix for the replay's two drivers: for every
//! load-balance strategy, several seeds, with and without a non-trivial
//! fault plan, under attack with admission control, and across days, an
//! `EventSession` pushed event by event must produce the `DayReport`,
//! the metric exports and the collector counts of `DayRun::run()` on a
//! fresh simulator — plus the streaming matrix, and the one test that
//! pins the benchmark's thread shims as inert.

use dnsnoise::cache::LoadBalance;
use dnsnoise::core::{DailyPipeline, Miner, MinerConfig};
use dnsnoise::dns::Record;
use dnsnoise::ingest::{framestream, ingest_bytes, pcap, IngestConfig};
use dnsnoise::pdns::FpDnsSummary;
use dnsnoise::resolver::{
    DayReport, EventSession, FaultPlan, MetricsRegistry, Observer, OverloadConfig, ResolverSim,
    Served, SimConfig,
};
use dnsnoise::stream::{StreamConfig, StreamMiner};
use dnsnoise::workload::{AttackPlan, DayTrace, QueryEvent, Scenario, ScenarioConfig};

fn scenario(seed: u64) -> Scenario {
    Scenario::new(ScenarioConfig::paper_epoch(0.6).with_scale(0.015), seed)
}

fn eventful_plan() -> FaultPlan {
    "seed=5; loss=0.2; outage=all,servfail,10800,18000; member=0,28800,50400; member=2,3600,7200"
        .parse()
        .expect("static fault spec")
}

/// Replays `trace` through an [`EventSession`] over `sim`, one push per
/// event, and returns the report with the simulator for the next day.
fn session_day(
    sim: ResolverSim,
    trace: &DayTrace,
    s: &Scenario,
    plan: &FaultPlan,
) -> (DayReport, ResolverSim) {
    let mut session = EventSession::begin(sim, trace.day, Some(plan), None, None);
    for event in &trace.events {
        session.push(event, Some(s.ground_truth()), &mut ());
    }
    session.finish()
}

/// The benchmark's two sharded-equals-serial gates, on the shims it
/// compiles against: `DayRun::threads` and `IngestConfig::threads` are
/// ignored and `DayRun::run_serial` is `run`, so every "thread count"
/// yields the one serial output. Goes with the shims.
#[test]
fn thread_matrix_is_bit_identical() {
    let s = scenario(11);
    let trace = s.generate_day(0);
    let plan = eventful_plan();
    let sim = || ResolverSim::new(SimConfig::default());
    let expected = sim().day(&trace).ground_truth(s.ground_truth()).faults(&plan).run();
    assert!(expected.resilience.failed_attempts > 0, "the plan must bite");
    for threads in [1, 2, 4, 8] {
        let got =
            sim().day(&trace).ground_truth(s.ground_truth()).faults(&plan).threads(threads).run();
        assert_eq!(got, expected, "threads {threads}");
    }
    let got = sim().day(&trace).ground_truth(s.ground_truth()).faults(&plan).run_serial();
    assert_eq!(got, expected, "run_serial");

    let capture = pcap::write_pcap(&trace).expect("serialize capture");
    let ingest = |threads| {
        ingest_bytes(&capture, &IngestConfig { threads, ..IngestConfig::default() })
            .expect("clean capture")
    };
    let (one, seven) = (ingest(1), ingest(7));
    assert_eq!(seven.trace.events, one.trace.events);
    assert_eq!(seven.report, one.report);
    assert_eq!(one.report.events, trace.events.len() as u64);
}

#[test]
fn driver_matrix_holds_across_seeds_and_fault_plans() {
    for seed in [11, 3021] {
        let s = scenario(seed);
        let trace = s.generate_day(0);
        for plan in [FaultPlan::default(), eventful_plan()] {
            let mut reference = ResolverSim::new(SimConfig::default());
            let expected = reference.day(&trace).ground_truth(s.ground_truth()).faults(&plan).run();
            let (got, _) = session_day(ResolverSim::new(SimConfig::default()), &trace, &s, &plan);
            assert_eq!(got, expected, "seed {seed}, faults={}", !plan.is_empty());
        }
    }
}

#[test]
fn overloaded_attack_replay_is_bit_identical_across_drivers() {
    // A random-subdomain flood with admission control active: the shed
    // outcomes, overload counters, and exported metrics of a session
    // must equal the day run's, exactly like the fault matrix.
    let s = scenario(55);
    let mut trace = s.generate_day(0);
    let attack: AttackPlan = "seed=9; victim=victim-zone.example; victim=burst.test; \
         clients=300; labellen=14; entropy=base32; surge=21600,28800,20; surge=64800,68400,35"
        .parse()
        .expect("static attack spec");
    attack.inject(&mut trace);
    // The synthetic day is sparse (~0.2 qps baseline), so the simulated
    // capacity must be tiny for the surges to saturate it.
    let overload = OverloadConfig::default().with_queue_depth(48).with_service_rate(2).with_rrl(2);
    let plan = eventful_plan();

    let mut reference = ResolverSim::new(SimConfig::default());
    let mut reference_metrics = MetricsRegistry::new();
    let expected = reference
        .day(&trace)
        .ground_truth(s.ground_truth())
        .faults(&plan)
        .overload(&overload)
        .metrics(&mut reference_metrics)
        .run();
    assert!(expected.overload.shed() > 0, "flood must trigger shedding");
    assert!(expected.overload.shed_attack > 0, "attack traffic must be shed");

    let mut session = EventSession::begin(
        ResolverSim::new(SimConfig::default()),
        trace.day,
        Some(&plan),
        Some(&overload),
        Some(MetricsRegistry::new()),
    );
    for event in &trace.events {
        session.push(event, Some(s.ground_truth()), &mut ());
    }
    let (got, _, metrics) = session.finish_with_metrics();
    let metrics = metrics.expect("the session was given a registry");
    assert_eq!(got, expected);
    assert_eq!(metrics.to_json(), reference_metrics.to_json());
    assert_eq!(metrics.timeline_csv(), reference_metrics.timeline_csv());
}

#[test]
fn matrix_holds_for_every_load_balance_strategy() {
    let s = scenario(77);
    let trace = s.generate_day(0);
    let plan = eventful_plan();
    for strategy in [LoadBalance::HashClient, LoadBalance::RoundRobin, LoadBalance::HashName] {
        let config = SimConfig { load_balance: strategy, ..SimConfig::default() };
        let mut reference = ResolverSim::new(config.clone());
        let expected = reference.day(&trace).ground_truth(s.ground_truth()).faults(&plan).run();
        assert!(expected.resilience.failed_attempts > 0, "strategy {strategy:?}");
        let (got, _) = session_day(ResolverSim::new(config), &trace, &s, &plan);
        assert_eq!(got, expected, "strategy {strategy:?}");
    }
}

#[test]
fn multi_day_carryover_is_bit_identical() {
    // Warm cache, rr cursor, and crash flags all carry across days (member
    // 0's window ends past the last event of a day, so each next day opens
    // with it down); three session days must replay exactly like three day
    // runs, and leave the cluster a fourth day run cannot tell apart.
    let s = scenario(40);
    let plan: FaultPlan =
        "seed=5; loss=0.2; member=0,72000,90000; member=2,3600,7200".parse().expect("static spec");
    let config =
        SimConfig { load_balance: LoadBalance::RoundRobin, members: 5, ..SimConfig::default() };
    let mut reference = ResolverSim::new(config.clone());
    let mut streamed = ResolverSim::new(config);
    for day in 0..3 {
        let trace = s.generate_day(day);
        let expected = reference.day(&trace).ground_truth(s.ground_truth()).faults(&plan).run();
        let (got, sim) = session_day(streamed, &trace, &s, &plan);
        streamed = sim;
        assert_eq!(got, expected, "day {day}");
        assert_eq!(streamed.cluster().any_member_down(), reference.cluster().any_member_down());
    }
    let trace = s.generate_day(3);
    let run = |sim: &mut ResolverSim| sim.day(&trace).ground_truth(s.ground_truth()).run();
    assert_eq!(run(&mut streamed), run(&mut reference), "day 3 over the carried state");
}

/// A passive-DNS collector counting the full-fidelity dataset.
struct Collector {
    fpdns: FpDnsSummary,
}

impl Observer for Collector {
    fn observe(&mut self, _event: &QueryEvent, _served: Served, answers: &[Record]) {
        self.fpdns.collect(answers);
    }
}

fn stream_scenario(seed: u64) -> Scenario {
    Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.02), seed)
}

fn stream_trained_miner(s: &Scenario) -> Miner {
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let _ = pipeline.run_day(s, 0);
    pipeline.into_miner().expect("day 0 trains the model")
}

fn stream_render(trace: &DayTrace, miner: &Miner, epoch_secs: u64) -> String {
    let config = StreamConfig { epoch_secs };
    let mut stream = StreamMiner::new(config, miner);
    for event in &trace.events {
        stream.push(event);
    }
    stream.finish().0.render()
}

/// The streaming matrix: for every epoch size and seed, feeding the
/// miner from the generated trace and from a dnstap capture pushed
/// through the ingester must render byte-identical reports — and so
/// must a repeat of either run.
#[test]
fn streaming_matrix_is_byte_identical_across_sources_and_runs() {
    for seed in [11, 3021] {
        let s = stream_scenario(seed);
        let miner = stream_trained_miner(&s);
        let trace = s.generate_day(1);

        // The piped path: serialize the day as a dnstap capture and
        // recover the events through the fault-tolerant ingester, as
        // `dnsnoise ingest | dnsnoise stream` does.
        let capture = framestream::write_dnstap(&trace).expect("serialize capture");
        let ingested = ingest_bytes(&capture, &IngestConfig::default()).expect("clean capture");
        assert!(ingested.report.conserves(), "{}", ingested.report);

        for epoch_secs in [3_600, 21_600, 86_400] {
            let direct = stream_render(&trace, &miner, epoch_secs);
            let piped = stream_render(&ingested.trace, &miner, epoch_secs);
            assert_eq!(direct, piped, "seed {seed}, epoch {epoch_secs}: sources diverge");
            let again = stream_render(&trace, &miner, epoch_secs);
            assert_eq!(direct, again, "seed {seed}, epoch {epoch_secs}: repeat run diverges");
        }
    }
}

/// A forced mid-stream epoch close followed by resumed pushing must
/// leave the end-of-day answer untouched: same findings, same day
/// report, same conservation line — only one extra epoch snapshot.
#[test]
fn mid_stream_epoch_close_and_resume_equals_uninterrupted_run() {
    let s = stream_scenario(11);
    let miner = stream_trained_miner(&s);
    let trace = s.generate_day(1);

    let run = |close_at: Option<usize>| {
        let mut stream =
            StreamMiner::new(StreamConfig::default(), &miner).ground_truth(s.ground_truth());
        for (i, event) in trace.events.iter().enumerate() {
            if close_at == Some(i) {
                stream.close_epoch_now();
            }
            stream.push(event);
        }
        stream.finish().0
    };

    let uninterrupted = run(None);
    for fraction in [4, 2] {
        let resumed = run(Some(trace.events.len() / fraction));
        assert_eq!(resumed.final_findings, uninterrupted.final_findings, "1/{fraction}");
        assert_eq!(resumed.day_report, uninterrupted.day_report, "1/{fraction}");
        assert_eq!(resumed.mining, uninterrupted.mining, "1/{fraction}");
        assert_eq!(resumed.pdns, uninterrupted.pdns, "1/{fraction}");
        assert_eq!(resumed.conservation_line(), uninterrupted.conservation_line(), "1/{fraction}");
        assert_eq!(resumed.epochs.len(), uninterrupted.epochs.len() + 1, "1/{fraction}");
    }
}

#[test]
fn session_pdns_collection_counts_match_day_run() {
    let s = scenario(90);
    let trace = s.generate_day(0);

    let mut batch = Collector { fpdns: FpDnsSummary::default() };
    let mut reference = ResolverSim::new(SimConfig::default());
    reference.day(&trace).ground_truth(s.ground_truth()).observer(&mut batch).run();

    // A `dyn` observer, which the one `run()` and `push` both take.
    let mut streamed = Collector { fpdns: FpDnsSummary::default() };
    let observer: &mut dyn Observer = &mut streamed;
    let mut session = EventSession::new(ResolverSim::new(SimConfig::default()), trace.day);
    for event in &trace.events {
        session.push(event, Some(s.ground_truth()), observer);
    }
    session.finish();

    assert!(batch.fpdns.total_records > 0 && batch.fpdns.nx_responses > 0);
    assert_eq!(streamed.fpdns, batch.fpdns);

    // The stream folds the same four counters in place: over a day with
    // no SERVFAIL or shed query they are the collector's own totals.
    let miner = stream_trained_miner(&s);
    let mut stream =
        StreamMiner::new(StreamConfig::default(), &miner).ground_truth(s.ground_truth());
    for event in &trace.events {
        stream.push(event);
    }
    let report = stream.finish().0;
    assert_eq!((report.events_failed, report.events_shed), (0, 0));
    assert_eq!(report.pdns, batch.fpdns);
}
