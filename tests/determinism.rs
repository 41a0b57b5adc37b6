//! Determinism matrix for the sharded engine: for every thread count,
//! every load-balance strategy, several seeds, with and without a
//! non-trivial fault plan, the sharded day replay must produce a
//! `DayReport` bit-identical to the single-threaded reference — and a
//! sharded passive-DNS collector must reproduce the single-threaded
//! collection counts.

use dnsnoise::cache::LoadBalance;
use dnsnoise::core::{DailyPipeline, Miner, MinerConfig};
use dnsnoise::dns::Record;
use dnsnoise::ingest::{framestream, ingest_bytes, IngestConfig};
use dnsnoise::pdns::FpDnsLog;
use dnsnoise::resolver::{
    FaultPlan, MetricsRegistry, Observer, OverloadConfig, ResolverSim, Served, ShardObserver,
    SimConfig,
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

#[test]
fn thread_matrix_is_bit_identical() {
    for seed in [11, 3021] {
        let s = scenario(seed);
        let trace = s.generate_day(0);
        for plan in [FaultPlan::default(), eventful_plan()] {
            let mut reference = ResolverSim::new(SimConfig::default());
            let expected = reference.day(&trace).ground_truth(s.ground_truth()).faults(&plan).run();
            for threads in [1, 2, 4, 8] {
                let mut sim = ResolverSim::new(SimConfig::default());
                let got = sim
                    .day(&trace)
                    .ground_truth(s.ground_truth())
                    .faults(&plan)
                    .threads(threads)
                    .run();
                assert_eq!(
                    got,
                    expected,
                    "seed {seed}, threads {threads}, faults={}",
                    !plan.is_empty()
                );
            }
        }
    }
}

#[test]
fn overloaded_attack_replay_is_bit_identical_across_threads() {
    // A random-subdomain flood with admission control active: the shed
    // outcomes, overload counters, and exported metrics must all stay
    // bit-identical across thread counts, exactly like the fault matrix.
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

    for threads in [2, 4, 8] {
        let mut sim = ResolverSim::new(SimConfig::default());
        let mut metrics = MetricsRegistry::new();
        let got = sim
            .day(&trace)
            .ground_truth(s.ground_truth())
            .faults(&plan)
            .overload(&overload)
            .threads(threads)
            .metrics(&mut metrics)
            .run();
        assert_eq!(got, expected, "threads {threads}");
        assert_eq!(metrics.to_json(), reference_metrics.to_json(), "json, threads {threads}");
        assert_eq!(
            metrics.timeline_csv(),
            reference_metrics.timeline_csv(),
            "csv, threads {threads}"
        );
    }
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
        for threads in [2, 8] {
            let mut sim = ResolverSim::new(config.clone());
            let got =
                sim.day(&trace).ground_truth(s.ground_truth()).faults(&plan).threads(threads).run();
            assert_eq!(got, expected, "strategy {strategy:?}, threads {threads}");
        }
    }
}

#[test]
fn multi_day_carryover_is_bit_identical() {
    // Warm cache, rr cursor, and crash flags all carry across days; three
    // sharded days must replay exactly like three single-threaded ones.
    let s = scenario(40);
    let plan = eventful_plan();
    let config =
        SimConfig { load_balance: LoadBalance::RoundRobin, members: 5, ..SimConfig::default() };
    let mut reference = ResolverSim::new(config.clone());
    let mut sharded = ResolverSim::new(config);
    for day in 0..3 {
        let trace = s.generate_day(day);
        let expected = reference.day(&trace).ground_truth(s.ground_truth()).faults(&plan).run();
        let got = sharded.day(&trace).ground_truth(s.ground_truth()).faults(&plan).threads(4).run();
        assert_eq!(got, expected, "day {day}");
    }
}

/// A passive-DNS collector that shards by forking empty logs and
/// absorbing the per-shard counts.
struct Collector {
    log: FpDnsLog,
}

impl Observer for Collector {
    fn observe(&mut self, event: &QueryEvent, _served: Served, answers: &[Record]) {
        self.log.collect(event.time, event.client, &event.name, event.qtype, answers);
    }
}

impl ShardObserver for Collector {
    fn fork(&self) -> Self {
        Collector { log: FpDnsLog::new(200, false) }
    }

    fn absorb(&mut self, shard: Self) {
        self.log.merge(shard.log);
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
    let config = StreamConfig { epoch_secs, ..StreamConfig::default() };
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
fn sharded_pdns_collection_counts_match_single_thread() {
    let s = scenario(90);
    let trace = s.generate_day(0);

    let mut single = Collector { log: FpDnsLog::new(200, false) };
    let mut reference = ResolverSim::new(SimConfig::default());
    reference.day(&trace).ground_truth(s.ground_truth()).observer(&mut single).run();

    let mut merged = Collector { log: FpDnsLog::new(200, false) };
    let mut sim = ResolverSim::new(SimConfig::default());
    sim.day(&trace).ground_truth(s.ground_truth()).observer(&mut merged).threads(4).run();

    assert_eq!(merged.log.total_responses(), single.log.total_responses());
    assert_eq!(merged.log.total_records(), single.log.total_records());
    assert_eq!(merged.log.nx_responses(), single.log.nx_responses());
    assert_eq!(merged.log.storage_bytes(), single.log.storage_bytes());
    assert_eq!(merged.log.retained().len(), single.log.retained().len());
}
