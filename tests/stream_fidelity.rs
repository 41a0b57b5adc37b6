//! Batch-vs-stream fidelity harness: the same seeded day replayed
//! through the batch pipeline and the streaming miner.
//!
//! The streaming miner reads the replay session's own `RrDayStats` — the
//! table the batch path mines — so at every epoch close and at end of
//! day the streamed findings and the evaluated TPR/FPR must equal batch
//! *bit for bit* — there is no tolerance band. So must its distinct
//! client and name counts: they are exact, not estimated.

use std::collections::BTreeSet;

use dnsnoise::core::{DailyPipeline, DomainTree, Finding, Miner, MinerConfig, MiningReport};
use dnsnoise::dns::{Record, SuffixList};
use dnsnoise::resolver::{Observer, ResolverSim, Served, SimConfig};
use dnsnoise::stream::{StreamConfig, StreamMiner, StreamReport};
use dnsnoise::workload::{AttackPlan, DayTrace, QueryEvent, Scenario, ScenarioConfig};

fn scenario(scale: f64, seed: u64) -> Scenario {
    Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(scale), seed)
}

/// Trains on day 0 with the batch pipeline, then hands the model over —
/// the train-once-offline, deploy-streaming flow.
fn trained_miner(s: &Scenario) -> Miner {
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let _ = pipeline.run_day(s, 0);
    pipeline.into_miner().expect("day 0 trains the model")
}

/// The clients of every response that was neither shed nor failed: the
/// population the streaming miner counts as distinct clients.
#[derive(Default)]
struct Clients(BTreeSet<u64>);

impl Observer for Clients {
    fn observe(&mut self, event: &QueryEvent, served: Served, _answers: &[Record]) {
        if !served.is_shed() && !served.is_failure() {
            self.0.insert(event.client);
        }
    }
}

/// Batch reference for one trace on a fresh cluster: replay, build the
/// exact tree, mine, evaluate against ground truth. Also returns the
/// replay's distinct clients.
fn batch_reference(s: &Scenario, miner: &Miner, trace: &DayTrace) -> (MiningReport, u64) {
    let mut sim = ResolverSim::new(SimConfig::default());
    let mut clients = Clients::default();
    let report = sim.day(trace).ground_truth(s.ground_truth()).observer(&mut clients).run();
    let mut tree = DomainTree::from_day_stats(&report.rr_stats);
    let found = miner.mine(&mut tree, &SuffixList::builtin());
    let eval_tree = DomainTree::from_day_stats(&report.rr_stats);
    let mining = MiningReport::evaluate(
        trace.day,
        found,
        &eval_tree,
        s.ground_truth(),
        &SuffixList::builtin(),
        MinerConfig::default().min_group_size,
    );
    (mining, clients.0.len() as u64)
}

fn stream_report(s: &Scenario, miner: &Miner, trace: &DayTrace) -> StreamReport {
    let mut stream =
        StreamMiner::new(StreamConfig::default(), miner).ground_truth(s.ground_truth());
    for event in &trace.events {
        stream.push(event);
    }
    let (report, _) = stream.finish();
    assert!(report.conserves(), "{}", report.conservation_line());
    report
}

/// Every mid-day close of `report` against batch mining of the same
/// event prefix on a fresh cluster, and the state-size bookkeeping: the
/// per-record table plus 8 bytes per distinct client.
fn assert_mid_day_closes_equal_batch(miner: &Miner, trace: &DayTrace, report: &StreamReport) {
    assert!(report.epochs.len() >= 2, "the fixture must close epochs mid-day");
    for e in &report.epochs {
        let mut prefix = trace.clone();
        prefix.events.truncate(e.events as usize);
        let mut clients = Clients::default();
        let batch =
            ResolverSim::new(SimConfig::default()).day(&prefix).observer(&mut clients).run();
        let mut tree = DomainTree::from_day_stats(&batch.rr_stats);
        let found = miner.mine(&mut tree, &SuffixList::builtin());
        assert_eq!(sorted(e.findings.clone()), sorted(found), "epoch {}", e.epoch);

        let owners: BTreeSet<_> = batch.rr_stats.iter().map(|(key, _)| &key.name).collect();
        assert_eq!(e.distinct_names, owners.len() as u64, "epoch {}", e.epoch);
        assert_eq!(e.distinct_clients, clients.0.len() as u64, "epoch {}", e.epoch);
        let state = batch.rr_stats.state_bytes() + 8 * clients.0.len();
        assert_eq!(e.state_bytes, state, "epoch {}", e.epoch);
        assert!(e.state_bytes <= report.peak_state_bytes, "epoch {}", e.epoch);
    }
    // The table and the set only grow within a day, so the peak is the
    // final state.
    let clients = report.distinct_clients as usize;
    assert_eq!(report.peak_state_bytes, report.day_report.rr_stats.state_bytes() + 8 * clients);
}

fn sorted(mut findings: Vec<Finding>) -> Vec<Finding> {
    findings.sort_by(|a, b| a.zone.cmp(&b.zone).then(a.depth.cmp(&b.depth)));
    findings
}

/// The random-subdomain flood `DailyPipeline`'s flooded-day test injects:
/// one-time-use names under two victim zones, six times the day's load.
const FLOOD: &str =
    "seed=4; victim=flood-a.example; victim=flood-b.example; labellen=16; surge=0,86400,6";

/// Default configuration, a day the model never trained on: findings,
/// evaluation and distinct clients agree with batch bit for bit, across
/// seeds at the smoke
/// scale, on a scale-0.2 day four times larger (where the count-min
/// sketches this miner once used found 21 of batch's 22 zones), and on a
/// flooded day without admission control. On the first input every
/// mid-day close is compared with batch mining of its event prefix too.
#[test]
fn stream_agrees_with_batch_exactly() {
    for (i, (scale, seed, attack)) in [
        (0.05, 21, None),
        (0.05, 87, None),
        (0.05, 1009, None),
        (0.2, 3, None),
        (0.05, 21, Some(FLOOD)),
    ]
    .into_iter()
    .enumerate()
    {
        let s = scenario(scale, seed);
        let miner = trained_miner(&s);
        let mut trace = s.generate_day(1);
        if let Some(spec) = attack {
            let clean = trace.events.len();
            spec.parse::<AttackPlan>().expect("static attack spec").inject(&mut trace);
            assert!(trace.events.len() > 5 * clean, "seed {seed}: the flood is missing");
        }
        let (batch, clients) = batch_reference(&s, &miner, &trace);
        // The fixture must be non-vacuous: disposable zones exist and the
        // batch miner actually finds things.
        assert!(batch.eligible_disposable > 0, "seed {seed}: no eligible zones");
        assert!(!batch.found.is_empty(), "seed {seed}: batch found nothing");

        let report = stream_report(&s, &miner, &trace);
        assert_eq!(report.distinct_clients, clients, "seed {seed}: distinct clients");
        if i == 0 {
            assert_mid_day_closes_equal_batch(&miner, &trace, &report);
        }
        let streamed = report.mining.expect("ground truth was attached");

        assert_eq!(
            sorted(streamed.found.clone()),
            sorted(batch.found.clone()),
            "seed {seed}: findings diverge"
        );
        assert_eq!(streamed.detected_disposable, batch.detected_disposable, "seed {seed}");
        assert_eq!(streamed.eligible_disposable, batch.eligible_disposable, "seed {seed}");
        assert_eq!(streamed.false_disposable, batch.false_disposable, "seed {seed}");
        assert_eq!(streamed.unmatched_findings, batch.unmatched_findings, "seed {seed}");
        assert!((streamed.tpr() - batch.tpr()).abs() == 0.0, "seed {seed}");
        assert!((streamed.fpr() - batch.fpr()).abs() == 0.0, "seed {seed}");
    }
}
