//! Golden-snapshot regression harness for the streaming miner: a fixed
//! seed's day 0, trained on with the batch pipeline and then replayed
//! through the streaming miner, must render to exactly the committed
//! snapshot.
//!
//! The snapshot pins the full `StreamReport::render()` text — every
//! epoch close, exact distinct-client and distinct-name count, state
//! size, finding line, pDNS counter, and the conservation line — so any
//! drift in the per-record table, the client set, the epoch schedule, or
//! the event accounting shows up as a line diff. To
//! intentionally rebless after a semantic change:
//! `UPDATE_GOLDEN=1 cargo test --test golden_stream`. The snapshot's
//! final findings are also checked against the batch miner's, so a
//! rebless cannot pin a wrong answer.

use dnsnoise::core::{DailyPipeline, DomainTree, Miner, MinerConfig};
use dnsnoise::dns::SuffixList;
use dnsnoise::resolver::{ResolverSim, SimConfig};
use dnsnoise::stream::{StreamConfig, StreamMiner};
use dnsnoise::workload::{Scenario, ScenarioConfig};

const SNAPSHOT_PATH: &str = "tests/golden/stream_day0.snapshot";

fn scenario() -> Scenario {
    Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.02), 20140622)
}

fn trained_miner(s: &Scenario) -> Miner {
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let _ = pipeline.run_day(s, 0);
    pipeline.into_miner().expect("day 0 trains the model")
}

fn rendered() -> String {
    let s = scenario();
    let miner = trained_miner(&s);

    let trace = s.generate_day(0);
    let mut stream =
        StreamMiner::new(StreamConfig::default(), &miner).ground_truth(s.ground_truth());
    for event in &trace.events {
        stream.push(event);
    }
    let (report, _) = stream.finish();
    assert!(report.conserves(), "{}", report.conservation_line());
    report.render()
}

#[test]
fn stream_report_matches_committed_snapshot() {
    let text = rendered();
    // Sanity: the fixture must exercise the interesting machinery.
    assert!(text.contains("-- epoch"), "fixture must close at least one epoch");
    assert!(text.contains("(conserved)"), "fixture must conserve");

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(SNAPSHOT_PATH, &text).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(SNAPSHOT_PATH)
        .expect("snapshot missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, expected,
        "stream report drifted from the golden snapshot; if the change is \
         intentional, rebless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn repeat_run_matches_the_same_snapshot() {
    assert_eq!(rendered(), rendered());
}

/// The committed snapshot's end-of-day `finding = ` lines are exactly
/// what the batch miner finds on the same trace with the same model.
#[test]
fn snapshot_final_findings_equal_the_batch_miners() {
    let s = scenario();
    let miner = trained_miner(&s);
    let day = ResolverSim::new(SimConfig::default()).day(&s.generate_day(0)).run();
    let mut tree = DomainTree::from_day_stats(&day.rr_stats);
    let mut batch: Vec<String> = miner
        .mine(&mut tree, &SuffixList::builtin())
        .iter()
        .map(|f| {
            format!(
                "finding = {} depth={} confidence={:.6} members={}",
                f.zone, f.depth, f.confidence, f.members
            )
        })
        .collect();
    batch.sort();
    assert!(!batch.is_empty(), "fixture must find something");

    let snapshot = std::fs::read_to_string(SNAPSHOT_PATH).expect("snapshot is committed");
    let (_, final_section) = snapshot.split_once("-- final --\n").expect("final section");
    let mut pinned: Vec<&str> =
        final_section.lines().filter(|l| l.starts_with("finding = ")).collect();
    pinned.sort_unstable();
    assert_eq!(pinned, batch);
}
