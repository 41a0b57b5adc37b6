//! One ledger across the layers: a seeded day goes out as a capture
//! (pcap and dnstap, clean and burst-damaged), comes back through
//! `ingest_bytes`, streams into a store with a spill directory, and
//! is checked by `fsck`. At every boundary the identity the layer claims
//! must hold exactly: frames and bytes in ingest, events in the stream,
//! records in the store, bytes in the recovery scan.

use std::path::{Path, PathBuf};

use dnsnoise::core::{DailyPipeline, Miner, MinerConfig};
use dnsnoise::ingest::{
    corrupt, framestream, ingest_bytes, pcap, CaptureFormat, IngestConfig, IngestOutput,
};
use dnsnoise::pdns::{fsck, RunStore, StoreConfig};
use dnsnoise::stream::{StreamConfig, StreamMiner};
use dnsnoise::workload::{DayTrace, Scenario, ScenarioConfig};

const SCALE: f64 = 0.02;
const SEED: u64 = 7;
/// Share of capture bytes the damaged variants flip.
const DAMAGE: f64 = 0.01;
const DAMAGE_SEEDS: [u64; 2] = [3, 11];

fn scenario() -> Scenario {
    Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(SCALE), SEED)
}

fn trained_miner(s: &Scenario) -> Miner {
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let _ = pipeline.run_day(s, 0);
    pipeline.into_miner().expect("day 0 trains the model")
}

fn capture(trace: &DayTrace, format: CaptureFormat) -> Vec<u8> {
    match format {
        CaptureFormat::Pcap => pcap::write_pcap(trace),
        CaptureFormat::Dnstap => framestream::write_dnstap(trace),
    }
    .expect("a generated day is expressible in both formats")
}

fn store_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dnsnoise-conservation-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Checks the ingest ledger's own identities on one capture.
fn assert_ingest_conserves(out: &IngestOutput, what: &str) {
    let report = &out.report;
    assert!(report.conserves(), "{what}: {report}");
    assert_eq!(
        report.frames_scanned,
        report.events + report.quarantined_frames(),
        "{what}: {report}"
    );
    assert_eq!(report.events, out.trace.events.len() as u64, "{what}: {report}");
}

/// Streams `trace` into a store spilling under `dir`, then checks the
/// stream's, the reopened store's and `fsck`'s identities against it.
fn assert_stream_and_store_conserve(miner: &Miner, trace: &DayTrace, dir: &Path, what: &str) {
    let mut stream = StreamMiner::new(StreamConfig::default(), miner)
        .with_store(RunStore::with_config(StoreConfig::default().with_spill(dir)));
    for event in &trace.events {
        stream.push(event);
    }
    let (report, _) = stream.finish();
    assert_eq!(report.rpdns_store_error, None, "{what}");
    assert_eq!(report.events_pushed, trace.events.len() as u64, "{what}");
    assert!(report.conserves(), "{what}: {}", report.conservation_line());

    // Every answer record is booked once in the day's table, and the
    // store observes each table row once, at its first sighting.
    let table = &report.day_report.rr_stats;
    let booked: u64 = table.iter().map(|(_, stat)| u64::from(stat.queries)).sum();
    assert_eq!(booked, report.pdns.total_records, "{what}");
    let store = RunStore::open(dir, StoreConfig::default()).expect("the store reopens");
    assert_eq!(store.observed(), table.len() as u64, "{what}");
    assert_eq!(store.len() as u64, report.rpdns_store.records, "{what}");
    assert_eq!(store.len(), table.len(), "{what}");
    let reopened = store.recovery().expect("open records its scan");
    assert!(reopened.is_clean(), "{what}:\n{}", reopened.render());
    drop(store);

    let check = fsck(dir, false).expect("fsck runs");
    assert!(check.is_clean() && check.runs_live > 0, "{what}:\n{}", check.render());
    assert!(check.conserves(), "{what}: {}", check.conservation_line());
    assert_eq!(check.bytes_scanned, check.bytes_live, "{what}:\n{}", check.render());
}

#[test]
fn every_layer_accounts_for_every_event_record_and_byte() {
    let s = scenario();
    let miner = trained_miner(&s);
    let generated = s.generate_day(1);
    for format in [CaptureFormat::Pcap, CaptureFormat::Dnstap] {
        let clean = capture(&generated, format);
        let mut captures = vec![("clean".to_string(), clean.clone())];
        for seed in DAMAGE_SEEDS {
            let mut damaged = clean.clone();
            corrupt::flip_bursts(&mut damaged, DAMAGE, seed);
            captures.push((format!("damaged-{seed}"), damaged));
        }
        for (variant, bytes) in captures {
            let what = format!("{format} {variant}");
            let out = ingest_bytes(&bytes, &IngestConfig::default()).expect("within budget");
            assert_ingest_conserves(&out, &what);
            if variant == "clean" {
                assert_eq!(
                    out.report.events,
                    generated.events.len() as u64,
                    "{what}: {}",
                    out.report
                );
                assert_eq!(out.report.quarantined_frames(), 0, "{what}: {}", out.report);
            } else {
                assert!(out.report.quarantined_frames() > 0, "{what}: {}", out.report);
            }
            let dir = store_dir(&format!("{format}-{variant}"));
            assert_stream_and_store_conserve(&miner, &out.trace, &dir, &what);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
