//! Kill/resume fidelity: a stream killed mid-day and resumed from its
//! last checkpoint (an epoch boundary, or the day start) must produce a
//! report byte-identical to an uninterrupted run — same render, same
//! findings, same day report — with or without a store directory. A store
//! directory is reopened, not rebuilt: wherever its last `MANIFEST` stands
//! against the checkpoint, the resumed directory ends byte-identical to
//! the one an uninterrupted durable run leaves.

use std::path::{Path, PathBuf};

use dnsnoise_core::{DailyPipeline, Miner, MinerConfig};
use dnsnoise_dns::STAMP_NEIGHBORS;
use dnsnoise_pdns::{fsck, RunStore, StoreConfig};
use dnsnoise_stream::{Checkpoint, StreamConfig, StreamMiner, StreamReport};
use dnsnoise_workload::{QueryEvent, Scenario, ScenarioConfig};

fn scenario(seed: u64) -> Scenario {
    Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.05), seed)
}

fn trained_miner(scenario: &Scenario) -> Miner {
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let _ = pipeline.run_day(scenario, 0);
    pipeline.into_miner().expect("day 0 trains the model")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dnsnoise-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Four two-hour epochs fit in the seeded trace's busy window, so the
/// kill point lies past several checkpoint writes.
fn config() -> StreamConfig {
    StreamConfig { epoch_secs: 7200 }
}

/// A run store small enough to flush many times a day, so kill points can
/// fall on either side of a `MANIFEST` publish; it spills under `dir`,
/// if given.
fn store(dir: Option<&Path>) -> RunStore {
    let spill = dir.map(Path::to_path_buf);
    RunStore::with_config(StoreConfig { memtable_cap: 256, spill, ..StoreConfig::default() })
}

/// `MANIFEST` and every `run-*.bin`, by name: what a durable store is.
/// `quarantine.log` is left out — a resume that collected orphans appends
/// to it.
fn store_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store directory exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_string_lossy().into_owned();
            let durable =
                name == "MANIFEST" || (name.starts_with("run-") && name.ends_with(".bin"));
            durable.then(|| (name, std::fs::read(&path).expect("readable store file")))
        })
        .collect();
    files.sort();
    files
}

/// The checkpoint positions of a stream over `events`: the day start,
/// then every epoch boundary, as the number of events replayed before it.
fn boundaries(events: &[QueryEvent]) -> Vec<usize> {
    let epoch = |e: &QueryEvent| e.time.second_of_day() / config().epoch_secs;
    let mut at = vec![0];
    at.extend((1..events.len()).filter(|&i| epoch(&events[i]) > epoch(&events[i - 1])));
    at
}

/// Events pushed by the time the checkpoint at `bound` is written: the
/// day start's at the first push; a boundary event's once its successors
/// are in, because the clock takes the median over them.
fn written_after(bound: usize) -> usize {
    if bound == 0 {
        1
    } else {
        bound + 1 + STAMP_NEIGHBORS
    }
}

/// The checkpoint a process killed after `kill_at` pushes leaves behind.
fn checkpointed(bounds: &[usize], kill_at: usize) -> usize {
    bounds.iter().rev().copied().find(|&b| written_after(b) <= kill_at).unwrap_or(0)
}

struct Reference {
    report: StreamReport,
    image: Vec<(String, Vec<u8>)>,
    /// Event counts after which the store published a new `MANIFEST`.
    publishes: Vec<usize>,
}

/// The uninterrupted durable run, watching when its store publishes.
fn reference(s: &Scenario, miner: &Miner, events: &[QueryEvent]) -> Reference {
    let dir = temp_dir("ckpt-reference");
    let mut stream = StreamMiner::new(config(), miner)
        .ground_truth(s.ground_truth())
        .with_store(store(Some(&dir)));
    let manifest = dir.join("MANIFEST");
    let (mut publishes, mut last) = (Vec::new(), None);
    for (i, event) in events.iter().enumerate() {
        stream.push(event);
        let now = std::fs::read(&manifest).ok();
        if now != last {
            publishes.push(i + 1);
            last = now;
        }
    }
    let (report, _) = stream.finish();
    let image = store_image(&dir);
    std::fs::remove_dir_all(&dir).ok();
    Reference { report, image, publishes }
}

#[test]
fn killed_and_resumed_stream_is_byte_identical_with_and_without_a_directory() {
    let s = scenario(21);
    let miner = trained_miner(&s);
    let trace = s.generate_day(1);
    let events = &trace.events[..];
    let expected = reference(&s, &miner, events);
    let (bounds, publishes) = (boundaries(events), &expected.publishes);
    assert!(bounds.len() > 2 && publishes.len() > 4, "{bounds:?} {publishes:?}");

    // Before any flush: the store directory holds no `MANIFEST` yet.
    let no_flush = publishes[0] - 1;
    // Behind: killed once a boundary's checkpoint is written, with no
    // publish since the boundary — the store's last `MANIFEST` predates
    // the checkpoint.
    let behind = bounds
        .iter()
        .map(|&b| (b, written_after(b)))
        .find(|&(b, k)| b > publishes[0] && !publishes.iter().any(|&p| p >= b && p <= k))
        .map(|(_, k)| k)
        .expect("a boundary after the first flush");
    // Ahead: a publish after a boundary's checkpoint is written, killed
    // one event past it, before the next checkpoint — the `MANIFEST`
    // outruns the checkpoint.
    let ahead = publishes
        .iter()
        .find(|&&p| {
            let b = checkpointed(&bounds, p + 1);
            b > 0 && written_after(b) <= p
        })
        .map(|&p| p + 1)
        .expect("a flush between two boundaries");

    for durable in [false, true] {
        for (case, kill_at) in [("no-flush", no_flush), ("behind", behind), ("ahead", ahead)] {
            let kind = if durable { "durable" } else { "memory" };
            let what = format!("{kind} {case} (kill at {kill_at})");
            let store_dir = temp_dir(&format!("ckpt-store-{kind}-{case}"));
            let ckpt_dir = temp_dir(&format!("ckpt-resume-{kind}-{case}"));
            let spill = durable.then_some(store_dir.as_path());

            // "Process one": checkpoints enabled, killed (dropped without
            // finish, exactly what abort() leaves behind).
            let mut victim = StreamMiner::new(config(), &miner)
                .ground_truth(s.ground_truth())
                .with_store(store(spill))
                .with_checkpoint(&ckpt_dir);
            for event in &events[..kill_at] {
                victim.push(event);
            }
            assert!(victim.checkpoint_error().is_none(), "{what}: checkpointing failed");
            drop(victim);

            // "Process two": load the checkpoint and hand `resume` the
            // whole trace; it pulls exactly the consumed prefix as
            // warm-up, and the rest is pushed from the same iterator.
            let ckpt = Checkpoint::load(&ckpt_dir)
                .expect("checkpoint readable")
                .expect("the first event writes a checkpoint");
            assert_eq!(ckpt.pushed as usize, checkpointed(&bounds, kill_at), "{what}");
            if durable {
                let flushed = publishes.iter().rev().find(|&&p| p <= kill_at).copied();
                match case {
                    "no-flush" => assert_eq!(flushed, None, "{what}"),
                    "behind" => assert!(flushed.unwrap() < ckpt.pushed as usize, "{what}"),
                    _ => assert!(flushed.unwrap() > ckpt.pushed as usize, "{what}"),
                }
            }
            let mut rest = events.iter();
            let mut resumed = StreamMiner::new(config(), &miner)
                .ground_truth(s.ground_truth())
                .with_store(store(spill))
                .with_checkpoint(&ckpt_dir)
                .resume(&ckpt, rest.by_ref())
                .expect("checkpoint matches the miner's configuration");
            assert_eq!(rest.len(), events.len() - ckpt.pushed as usize, "{what}");
            for event in rest {
                resumed.push(event);
            }
            assert!(resumed.checkpoint_error().is_none(), "{what}: checkpointing failed");
            let (report, _) = resumed.finish();

            let want = &expected.report;
            assert_eq!(report.render(), want.render(), "{what}: render diverged");
            assert_eq!(report.epochs, want.epochs, "{what}: epoch closes diverged");
            assert_eq!(report.distinct_clients, want.distinct_clients, "{what}: clients");
            assert_eq!(report.final_findings, want.final_findings, "{what}: findings");
            assert_eq!(report.day_report, want.day_report, "{what}: day report diverged");
            assert_eq!(report.rpdns_store.records, want.rpdns_store.records, "{what}: rpDNS");
            assert_eq!(report.rpdns_store_error, None, "{what}");

            // The reopened store converged on the uninterrupted run's
            // directory, file for file, and fsck finds it clean.
            if durable {
                assert!(store_image(&store_dir) == expected.image, "{what}: store diverged");
                let check = fsck(&store_dir, false).expect("fsck runs");
                assert!(check.is_clean(), "{what}: fsck found problems:\n{}", check.render());
            }

            std::fs::remove_dir_all(&store_dir).ok();
            std::fs::remove_dir_all(&ckpt_dir).ok();
        }
    }
}

#[test]
fn mid_epoch_forced_checkpoint_resumes_identically() {
    // checkpoint_now() mid-epoch must also restore exactly: the open
    // epoch is carried in the checkpoint and still closes at the next
    // boundary after resume.
    let s = scenario(33);
    let miner = trained_miner(&s);
    let trace = s.generate_day(0);
    let ckpt_dir = temp_dir("ckpt-midepoch");
    let cut = trace.events.len() / 3;

    let mut reference = StreamMiner::new(config(), &miner).ground_truth(s.ground_truth());
    for event in &trace.events {
        reference.push(event);
    }
    let (expected, _) = reference.finish();

    let mut victim = StreamMiner::new(config(), &miner)
        .ground_truth(s.ground_truth())
        .with_checkpoint(&ckpt_dir);
    for event in &trace.events[..cut] {
        victim.push(event);
    }
    victim.checkpoint_now();
    assert!(victim.checkpoint_error().is_none());
    drop(victim);

    let ckpt = Checkpoint::load(&ckpt_dir).unwrap().expect("forced checkpoint exists");
    assert_eq!(ckpt.pushed, cut as u64, "a forced checkpoint covers every pushed event");
    let mut resumed = StreamMiner::new(config(), &miner)
        .ground_truth(s.ground_truth())
        .resume(&ckpt, &trace.events[..cut])
        .unwrap();
    for event in &trace.events[cut..] {
        resumed.push(event);
    }
    let (report, _) = resumed.finish();
    assert_eq!(report.render(), expected.render());
    assert_eq!(report.final_findings, expected.final_findings);

    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// The checkpoint holds no store, so the store directory is the resuming
/// process's choice: a run without one resumes into one.
#[test]
fn a_memory_store_checkpoint_resumes_into_a_disk_store_with_identical_render() {
    let s = scenario(5);
    let miner = trained_miner(&s);
    let trace = s.generate_day(0);
    let (ckpt_dir, store_dir) = (temp_dir("ckpt-cross"), temp_dir("ckpt-cross-store"));

    let mut reference = StreamMiner::new(config(), &miner);
    for event in &trace.events {
        reference.push(event);
    }
    let (expected, _) = reference.finish();

    let mut victim = StreamMiner::new(config(), &miner).with_checkpoint(&ckpt_dir);
    for event in &trace.events[..trace.events.len() / 2] {
        victim.push(event);
    }
    drop(victim);
    let ckpt = Checkpoint::load(&ckpt_dir).unwrap().expect("checkpoint exists");
    assert!(ckpt.pushed > 0, "a boundary was crossed");

    let mut rest = trace.events.iter();
    let mut resumed = StreamMiner::new(config(), &miner)
        .with_store(store(Some(&store_dir)))
        .resume(&ckpt, rest.by_ref())
        .expect("no store echo to refuse");
    for event in rest {
        resumed.push(event);
    }
    let (report, _) = resumed.finish();
    assert_eq!(report.render(), expected.render());
    assert!(report.rpdns_store.stats.bytes_written > 0);
    assert_eq!(report.rpdns_store.records, expected.rpdns_store.records);
    assert!(fsck(&store_dir, false).expect("fsck runs").is_clean());

    std::fs::remove_dir_all(&ckpt_dir).ok();
    std::fs::remove_dir_all(&store_dir).ok();
}

#[test]
fn resume_rejects_wrong_config_and_prefix() {
    let s = scenario(5);
    let miner = trained_miner(&s);
    let trace = s.generate_day(0);
    let ckpt_dir = temp_dir("ckpt-mismatch");

    let mut victim = StreamMiner::new(config(), &miner).with_checkpoint(&ckpt_dir);
    for event in &trace.events[..trace.events.len() / 2] {
        victim.push(event);
    }
    victim.checkpoint_now();
    drop(victim);
    let ckpt = Checkpoint::load(&ckpt_dir).unwrap().expect("checkpoint exists");
    let warmup = &trace.events[..ckpt.pushed as usize];

    // Different epoch length: the checkpointed closes would not be the
    // ones this miner's schedule makes.
    let other = StreamConfig { epoch_secs: 3600 };
    let err = StreamMiner::new(other, &miner).resume(&ckpt, warmup).unwrap_err();
    assert!(err.to_string().contains("epoch_secs"), "{err}");

    // Short warmup: the replay prefix must cover exactly `pushed` events.
    let err = StreamMiner::new(config(), &miner)
        .resume(&ckpt, &trace.events[..ckpt.pushed as usize - 1])
        .unwrap_err();
    assert!(err.to_string().contains("replay prefix"), "{err}");

    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// A store directory that observed another day is not this stream's:
/// resume refuses it by name before reading an event.
#[test]
fn resume_refuses_a_store_directory_of_another_day() {
    let s = scenario(5);
    let miner = trained_miner(&s);
    let (ckpt_dir, store_dir) = (temp_dir("ckpt-day"), temp_dir("ckpt-day-store"));

    let day0 = s.generate_day(0);
    let mut other = StreamMiner::new(config(), &miner).with_store(store(Some(&store_dir)));
    for event in &day0.events {
        other.push(event);
    }
    let _ = other.finish();

    let day1 = s.generate_day(1);
    let mut victim = StreamMiner::new(config(), &miner).with_checkpoint(&ckpt_dir);
    victim.push(&day1.events[0]);
    drop(victim);
    let ckpt = Checkpoint::load(&ckpt_dir).unwrap().expect("day-start checkpoint");
    assert_eq!((ckpt.day, ckpt.pushed), (1, 0));

    let err = StreamMiner::new(config(), &miner)
        .with_store(store(Some(&store_dir)))
        .resume(&ckpt, std::iter::empty::<QueryEvent>())
        .unwrap_err()
        .to_string();
    assert!(err.contains(&store_dir.display().to_string()), "{err}");
    assert!(err.contains("day 0"), "{err}");

    std::fs::remove_dir_all(&ckpt_dir).ok();
    std::fs::remove_dir_all(&store_dir).ok();
}
