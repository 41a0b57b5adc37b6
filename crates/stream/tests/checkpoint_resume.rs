//! Kill/resume fidelity: a stream killed mid-day and resumed from its
//! last checkpoint (an epoch boundary, or the day start) must produce a
//! report byte-identical to an uninterrupted run — same render, same
//! findings, same day report — for both rpDNS backends.

use dnsnoise_core::{DailyPipeline, Miner, MinerConfig};
use dnsnoise_pdns::{fsck, BackendKind, PdnsBackend};
use dnsnoise_stream::{Checkpoint, StreamConfig, StreamMiner};
use dnsnoise_workload::{Scenario, ScenarioConfig};

fn scenario(seed: u64) -> Scenario {
    Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.05), seed)
}

fn trained_miner(scenario: &Scenario) -> Miner {
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let _ = pipeline.run_day(scenario, 0);
    pipeline.into_miner().expect("day 0 trains the model")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dnsnoise-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Four two-hour epochs fit in the seeded trace's busy window, so the
/// kill point lies past several checkpoint writes.
fn config() -> StreamConfig {
    StreamConfig { epoch_secs: 7200, ..StreamConfig::default() }
}

#[test]
fn killed_and_resumed_stream_is_byte_identical_for_both_backends() {
    let s = scenario(21);
    let miner = trained_miner(&s);
    let trace = s.generate_day(1);

    for kind in [BackendKind::Memory, BackendKind::Disk] {
        // Reference: the same trace streamed without interruption.
        let mut reference = StreamMiner::new(config(), &miner)
            .ground_truth(s.ground_truth())
            .with_store(PdnsBackend::create(kind, None));
        for event in &trace.events {
            reference.push(event);
        }
        let (expected, _) = reference.finish();

        // Killed after the first event (only the day-start checkpoint
        // exists) and mid-day (past several boundaries).
        for kill_at in [1, trace.events.len() * 3 / 5] {
            let store_dir = temp_dir(&format!("ckpt-store-{kind}-{kill_at}"));
            let ckpt_dir = temp_dir(&format!("ckpt-resume-{kind}-{kill_at}"));
            let spill = (kind == BackendKind::Disk).then(|| store_dir.clone());

            // "Process one": checkpoints enabled, killed (dropped without
            // finish, exactly what abort() leaves behind).
            let mut victim = StreamMiner::new(config(), &miner)
                .ground_truth(s.ground_truth())
                .with_store(PdnsBackend::create(kind, spill.as_deref()))
                .with_checkpoint(&ckpt_dir);
            for event in &trace.events[..kill_at] {
                victim.push(event);
            }
            assert!(victim.checkpoint_error().is_none(), "{kind}: checkpointing failed");
            drop(victim);

            // "Process two": load the checkpoint and hand `resume` the
            // whole trace; it pulls exactly the consumed prefix as
            // warm-up, and the rest is pushed from the same iterator.
            let ckpt = Checkpoint::load(&ckpt_dir)
                .expect("checkpoint readable")
                .expect("the first event writes a checkpoint");
            assert_eq!(ckpt.pushed == 0, kill_at == 1, "{kind}: {} at {kill_at}", ckpt.pushed);
            assert!(ckpt.pushed < kill_at as u64);
            let mut events = trace.events.iter();
            let mut resumed = StreamMiner::new(config(), &miner)
                .ground_truth(s.ground_truth())
                .with_store(PdnsBackend::create(kind, spill.as_deref()))
                .with_checkpoint(&ckpt_dir)
                .resume(&ckpt, events.by_ref())
                .expect("checkpoint matches the miner's configuration");
            assert_eq!(events.len() as u64, trace.events.len() as u64 - ckpt.pushed);
            for event in events {
                resumed.push(event);
            }
            assert!(resumed.checkpoint_error().is_none(), "{kind}: checkpointing failed");
            let (report, _) = resumed.finish();

            assert_eq!(report.render(), expected.render(), "{kind}: render diverged");
            assert_eq!(report.final_findings, expected.final_findings, "{kind}: findings");
            assert_eq!(report.day_report, expected.day_report, "{kind}: day report diverged");
            assert_eq!(report.rpdns_store.records, expected.rpdns_store.records, "{kind}: rpDNS");

            // The disk backend's spill directory must also be consistent:
            // the resumed store republished its manifest and finish()
            // optimised it, so fsck reports zero problems.
            if kind == BackendKind::Disk {
                let check = fsck(&store_dir, false).expect("fsck runs");
                assert!(check.is_clean(), "{kind}: fsck found problems:\n{}", check.render());
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

#[test]
fn resume_rejects_wrong_config_backend_and_prefix() {
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

    // Different hash seed: the restored HyperLogLog would be garbage.
    let other = StreamConfig { seed: 99, ..config() };
    let err = StreamMiner::new(other, &miner).resume(&ckpt, warmup).unwrap_err();
    assert!(err.to_string().contains("seed"), "{err}");

    // Different store backend.
    let err = StreamMiner::new(config(), &miner)
        .with_store(PdnsBackend::create(BackendKind::Disk, None))
        .resume(&ckpt, warmup)
        .unwrap_err();
    assert!(err.to_string().contains("store backend"), "{err}");

    // Short warmup: the replay prefix must cover exactly `pushed` events.
    let err = StreamMiner::new(config(), &miner)
        .resume(&ckpt, &trace.events[..ckpt.pushed as usize - 1])
        .unwrap_err();
    assert!(err.to_string().contains("replay prefix"), "{err}");

    std::fs::remove_dir_all(&ckpt_dir).ok();
}
