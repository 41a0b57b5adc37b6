//! Crash-recovery-path performance for the durable pDNS store and the
//! stream checkpointer, written to `BENCH_recovery.json`.
//!
//! Usage:
//!
//! ```text
//! bench_recovery [--records <n>] [--out <file>]
//! ```
//!
//! Three costs bound how fast a killed process gets back to work:
//!
//! * **cold open** — `RunStore::open` on a populated directory replays
//!   no events, but it does verify every published run end to end
//!   (length, CRC32, decoded layout) before admitting it to the live
//!   set. This is the restart-latency floor.
//! * **fsck** — the same verification scan, read-only, as the operator
//!   command runs it. Reported as byte throughput over the durable set.
//! * **checkpoint round-trip** — serialising, atomically persisting, and
//!   reloading one full stream checkpoint (`checkpoint.bin`), the cost a
//!   streaming miner pays at every epoch boundary.
//!
//! Correctness is gated before the stopwatch: the reopened store must
//! match the builder record for record, fsck must come back clean with
//! the same byte census the open scan saw, and a miner resumed from the
//! benchmarked checkpoint must render a report byte-identical to the
//! uninterrupted run.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use dnsnoise_bench::util::{make_records, measure, DAYS, RUNS, ZONES};
use dnsnoise_core::{DailyPipeline, MinerConfig};
use dnsnoise_pdns::{fsck, BackendKind, PdnsBackend, RunStore, StoreConfig};
use dnsnoise_stream::{Checkpoint, StreamConfig, StreamMiner};
use dnsnoise_workload::{Scenario, ScenarioConfig};

const CKPT_ROUNDTRIPS: usize = 32;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dnsnoise-bench-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() -> ExitCode {
    let mut records_n = 600_000usize;
    let mut out_path = String::from("BENCH_recovery.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--records" => records_n = value("--records").parse().expect("numeric --records"),
            "--out" => out_path = value("--out"),
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("usage: bench_recovery [--records <n>] [--out <file>]");
                return ExitCode::FAILURE;
            }
        }
    }

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("synthesizing {records_n} disposable records over {ZONES} zones ({cpus} cpu(s)) ...");
    let records = make_records(records_n);

    // --- build the durable store once; the bench measures reopening it ---
    let dir = temp_dir("store");
    eprintln!("building the durable store (observe + flush + optimize) ...");
    let build_start = Instant::now();
    let mut built =
        RunStore::open(&dir, StoreConfig::default()).expect("open a fresh spill directory");
    for (record, day) in &records {
        built.observe(record, *day);
    }
    built.optimize();
    let build_secs = build_start.elapsed().as_secs_f64();
    assert!(built.io_error().is_none(), "the build must persist cleanly");
    let build_stats = built.stats();
    let distinct = built.len();
    let events = built.observed();
    let per_day = built.per_day().to_vec();
    drop(built);
    eprintln!(
        "  {build_secs:.2}s: {} flushes, {} compactions, {distinct} distinct RRs on disk",
        build_stats.flushes, build_stats.compactions
    );

    // Correctness gates before the stopwatch: a cold open restores the
    // builder's exact state, and the read-only fsck sees the same bytes.
    let reopened = RunStore::open(&dir, StoreConfig::default()).expect("cold open");
    let open_report = reopened.recovery().expect("open records its scan").clone();
    assert!(
        open_report.is_clean(),
        "a clean shutdown must reopen clean:\n{}",
        open_report.render()
    );
    assert_eq!(reopened.len(), distinct, "cold open must restore every record");
    assert_eq!(reopened.observed(), events, "the replay-resume index must survive");
    assert_eq!(reopened.per_day(), per_day, "per-day accounting must survive");
    let durable_bytes = open_report.bytes_scanned;
    drop(reopened);
    let fsck_report = fsck(&dir, false).expect("fsck runs");
    assert!(fsck_report.is_clean(), "fsck disagrees with open:\n{}", fsck_report.render());
    assert_eq!(fsck_report.bytes_scanned, durable_bytes, "fsck must census the same bytes");

    eprintln!("measuring cold open ({distinct} records, {durable_bytes} durable bytes) ...");
    let (open_m, open_check) = measure(distinct, || {
        RunStore::open(&dir, StoreConfig::default()).expect("cold open").len() as u64
    });
    assert_eq!(open_check, distinct as u64);
    eprintln!("  cold open {:>9.4}s  {:>12.0} records/s", open_m.secs, open_m.per_sec);

    eprintln!("measuring fsck scan ...");
    let (fsck_m, fsck_check) =
        measure(durable_bytes as usize, || fsck(&dir, false).expect("fsck runs").bytes_scanned);
    assert_eq!(fsck_check, durable_bytes);
    eprintln!(
        "  fsck      {:>9.4}s  {:>12.1} MB/s",
        fsck_m.secs,
        fsck_m.per_sec / (1024.0 * 1024.0)
    );

    // Recovery replays nothing, so reopening must be far cheaper than
    // rebuilding; 2x is a loose floor (in practice it is much larger).
    assert!(
        open_m.secs * 2.0 < build_secs,
        "cold open ({:.3}s) must be much cheaper than the build ({build_secs:.3}s)",
        open_m.secs
    );

    // --- checkpoint round-trip: the epoch-boundary cost of `--checkpoint` ---
    eprintln!("training a miner and streaming half a day with checkpoints ...");
    let scenario = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.05), 21);
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let _ = pipeline.run_day(&scenario, 0);
    let miner = pipeline.into_miner().expect("day 0 trains the model");
    let trace = scenario.generate_day(1);
    let stream_config = StreamConfig { epoch_secs: 7200, ..StreamConfig::default() };
    let kill_at = trace.events.len() / 2;

    let ckpt_dir = temp_dir("ckpt");
    let mut victim = StreamMiner::new(stream_config, &miner)
        .ground_truth(scenario.ground_truth())
        .with_store(PdnsBackend::create(BackendKind::Memory, None))
        .with_checkpoint(&ckpt_dir);
    for event in &trace.events[..kill_at] {
        victim.push(event);
    }
    victim.checkpoint_now();
    assert!(victim.checkpoint_error().is_none(), "checkpointing must run clean");
    drop(victim);
    let ckpt = Checkpoint::load(&ckpt_dir)
        .expect("checkpoint readable")
        .expect("a checkpoint was written");
    let ckpt_bytes = ckpt.to_bytes().len();

    // Gate: a miner resumed from this exact checkpoint must finish with
    // a report byte-identical to the uninterrupted run.
    let mut reference = StreamMiner::new(stream_config, &miner)
        .ground_truth(scenario.ground_truth())
        .with_store(PdnsBackend::create(BackendKind::Memory, None));
    for event in &trace.events {
        reference.push(event);
    }
    let (expected, _) = reference.finish();
    let mut resumed = StreamMiner::new(stream_config, &miner)
        .ground_truth(scenario.ground_truth())
        .with_store(PdnsBackend::create(BackendKind::Memory, None))
        .resume(&ckpt, &trace.events[..ckpt.pushed as usize])
        .expect("checkpoint matches the miner's configuration");
    for event in &trace.events[ckpt.pushed as usize..] {
        resumed.push(event);
    }
    let (resumed_report, _) = resumed.finish();
    assert_eq!(
        resumed_report.render(),
        expected.render(),
        "a resume from the benchmarked checkpoint must be byte-identical"
    );

    eprintln!(
        "measuring checkpoint save+load round-trips ({ckpt_bytes} bytes, {CKPT_ROUNDTRIPS}/run) ..."
    );
    let (ckpt_m, ckpt_check) = measure(CKPT_ROUNDTRIPS, || {
        let mut ok = 0u64;
        for _ in 0..CKPT_ROUNDTRIPS {
            ckpt.save(&ckpt_dir).expect("checkpoint save");
            let loaded = Checkpoint::load(&ckpt_dir).expect("checkpoint load").expect("present");
            ok += u64::from(loaded.to_bytes() == ckpt.to_bytes());
        }
        ok
    });
    assert_eq!(ckpt_check, CKPT_ROUNDTRIPS as u64, "every round-trip must be lossless");
    eprintln!("  roundtrip {:>9.4}s  {:>12.1} ckpts/s", ckpt_m.secs, ckpt_m.per_sec);

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"recovery\",");
    let _ = writeln!(json, "  \"records\": {records_n},");
    let _ = writeln!(json, "  \"distinct_records\": {distinct},");
    let _ = writeln!(json, "  \"zones\": {ZONES},");
    let _ = writeln!(json, "  \"days\": {DAYS},");
    let _ = writeln!(json, "  \"runs_per_measurement\": {RUNS},");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(
        json,
        "  \"build\": {{\"secs\": {build_secs:.4}, \"flushes\": {}, \"compactions\": {}}},",
        build_stats.flushes, build_stats.compactions
    );
    let _ = writeln!(json, "  \"durable_bytes\": {durable_bytes},");
    let _ = writeln!(
        json,
        "  \"cold_open\": {{\"secs\": {:.4}, \"records_per_sec\": {:.0}, \
         \"bytes_per_sec\": {:.0}}},",
        open_m.secs,
        open_m.per_sec,
        durable_bytes as f64 / open_m.secs
    );
    let _ = writeln!(json, "  \"open_speedup_over_build\": {:.2},", build_secs / open_m.secs);
    let _ = writeln!(
        json,
        "  \"fsck\": {{\"secs\": {:.4}, \"bytes_per_sec\": {:.0}, \"clean\": true}},",
        fsck_m.secs, fsck_m.per_sec
    );
    let _ = writeln!(
        json,
        "  \"checkpoint\": {{\"bytes\": {ckpt_bytes}, \"roundtrips_per_sec\": {:.0}, \
         \"secs_per_roundtrip\": {:.6}}}",
        ckpt_m.per_sec,
        1.0 / ckpt_m.per_sec
    );
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write BENCH_recovery.json");
    eprintln!("wrote {out_path}");
    ExitCode::SUCCESS
}
