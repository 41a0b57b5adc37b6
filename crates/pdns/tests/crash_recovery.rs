//! Crash-at-every-IO-point recovery: for *every* syscall site the
//! persistence layer touches during a workload — and for both clean and
//! torn failure modes — a simulated crash followed by `RunStore::open`
//! must recover a consistent durable prefix, and replaying the remaining
//! events must converge to the exact same observable state as an
//! uninterrupted run.

use dnsnoise_dns::{Name, QType, RData, Record, RrKey, Ttl};
use dnsnoise_pdns::store::io::failpoints;
use dnsnoise_pdns::store::recovery::QuarantineClass;
use dnsnoise_pdns::{fsck, DailyNewRrs, RunStore, StoreConfig};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// Tiny tiers so a ~200-event workload exercises many flushes,
/// compactions, and manifest swaps.
fn tiny_config() -> StoreConfig {
    StoreConfig { memtable_cap: 8, fanout: 2, ..StoreConfig::default() }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dnsnoise-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic workload with duplicate keys across three days.
fn workload() -> Vec<(Record, u64)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..200)
        .map(|i| {
            let name: Name = format!("h{}.z{}.example", next() % 40, next() % 6).parse().unwrap();
            let rdata = RData::A(Ipv4Addr::from((next() % 8) as u32 + 0x0a00_0001));
            (Record::new(name, QType::A, Ttl::from_secs(300), rdata), i as u64 / 70)
        })
        .collect()
}

/// Runs `events` through a store opened at `dir` and collapses it.
fn run_workload(dir: &PathBuf, events: &[(Record, u64)]) -> RunStore {
    let mut store = RunStore::open(dir, tiny_config()).expect("open");
    for (record, day) in events {
        store.observe(record, *day);
    }
    store.optimize();
    store
}

/// The observable state the crash matrix compares.
fn observation(store: &RunStore) -> (Vec<(RrKey, u64)>, Vec<DailyNewRrs>, usize, u64) {
    (store.scan_prefix(&Name::root()), store.per_day().to_vec(), store.len(), store.storage_bytes())
}

#[test]
fn every_io_site_crash_recovers_to_the_uninterrupted_state() {
    let events = workload();

    // Reference: the uninterrupted run.
    let ref_dir = temp_dir("reference");
    let reference = observation(&run_workload(&ref_dir, &events));

    // The trivial cell of the matrix, no crash at all: a cold open of the
    // cleanly shut down directory restores the builder's exact state and
    // its replay-resume index, and fsck censuses the bytes open verified.
    let reopened = RunStore::open(&ref_dir, tiny_config()).expect("cold open");
    let scan = reopened.recovery().expect("open records its scan").clone();
    assert!(scan.is_clean(), "a clean shutdown must reopen clean:\n{}", scan.render());
    assert_eq!(observation(&reopened), reference, "cold open must restore every record");
    assert_eq!(reopened.observed(), events.len() as u64, "the resume index must survive");
    drop(reopened);
    let check = fsck(&ref_dir, false).expect("fsck runs");
    assert!(check.is_clean(), "fsck disagrees with open:\n{}", check.render());
    assert_eq!(check.bytes_scanned, scan.bytes_scanned, "fsck must census the same bytes");
    std::fs::remove_dir_all(&ref_dir).ok();

    // Count the IO sites the workload visits without tripping any —
    // armed over exactly the span the matrix below arms (post-open).
    let count_dir = temp_dir("count");
    let mut counter = RunStore::open(&count_dir, tiny_config()).expect("open");
    failpoints::arm(u64::MAX, false);
    for (record, day) in &events {
        counter.observe(record, *day);
    }
    counter.optimize();
    let sites = failpoints::disarm();
    drop(counter);
    std::fs::remove_dir_all(&count_dir).ok();
    assert!(sites > 20, "the workload must exercise many IO sites, saw {sites}");

    for torn in [false, true] {
        for k in 0..sites {
            let dir = temp_dir("matrix");

            // Crash the simulated process at site `k`: every IO from
            // there on fails, errors latch, and the store degrades to
            // memory-only until we drop it on the floor.
            let mut victim = RunStore::open(&dir, tiny_config()).expect("pre-crash open");
            failpoints::arm(k, torn);
            for (record, day) in &events {
                victim.observe(record, *day);
            }
            victim.optimize();
            failpoints::disarm();
            // (No latch assertion: a tripped best-effort site — e.g. a
            // post-publish stale-run delete — is deliberately benign.)
            drop(victim);

            // Recovery: open sees a consistent durable prefix...
            let mut recovered = RunStore::open(&dir, tiny_config()).unwrap_or_else(|e| {
                panic!("open after crash at site {k} (torn={torn}) failed: {e}")
            });
            let resume_from = recovered.observed() as usize;
            assert!(
                resume_from <= events.len(),
                "site {k}: durable prefix {resume_from} exceeds the workload"
            );
            let report = recovered.recovery().expect("open records its scan").clone();
            assert!(report.conserves(), "site {k}: {}", report.conservation_line());
            assert_eq!(
                report.runs_lost(),
                0,
                "site {k} (torn={torn}): a clean crash must never corrupt published runs:\n{}",
                report.render()
            );

            // ...and replaying the rest of the events converges on the
            // uninterrupted run, byte-counter for byte-counter.
            for (record, day) in &events[resume_from..] {
                recovered.observe(record, *day);
            }
            recovered.optimize();
            assert!(recovered.io_error().is_none(), "site {k}: replay must run clean");
            assert_eq!(
                observation(&recovered),
                reference,
                "site {k} (torn={torn}): replayed state diverged"
            );

            // The healed directory passes fsck with zero problems.
            let check = fsck(&dir, false).expect("fsck runs");
            assert!(
                check.is_clean(),
                "site {k} (torn={torn}): fsck found problems:\n{}",
                check.render()
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn bit_flipped_run_is_quarantined_with_exact_accounting() {
    let events = workload();
    let dir = temp_dir("bitflip");
    let healthy = run_workload(&dir, &events);
    let total = healthy.len();
    drop(healthy);

    // Flip one byte in the middle of the (single, optimized) run file.
    let run_path = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("run-")))
        .expect("an optimized run file exists");
    let mut bytes = std::fs::read(&run_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&run_path, &bytes).unwrap();

    // fsck (read-only) sees the corruption and byte conservation holds.
    let check = fsck(&dir, false).expect("fsck runs");
    assert!(!check.is_clean());
    let bad = check.quarantine.get(QuarantineClass::BadRunChecksum).unwrap();
    assert_eq!(bad.count, 1, "{}", check.render());
    assert_eq!(bad.bytes, bytes.len() as u64);
    assert!(check.conserves(), "{}", check.conservation_line());

    // Open quarantines the run (the bytes survive under a new name, and
    // the typed ledger + quarantine.log record the loss) and the store
    // keeps working without the lost records.
    let recovered = RunStore::open(&dir, tiny_config()).expect("lossy open succeeds");
    let report = recovered.recovery().expect("scan recorded");
    assert_eq!(report.runs_lost(), 1, "{}", report.render());
    assert!(report.conserves());
    assert!(recovered.len() < total, "the quarantined run's records are gone");
    let quarantined: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
        .filter(|n| n.ends_with(".quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 1, "corrupt bytes preserved for diagnosis");
    let ledger = std::fs::read_to_string(dir.join("quarantine.log")).expect("ledger appended");
    assert!(ledger.contains("bad-run-checksum"), "{ledger}");

    // Replaying the full workload restores every record.
    let mut recovered = recovered;
    for (record, day) in &events {
        recovered.observe(record, *day);
    }
    recovered.optimize();
    assert_eq!(recovered.len(), total, "replay restores the lost records");
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds the bit-flip fixture's store, then plants seven orphans and
/// flips one byte of its run file; returns the flagged files' bytes by
/// name.
fn damaged_store(dir: &PathBuf) -> Vec<(String, u64)> {
    drop(run_workload(dir, &workload()));
    let run = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("run-")))
        .expect("an optimized run file exists");
    let mut bytes = std::fs::read(&run).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&run, &bytes).unwrap();
    let mut flagged = vec![(run.file_name().unwrap().to_string_lossy().into_owned(), bytes.len())];
    for i in 1..=7 {
        let junk = "x".repeat(i * 3);
        std::fs::write(dir.join(format!("junk-{i}.tmp")), &junk).unwrap();
        flagged.push((format!("junk-{i}.tmp"), junk.len()));
    }
    flagged.into_iter().map(|(name, len)| (name, len as u64)).collect()
}

/// Asserts `quarantine.log` holds exactly one line per flagged file,
/// each naming the file's class and its bytes.
fn assert_logged_every_file(dir: &Path, flagged: &[(String, u64)]) {
    let log = std::fs::read_to_string(dir.join("quarantine.log")).expect("ledger appended");
    assert_eq!(log.lines().count(), flagged.len(), "{log}");
    for (name, len) in flagged {
        let class = if name.starts_with("run-") { "bad-run-checksum" } else { "orphan-file" };
        let prefix = format!("{class}: {name}: {len} bytes: ");
        assert_eq!(log.lines().filter(|l| l.starts_with(&prefix)).count(), 1, "{prefix}\n{log}");
    }
}

#[test]
fn quarantine_log_records_every_dropped_file_with_its_bytes() {
    // More orphans than the report keeps samples of: the render stays
    // capped, the log does not.
    let dir = temp_dir("log-open");
    let flagged = damaged_store(&dir);
    let store = RunStore::open(&dir, tiny_config()).expect("lossy open succeeds");
    let report = store.recovery().expect("scan recorded");
    assert_eq!(report.problems(), 8, "{}", report.render());
    assert_eq!(report.render().matches("  sample junk-").count(), 5, "{}", report.render());
    assert_logged_every_file(&dir, &flagged);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    let dir = temp_dir("log-repair");
    let flagged = damaged_store(&dir);
    let report = fsck(&dir, true).expect("repair runs");
    assert_eq!(report.problems(), 8, "{}", report.render());
    assert_logged_every_file(&dir, &flagged);
    assert!(fsck(&dir, false).unwrap().is_clean());
    std::fs::remove_dir_all(&dir).ok();
}
