//! Executes a [`StorePlan`] against the on-disk `RunStore`, phase by phase,
//! checking every answer against an independent `BTreeMap` oracle.
//!
//! Only the store calls are inside the timed regions; answers are buffered
//! and compared with the oracle afterwards.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use dnsnoise::dns::{Name, QType, RData, Record, RrKey};
use dnsnoise::pdns::{fsck, RunStore, StoreConfig};

use crate::stats::median;
use crate::storegen::{MixedOp, StorePlan};
use crate::trace::{now, Tracer};

/// Times the cold open and the fsck scan are repeated (median reported).
const REOPENS: usize = 3;

/// Reference store: reversed-label name, type and data as one ordered
/// string key, so a zone's subtree is a key range. Shares no code with
/// the store's own key encoding.
#[derive(Debug, Default)]
pub struct Oracle {
    map: BTreeMap<String, (u64, u64)>,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

fn reversed(name: &Name) -> String {
    let labels: Vec<String> = name.labels().iter().rev().map(ToString::to_string).collect();
    labels.join(".")
}

fn oracle_key(name: &Name, qtype: QType, rdata: &RData) -> String {
    format!("{}\t{qtype}\t{rdata}", reversed(name))
}

/// Order-independent fingerprint of one `(record key, first-seen day)`.
fn entry_hash(key: &RrKey, day: u64) -> u64 {
    fnv1a(key.to_string().as_bytes()) ^ (day + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl Oracle {
    /// Earliest-first-seen-wins insert; `true` when the record is new.
    pub fn put(&mut self, record: &Record, day: u64) -> bool {
        let key = oracle_key(&record.name, record.qtype, &record.rdata);
        match self.map.get(&key) {
            Some(_) => false,
            None => {
                self.map.insert(key, (day, entry_hash(&record.key(), day)));
                true
            }
        }
    }

    pub fn get(&self, key: &RrKey) -> Option<u64> {
        self.map.get(&oracle_key(&key.name, key.qtype, &key.rdata)).map(|v| v.0)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `(entries, fingerprint sum)` of everything at or under `zone`.
    pub fn scan(&self, zone: &Name) -> (u64, u64) {
        let apex = reversed(zone);
        let mut count = 0u64;
        let mut sum = 0u64;
        // Records owned by the apex itself, then by its descendants.
        for (lo, hi) in
            [(format!("{apex}\t"), format!("{apex}\n")), (format!("{apex}."), format!("{apex}/"))]
        {
            for (_, (_, hash)) in self.map.range(lo..hi) {
                count += 1;
                sum = sum.wrapping_add(*hash);
            }
        }
        (count, sum)
    }
}

/// One answer of the interleaved phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    Got(Option<u64>),
    Put(bool),
}

/// What a correct store answers to every op of a plan, in plan order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expected {
    /// Per build observe: was the record new?
    fresh: Vec<bool>,
    /// Distinct records once the build phase is over.
    distinct: usize,
    gets: Vec<Option<u64>>,
    /// Per scanned zone: `(entries, fingerprint sum)`.
    scans: Vec<(u64, u64)>,
    mixed: Vec<Answer>,
}

impl Expected {
    /// Replays `plan` on the oracle. Part of set-up: the measured passes
    /// only compare against it.
    pub fn of(plan: &StorePlan) -> Expected {
        let mut oracle = Oracle::default();
        let fresh = plan.build.iter().map(|(record, day)| oracle.put(record, *day)).collect();
        let distinct = oracle.len();
        let gets = plan.gets.iter().map(|key| oracle.get(key)).collect();
        let scans = plan.scans.iter().map(|zone| oracle.scan(zone)).collect();
        let mixed = plan
            .mixed
            .iter()
            .map(|op| match op {
                MixedOp::Get(key) => Answer::Got(oracle.get(key)),
                MixedOp::Put(record, day) => Answer::Put(oracle.put(record, *day)),
            })
            .collect();
        Expected { fresh, distinct, gets, scans, mixed }
    }
}

fn mismatches<T: PartialEq>(got: &[T], expected: &[T]) -> u64 {
    let differing = got.iter().zip(expected).filter(|(a, b)| a != b).count();
    (differing + got.len().abs_diff(expected.len())) as u64
}

/// What one pass over the plan measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreRun {
    pub observes: u64,
    pub observe_s: f64,
    pub optimize_s: f64,
    pub flushes: u64,
    pub compactions: u64,
    pub runs: u64,
    pub learned_runs: u64,
    pub distinct: u64,
    pub durable_bytes: u64,
    /// Median of [`REOPENS`] opens, and their sum.
    pub open_s: f64,
    pub open_total_s: f64,
    pub fsck_s: f64,
    pub fsck_total_s: f64,
    pub fsck_bytes: u64,
    pub hit_gets: u64,
    pub hit_s: f64,
    pub miss_gets: u64,
    pub miss_s: f64,
    pub scan_calls: u64,
    pub scan_entries: u64,
    pub scan_s: f64,
    pub mixed_ops: u64,
    pub mixed_s: f64,
    /// Answers that disagree with the oracle.
    pub wrong: u64,
}

impl StoreRun {
    /// Operations the store answered, each one checked against the oracle:
    /// observes, gets, scan calls and interleaved ops.
    pub fn ops(&self) -> u64 {
        self.observes + self.hit_gets + self.miss_gets + self.scan_calls + self.mixed_ops
    }

    /// Seconds inside store calls over all phases.
    pub fn busy_s(&self) -> f64 {
        self.observe_s
            + self.optimize_s
            + self.open_total_s
            + self.fsck_total_s
            + self.hit_s
            + self.miss_s
            + self.scan_s
            + self.mixed_s
    }
}

/// Bytes of every regular file under `dir` (one level: run files, the
/// manifest, a checkpoint).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Runs every phase of `plan` on a fresh store under `dir`: build
/// (observe + optimize), cold open, fsck, gets, `sweeps` scan sweeps, the
/// interleaved phase. One span per phase.
pub fn run_plan(
    plan: &StorePlan,
    expected: &Expected,
    dir: &Path,
    sweeps: usize,
    tracer: &mut Tracer,
) -> Result<StoreRun, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut run = StoreRun::default();
    let open = |dir: &Path| {
        RunStore::open(dir, StoreConfig::default()).map_err(|e| format!("store open: {e}"))
    };

    // Build: observe every record, then collapse to the final image.
    let mut store = open(dir)?;
    let mut fresh = Vec::with_capacity(plan.build.len());
    let ((), observe_s) = tracer.span("pdns.observe", |_| {
        for (record, day) in &plan.build {
            fresh.push(store.observe(record, *day));
        }
    });
    let ((), optimize_s) = tracer.span("pdns.optimize", |_| store.optimize());
    if let Some(e) = store.io_error() {
        return Err(format!("store build did not persist: {e}"));
    }
    run.wrong += mismatches(&fresh, &expected.fresh);
    let stats = store.stats();
    run.observes = plan.build.len() as u64;
    run.observe_s = observe_s;
    run.optimize_s = optimize_s;
    run.flushes = stats.flushes;
    run.compactions = stats.compactions;
    run.runs = stats.runs as u64;
    run.learned_runs = stats.learned_runs as u64;
    run.distinct = store.len() as u64;
    run.wrong += u64::from(store.len() != expected.distinct);
    drop(store);
    run.durable_bytes = dir_bytes(dir);

    // Restart latency: reopen the published image.
    let mut open_samples = Vec::with_capacity(REOPENS);
    let mut reopened = None;
    for _ in 0..REOPENS {
        drop(reopened.take());
        let (store, secs) = tracer.span("pdns.cold_open", |_| open(dir));
        let store = store?;
        let clean = store.recovery().is_some_and(|r| r.is_clean());
        run.wrong += u64::from(!clean || store.len() != expected.distinct);
        open_samples.push(secs);
        reopened = Some(store);
    }
    run.open_s = median(&open_samples);
    run.open_total_s = open_samples.iter().sum();
    let mut store = reopened.expect("REOPENS >= 1");

    let mut fsck_samples = Vec::with_capacity(REOPENS);
    for _ in 0..REOPENS {
        let (report, secs) = tracer.span("pdns.fsck", |_| fsck(dir, false));
        let report = report.map_err(|e| format!("fsck: {e}"))?;
        run.wrong += u64::from(!report.is_clean());
        run.fsck_bytes = report.bytes_scanned;
        fsck_samples.push(secs);
    }
    run.fsck_s = median(&fsck_samples);
    run.fsck_total_s = fsck_samples.iter().sum();

    // Point gets, hits and misses timed apart (the plan interleaves them;
    // each list keeps its order).
    type Lookups<'a> = Vec<(&'a RrKey, Option<u64>)>;
    let (hits, misses): (Lookups, Lookups) =
        plan.gets.iter().zip(expected.gets.iter().copied()).partition(|(_, day)| day.is_some());
    for (lookups, name, count, secs) in [
        (&hits, "pdns.get_hit", &mut run.hit_gets, &mut run.hit_s),
        (&misses, "pdns.get_miss", &mut run.miss_gets, &mut run.miss_s),
    ] {
        let mut answers = Vec::with_capacity(lookups.len());
        let ((), elapsed) = tracer.span(name, |_| {
            for (key, _) in lookups.iter() {
                answers.push(store.first_seen(key));
            }
        });
        run.wrong +=
            lookups.iter().zip(&answers).filter(|((_, want), got)| want != *got).count() as u64;
        *count = lookups.len() as u64;
        *secs = elapsed;
    }

    // Zone-prefix scans; each answer is checked before the next call.
    for _ in 0..sweeps {
        for (zone, want) in plan.scans.iter().zip(&expected.scans) {
            let start = now();
            let entries = black_box(store.scan_prefix(zone));
            run.scan_s += start.elapsed().as_secs_f64();
            let sum = entries
                .iter()
                .fold(0u64, |acc, (key, day)| acc.wrapping_add(entry_hash(key, *day)));
            run.wrong += u64::from((entries.len() as u64, sum) != *want);
            run.scan_calls += 1;
            run.scan_entries += entries.len() as u64;
        }
    }
    tracer.record("pdns.scan", run.scan_s);

    // Reads while the store is being written.
    let mut answers = Vec::with_capacity(plan.mixed.len());
    let ((), mixed_s) = tracer.span("pdns.mixed", |_| {
        for op in &plan.mixed {
            answers.push(match op {
                MixedOp::Get(key) => Answer::Got(store.first_seen(key)),
                MixedOp::Put(record, day) => Answer::Put(store.observe(record, *day)),
            });
        }
    });
    run.wrong += mismatches(&answers, &expected.mixed);
    run.mixed_ops = plan.mixed.len() as u64;
    run.mixed_s = mixed_s;
    if let Some(e) = store.io_error() {
        return Err(format!("store writes during the mixed phase did not persist: {e}"));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storegen::StoreWorkload;

    #[test]
    fn oracle_scans_a_subtree_and_nothing_else() {
        let mut oracle = Oracle::default();
        let rec = |name: &str| {
            Record::new(
                name.parse().unwrap(),
                QType::A,
                dnsnoise::dns::Ttl::from_secs(60),
                RData::A(std::net::Ipv4Addr::new(192, 0, 2, 7)),
            )
        };
        assert!(oracle.put(&rec("a.svc1.example.com"), 3));
        assert!(!oracle.put(&rec("a.svc1.example.com"), 1), "first seen wins");
        assert!(oracle.put(&rec("svc1.example.com"), 4));
        assert!(oracle.put(&rec("b.svc10.example.com"), 5));
        assert!(oracle.put(&rec("b.svc1-x.example.com"), 5));
        assert_eq!(oracle.get(&rec("a.svc1.example.com").key()), Some(3));
        assert_eq!(oracle.get(&rec("zz.svc1.example.com").key()), None);
        assert_eq!(
            oracle.scan(&"svc1.example.com".parse().unwrap()).0,
            2,
            "apex + child, not svc10 or svc1-x"
        );
        assert_eq!(oracle.scan(&"example.com".parse().unwrap()).0, 4);
    }

    #[test]
    fn a_small_plan_runs_clean_against_the_oracle() {
        let plan = StoreWorkload::builder(5)
            .records(6_000, 0.3)
            .key_distribution(0.6, 40, 20)
            .gets(20_000, 1.0, 0.1)
            .action_weights(4_000, 80, 20)
            .build()
            .unwrap();
        let dir =
            std::env::temp_dir().join(format!("dnsnoise-benchmark-store-{}", std::process::id()));
        let mut tracer = Tracer::new("test");
        let run = run_plan(&plan, &Expected::of(&plan), &dir, 2, &mut tracer).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(run.wrong, 0);
        assert_eq!(run.distinct, 6_000);
        assert_eq!(run.hit_gets + run.miss_gets, plan.gets.len() as u64);
        assert!(run.miss_gets > 0 && run.scan_entries > 0 && run.durable_bytes > 0);
        assert!(run.flushes > 0, "6000 records overflow the 4096-key memtable");
        assert_eq!(run.ops(), (plan.ops() + plan.scans.len()) as u64, "two sweeps over the zones");
        assert!(run.mixed_ops == 4_000 && run.observes >= 6_000);
    }
}
