//! What the subcommands share: the options every flag fills, the
//! scenario, miner and store flag groups, the trace reader, and the store
//! and model helpers.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use dnsnoise::core::{DomainTree, LabeledZones, Miner, MinerConfig, TrainingSetBuilder};
use dnsnoise::ingest::CaptureFormat;
use dnsnoise::pdns::{store::holds_store, BackendKind, RunStore, StoreConfig};
use dnsnoise::resolver::{ResolverSim, SimConfig};
use dnsnoise::stream::RpdnsStoreSummary;
use dnsnoise::workload::{trace_io, QueryEvent, Scenario, ScenarioConfig};

use crate::cli::{ensure, flag, parsed, some, to, Kind::Value, Table};

/// Every flag's value: one field per flag name, and `input` for the
/// positional argument. A subcommand's tables decide which fields argv
/// may set, and its `run` reads only those.
#[derive(Debug, Default, PartialEq)]
pub struct Opts {
    pub epoch: f64,
    pub scale: f64,
    pub seed: u64,
    pub day: u64,
    pub theta: f64,
    pub min_group: usize,
    /// `None` = no store summary printed, so invocations without store
    /// flags stay byte-identical on both streams.
    pub store: Option<BackendKind>,
    pub store_path: Option<String>,
    /// The positional argument: `ingest`'s capture, `fsck`'s directory.
    pub input: String,
    pub trace: Option<String>,
    pub model: Option<String>,
    pub out: Option<String>,
    pub capture: Option<CaptureFormat>,
    pub corrupt: Option<f64>,
    pub corrupt_seed: u64,
    pub format: Option<CaptureFormat>,
    pub max_error_rate: f64,
    pub members: usize,
    pub capacity: usize,
    pub faults: Option<String>,
    pub stale: Option<u32>,
    pub metrics: Option<String>,
    pub buckets: usize,
    pub attack: Option<String>,
    pub rrl: bool,
    pub queue_depth: Option<u64>,
    pub service_rate: Option<u64>,
    pub epoch_secs: u64,
    pub checkpoint: Option<String>,
    pub die_after: Option<u64>,
    pub repair: bool,
}

/// Flag names more than one subcommand declares, each with its own help.
pub const TRACE: &str = "--trace";
pub const MODEL: &str = "--model";
pub const OUT: &str = "--out";

/// Which synthetic day to build.
#[rustfmt::skip]
pub const SCENARIO: Table = Table { title: "scenario", flags: &[
    flag("--epoch", Value("<0..1>"), "growth epoch, Feb to Dec 2011", |o, v| to(&mut o.epoch, v))
        .default("1.0"),
    flag("--scale", Value("<f64>"), "volume multiplier", |o, v| to(&mut o.scale, v)).default("0.1"),
    flag("--seed", Value("<u64>"), "workload seed", |o, v| to(&mut o.seed, v)).default("7"),
    flag("--day", Value("<u64>"), "day to synthesize", |o, v| to(&mut o.day, v)).default("0"),
] };

/// Algorithm 1's knobs.
#[rustfmt::skip]
pub const MINER: Table = Table { title: "miner", flags: &[
    flag("--theta", Value("<f64>"), "confidence threshold", |o, v| to(&mut o.theta, v))
        .default("0.9"),
    flag("--min-group", Value("<n>"), "minimal group size", |o, v| to(&mut o.min_group, v))
        .default("10"),
] };

/// The rpDNS store's summary, and where it spills.
#[rustfmt::skip]
pub const STORE: Table = Table { title: "store", flags: &[
    flag("--store", Value("<kind>"), "memory (default) or disk, which a --store-path needs; \
        either prints a store summary to stderr and leaves the report as it is",
        |o, v| parsed(&mut o.store, v.parse())),
    flag("--store-path", Value("<dir>"), "mirror the pDNS store's sorted runs in this directory",
        |o, v| some(&mut o.store_path, v)),
] };

impl Opts {
    pub fn check_scenario(&self) -> Result<(), String> {
        ensure((0.0..=1.0).contains(&self.epoch), "--epoch must be in [0, 1]")?;
        ensure(self.scale > 0.0 || self.scale.is_nan(), "--scale must be positive")?;
        ensure(self.scale.is_finite(), "--scale must be finite")
    }

    pub fn check_miner(&self) -> Result<(), String> {
        ensure((0.0..=1.0).contains(&self.theta), "--theta must be in [0, 1]")
    }

    /// A spill directory needs `--store disk`.
    pub fn check_store(&self) -> Result<(), String> {
        let disk = self.store == Some(BackendKind::Disk);
        ensure(self.store_path.is_none() || disk, "--store-path requires --store disk")
    }

    pub fn scenario(&self) -> Scenario {
        Scenario::new(ScenarioConfig::paper_epoch(self.epoch).with_scale(self.scale), self.seed)
    }

    /// A labeled training set from a synthetic day at this epoch and seed.
    pub fn synthetic_labeled(&self) -> LabeledZones {
        let config = ScenarioConfig::paper_epoch(self.epoch).with_scale(self.scale.max(0.1));
        let scenario = Scenario::new(config, self.seed);
        let trace = scenario.generate_day(0);
        let mut sim = ResolverSim::new(SimConfig::default());
        let report = sim.day(&trace).ground_truth(scenario.ground_truth()).run();
        let tree = DomainTree::from_day_stats(&report.rr_stats);
        TrainingSetBuilder { min_disposable_names: 8, ..Default::default() }
            .build(&tree, scenario.ground_truth())
    }

    pub fn miner_config(&self) -> MinerConfig {
        MinerConfig { theta: self.theta, min_group_size: self.min_group, ..Default::default() }
    }

    /// Loads the persisted classifier `--model` names, or trains one on a
    /// synthetic labeled day.
    pub fn load_or_train_miner(&self) -> Result<Miner, String> {
        let Some(path) = &self.model else {
            return Ok(Miner::train(&self.synthetic_labeled(), self.miner_config()));
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let model = dnsnoise::ml::model_from_text(&text).map_err(|e| e.to_string())?;
        Ok(Miner::new(Box::new(model), self.miner_config()))
    }

    /// Whether the run prints the store summary line.
    pub fn store_reported(&self) -> bool {
        self.store.is_some() || self.store_path.is_some()
    }

    /// The rpDNS store, spilling under `--store-path` when one is given.
    pub fn store_backend(&self) -> RunStore {
        match &self.store_path {
            Some(dir) => RunStore::with_config(StoreConfig::default().with_spill(dir)),
            None => RunStore::new(),
        }
    }

    /// Refuses a `--store-path` that already holds a store
    /// ([`holds_store`]): only a resume may take one over.
    pub fn refuse_existing_store(&self) -> Result<(), String> {
        let Some(dir) = &self.store_path else { return Ok(()) };
        let message = format!(
            "--store-path {dir} already holds a pDNS store; pass an empty directory \
             (only a --checkpoint resume takes an existing store over)"
        );
        ensure(!holds_store(Path::new(dir)), &message)
    }

    /// The one-line store summary `simulate` and `stream` both print, to
    /// stderr so stdout stays byte-identical with or without a spill
    /// directory. `backend=` echoes `--store`.
    pub fn store_summary_line(&self, s: &RpdnsStoreSummary) -> String {
        let st = s.stats;
        format!(
            "rpdns store: backend={} records={} storage_bytes={} runs={} flushes={} \
             compactions={} bytes_written={}",
            self.store.unwrap_or_default(),
            s.records,
            s.storage_bytes,
            st.runs,
            st.flushes,
            st.compactions,
            st.bytes_written
        )
    }
}

pub fn capture_format(raw: &str) -> Result<CaptureFormat, String> {
    CaptureFormat::parse(raw)
        .ok_or_else(|| format!("bad capture format {raw} (expected pcap or dnstap)"))
}

pub type TraceEvent = Result<QueryEvent, trace_io::TraceIoError>;

/// The last day a trace's first event may name. That event's day is the
/// replayed day, and the store's per-day tables (`RunStore`'s and its
/// `MANIFEST`'s) are dense up to it, so a hostile first stamp would size
/// them. 65,536 admits every Unix-epoch capture day (≈ 20,000 today) and
/// keeps a `MANIFEST` under 1 MiB.
pub const MAX_TRACE_DAY: u64 = 65_536;

/// The events of the trace at `path` (stdin when `None`), read one at a
/// time: the day is never held. A first event dated past
/// [`MAX_TRACE_DAY`] is a parse error on its line.
pub fn trace_events(path: &Option<String>) -> Result<Box<dyn Iterator<Item = TraceEvent>>, String> {
    let Some(path) = path else {
        return Ok(first_day_bounded(trace_io::EventReader::new(std::io::stdin().lock())));
    };
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Ok(first_day_bounded(trace_io::EventReader::new(BufReader::new(file))))
}

fn first_day_bounded(
    mut reader: trace_io::EventReader<impl BufRead + 'static>,
) -> Box<dyn Iterator<Item = TraceEvent>> {
    let mut first = true;
    Box::new(std::iter::from_fn(move || {
        let event = reader.next()?;
        let day = event.as_ref().map_or(0, |e| e.time.day());
        if std::mem::take(&mut first) && day > MAX_TRACE_DAY {
            let message = format!("the first event is on day {day}, past day {MAX_TRACE_DAY}");
            return Some(Err(trace_io::TraceIoError::Parse { line: reader.lines_read(), message }));
        }
        Some(event)
    }))
}
