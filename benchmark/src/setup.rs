//! Set-up for the day-shaped inputs: generate the seeded day, encode it as
//! a capture file, train and persist the classifier. Everything here is
//! excluded from the measured stages and reported as `setup_s`; the
//! program under test only ever sees the files written here.

use std::path::{Path, PathBuf};

use dnsnoise::core::{DomainTree, LabeledZones, Miner, MinerConfig, TrainingSetBuilder};
use dnsnoise::ingest::{corrupt, framestream, pcap, CaptureFormat};
use dnsnoise::ml::LadTreeModel;
use dnsnoise::resolver::{ResolverSim, SimConfig};
use dnsnoise::workload::{DayTrace, GroundTruth, Scenario, ScenarioConfig};

use crate::spec::Metrics;
use crate::trace::Tracer;

/// The day every pipeline workload replays (`--day 1`).
pub const DAY: u64 = 1;
/// Scale of the synthetic day the classifier is trained on: the CLI's
/// `train` default. Models trained at 0.1, 0.25 and 1.0 mine the same
/// zones out of a scale-0.5 day, so the cheapest one is used.
pub const TRAIN_SCALE: f64 = 0.1;

/// What distinguishes one pipeline workload's day from another's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaySpec {
    /// 1.0 = December 2011 mix, 0.0 = February 2011 mix.
    pub epoch: f64,
    pub scale: f64,
    pub format: CaptureFormat,
    /// Fraction of capture bytes flipped in seeded bursts, as
    /// `generate --corrupt <f> --corrupt-seed <seed>` does.
    pub corrupt: Option<f64>,
}

/// A generated day on disk plus what the harness keeps to grade it.
#[derive(Debug)]
pub struct DayInputs {
    pub spec: DaySpec,
    pub seed: u64,
    pub trace: DayTrace,
    pub ground_truth: GroundTruth,
    pub capture: Vec<u8>,
    pub capture_path: PathBuf,
    pub model_path: PathBuf,
    pub model_text: String,
}

impl DayInputs {
    pub fn events_generated(&self) -> u64 {
        self.trace.events.len() as u64
    }

    /// A miner over the persisted model, as the CLI stages load it.
    pub fn miner(&self) -> Miner {
        let model =
            dnsnoise::ml::model_from_text(&self.model_text).expect("the model just written parses");
        Miner::new(Box::new(model), MinerConfig::default())
    }
}

/// The labeled training set `dnsnoise train` builds: a synthetic day 0 of
/// the same mix and seed, replayed and labeled from ground truth.
pub fn labeled_zones(epoch: f64, seed: u64) -> LabeledZones {
    let scenario = Scenario::new(ScenarioConfig::paper_epoch(epoch).with_scale(TRAIN_SCALE), seed);
    let trace = scenario.generate_day(0);
    let mut sim = ResolverSim::new(SimConfig::default());
    let report = sim.day(&trace).ground_truth(scenario.ground_truth()).run();
    let tree = DomainTree::from_day_stats(&report.rr_stats);
    TrainingSetBuilder { min_disposable_names: 8, ..Default::default() }
        .build(&tree, scenario.ground_truth())
}

pub fn train(labeled: &LabeledZones) -> LadTreeModel {
    Miner::train_model(labeled, MinerConfig::default())
}

/// Writes an input file and waits until it is on disk, so its writeback
/// does not compete with the measured stages that follow.
fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let write = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        std::io::Write::write_all(&mut file, bytes)?;
        file.sync_all()
    };
    write().map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Generates, encodes and writes one day's inputs under `dir`, recording
/// a span per step.
pub fn prepare_day(
    spec: DaySpec,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<DayInputs, String> {
    let scenario =
        Scenario::new(ScenarioConfig::paper_epoch(spec.epoch).with_scale(spec.scale), seed);
    let (trace, _) = tracer.span("workload.generate", |_| scenario.generate_day(DAY));
    let (capture, _) = tracer.span("workload.encode_capture", |_| {
        match spec.format {
            CaptureFormat::Pcap => pcap::write_pcap(&trace),
            CaptureFormat::Dnstap => framestream::write_dnstap(&trace),
        }
        .map_err(|e| e.to_string())
    });
    let mut capture = capture?;
    if let Some(fraction) = spec.corrupt {
        // The pcap global header stays intact so the file remains detectable.
        let skip = match spec.format {
            CaptureFormat::Pcap => pcap::GLOBAL_HEADER_LEN.min(capture.len()),
            CaptureFormat::Dnstap => 0,
        };
        tracer.span("workload.corrupt_capture", |_| {
            corrupt::flip_bursts(&mut capture[skip..], fraction, seed)
        });
    }
    let capture_path = dir.join(format!("day.{}", spec.format.id()));
    write_synced(&capture_path, &capture)?;

    let (labeled, _) = tracer.span("ml.label_training_day", |_| labeled_zones(spec.epoch, seed));
    let (model, _) = tracer.span("ml.train", |_| train(&labeled));
    let model_text = dnsnoise::ml::model_to_text(&model);
    let model_path = dir.join("model.txt");
    write_synced(&model_path, model_text.as_bytes())?;

    Ok(DayInputs {
        spec,
        seed,
        trace,
        ground_truth: scenario.ground_truth().clone(),
        capture,
        capture_path,
        model_path,
        model_text,
    })
}

/// Reports the spans [`prepare_day`] recorded as the per-layer metrics
/// they are.
pub fn set_setup_metrics(tracer: &Tracer, metrics: &mut Metrics) {
    for (metric, span) in [
        ("workload.generate_s", "workload.generate"),
        ("workload.encode_capture_s", "workload.encode_capture"),
        ("ml.train_s", "ml.train"),
    ] {
        metrics
            .set(metric, tracer.spans().iter().filter(|s| s.name == span).map(|s| s.secs()).sum());
    }
}
