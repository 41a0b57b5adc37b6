//! The three capture-to-findings workloads: set up a seeded day, run the
//! release CLI over it stage by stage as child processes, gate the
//! outputs against the in-process reference, and report.

use std::path::Path;

use dnsnoise::core::Finding;
use dnsnoise::ingest::{CaptureFormat, IngestReport};

use crate::child::{run_stage, StageRun};
use crate::layers::{evaluate, mine_tsv, probe_day, DayReference};
use crate::run::{measure, Outcome, RunOptions};
use crate::setup::{prepare_day, set_setup_metrics, DayInputs, DaySpec};
use crate::spec::{Metrics, BATCH_DEC_PCAP, STREAM_DEC_DNSTAP, STREAM_FEB_CORRUPT};
use crate::stats::median;
use crate::storebench::dir_bytes;
use crate::trace::Tracer;

/// How a pipeline workload's day is made and which stages run over it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSpec {
    pub epoch: f64,
    pub format: CaptureFormat,
    pub corrupt: Option<f64>,
    /// `Some(epoch_secs)`: ingest → stream (disk store, checkpoints) →
    /// fsck. `None`: ingest → mine.
    pub stream_epoch_secs: Option<u64>,
}

pub fn pipeline_spec(workload: &str) -> Option<PipelineSpec> {
    let spec = |epoch, format, corrupt, stream_epoch_secs| PipelineSpec {
        epoch,
        format,
        corrupt,
        stream_epoch_secs,
    };
    match workload {
        BATCH_DEC_PCAP => Some(spec(1.0, CaptureFormat::Pcap, None, None)),
        // 21600 s is the CLI default, so the flag is left off.
        STREAM_DEC_DNSTAP => Some(spec(1.0, CaptureFormat::Dnstap, None, Some(21_600))),
        STREAM_FEB_CORRUPT => Some(spec(0.0, CaptureFormat::Pcap, Some(0.002), Some(3_600))),
        _ => None,
    }
}

/// One measured rep: every stage child, and what they left behind.
#[derive(Debug)]
struct Rep {
    /// `(stage, run)` in execution order.
    stages: Vec<(&'static str, StageRun)>,
    /// Bytes of the durable output the stages left: the store and
    /// checkpoint directories, or — on the batch workload, which has
    /// neither — the text trace, the only file its stages write.
    durable_bytes: u64,
}

impl Rep {
    fn wall_s(&self) -> f64 {
        self.stages.iter().map(|(_, s)| s.wall_s).sum()
    }

    fn peak_rss_kb(&self) -> u64 {
        self.stages.iter().map(|(_, s)| s.peak_rss_kb).max().unwrap_or(0)
    }

    fn stage(&self, name: &str) -> Option<&StageRun> {
        self.stages.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }
}

fn run_rep(
    spec: &PipelineSpec,
    inputs: &DayInputs,
    options: &RunOptions,
    dir: &Path,
) -> Result<Rep, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (trace, store, ckpt) = (path("day.trace"), path("store"), path("ckpt"));
    let capture = inputs.capture_path.to_string_lossy().into_owned();
    let model = inputs.model_path.to_string_lossy().into_owned();
    let stage = |args: &[&str]| run_stage(&options.cli, args, dir);

    let mut stages = vec![("ingest", stage(&["ingest", &capture, "-o", &trace])?)];
    // Between stages, not inside one: push the text trace to disk now, so
    // its writeback is not billed to whichever fsync the next stage issues
    // first (ext4 orders a journal commit behind all pending data).
    if let Ok(file) = std::fs::File::open(&trace) {
        let _ = file.sync_all();
    }
    match spec.stream_epoch_secs {
        None => stages.push(("mine", stage(&["mine", "--trace", &trace, "--model", &model])?)),
        Some(epoch_secs) => {
            let epoch_secs = epoch_secs.to_string();
            let mut args = vec![
                "stream",
                "--trace",
                &trace,
                "--model",
                &model,
                "--store",
                "disk",
                "--store-path",
                &store,
                "--checkpoint",
                &ckpt,
            ];
            if spec.stream_epoch_secs != Some(dnsnoise::stream::StreamConfig::default().epoch_secs)
            {
                args.extend(["--epoch-secs", &epoch_secs]);
            }
            stages.push(("stream", stage(&args)?));
            stages.push(("fsck", stage(&["fsck", &store])?));
        }
    }
    let durable_bytes = match spec.stream_epoch_secs {
        Some(_) => dir_bytes(Path::new(&store)) + dir_bytes(Path::new(&ckpt)),
        None => std::fs::metadata(&trace).map_or(0, |m| m.len()),
    };
    Ok(Rep { stages, durable_bytes })
}

/// Every unsigned integer in `line`, in order.
fn integers(line: &str) -> Vec<u64> {
    line.split(|c: char| !c.is_ascii_digit())
        .filter(|t| !t.is_empty())
        .filter_map(|t| t.parse().ok())
        .collect()
}

/// The byte and frame ledgers `dnsnoise ingest` prints on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ledger {
    bytes_total: u64,
    bytes_parsed: u64,
    bytes_quarantined: u64,
    bytes_skipped: u64,
    frames_scanned: u64,
    events: u64,
    frames_quarantined: u64,
    resyncs: u64,
}

impl Ledger {
    fn parse(stderr: &str) -> Option<Ledger> {
        let line = |prefix: &str| stderr.lines().find(|l| l.starts_with(prefix)).map(integers);
        let (bytes, frames) = (line("bytes: ")?, line("frames: ")?);
        if bytes.len() < 4 || frames.len() < 4 {
            return None;
        }
        Some(Ledger {
            bytes_total: bytes[0],
            bytes_parsed: bytes[1],
            bytes_quarantined: bytes[2],
            bytes_skipped: bytes[3],
            frames_scanned: frames[0],
            events: frames[1],
            frames_quarantined: frames[2],
            resyncs: frames[3],
        })
    }

    fn of(report: &IngestReport) -> Ledger {
        Ledger {
            bytes_total: report.bytes_total,
            bytes_parsed: report.bytes_parsed,
            bytes_quarantined: report.bytes_quarantined,
            bytes_skipped: report.bytes_skipped,
            frames_scanned: report.frames_scanned,
            events: report.events,
            frames_quarantined: report.quarantined_frames(),
            resyncs: report.resyncs,
        }
    }

    fn conserves(&self) -> bool {
        self.bytes_total == self.bytes_parsed + self.bytes_quarantined + self.bytes_skipped
            && self.frames_scanned == self.events + self.frames_quarantined
    }
}

/// The end-of-day findings in a `dnsnoise stream` report.
fn stream_findings(stdout: &str) -> Result<Vec<Finding>, String> {
    let final_section =
        stdout.split("-- final --\n").nth(1).ok_or("stream report has no final section")?;
    final_section
        .lines()
        .filter_map(|l| l.strip_prefix("finding = "))
        .map(parse_stream_finding)
        .collect()
}

fn parse_stream_finding(text: &str) -> Result<Finding, String> {
    let bad = || format!("unreadable finding line: {text}");
    let mut fields = text.split_whitespace();
    let zone = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let mut value = |key: &str| {
        fields.next().and_then(|f| f.strip_prefix(key)).map(str::to_owned).ok_or_else(bad)
    };
    let depth = value("depth=")?.parse().map_err(|_| bad())?;
    let confidence = value("confidence=")?.parse().map_err(|_| bad())?;
    let members = value("members=")?.parse().map_err(|_| bad())?;
    Ok(Finding { zone, depth, confidence, members })
}

/// The findings in `dnsnoise mine --trace` TSV output.
fn mine_findings(stdout: &str) -> Result<Vec<Finding>, String> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|line| {
            let bad = || format!("unreadable mine row: {line}");
            let cols: Vec<&str> = line.split('\t').collect();
            let [zone, depth, confidence, members] = cols[..] else { return Err(bad()) };
            Ok(Finding {
                zone: zone.parse().map_err(|_| bad())?,
                depth: depth.parse().map_err(|_| bad())?,
                confidence: confidence.parse().map_err(|_| bad())?,
                members: members.parse().map_err(|_| bad())?,
            })
        })
        .collect()
}

/// `key=<n>` in the `rpdns store:` summary line on stream's stderr.
fn store_summary(stderr: &str, key: &str) -> Option<u64> {
    let line = stderr.lines().find(|l| l.starts_with("rpdns store:"))?;
    line.split_whitespace().find_map(|f| f.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// Holds one rep's outputs against the reference. Returns the events the
/// rep accounted for and every gate that failed.
fn gate_rep(rep: &Rep, reference: &DayReference, first: &Rep) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    for (name, stage) in &rep.stages {
        if !stage.success {
            let tail = stage.stderr.lines().last().unwrap_or("");
            problems.push(format!("{name} exited non-zero: {tail}"));
        }
    }
    let ingest = rep.stage("ingest").expect("every pipeline ingests");
    let mut accounted = 0;
    match Ledger::parse(&ingest.stderr) {
        None => problems.push("ingest printed no byte/frame ledger".into()),
        Some(ledger) => {
            if !ledger.conserves() {
                problems.push(format!("ingest ledgers do not conserve: {ledger:?}"));
            }
            if ledger != Ledger::of(&reference.ingest.report) {
                problems.push("ingest ledger differs from the in-process ingest".into());
            }
            accounted = ledger.events;
        }
    }
    if let Some(mine) = rep.stage("mine") {
        if mine.stdout != mine_tsv(reference.batch_findings.clone()) {
            problems.push("mine TSV differs from the in-process reference".into());
        }
    }
    if let Some(stream) = rep.stage("stream") {
        let expected =
            reference.stream.as_ref().expect("stream workloads compute the stream reference");
        if stream.stdout != expected.render() {
            problems.push("stream stdout differs from the in-process memory-store render".into());
        }
        if stream.stdout != first.stage("stream").expect("same stages every rep").stdout {
            problems.push("stream stdout differs between reps".into());
        }
        match stream.stdout.lines().last() {
            Some(line) if line.starts_with("events: ") && line.ends_with("(conserved)") => {
                accounted = integers(line).first().copied().unwrap_or(0);
            }
            _ => {
                problems.push("stream conservation line does not hold".into());
                accounted = 0;
            }
        }
        let distinct = reference.batch.rr_stats.len() as u64;
        if store_summary(&stream.stderr, "records") != Some(distinct) {
            problems.push(format!(
                "store records differ from the batch replay's {distinct} distinct RRs"
            ));
        }
    }
    (accounted, problems)
}

/// Runs one pipeline workload.
pub fn run(
    workload: &'static str,
    spec: PipelineSpec,
    options: &RunOptions,
) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(workload);
    let mut metrics = Metrics::default();
    let day = DaySpec {
        epoch: spec.epoch,
        scale: options.scale,
        format: spec.format,
        corrupt: spec.corrupt,
    };

    // Set-up, then the measured reps: one child at a time, nothing else
    // running.
    let rep_dir = options.work.join("rep");
    let measured = measure(
        options,
        &mut tracer,
        |t| prepare_day(day, options.seed, &options.work, t),
        |inputs, t| {
            let rep = run_rep(&spec, inputs, options, &rep_dir)?;
            for (name, stage) in &rep.stages {
                t.record(&format!("stage.{name}"), stage.wall_s);
            }
            let wall_s = rep.wall_s();
            Ok((rep, wall_s))
        },
    )?;
    let (inputs, reps, host_speed) = (&measured.inputs, &measured.reps, measured.host_speed);
    let generated = inputs.events_generated();
    if generated == 0 {
        return Err("the generated day is empty".into());
    }
    set_setup_metrics(&tracer, &mut metrics);
    let mut samples = Vec::new();
    measured.report(&mut metrics, &mut samples);

    let (reference, _) = tracer.span("reference", |t| {
        probe_day(inputs, spec.stream_epoch_secs, options.trace, &options.work, t, &mut metrics)
    });
    let reference = reference?;
    let mut problems = reference.problems.clone();

    let mut failed = 0u64;
    let mut accounted_share = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        let (accounted, rep_problems) = gate_rep(rep, &reference, &reps[0]);
        // Events the corruptor destroyed never reach a stage; an event a
        // stage received and then lost, or any event of a rep that failed
        // a gate, is a failed operation.
        let received = reference.ingest.report.events;
        failed +=
            if rep_problems.is_empty() { received.saturating_sub(accounted) } else { generated };
        accounted_share.push(if rep_problems.is_empty() {
            accounted as f64 / generated as f64
        } else {
            0.0
        });
        problems.extend(rep_problems.into_iter().map(|p| format!("rep {i}: {p}")));
    }
    if !reference.problems.is_empty() {
        failed = generated * reps.len() as u64;
    }

    // Findings of the last stage, graded against ground truth.
    let last = reps[0]
        .stages
        .iter()
        .rev()
        .find(|(n, _)| *n == "mine" || *n == "stream")
        .expect("a mining stage ran");
    let findings = if last.0 == "mine" {
        mine_findings(&last.1.stdout)
    } else {
        stream_findings(&last.1.stdout)
    };
    let graded = match findings {
        Ok(findings) => Some(evaluate(inputs, &reference.batch, findings)),
        Err(e) => {
            problems.push(e);
            None
        }
    };

    let distinct = reference.batch.rr_stats.len().max(1) as f64;
    let events_per_s: Vec<f64> =
        reps.iter().map(|r| generated as f64 / (r.wall_s() * host_speed)).collect();
    let peak_rss_mb: Vec<f64> = reps.iter().map(|r| r.peak_rss_kb() as f64 / 1024.0).collect();
    let walls: Vec<f64> = reps.iter().map(Rep::wall_s).collect();
    metrics.set("events_per_s", median(&events_per_s));
    metrics.set("peak_rss_mb", median(&peak_rss_mb));
    metrics.set("durable_bytes_per_rr", reps[0].durable_bytes as f64 / distinct);
    metrics.set("accounted_share", median(&accounted_share));
    if let Some(graded) = &graded {
        metrics.set("findings_tpr", graded.tpr());
        metrics.set("findings_fpr", graded.fpr());
    }
    if reps.iter().any(|r| r.durable_bytes != reps[0].durable_bytes) {
        problems.push("durable bytes left on disk differ between reps".into());
    }
    let mut notes = Vec::new();
    if let Some(skipped) = metrics.get("stream.epochs_skipped").filter(|n| *n > 0.0) {
        let closed = metrics.get("stream.epochs_closed").unwrap_or(0.0);
        notes.push(format!(
            "the stream miner closed {closed} epochs and skipped {skipped}: a corrupted timestamp \
             that ingest still accepts moved its epoch clock past them"
        ));
    }

    if options.trace {
        // The in-process spans that mirror this workload's stages.
        let shared = ["ingest.decode_s", "trace_io.write_s", "trace_io.read_s", "ml.model_load_s"];
        let own: &[&str] = match spec.stream_epoch_secs {
            None => &["resolver.replay_s", "core.tree_build_s", "core.mine_s"],
            Some(_) => &["stream.run_durable_s", "stream.run_durable_fsck_s"],
        };
        let top: f64 = shared
            .iter()
            .chain(own)
            .map(|m| metrics.get(m).expect("a traced pass sets every layer metric"))
            .sum();
        metrics.set_residual(median(&walls), top);
    }

    samples.extend(
        [("events_per_s", events_per_s), ("raw_wall_s", walls), ("peak_rss_mb", peak_rss_mb)]
            .map(|(name, values)| (name.to_owned(), values)),
    );
    for stage in reps[0].stages.iter().map(|(n, _)| *n) {
        let walls = reps.iter().filter_map(|r| r.stage(stage)).map(|s| s.wall_s).collect();
        samples.push((format!("stage.{stage}_s"), walls));
    }
    Ok(Outcome {
        metrics,
        attempted: generated * reps.len() as u64,
        failed,
        problems,
        notes,
        samples,
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_parses_the_cli_lines() {
        let stderr = "bytes: 44202891 total = 43840950 parsed + 269623 quarantined + 92318 skipped (conserved)\n\
                      frames: 397427 scanned, 397121 events, 306 quarantined, 318 resyncs\n\
                      \x20 bad-wire-message: 300 frames / 1 bytes\nwrote 397121 events to x\n";
        let ledger = Ledger::parse(stderr).unwrap();
        assert_eq!(ledger.events, 397_121);
        assert_eq!(ledger.resyncs, 318);
        assert!(ledger.conserves());
        assert!(!Ledger { bytes_skipped: 0, ..ledger }.conserves());
        assert_eq!(Ledger::parse("frames: 1 scanned\n"), None);
    }

    #[test]
    fn findings_parse_from_both_stage_outputs() {
        let stream = "day = 1\n-- epoch 0 (close @ 21600s, 5 events) --\nfinding = early.example depth=3 confidence=0.990000 members=11\n\
                      -- final --\nevents = 9\nfinding = sgmyroe.com depth=12 confidence=1.000000 members=19\n\
                      events: 9 pushed = 9 answered + 0 nxdomain + 0 servfail + 0 shed (conserved)\n";
        let found = stream_findings(stream).unwrap();
        assert_eq!(found.len(), 1, "epoch snapshots are not end-of-day findings");
        assert_eq!((found[0].depth, found[0].members), (12, 19));
        assert_eq!(found[0].zone, "sgmyroe.com".parse().unwrap());
        let tsv = mine_tsv(found.clone());
        assert_eq!(mine_findings(&tsv).unwrap(), found);
        assert!(stream_findings("no sections").is_err());
        assert_eq!(
            store_summary(
                "x\nrpdns store: backend=disk records=15353 storage_bytes=8 runs=1\n",
                "records"
            ),
            Some(15_353)
        );
    }
}
