//! The in-process pass over one day's files: calls each crate's public
//! functions on the same capture, model and events the CLI stages saw,
//! inside spans. It yields the reference outputs the correctness gates
//! compare the children against, and — in a traced run — the per-layer
//! numbers.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::Path;

use dnsnoise::core::{DomainTree, Finding, GroupFeatures, Miner, MiningReport};
use dnsnoise::dns::{wire, Name, Record, SuffixList};
use dnsnoise::ingest::{
    framestream, ingest_bytes, pcap, CaptureFormat, IngestConfig, IngestOutput, IngestReport,
};
use dnsnoise::pdns::{fsck, BackendKind, PdnsBackend, RpDns};
use dnsnoise::resolver::{DayReport, EventSession, Observer, ResolverSim, Served, SimConfig};
use dnsnoise::stream::{Checkpoint, StreamConfig, StreamMiner, StreamReport, CHECKPOINT_NAME};
use dnsnoise::workload::{trace_io, DayTrace, QueryEvent};

use crate::setup::DayInputs;
use crate::spec::Metrics;
use crate::stats::median;
use crate::storebench::{run_plan, Expected, StoreRun};
use crate::storegen::{plan_from_answers, StorePlan};
use crate::trace::{now, Tracer};

/// Ethernet + IPv4 + UDP headers in front of the DNS message in the pcap
/// frames `pcap::write_pcap` emits.
const PCAP_DNS_OFFSET: usize = 14 + 20 + 8;
/// Frames and names sampled for the `dns` layer probes.
const DNS_SAMPLE: usize = 50_000;
/// Times the model load and the checkpoint codec are repeated.
const SMALL_REPEATS: usize = 5;

/// Reference outputs of one day, computed in-process.
#[derive(Debug)]
pub struct DayReference {
    pub ingest: IngestOutput,
    pub batch: DayReport,
    pub batch_findings: Vec<Finding>,
    /// Memory-store, checkpoint-free stream run (stream workloads, and
    /// every traced run).
    pub stream: Option<StreamReport>,
    /// Problems a gate found; empty when every in-process check held.
    pub problems: Vec<String>,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The TSV `dnsnoise mine --trace` prints for `findings`.
pub fn mine_tsv(mut findings: Vec<Finding>) -> String {
    findings.sort_by(|a, b| b.confidence.partial_cmp(&a.confidence).expect("finite"));
    let mut out = String::from("# zone\tdepth\tconfidence\tnames\n");
    for f in findings {
        out.push_str(&format!("{}\t{}\t{:.3}\t{}\n", f.zone, f.depth, f.confidence, f.members));
    }
    out
}

/// Scores `findings` against the generator's ground truth, with the exact
/// batch tree deciding which zones were findable.
pub fn evaluate(inputs: &DayInputs, batch: &DayReport, findings: Vec<Finding>) -> MiningReport {
    let tree = DomainTree::from_day_stats(&batch.rr_stats);
    MiningReport::evaluate(
        batch.day,
        findings,
        &tree,
        &inputs.ground_truth,
        &SuffixList::builtin(),
        dnsnoise::core::MinerConfig::default().min_group_size,
    )
}

/// What one in-process stream run measured from outside `push`.
struct StreamProbe {
    report: StreamReport,
    /// Pushes that did not close an epoch.
    push_s: f64,
    /// Pushes that closed an epoch (and wrote a checkpoint, if on).
    close_s: f64,
    close_max_s: f64,
    finish_s: f64,
    checkpoint_error: Option<String>,
}

fn stream_run(mut stream: StreamMiner<'_>, events: &[QueryEvent]) -> StreamProbe {
    // One clock reading per push: a push lasts from the previous reading
    // to its own.
    let mut push_secs = Vec::with_capacity(events.len());
    let start = now();
    let mut last = start;
    for event in events {
        stream.push(event);
        let t = now();
        push_secs.push((t - last).as_secs_f64());
        last = t;
    }
    let pushing_s = (last - start).as_secs_f64();
    let checkpoint_error = stream.checkpoint_error().map(ToString::to_string);
    let t = now();
    let (report, _sim) = stream.finish();
    let finish_s = t.elapsed().as_secs_f64();
    // An epoch summary records how many events had been pushed when the
    // epoch closed: the index of the push that closed it.
    let closes = report.epochs.iter().filter_map(|e| push_secs.get(e.events as usize).copied());
    let (close_s, close_max_s) =
        closes.fold((0.0f64, 0.0f64), |(sum, max), s| (sum + s, max.max(s)));
    StreamProbe {
        report,
        push_s: pushing_s - close_s,
        close_s,
        close_max_s,
        finish_s,
        checkpoint_error,
    }
}

/// Epoch boundaries the generated day crosses: the closes a stream miner
/// performs over it when every timestamp arrives intact and in order.
fn epoch_boundaries(events: &[QueryEvent], epoch_secs: u64) -> usize {
    let epoch = |e: &QueryEvent| e.time.second_of_day() / epoch_secs;
    events.windows(2).filter(|w| epoch(&w[0]) != epoch(&w[1])).count()
}

/// Scratch space, spans, metrics and gate failures of one pass.
struct Probe<'a> {
    inputs: &'a DayInputs,
    dir: &'a Path,
    tracer: &'a mut Tracer,
    metrics: &'a mut Metrics,
    problems: Vec<String>,
}

/// Runs the pass. `stream_epoch_secs` is the epoch length of the workload's
/// stream stage (`None` for the batch workload). With `full` every layer is
/// probed and `metrics` receives every day-shaped per-layer metric; without
/// it only what the gates need runs. `dir` is scratch space.
pub fn probe_day(
    inputs: &DayInputs,
    stream_epoch_secs: Option<u64>,
    full: bool,
    dir: &Path,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<DayReference, String> {
    let mut probe = Probe { inputs, dir, tracer, metrics, problems: Vec::new() };
    let miner = inputs.miner();
    let epoch_secs = stream_epoch_secs.unwrap_or(StreamConfig::default().epoch_secs);
    let stream_config = StreamConfig { epoch_secs, ..StreamConfig::default() };

    let ingest = probe.ingest()?;
    let trace = &ingest.trace;
    let batch = probe.resolver(trace);
    let batch_findings = probe.core(&batch, &miner);
    let stream = (full || stream_epoch_secs.is_some())
        .then(|| probe.stream_memory(trace, &batch, &miner, stream_config, batch_findings.len()));
    if full {
        probe.dns(trace)?;
        probe.trace_io(trace)?;
        probe.session(trace);
        probe.ml(&batch, &miner)?;
        probe.stream_durable(trace, &miner, stream_config)?;
        probe.store(trace, &batch)?;
    }
    let problems = probe.problems;
    Ok(DayReference { ingest, batch, batch_findings, stream, problems })
}

impl Probe<'_> {
    /// ingest: serial decode, then the sharded decode that must equal it.
    fn ingest(&mut self) -> Result<IngestOutput, String> {
        let inputs = self.inputs;
        let threads = nproc();
        let config = |threads| IngestConfig {
            format: Some(inputs.spec.format),
            threads,
            ..IngestConfig::default()
        };
        let (serial, decode_s) =
            self.tracer.span("ingest.decode", |_| ingest_bytes(&inputs.capture, &config(1)));
        let serial = serial.map_err(|e| format!("in-process ingest failed: {e}"))?;
        let (sharded, sharded_s) = self
            .tracer
            .span("ingest.decode_sharded", |_| ingest_bytes(&inputs.capture, &config(threads)));
        let sharded = sharded.map_err(|e| format!("in-process sharded ingest failed: {e}"))?;
        if sharded.trace.events != serial.trace.events || sharded.report != serial.report {
            self.problems
                .push(format!("ingest with {threads} threads differs from the serial ingest"));
        }
        let report = &serial.report;
        if !report.conserves() {
            self.problems.push("in-process ingest byte ledger does not conserve".into());
        }
        let metrics = &mut *self.metrics;
        metrics.set("ingest.decode_s", decode_s);
        metrics.set("ingest.events_per_s", report.events as f64 / decode_s);
        metrics.set("ingest.mb_per_s", inputs.capture.len() as f64 / 1e6 / decode_s);
        metrics.set("ingest.sharded_speedup", decode_s / sharded_s);
        metrics.set("ingest.frames_scanned", report.frames_scanned as f64);
        metrics.set("ingest.frames_quarantined", report.quarantined_frames() as f64);
        metrics.set("ingest.resyncs", report.resyncs as f64);
        metrics.set("ingest.bytes_quarantined", report.bytes_quarantined as f64);
        metrics
            .set("ingest.recovered_share", report.events as f64 / inputs.events_generated() as f64);
        Ok(serial)
    }

    /// resolver: serial replay, then the sharded replay that must equal it.
    fn resolver(&mut self, trace: &DayTrace) -> DayReport {
        let threads = nproc();
        let sim = || ResolverSim::new(SimConfig::default());
        let (batch, replay_s) =
            self.tracer.span("resolver.replay", |_| sim().day(trace).run_serial());
        let (sharded, sharded_s) = self
            .tracer
            .span("resolver.replay_sharded", |_| sim().day(trace).threads(threads).run());
        if sharded != batch {
            self.problems
                .push(format!("replay with {threads} threads differs from the serial replay"));
        }
        let metrics = &mut *self.metrics;
        metrics.set("resolver.replay_s", replay_s);
        metrics.set("resolver.replay_events_per_s", trace.events.len() as f64 / replay_s);
        metrics.set("resolver.sharded_speedup", replay_s / sharded_s);
        metrics.set("resolver.cache_hit_ratio", batch.cache.hit_rate());
        metrics.set("resolver.rr_stats_entries", batch.rr_stats.len() as f64);
        metrics.set("cache.hits", batch.cache.hits as f64);
        metrics.set("cache.misses", batch.cache.misses as f64);
        metrics.set("cache.premature_evictions", batch.cache.premature_evictions() as f64);
        batch
    }

    /// core: one tree build plus Algorithm 1, graded against ground truth.
    fn core(&mut self, batch: &DayReport, miner: &Miner) -> Vec<Finding> {
        let (mut tree, tree_s) =
            self.tracer.span("core.tree_build", |_| DomainTree::from_day_stats(&batch.rr_stats));
        let tree_nodes = tree.node_count();
        let (findings, mine_s) =
            self.tracer.span("core.mine", |_| miner.mine(&mut tree, &SuffixList::builtin()));
        let graded = evaluate(self.inputs, batch, findings.clone());
        let metrics = &mut *self.metrics;
        metrics.set("core.tree_build_s", tree_s);
        metrics.set("core.tree_nodes", tree_nodes as f64);
        metrics.set("core.mine_s", mine_s);
        metrics.set("core.findings", findings.len() as f64);
        metrics.set("core.findings_tpr", graded.tpr());
        metrics.set("core.findings_fpr", graded.fpr());
        findings
    }

    /// stream: memory store, no checkpoint. The report's render is the
    /// reference the CLI's stdout must equal.
    fn stream_memory(
        &mut self,
        trace: &DayTrace,
        batch: &DayReport,
        miner: &Miner,
        config: StreamConfig,
        batch_findings: usize,
    ) -> StreamReport {
        let (run, _) = self.tracer.span("stream.run_memory", |_| {
            stream_run(StreamMiner::new(config, miner), &trace.events)
        });
        if !run.report.conserves() {
            self.problems.push(format!("in-process stream: {}", run.report.conservation_line()));
        }
        let graded = evaluate(self.inputs, batch, run.report.final_findings.clone());
        let metrics = &mut *self.metrics;
        metrics.set("stream.push_s", run.push_s);
        let due = epoch_boundaries(&self.inputs.trace.events, config.epoch_secs);
        metrics.set("stream.epochs_closed", run.report.epochs.len() as f64);
        metrics.set("stream.epochs_skipped", due.saturating_sub(run.report.epochs.len()) as f64);
        metrics.set("stream.epoch_close_s", run.close_s);
        metrics.set("stream.epoch_close_max_s", run.close_max_s);
        metrics.set("stream.finish_s", run.finish_s);
        metrics.set("stream.peak_state_bytes", run.report.peak_state_bytes as f64);
        metrics.set("stream.findings_final", run.report.final_findings.len() as f64);
        metrics.set("stream.findings_batch_ref", batch_findings as f64);
        metrics.set("stream.findings_tpr", graded.tpr());
        metrics.set("stream.findings_fpr", graded.fpr());
        run.report
    }

    /// dns: wire decode over payloads sampled from the capture, and name
    /// parsing over rendered query names.
    fn dns(&mut self, trace: &DayTrace) -> Result<(), String> {
        let inputs = self.inputs;
        let mut ledger = IngestReport::default();
        let (scanned, skip) = match inputs.spec.format {
            CaptureFormat::Pcap => (pcap::scan(&inputs.capture, &mut ledger), PCAP_DNS_OFFSET),
            CaptureFormat::Dnstap => (framestream::scan(&inputs.capture, &mut ledger), 0),
        };
        let frames = scanned.map_err(|e| format!("capture scan failed: {e}"))?.frames;
        let stride = (frames.len() / DNS_SAMPLE).max(1);
        let payloads: Vec<&[u8]> = frames
            .iter()
            .step_by(stride)
            .filter_map(|f| inputs.capture.get(f.payload.clone()).and_then(|p| p.get(skip..)))
            .collect();
        let (decoded, wire_s) = self.tracer.span("dns.wire_decode", |_| {
            payloads.iter().filter(|p| black_box(wire::decode(p)).is_ok()).count()
        });
        if decoded * 10 < payloads.len() * 9 {
            self.problems.push(format!(
                "only {decoded} of {} sampled payloads decode as DNS",
                payloads.len()
            ));
        }
        self.metrics.set("dns.wire_decode_per_s", payloads.len() as f64 / wire_s);

        let stride = (trace.events.len() / DNS_SAMPLE).max(1);
        let names: Vec<String> =
            trace.events.iter().step_by(stride).map(|e| e.name.to_string()).collect();
        let (parsed, parse_s) = self.tracer.span("dns.name_parse", |_| {
            names.iter().filter(|n| black_box(Name::parse(n)).is_ok()).count()
        });
        if parsed != names.len() {
            self.problems
                .push(format!("only {parsed} of {} rendered names parse back", names.len()));
        }
        self.metrics.set("dns.name_parse_per_s", names.len() as f64 / parse_s);
        Ok(())
    }

    /// trace_io: the text trace through a file, as the CLI stages pass it.
    fn trace_io(&mut self, trace: &DayTrace) -> Result<(), String> {
        let path = self.dir.join("probe.trace");
        let (written, write_s) = self.tracer.span("trace_io.write", |_| -> Result<(), String> {
            let mut out = BufWriter::new(File::create(&path).map_err(|e| e.to_string())?);
            trace_io::write_trace(trace, &mut out).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())
        });
        written.map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let (reread, read_s) = self.tracer.span("trace_io.read", |_| -> Result<DayTrace, String> {
            let file = File::open(&path).map_err(|e| e.to_string())?;
            trace_io::read_trace(BufReader::new(file)).map_err(|e| e.to_string())
        });
        let reread = reread.map_err(|e| format!("cannot read {} back: {e}", path.display()))?;
        // Zone tags are generator bookkeeping the text format drops.
        let same = reread.events.len() == trace.events.len()
            && reread.events.iter().zip(&trace.events).all(|(a, b)| {
                (a.time, a.client, &a.name, a.qtype, &a.outcome)
                    == (b.time, b.client, &b.name, b.qtype, &b.outcome)
            });
        if !same {
            self.problems.push("the text trace does not round-trip the ingested events".into());
        }
        self.metrics.set("trace_io.write_s", write_s);
        self.metrics.set("trace_io.read_s", read_s);
        self.metrics.set("trace_io.bytes", std::fs::metadata(&path).map_or(0, |m| m.len()) as f64);
        Ok(())
    }

    /// resolver: the bare session the stream miner drives, with no
    /// observer; what a push costs beyond it is the stream layer's fold.
    fn session(&mut self, trace: &DayTrace) {
        let ((), session_s) = self.tracer.span("resolver.session", |_| {
            let mut session = EventSession::new(ResolverSim::new(SimConfig::default()), trace.day);
            for event in &trace.events {
                session.push(event, None, &mut ());
            }
            black_box(session.finish());
        });
        let push_s =
            self.metrics.get("stream.push_s").expect("a full pass runs the memory stream first");
        self.metrics.set("resolver.session_s", session_s);
        self.metrics.set("stream.fold_s", push_s - session_s);
    }

    /// ml: the model codec, and the scorer Algorithm 1 calls per group.
    fn ml(&mut self, batch: &DayReport, miner: &Miner) -> Result<(), String> {
        let model_text = &self.inputs.model_text;
        let load_samples: Vec<f64> = (0..SMALL_REPEATS)
            .map(|_| {
                self.tracer
                    .span("ml.model_load", |_| {
                        black_box(dnsnoise::ml::model_from_text(model_text)).is_ok()
                    })
                    .1
            })
            .collect();
        self.metrics.set("ml.model_load_s", median(&load_samples));

        let tree = DomainTree::from_day_stats(&batch.rr_stats);
        let min_group = miner.config().min_group_size;
        let mut features: Vec<GroupFeatures> = Vec::new();
        for (node, name) in tree.registered_domains(&SuffixList::builtin()) {
            let groups = tree.groups_under_id(node, name.depth());
            features.extend(
                groups
                    .groups
                    .values()
                    .filter(|g| g.members.len() >= min_group)
                    .map(|g| GroupFeatures::compute(&tree, g)),
            );
        }
        if features.is_empty() {
            return Err("the day has no classifiable group to score".into());
        }
        let rounds = (200_000 / features.len()).max(1);
        let (checksum, predict_s) = self.tracer.span("ml.predict", |_| {
            (0..rounds).map(|_| features.iter().map(|f| miner.score(f)).sum::<f64>()).sum::<f64>()
        });
        black_box(checksum);
        self.metrics.set("ml.predict_per_s", (rounds * features.len()) as f64 / predict_s);
        Ok(())
    }

    /// stream, durable: disk store plus boundary checkpoints, as the CLI
    /// stage runs it; then the checkpoint codec on what it left behind.
    fn stream_durable(
        &mut self,
        trace: &DayTrace,
        miner: &Miner,
        config: StreamConfig,
    ) -> Result<(), String> {
        let (store_dir, ckpt_dir) = (self.dir.join("probe-store"), self.dir.join("probe-ckpt"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let (run, run_s) = self.tracer.span("stream.run_durable", |_| {
            let stream = StreamMiner::new(config, miner)
                .with_store(PdnsBackend::create(BackendKind::Disk, Some(&store_dir)))
                .with_checkpoint(&ckpt_dir);
            stream_run(stream, &trace.events)
        });
        if let Some(e) = run.checkpoint_error.as_ref().or(run.report.rpdns_store_error.as_ref()) {
            self.problems.push(format!("in-process durable stream did not persist: {e}"));
        }
        let (clean, fsck_s) = self
            .tracer
            .span("pdns.fsck_stream_store", |_| fsck(&store_dir, false).map(|r| r.is_clean()));
        if !clean.map_err(|e| format!("fsck of the in-process stream store: {e}"))? {
            self.problems.push("fsck of the in-process stream store is not clean".into());
        }
        self.metrics.set("stream.run_durable_s", run_s);
        self.metrics.set("stream.run_durable_fsck_s", fsck_s);

        let ckpt = Checkpoint::load(&ckpt_dir).map_err(|e| format!("checkpoint load: {e}"))?;
        let Some(ckpt) = ckpt else {
            return Err("the durable stream run left no checkpoint".into());
        };
        let scratch = self.dir.join("probe-ckpt-codec");
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
        let mut save_samples = Vec::new();
        let mut load_samples = Vec::new();
        for _ in 0..SMALL_REPEATS {
            let (saved, save_s) =
                self.tracer.span("stream.checkpoint_write", |_| ckpt.save(&scratch));
            saved.map_err(|e| format!("checkpoint save: {e}"))?;
            let (loaded, load_s) =
                self.tracer.span("stream.checkpoint_load", |_| Checkpoint::load(&scratch));
            if loaded.map_err(|e| format!("checkpoint reload: {e}"))?.map(|c| c.to_bytes())
                != Some(ckpt.to_bytes())
            {
                self.problems.push("a checkpoint does not survive save + load".into());
            }
            save_samples.push(save_s);
            load_samples.push(load_s);
        }
        // One write per closed epoch; the last (largest) checkpoint prices
        // them, since `Checkpoint::capture` is not public.
        let closes = run.report.epochs.len() as f64;
        let ckpt_bytes = std::fs::metadata(ckpt_dir.join(CHECKPOINT_NAME)).map_or(0, |m| m.len());
        self.metrics.set("stream.checkpoint_write_s", median(&save_samples) * closes);
        self.metrics.set("stream.checkpoint_load_s", median(&load_samples));
        self.metrics.set("stream.checkpoint_bytes", ckpt_bytes as f64);
        Ok(())
    }

    /// pdns: the run store (and the in-memory reference) fed the answer
    /// records the monitoring point saw, in event order, then queried.
    fn store(&mut self, trace: &DayTrace, batch: &DayReport) -> Result<(), String> {
        let mut answers = AnswerLog::default();
        self.tracer.span("pdns.collect_answers", |_| {
            ResolverSim::new(SimConfig::default()).day(trace).observer(&mut answers).run_serial()
        });
        let plan = plan_from_answers(
            answers.0,
            &self.inputs.ground_truth,
            self.inputs.seed,
            200_000,
            100_000,
        );
        let run =
            run_plan(&plan, &Expected::of(&plan), &self.dir.join("probe-pdns"), 3, self.tracer)?;
        if run.wrong != 0 {
            self.problems.push(format!(
                "{} store answers over the day's records disagree with the oracle",
                run.wrong
            ));
        }
        let distinct = batch.rr_stats.len() as u64;
        if run.distinct != distinct {
            self.problems.push(format!(
                "the store holds {} records but the batch replay saw {distinct} distinct RRs",
                run.distinct
            ));
        }
        set_store_metrics(self.metrics, &run, mem_observe_s(&plan, self.tracer));
        Ok(())
    }
}

/// Every answer record served below the recursives, with its day: what a
/// passive-DNS collector at the monitoring point stores.
#[derive(Debug, Default)]
struct AnswerLog(Vec<(Record, u64)>);

impl Observer for AnswerLog {
    fn observe(&mut self, event: &QueryEvent, served: Served, answers: &[Record]) {
        if !(served.is_shed() || served.is_failure()) {
            self.0.extend(answers.iter().map(|rr| (rr.clone(), event.time.day())));
        }
    }
}

/// Seconds the in-memory reference store (`RpDns`) takes to observe the
/// plan's build list.
pub fn mem_observe_s(plan: &StorePlan, tracer: &mut Tracer) -> f64 {
    tracer
        .span("pdns.mem_observe", |_| {
            let mut mem = RpDns::new();
            for (record, day) in &plan.build {
                mem.observe(record, *day);
            }
            black_box(mem.len());
        })
        .1
}

/// The `pdns.*` per-layer metrics of one store pass.
pub fn set_store_metrics(metrics: &mut Metrics, run: &StoreRun, mem_observe_s: f64) {
    metrics.set("pdns.mem_observe_per_s", run.observes as f64 / mem_observe_s);
    metrics.set("pdns.disk_observe_per_s", run.observes as f64 / run.observe_s);
    metrics.set("pdns.optimize_s", run.optimize_s);
    metrics.set("pdns.flushes", run.flushes as f64);
    metrics.set("pdns.compactions", run.compactions as f64);
    metrics.set("pdns.cold_open_s", run.open_s);
    metrics.set("pdns.fsck_s", run.fsck_s);
    metrics.set("pdns.fsck_mb_per_s", run.fsck_bytes as f64 / 1e6 / run.fsck_s);
    metrics.set("pdns.get_hit_per_s", run.hit_gets as f64 / run.hit_s);
    metrics.set("pdns.get_miss_per_s", run.miss_gets as f64 / run.miss_s);
    metrics.set("pdns.scan_entries_per_s", run.scan_entries as f64 / run.scan_s);
    metrics.set("pdns.mixed_ops_per_s", run.mixed_ops as f64 / run.mixed_s);
    metrics.set("pdns.durable_bytes", run.durable_bytes as f64);
    metrics.set("pdns.runs", run.runs as f64);
    metrics.set("pdns.learned_runs", run.learned_runs as f64);
}
