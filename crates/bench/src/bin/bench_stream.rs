//! Streaming-miner throughput and resident-state footprint versus the
//! batch pipeline, written to `BENCH_stream.json`.
//!
//! Usage:
//!
//! ```text
//! bench_stream [--scale <f64>] [--epoch-secs <n>] [--out <file>]
//! ```
//!
//! Two figures matter here. Throughput: events/sec for the batch replay
//! (materialise the day, then build the tree and mine) versus the
//! streaming push loop (the same replay step plus HyperLogLog and pDNS
//! updates per event and periodic epoch closes). Memory: the streaming
//! miner's peak resident state — the replay session's per-RR statistics
//! table plus two HyperLogLogs — versus what the batch path must
//! materialise: the full trace text plus that same table, both sides
//! sized by the one model (`RrDayStats::state_bytes`).
//!
//! As in the other benches, correctness is gated before the stopwatch:
//! two streaming runs must render byte-identically, and the measured
//! configuration must reproduce the batch findings exactly.

use std::fmt::Write as _;
use std::process::ExitCode;

use dnsnoise_bench::util::{measure, RUNS};
use dnsnoise_core::{DailyPipeline, DomainTree, Finding, Miner, MinerConfig};
use dnsnoise_dns::SuffixList;
use dnsnoise_resolver::{DayReport, ResolverSim, SimConfig};
use dnsnoise_stream::{StreamConfig, StreamMiner, StreamReport};
use dnsnoise_workload::{trace_io, DayTrace, GroundTruth, Scenario, ScenarioConfig};

fn batch_run(trace: &DayTrace, gt: &GroundTruth, miner: &Miner) -> (DayReport, Vec<Finding>) {
    let mut sim = ResolverSim::new(SimConfig::default());
    let report = sim.day(trace).ground_truth(gt).run();
    let mut tree = DomainTree::from_day_stats(&report.rr_stats);
    let findings = miner.mine(&mut tree, &SuffixList::builtin());
    (report, findings)
}

fn stream_run(
    trace: &DayTrace,
    gt: &GroundTruth,
    miner: &Miner,
    config: StreamConfig,
) -> StreamReport {
    let mut stream = StreamMiner::new(config, miner).ground_truth(gt);
    for event in &trace.events {
        stream.push(event);
    }
    stream.finish().0
}

fn sorted_findings(mut findings: Vec<Finding>) -> Vec<Finding> {
    findings.sort_by(|a, b| a.zone.cmp(&b.zone).then(a.depth.cmp(&b.depth)));
    findings
}

fn main() -> ExitCode {
    let mut scale = 0.05f64;
    let mut epoch_secs = StreamConfig::default().epoch_secs;
    let mut out_path = String::from("BENCH_stream.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--scale" => scale = value("--scale").parse().expect("numeric --scale"),
            "--epoch-secs" => {
                epoch_secs = value("--epoch-secs").parse().expect("numeric --epoch-secs");
            }
            "--out" => out_path = value("--out"),
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("usage: bench_stream [--scale <f64>] [--epoch-secs <n>] [--out <file>]");
                return ExitCode::FAILURE;
            }
        }
    }

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("generating a scale-{scale} day and training the miner ({cpus} cpu(s)) ...");
    let scenario = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(scale), 7);
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let _ = pipeline.run_day(&scenario, 0);
    let miner = pipeline.into_miner().expect("day 0 trains the model");
    let trace = scenario.generate_day(1);
    let gt = scenario.ground_truth();
    eprintln!("{} events", trace.events.len());

    let config = StreamConfig { epoch_secs, ..StreamConfig::default() };

    // Correctness gates before the stopwatch. First: the streaming path
    // must be deterministic — two runs, byte-identical reports.
    let first = stream_run(&trace, gt, &miner, config);
    let again = stream_run(&trace, gt, &miner, config);
    assert_eq!(first.render(), again.render(), "streaming run is not deterministic");
    assert!(first.conserves(), "{}", first.conservation_line());

    // Second: the stream mines the session's exact table, so the findings
    // of the run being measured must equal batch mining.
    let (batch_report, batch_findings) = batch_run(&trace, gt, &miner);
    assert_eq!(
        sorted_findings(first.final_findings),
        sorted_findings(batch_findings.clone()),
        "streamed findings must equal batch findings"
    );

    eprintln!("measuring batch (replay + tree + mine) ...");
    let (batch_m, _) = measure(trace.events.len(), || batch_run(&trace, gt, &miner));
    eprintln!("  batch   {:>10.0} events/s", batch_m.per_sec);

    eprintln!("measuring stream (push loop + epoch closes) ...");
    let (stream_m, report) = measure(trace.events.len(), || stream_run(&trace, gt, &miner, config));
    eprintln!("  stream  {:>10.0} events/s", stream_m.per_sec);

    // What batch materialises to mine the same day: the trace text it
    // reads plus the exact per-RR table the tree is built from.
    let mut trace_text = Vec::new();
    trace_io::write_trace(&trace, &mut trace_text).expect("serialize trace");
    let rr_bytes = batch_report.rr_stats.state_bytes();
    let materialized = trace_text.len() + rr_bytes;
    let peak = report.peak_state_bytes;
    eprintln!(
        "  state   {} bytes streaming peak vs {} bytes materialized ({:.1}x smaller)",
        peak,
        materialized,
        materialized as f64 / peak as f64
    );
    assert!(
        peak < materialized,
        "streaming peak state ({peak}) must undercut the batch footprint ({materialized})"
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"stream\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"events\": {},", trace.events.len());
    let _ = writeln!(json, "  \"runs_per_measurement\": {RUNS},");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"epoch_secs\": {epoch_secs},");
    let _ = writeln!(json, "  \"epochs_closed\": {},", report.epochs.len());
    let _ = writeln!(json, "  \"sketches\": {{\"hll_precision\": {}}},", config.hll_precision);
    let _ = writeln!(
        json,
        "  \"batch\": {{\"secs\": {:.4}, \"events_per_sec\": {:.0}}},",
        batch_m.secs, batch_m.per_sec
    );
    let _ = writeln!(
        json,
        "  \"stream\": {{\"secs\": {:.4}, \"events_per_sec\": {:.0}}},",
        stream_m.secs, stream_m.per_sec
    );
    let _ = writeln!(
        json,
        "  \"throughput_ratio_stream_over_batch\": {:.2},",
        batch_m.secs / stream_m.secs
    );
    let _ = writeln!(json, "  \"stream_peak_state_bytes\": {peak},");
    let _ = writeln!(
        json,
        "  \"batch_materialized_bytes\": {{\"trace_text\": {}, \"rr_stats\": {}, \"total\": {}}},",
        trace_text.len(),
        rr_bytes,
        materialized
    );
    let _ =
        writeln!(json, "  \"state_reduction_factor\": {:.1},", materialized as f64 / peak as f64);
    let _ = writeln!(json, "  \"final_findings\": {},", report.final_findings.len());
    let _ = writeln!(json, "  \"batch_findings\": {},", batch_findings.len());
    let _ = writeln!(json, "  \"conservation\": \"{}\"", report.conservation_line());
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write BENCH_stream.json");
    eprintln!("wrote {out_path}");
    ExitCode::SUCCESS
}
