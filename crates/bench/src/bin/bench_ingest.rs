//! Capture-ingestion throughput: events/sec and MB/s, serial vs sharded,
//! for both capture formats, written to `BENCH_ingest.json`.
//!
//! Usage:
//!
//! ```text
//! bench_ingest [--scale <f64>] [--threads <n>] [--out <file>]
//! ```
//!
//! Each measurement ingests the same in-memory capture several times and
//! keeps the fastest run (the standard way to suppress scheduler noise in
//! a throughput figure). The *outputs* of every timed run are asserted
//! identical to the serial ones first — a benchmark of a nondeterministic
//! parse would be measuring a bug.

use std::fmt::Write as _;
use std::process::ExitCode;

use dnsnoise_bench::util::{best_of, RUNS};
use dnsnoise_ingest::{framestream, ingest_bytes, pcap, CaptureFormat, IngestConfig};
use dnsnoise_workload::{Scenario, ScenarioConfig};

struct Measurement {
    secs: f64,
    events_per_sec: f64,
    mb_per_sec: f64,
}

fn measure(bytes: &[u8], format: CaptureFormat, threads: usize) -> Measurement {
    let config = IngestConfig { format: Some(format), threads, ..Default::default() };
    let (best, events) =
        best_of(|| ingest_bytes(bytes, &config).expect("clean capture ingests").trace.events.len());
    Measurement {
        secs: best,
        events_per_sec: events as f64 / best,
        mb_per_sec: bytes.len() as f64 / 1e6 / best,
    }
}

fn json_measurement(m: &Measurement) -> String {
    format!(
        "{{\"secs\": {:.4}, \"events_per_sec\": {:.0}, \"mb_per_sec\": {:.1}}}",
        m.secs, m.events_per_sec, m.mb_per_sec
    )
}

fn main() -> ExitCode {
    let mut scale = 0.05f64;
    let mut threads = 4usize;
    let mut out_path = String::from("BENCH_ingest.json");
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
            "--threads" => threads = value("--threads").parse().expect("numeric --threads"),
            "--out" => out_path = value("--out"),
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("usage: bench_ingest [--scale <f64>] [--threads <n>] [--out <file>]");
                return ExitCode::FAILURE;
            }
        }
    }

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("generating a scale-{scale} day ({cpus} cpu(s) available) ...");
    let scenario = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(scale), 7);
    let trace = scenario.generate_day(0);
    eprintln!("{} events", trace.events.len());

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"ingest\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"events\": {},", trace.events.len());
    let _ = writeln!(json, "  \"runs_per_measurement\": {RUNS},");
    let _ = writeln!(json, "  \"sharded_threads\": {threads},");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"formats\": {{");

    for (i, format) in [CaptureFormat::Pcap, CaptureFormat::Dnstap].into_iter().enumerate() {
        let bytes = match format {
            CaptureFormat::Pcap => pcap::write_pcap(&trace).expect("serialize"),
            CaptureFormat::Dnstap => framestream::write_dnstap(&trace).expect("serialize"),
        };

        // Correctness gate before the stopwatch: sharded output must be
        // identical to serial output on this exact capture.
        let serial_out = ingest_bytes(
            &bytes,
            &IngestConfig { format: Some(format), threads: 1, ..Default::default() },
        )
        .expect("serial ingest");
        let sharded_out = ingest_bytes(
            &bytes,
            &IngestConfig { format: Some(format), threads, ..Default::default() },
        )
        .expect("sharded ingest");
        assert_eq!(serial_out.trace.events, sharded_out.trace.events, "determinism violated");
        assert_eq!(serial_out.report, sharded_out.report, "determinism violated");

        eprintln!("measuring {format} ({} bytes) ...", bytes.len());
        let serial = measure(&bytes, format, 1);
        let sharded = measure(&bytes, format, threads);
        eprintln!(
            "  serial  {:>10.0} events/s  {:>7.1} MB/s",
            serial.events_per_sec, serial.mb_per_sec
        );
        eprintln!(
            "  sharded {:>10.0} events/s  {:>7.1} MB/s  ({:.2}x)",
            sharded.events_per_sec,
            sharded.mb_per_sec,
            serial.secs / sharded.secs
        );

        let _ = writeln!(json, "    \"{format}\": {{");
        let _ = writeln!(json, "      \"capture_bytes\": {},", bytes.len());
        let _ = writeln!(json, "      \"serial\": {},", json_measurement(&serial));
        let _ = writeln!(json, "      \"sharded\": {},", json_measurement(&sharded));
        let _ = writeln!(json, "      \"speedup\": {:.2}", serial.secs / sharded.secs);
        let _ = writeln!(json, "    }}{}", if i == 0 { "," } else { "" });
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write BENCH_ingest.json");
    eprintln!("wrote {out_path}");
    ExitCode::SUCCESS
}
