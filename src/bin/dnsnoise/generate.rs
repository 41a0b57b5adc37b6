//! `dnsnoise generate`: a synthetic day as a text trace or a capture.

use std::fs::File;
use std::io::{BufWriter, Write};

use dnsnoise::ingest::{corrupt, framestream, pcap, CaptureFormat};
use dnsnoise::workload::trace_io;

use crate::cli::{ensure, flag, parsed, some, to, Kind::Value, Subcommand, Table};
use crate::plumbing::{capture_format, Opts, OUT, SCENARIO};

#[rustfmt::skip]
pub const GENERATE: Subcommand = Subcommand {
    name: "generate",
    summary: "write a synthetic day trace (or a binary capture)",
    tables: &[&SCENARIO, &Table { title: "generate", flags: &[
        flag(OUT, Value("<file>"), "destination (default: stdout)", |o, v| some(&mut o.out, v)),
        flag("--capture", Value("<fmt>"), "write a pcap or dnstap capture instead",
            |o, v| parsed(&mut o.capture, capture_format(v))),
        flag("--corrupt", Value("<frac>"), "flip this share of capture bytes in seeded bursts",
            |o, v| some(&mut o.corrupt, v)),
        flag("--corrupt-seed", Value("<n>"), "corruption seed", |o, v| to(&mut o.corrupt_seed, v))
            .default("0"),
    ] }],
    validate,
    run,
};

fn validate(o: &Opts) -> Result<(), String> {
    o.check_scenario()?;
    let Some(frac) = o.corrupt else { return Ok(()) };
    ensure(o.capture.is_some(), "--corrupt only applies to --capture output")?;
    ensure((0.0..=1.0).contains(&frac), "--corrupt must be in [0, 1]")
}

fn run(o: &Opts) -> Result<(), String> {
    let trace = o.scenario().generate_day(o.day);
    let Some(format) = o.capture else {
        let Some(path) = &o.out else {
            let stdout = BufWriter::new(std::io::stdout().lock());
            return trace_io::write_trace(&trace, stdout).map_err(|e| e.to_string());
        };
        let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        trace_io::write_trace(&trace, BufWriter::new(file)).map_err(|e| e.to_string())?;
        eprintln!("wrote {} events to {path}", trace.events.len());
        return Ok(());
    };
    let mut bytes = match format {
        CaptureFormat::Pcap => pcap::write_pcap(&trace),
        CaptureFormat::Dnstap => framestream::write_dnstap(&trace),
    }
    .map_err(|e| e.to_string())?;
    if let Some(frac) = o.corrupt {
        // Leave the pcap global header intact so the file stays
        // detectable; the scanner is what is under test, not sniffing.
        let skip = match format {
            CaptureFormat::Pcap => pcap::GLOBAL_HEADER_LEN.min(bytes.len()),
            CaptureFormat::Dnstap => 0,
        };
        corrupt::flip_bursts(&mut bytes[skip..], frac, o.corrupt_seed);
    }
    let Some(path) = &o.out else {
        let mut stdout = std::io::stdout().lock();
        return stdout
            .write_all(&bytes)
            .map_err(|e| format!("cannot write capture to stdout: {e}"));
    };
    std::fs::write(path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
    let (events, len) = (trace.events.len(), bytes.len());
    eprintln!("wrote {events} events as a {len} byte {format} capture to {path}");
    Ok(())
}
