//! `dnsnoise ingest`: a pcap or dnstap capture into a day trace.

use std::fs::File;
use std::io::{BufWriter, Write};

use dnsnoise::ingest::{EventStream, IngestConfig, IngestError, IngestReport};

use crate::cli::{ensure, flag, parsed, some, to, Kind::Positional, Kind::Value};
use crate::cli::{Flag, Subcommand, Table};
use crate::plumbing::{capture_format, Opts, OUT};

#[rustfmt::skip]
pub const INGEST: Subcommand = Subcommand {
    name: "ingest",
    summary: "parse a pcap/dnstap capture into a day trace (ledger on stderr)",
    tables: &[&Table { title: "ingest", flags: &[
        flag("<capture>", Positional("capture path"), "the pcap or dnstap capture to read",
            |o, v| to(&mut o.input, v)),
        flag("--format", Value("<fmt>"), "force pcap or dnstap (default: auto-detect)",
            |o, v| parsed(&mut o.format, capture_format(v))),
        Flag { alias: Some("-o"), ..flag(OUT, Value("<file>"), "destination (default: stdout)",
            |o, v| some(&mut o.out, v)) },
        flag("--max-error-rate", Value("<r>"), "refuse a source losing more of its bytes",
            |o, v| to(&mut o.max_error_rate, v)).default("0.5"),
    ] }],
    validate: |o| ensure((0.0..=1.0).contains(&o.max_error_rate),
        "--max-error-rate must be in [0, 1]"),
    run,
};

fn run(o: &Opts) -> Result<(), String> {
    let path = &o.input;
    let capture = File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let config = IngestConfig {
        format: o.format,
        max_error_rate: o.max_error_rate,
        ..IngestConfig::default()
    };
    let mut stream =
        EventStream::from_reader(capture, &config).map_err(|e| format!("{path}: {e}"))?;

    // Each event's line is rendered from its decoded frame as it leaves
    // the filter — no event is built — but the
    // error-budget verdict exists only at end of capture and a refused
    // source must emit nothing. So the text goes to a sibling of the
    // destination that is renamed over it after the verdict — or, with
    // nothing a rename may replace (stdout; a `-o /dev/stdout`, pipe or
    // symlink that has to be written through), is held back until then.
    let renamed_over = o
        .out
        .as_deref()
        .filter(|dest| std::fs::symlink_metadata(dest).map_or(true, |m| m.is_file()));
    let Some(dest) = renamed_over else {
        let mut text = Vec::new();
        stream.write_lines(&mut text).map_err(|e| e.to_string())?;
        let report = verdict(stream, path)?;
        return match &o.out {
            Some(dest) => {
                std::fs::write(dest, &text).map_err(|e| format!("cannot write {dest}: {e}"))?;
                eprintln!("wrote {} events to {dest}", report.events);
                Ok(())
            }
            None => std::io::stdout().lock().write_all(&text).map_err(|e| e.to_string()),
        };
    };
    let sibling = format!("{dest}.tmp{}", std::process::id());
    let publish = || -> Result<u64, String> {
        let file = File::create(&sibling).map_err(|e| format!("cannot create {dest}: {e}"))?;
        stream
            .write_lines(BufWriter::new(file))
            .map_err(|e| format!("cannot write {dest}: {e}"))?;
        let report = verdict(stream, path)?;
        std::fs::rename(&sibling, dest).map_err(|e| format!("cannot create {dest}: {e}"))?;
        Ok(report.events)
    };
    match publish() {
        Ok(events) => {
            eprintln!("wrote {events} events to {dest}");
            Ok(())
        }
        Err(e) => {
            let _ = std::fs::remove_file(&sibling);
            Err(e)
        }
    }
}

/// Closes an ingest stream and prints its ledger — to stderr, so the trace
/// can go to stdout — whether the source passed its error budget or not.
fn verdict(stream: EventStream, path: &str) -> Result<IngestReport, String> {
    match stream.finish() {
        Ok(report) => {
            eprint!("{report}");
            Ok(report)
        }
        Err(IngestError::ErrorBudgetExceeded { rate, limit, report }) => {
            eprint!("{report}");
            Err(format!(
                "{path}: error rate {:.1}% exceeds the {:.1}% budget",
                rate * 100.0,
                limit * 100.0
            ))
        }
        Err(e) => Err(format!("{path}: {e}")),
    }
}
