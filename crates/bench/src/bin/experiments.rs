//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! experiments [--scale <f64>] [--store memory|disk] [--store-path <dir>]
//!             [<id> ...]
//! ```
//!
//! With no ids, every experiment runs in paper order. `--scale` multiplies
//! the workload size (1.0 = report scale used for EXPERIMENTS.md; smaller
//! values run faster with noisier numbers). `--store` picks the pDNS
//! backend for the storage-bound experiments (fig5, fig15, pdnsdb);
//! reports are bit-identical across backends, and `--store-path` mirrors
//! the disk backend's sorted runs under a directory.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dnsnoise_bench::{run_experiment_with_store, ExperimentId};
use dnsnoise_pdns::BackendKind;

const USAGE: &str = "usage: experiments [--scale <f64>] [--store memory|disk] \
                     [--store-path <dir>] [<id> ...]";

fn known_ids() -> String {
    ExperimentId::all().iter().map(ToString::to_string).collect::<Vec<_>>().join(" ")
}

/// What the command line asked for; `None` from [`parse`] is `--help`.
#[derive(Debug, PartialEq)]
struct Opts {
    scale: f64,
    store: BackendKind,
    store_path: Option<PathBuf>,
    ids: Vec<ExperimentId>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Opts>, String> {
    let mut opts =
        Opts { scale: 1.0, store: BackendKind::default(), store_path: None, ids: Vec::new() };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--scale" => {
                let value = value()?;
                match value.parse::<f64>() {
                    Ok(v) if v > 0.0 => opts.scale = v,
                    _ => return Err(format!("invalid scale: {value}")),
                }
            }
            "--store" => opts.store = value()?.parse()?,
            "--store-path" => opts.store_path = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Ok(None),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            id => {
                opts.ids.push(id.parse().map_err(|e| format!("{e}\nknown ids: {}", known_ids()))?)
            }
        }
    }
    if opts.ids.is_empty() {
        opts.ids = ExperimentId::all().to_vec();
    }
    if opts.store_path.is_some() && opts.store != BackendKind::Disk {
        return Err("--store-path requires --store disk".into());
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{USAGE}\nids: {}", known_ids());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    for id in opts.ids {
        let start = Instant::now();
        let report =
            run_experiment_with_store(id, opts.scale, opts.store, opts.store_path.as_deref());
        println!("{report}");
        println!("[{id} completed in {:.1?} at scale {}]\n", start.elapsed(), opts.scale);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Option<Opts>, String> {
        parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn flags_and_ids_parse() {
        let o = parsed("--scale 0.25 --store disk --store-path /tmp/pd fig13 phases").unwrap();
        let o = o.expect("not help");
        assert_eq!(o.scale, 0.25);
        assert_eq!(o.store, BackendKind::Disk);
        assert_eq!(o.store_path.as_deref(), Some(std::path::Path::new("/tmp/pd")));
        assert_eq!(o.ids, [ExperimentId::Fig13, ExperimentId::Phases]);
        assert_eq!(parsed("").unwrap().expect("not help").ids, ExperimentId::all());
        assert_eq!(parsed("fig2 --help").unwrap(), None);
    }

    #[test]
    fn bad_invocations_are_named() {
        for (line, needle) in [
            // The thread knob is deleted, not aliased.
            ("--threads 4", "unknown flag --threads"),
            ("--scale", "--scale needs a value"),
            ("--scale 0", "invalid scale"),
            ("--store floppy", "floppy"),
            ("--store-path /tmp/pd", "requires --store disk"),
            ("fig99", "known ids"),
        ] {
            let err = parsed(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
        assert!(!USAGE.contains("--threads"));
    }
}
