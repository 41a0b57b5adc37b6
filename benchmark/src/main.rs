//! Capture-to-findings benchmark for the dnsnoise pipeline.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <n>] [--trace <0|1>]
//!           [--smoke] [--trace-out <file>]
//! benchmark --aa [--workload <name>] [--seed <n>] [--smoke]
//! ```
//!
//! Four workloads (see `spec.rs` and the README next to this package), each
//! measured end to end — the release `dnsnoise` CLI run stage by stage as
//! child processes over seeded files — and, in a traced run, layer by
//! layer through the crates' public functions. Correctness gates run
//! before any metric is printed. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod calib;
mod child;
mod layers;
mod pipeline;
mod querymix;
mod run;
mod setup;
mod spec;
mod stats;
mod storebench;
mod storegen;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use run::{Outcome, RunOptions};
use spec::{END_TO_END, PER_LAYER, WORKLOADS};

/// Volume of the generated inputs: 602k events on the December day, 400k
/// on the February day, 300k distinct store records. The paper-shaped size
/// is 1.0, at which the driver's 92 runs overrun its time cap with a single
/// rep each; at this size every run keeps two to four reps and the whole
/// session takes about two thirds of the cap.
const FULL_SCALE: f64 = 0.5;
const SMOKE_SCALE: f64 = 0.05;
const DEFAULT_SECONDS: f64 = 10.0;
/// Measured reps per run at most.
const MAX_REPS: usize = 12;
/// Runs (seeds) per set in `--aa`, as the driver makes them.
const AA_RUNS: usize = 10;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
    trace_out: Option<PathBuf>,
}

impl Args {
    fn scale(&self) -> f64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            FULL_SCALE
        }
    }
}

const USAGE: &str =
    "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>]\n\
                     \x20                [--smoke] [--aa] [--trace-out <file>]\n";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        aa: false,
        trace_out: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
            raw.parse().map_err(|_| format!("bad value {raw} for {flag}"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if spec::workload(name).is_none() {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name} (expected one of {})",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name.to_owned());
            }
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => args.seconds = num(flag, value()?)?,
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(format!("bad value {other} for --trace (expected 0 or 1)"))
                    }
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if args.workload.is_none() && args.trace_out.is_some() {
        return Err("--trace-out holds one workload's spans: name it with --workload".into());
    }
    if args.aa && args.trace {
        return Err("--aa compares end-to-end metrics: leave --trace off".into());
    }
    Ok(args)
}

/// First line of `program args...`, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host preamble every output carries.
fn preamble(args: &Args, workload: &str, reps: &str) -> String {
    format!(
        "# benchmark workload={workload} nproc={} git={} rustc=\"{}\" scale={} seed={} reps={reps} trace={}",
        layers::nproc(),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        tool_line("rustc", &["--version"]),
        args.scale(),
        args.seed,
        u8::from(args.trace),
    )
}

fn run_workload(workload: &'static str, args: &Args, seed: u64) -> Result<Outcome, String> {
    let cli = child::locate_cli()?;
    let bin_dir = cli.parent().expect("the CLI sits in a directory").to_path_buf();
    let work = bin_dir.join("bench-work").join(format!("{workload}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let options = RunOptions {
        seed,
        scale: args.scale(),
        seconds: args.seconds,
        max_reps: if args.smoke || args.trace { 1 } else { MAX_REPS },
        trace: args.trace,
        cli,
        work: work.clone(),
    };
    let outcome = match pipeline::pipeline_spec(workload) {
        Some(spec) => pipeline::run(workload, spec, &options),
        None => querymix::run(&options),
    };
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

/// The final JSON line for the metrics this mode reports.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let values = if trace {
        outcome.metrics.all_of(PER_LAYER.iter().map(|m| (m.name, m.unit)))?
    } else {
        outcome.metrics.all_of(END_TO_END.iter().map(|m| (m.name, m.unit)))?
    };
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

fn print_report(outcome: &Outcome, trace: bool) {
    for problem in &outcome.problems {
        println!("GATE FAILED: {problem}");
    }
    for note in &outcome.notes {
        println!("NOTE: {note}");
    }
    println!("{:<28} {:>18}  {:<6} {:<7} bound", "metric", "value", "unit", "better");
    for m in &END_TO_END {
        if let Some(v) = outcome.metrics.get(m.name) {
            println!("{:<28} {:>18.6}  {:<6} {:<7} {}", m.name, v, m.unit, m.better, m.bound);
        }
    }
    // Findings of the measured mining stage against ground truth: exact
    // counts, printed because they apply to the pipeline workloads only
    // (the declared metrics are the ones every workload reports).
    for name in ["findings_tpr", "findings_fpr"] {
        if let Some(v) = outcome.metrics.get(name) {
            println!("{name:<28} {v:>18.6}  ratio");
        }
    }
    for (name, samples) in &outcome.samples {
        let list: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
        println!("  samples {name}: [{}]", list.join(", "));
    }
    if trace {
        for m in &PER_LAYER {
            if let Some(v) = outcome.metrics.get(m.name) {
                println!("{:<28} {:>18.6}  {:<6} {:<7}", m.name, v, m.unit, m.better);
            }
        }
        print!("{}", outcome.tracer.table());
    }
}

/// Runs one workload in this process and prints its results. Returns
/// whether every gate held.
fn run_here(args: &Args, workload: &'static str) -> Result<bool, String> {
    let outcome = run_workload(workload, args, args.seed)?;
    let reps = outcome.samples.first().map_or(0, |(_, s)| s.len());
    println!("{}", preamble(args, workload, &reps.to_string()));
    print_report(&outcome, args.trace);
    if let Some(path) = &args.trace_out {
        std::fs::write(path, outcome.tracer.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", result_line(&outcome, args.trace)?);
    Ok(outcome.problems.is_empty())
}

/// This executable, set to run `workload` with `seed` as the driver would:
/// a process of its own, so that peak memory and allocator state never
/// carry over from one run to the next.
fn run_command(workload: &str, args: &Args, seed: u64) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .args(args.smoke.then_some("--smoke"));
    Ok(command)
}

/// Runs every workload once, each in a process of its own. Returns whether
/// every gate held.
fn run_each(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for w in &WORKLOADS {
        let status = run_command(w.name, args, args.seed)?
            .status()
            .map_err(|e| format!("cannot run {}: {e}", w.name))?;
        match status.code() {
            Some(0) => {}
            Some(1) => all_correct = false,
            _ => return Err(format!("{} could not be run", w.name)),
        }
    }
    Ok(all_correct)
}

/// The value of end-to-end metric `name` in a result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    rest.split(',').next()?.parse().ok()
}

/// One run in a process of its own, its result line parsed back.
fn run_in_child(workload: &str, args: &Args, seed: u64) -> Result<String, String> {
    let output = run_command(workload, args, seed)?
        .output()
        .map_err(|e| format!("cannot run {workload} with seed {seed}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if output.status.success() && line.contains("\"correct\": true") {
        Ok(line.to_owned())
    } else {
        Err(format!(
            "{workload} with seed {seed} failed:\n{stdout}{}",
            String::from_utf8_lossy(&output.stderr)
        ))
    }
}

/// Two full sets of runs on the same build, seed by seed; every
/// end-to-end metric's two medians must agree within its bound.
fn run_aa(args: &Args, workloads: &[&'static str]) -> Result<bool, String> {
    let mut agree = true;
    for workload in workloads {
        println!("{}", preamble(args, workload, &format!("2x{AA_RUNS}")));
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for i in 0..AA_RUNS {
                set.push(run_in_child(workload, args, args.seed + i as u64)?);
            }
        }
        println!(
            "{:<22} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
            "metric", "median_a", "median_b", "spread_a", "spread_b", "bound"
        );
        for m in &END_TO_END {
            let values = |set: &[String]| -> Vec<f64> {
                set.iter().filter_map(|line| metric_in(line, m.name)).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.len() != AA_RUNS || b.len() != AA_RUNS {
                return Err(format!("{workload}: metric {} missing from a run", m.name));
            }
            let (med_a, med_b) = (stats::median(&a), stats::median(&b));
            let worse =
                if m.better == "lower" { med_b - med_a } else { med_a - med_b } / med_a.abs();
            let (spread_a, spread_b) = (stats::spread(&a), stats::spread(&b));
            // setup_s is held to its bound on medians only, as the driver does.
            let steady = m.name == "setup_s" || spread_a.max(spread_b) <= m.bound;
            let ok = worse.abs() <= m.bound && steady;
            agree &= ok;
            println!(
                "{:<22} {:>14.6} {:>14.6} {:>9.4} {:>9.4} {:>7}  {}",
                m.name,
                med_a,
                med_b,
                spread_a,
                spread_b,
                m.bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprint!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let named =
        args.workload.as_deref().map(|n| spec::workload(n).expect("validated while parsing").name);
    let result = match (args.aa, named) {
        (true, Some(workload)) => run_aa(&args, &[workload]),
        (true, None) => run_aa(&args, &WORKLOADS.map(|w| w.name)),
        (false, Some(workload)) => run_here(&args, workload),
        (false, None) => run_each(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse("--workload pdns-query-mix --seed 11 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("pdns-query-mix"));
        assert_eq!((a.seed, a.seconds, a.trace, a.scale()), (11, 10.0, true, FULL_SCALE));
        assert_eq!(parse("--smoke").unwrap().scale(), SMOKE_SCALE);
        assert!(parse("--workload nope").unwrap_err().contains("batch-dec-pcap"));
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--scale 1.0").is_err(), "the input size is not an option");
        assert!(parse("--trace-out spans.json").unwrap_err().contains("--workload"));
        assert!(parse("--aa --trace 1").is_err());
    }

    #[test]
    fn result_line_needs_every_declared_metric() {
        let mut outcome = Outcome {
            metrics: spec::Metrics::default(),
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            samples: Vec::new(),
            tracer: trace::Tracer::new("t"),
        };
        assert!(result_line(&outcome, false).unwrap_err().contains("never measured"));
        for (i, m) in END_TO_END.iter().enumerate() {
            outcome.metrics.set(m.name, 1.5 + i as f64);
        }
        let line = result_line(&outcome, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(metric_in(&line, "setup_s"), Some(1.5));
        assert_eq!(metric_in(&line, "events_per_s"), Some(2.5));
        assert_eq!(metric_in(&line, "no_such_metric"), None);
        outcome.metrics.set("setup_s", f64::NAN);
        assert!(result_line(&outcome, false).unwrap_err().contains("not finite"));
    }
}
