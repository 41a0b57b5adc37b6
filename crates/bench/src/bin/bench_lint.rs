//! Linter throughput over the live workspace, written to
//! `BENCH_lint.json`.
//!
//! Usage:
//!
//! ```text
//! bench_lint [--out <file>]
//! ```
//!
//! Two costs decide whether the certification pass can sit in the
//! pre-PR gate without anyone noticing it:
//!
//! * **full pass** — lex, parse, path rules, and the call-graph
//!   no-panic pass over every workspace `.rs` file, exactly what
//!   `dnsnoise-lint` runs in `scripts/check.sh`.
//! * **certification pass** — the no-panic pass alone (symbol table,
//!   BFS from the zone roots, body scans), isolating what the new
//!   analysis adds on top of the per-file rules.
//!
//! Correctness is gated before the stopwatch: the workspace must lint
//! clean, the certified surface must be non-trivial (zone roots exist
//! and the call graph pulled in more fns than were marked), and the
//! committed allowlist must carry no stale entries. A benchmark of a
//! linter that is wrong about the tree it measures would be noise.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use dnsnoise_bench::util::{best_of, RUNS};
use dnsnoise_lint::{
    certification_stats, collect_sources, lint_files, load_std_allow, nopanic,
    stale_allowlist_entries,
};

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_lint.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(v) => out_path = v,
                None => {
                    eprintln!("--out needs a value");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("usage: bench_lint [--out <file>]");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = collect_sources(&root).expect("walk workspace sources");
    let std_allow = load_std_allow(&root);
    let lines: usize = files.iter().map(|(_, src)| src.lines().count()).sum();
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("linting {} files / {lines} lines ({cpus} cpu(s)) ...", files.len());

    // --- correctness gate: the stopwatch only runs on a true verdict ---
    let diags = dnsnoise_lint::lint_workspace(&root).expect("lint workspace");
    if !diags.is_empty() {
        eprintln!("gate failed: workspace does not lint clean:");
        for d in &diags {
            eprintln!("  {d}");
        }
        return ExitCode::FAILURE;
    }
    let stats = certification_stats(&root).expect("certification stats");
    if stats.marked_roots == 0 || stats.certified_fns <= stats.marked_roots {
        eprintln!(
            "gate failed: trivial certified surface ({} roots, {} fns)",
            stats.marked_roots, stats.certified_fns
        );
        return ExitCode::FAILURE;
    }
    let stale = stale_allowlist_entries(&root).expect("allowlist drift check");
    if !stale.is_empty() || !stats.stale_std_entries.is_empty() {
        eprintln!(
            "gate failed: stale allowlist entries: {stale:?}, stale certified-std entries: {:?}",
            stats.stale_std_entries
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "gate passed: clean tree, {} zone roots -> {} certified fns across {} files",
        stats.marked_roots,
        stats.certified_fns,
        stats.files_with_zones.len()
    );

    // --- stopwatch: full pipeline, then the certification pass alone ---
    let (full_secs, _) = best_of(|| lint_files(&files, &[], &std_allow).len());
    let (cert_secs, _) = best_of(|| {
        let (d, s) = nopanic::analyze(&files, &[], &std_allow);
        d.len() + s.certified_fns
    });

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"lint\",");
    let _ = writeln!(json, "  \"files\": {},", files.len());
    let _ = writeln!(json, "  \"lines\": {lines},");
    let _ = writeln!(json, "  \"zone_roots\": {},", stats.marked_roots);
    let _ = writeln!(json, "  \"certified_fns\": {},", stats.certified_fns);
    let _ = writeln!(json, "  \"files_with_zones\": {},", stats.files_with_zones.len());
    let _ = writeln!(json, "  \"runs_per_measurement\": {RUNS},");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(
        json,
        "  \"gate\": {{\"workspace_clean\": true, \"stale_allowlist_entries\": 0}},"
    );
    let _ = writeln!(
        json,
        "  \"full_pass\": {{\"secs\": {:.4}, \"files_per_sec\": {:.0}, \"lines_per_sec\": {:.0}}},",
        full_secs,
        files.len() as f64 / full_secs,
        lines as f64 / full_secs
    );
    let _ = writeln!(
        json,
        "  \"certification_pass\": {{\"secs\": {:.4}, \"files_per_sec\": {:.0}, \
         \"share_of_full\": {:.2}}}",
        cert_secs,
        files.len() as f64 / cert_secs,
        cert_secs / full_secs
    );
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write BENCH_lint.json");
    eprintln!("wrote {out_path}");
    ExitCode::SUCCESS
}
