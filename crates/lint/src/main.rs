//! CLI for the workspace linter. See `dnsnoise-lint --help`.

use std::path::PathBuf;
use std::process::ExitCode;

use dnsnoise_lint::{certification_stats, diag, lint_workspace, stale_allowlist_entries};

const USAGE: &str = "\
dnsnoise-lint: workspace determinism & invariant linter

USAGE:
    dnsnoise-lint [--root DIR] [--format text|json] [--check-allowlist]

OPTIONS:
    --root DIR        Workspace root to lint. Defaults to the nearest
                      ancestor of the current directory with a Cargo.toml
                      declaring [workspace].
    --format FORMAT   Output format: text (default, file:line:col:
                      rule-id: message per violation) or json.
    --check-allowlist Instead of linting, fail if lint-allowlist.txt
                      contains stale entries (suppressions that no
                      longer match any diagnostic) or
                      lint-certified-std.txt lists names no certified
                      zone calls.
    -h, --help        Print this help.

EXIT CODES:
    0  clean
    1  violations found / stale allowlist entries
    2  usage or I/O error

Suppressions: `// lint:allow(rule-id): justification` inline, or
`rule-id path-prefix` lines in lint-allowlist.txt at the workspace
root. Panic-freedom zones opt in with `// lint:certify(no-panic)`;
their known-total std names live in lint-certified-std.txt. See
DESIGN.md \u{a7}static analysis for the rule catalogue.";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = String::from("text");
    let mut check_allowlist = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root requires a directory"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = "text".into(),
                Some("json") => format = "json".into(),
                _ => return usage_error("--format must be `text` or `json`"),
            },
            "--check-allowlist" => check_allowlist = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(root) => root,
        None => {
            eprintln!("dnsnoise-lint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };

    if check_allowlist {
        let stale = stale_allowlist_entries(&root)
            .and_then(|stale| Ok((stale, certification_stats(&root)?.stale_std_entries)));
        let (stale, stale_std) = match stale {
            Ok(stale) => stale,
            Err(err) => {
                eprintln!("dnsnoise-lint: {err}");
                return ExitCode::from(2);
            }
        };
        if stale.is_empty() && stale_std.is_empty() {
            eprintln!("dnsnoise-lint: allowlists are live (no stale entries)");
            return ExitCode::SUCCESS;
        }
        for e in &stale {
            println!("stale allowlist entry: {} {}", e.rule, e.path_prefix);
        }
        for e in &stale_std {
            println!("stale certified-std entry: {e}");
        }
        eprintln!(
            "dnsnoise-lint: {} stale entr(y/ies) — prune them from lint-allowlist.txt / \
             lint-certified-std.txt",
            stale.len() + stale_std.len()
        );
        return ExitCode::FAILURE;
    }

    let diags = match lint_workspace(&root) {
        Ok(diags) => diags,
        Err(err) => {
            eprintln!("dnsnoise-lint: {err}");
            return ExitCode::from(2);
        }
    };

    if format == "json" {
        print!("{}", diag::to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
    }
    if diags.is_empty() {
        if format == "text" {
            eprintln!("dnsnoise-lint: clean");
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("dnsnoise-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("dnsnoise-lint: {message}\n\n{USAGE}");
    ExitCode::from(2)
}

/// Ascends from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
