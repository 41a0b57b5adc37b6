//! `dnsnoise-lint`: the workspace's determinism & invariant linter.
//!
//! An offline, dependency-free static-analysis pass that walks every
//! workspace `.rs` file and enforces the project invariants that used to
//! live in `scripts/check.sh` grep gates and reviewer folklore: no
//! unordered hash iteration on replay/merge/export paths, no wall-clock
//! or ambient randomness in replay code, exact (cast-free, float-free)
//! counter merges, and overload-gated exports. See [`rules`] for the rule
//! catalogue and DESIGN.md §static analysis for rationale.
//!
//! Violations are suppressible two ways, both auditable in review:
//!
//! * inline: `// lint:allow(rule-id): justification` on the offending
//!   line or the line above — the justification is mandatory;
//! * the committed allowlist (`lint-allowlist.txt` at the workspace
//!   root): `rule-id path-prefix` lines for pre-existing sites where an
//!   inline comment would be noise (e.g. a whole bench harness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deadapi;
pub mod diag;
pub mod lexer;
pub mod nopanic;
pub mod parser;
pub mod rules;

use std::path::{Path, PathBuf};

pub use diag::Diagnostic;
pub use nopanic::{CertStats, StdAllow, CERTIFIED_STD_FILE};

/// Name of the committed allowlist file at the workspace root.
pub const ALLOWLIST_FILE: &str = "lint-allowlist.txt";

/// One committed allowlist entry: `rule` is waived for every file whose
/// workspace-relative path starts with `path_prefix`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowlistEntry {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative path prefix (file or directory).
    pub path_prefix: String,
}

/// An inline `lint:allow` suppression parsed from a comment.
#[derive(Debug, Clone)]
pub(crate) struct InlineAllow {
    pub(crate) rule: String,
    pub(crate) line: u32,
}

/// Parses `lint:allow(rule[, rule…]): justification` comments. Only a
/// comment that *starts* with `lint:allow(` is a suppression — prose
/// that merely mentions the syntax (like this doc) is not. Malformed
/// suppressions (unknown rule, missing justification) become
/// `bad-allow` diagnostics — a suppression without a recorded "why" is
/// itself a violation.
pub(crate) fn parse_allows(
    rel_path: &str,
    comments: &[lexer::Comment],
) -> (Vec<InlineAllow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for comment in comments {
        let text = comment.text.trim_start();
        if !text.starts_with("lint:allow") {
            continue;
        }
        let rest = &text["lint:allow".len()..];
        let mut bad_here = |message: String| {
            bad.push(Diagnostic {
                file: rel_path.to_string(),
                line: comment.line,
                col: 1,
                rule: "bad-allow",
                message,
                zone: None,
                chain: None,
            });
        };
        if !rest.starts_with('(') {
            bad_here("`lint:allow` without a `(rule-id)` list".to_string());
            continue;
        }
        let Some(close) = rest.find(')') else {
            bad_here("`lint:allow(` without a closing `)`".to_string());
            continue;
        };
        let mut ok = true;
        for rule in rest[1..close].split(',') {
            let rule = rule.trim();
            if !rules::RULES.contains(&rule) {
                bad_here(format!(
                    "unknown rule `{rule}` in lint:allow (known: {})",
                    rules::RULES.join(", ")
                ));
                ok = false;
                continue;
            }
            allows.push(InlineAllow { rule: rule.to_string(), line: comment.line });
        }
        // The justification after `):` is mandatory: every suppression
        // must record *why* the invariant holds anyway.
        let after = rest[close + 1..].trim_start();
        let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if ok && justification.is_empty() {
            bad_here(
                "lint:allow requires a justification: `// lint:allow(rule): why this is sound`"
                    .to_string(),
            );
        }
    }
    (allows, bad)
}

/// Lints one file's source text. `rel_path` must be workspace-relative
/// with `/` separators — it drives path-scoped rules and appears in
/// diagnostics verbatim.
pub fn lint_source(rel_path: &str, source: &str, allowlist: &[AllowlistEntry]) -> Vec<Diagnostic> {
    let lexed = lexer::lex(source);
    let (allows, bad_allow) = parse_allows(rel_path, &lexed.comments);
    let mut diags = rules::analyze(rel_path, &lexed);

    diags.retain(|d| {
        let inline =
            allows.iter().any(|a| a.rule == d.rule && allow_covers(&lexed, a.line, d.line));
        let listed = allowlist
            .iter()
            .any(|e| e.rule == d.rule && rel_path.starts_with(e.path_prefix.as_str()));
        !(inline || listed)
    });

    diags.extend(bad_allow);
    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags
}

/// Whether an inline allow on `allow_line` covers a diagnostic on
/// `diag_line`: the allow's own line (comment at end of the offending
/// line) or the statement starting on the next line holding code
/// (comment on its own line above). A statement may span lines — a
/// multi-line `let dead: Vec<_> = map.iter()…;` chain is covered through
/// the `;` that ends it — but coverage stops at a `{` so an allow above
/// a block header never blankets the block's body.
pub(crate) fn allow_covers(lexed: &lexer::Lexed, allow_line: u32, diag_line: u32) -> bool {
    if diag_line == allow_line {
        return true;
    }
    let Some(first) = lexed.tokens.iter().position(|t| t.line > allow_line) else {
        return false;
    };
    let start = lexed.tokens[first].line;
    let mut depth = 0u32;
    let mut end = start;
    for t in &lexed.tokens[first..] {
        end = t.line;
        if t.kind == lexer::TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                ";" | "{" if depth == 0 => break,
                _ => {}
            }
        }
    }
    diag_line >= start && diag_line <= end
}

/// Parses the committed allowlist format: one `rule-id path-prefix` pair
/// per line; `#` starts a comment; blank lines are ignored. Unknown rule
/// ids are reported as `bad-allow` diagnostics against the allowlist
/// file itself.
pub fn parse_allowlist(text: &str) -> (Vec<AllowlistEntry>, Vec<Diagnostic>) {
    let mut entries = Vec::new();
    let mut bad = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (rule, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        if path.is_empty() || parts.next().is_some() || !rules::RULES.contains(&rule) {
            bad.push(Diagnostic {
                file: ALLOWLIST_FILE.to_string(),
                line: (idx + 1) as u32,
                col: 1,
                rule: "bad-allow",
                message: format!("malformed allowlist line `{raw}` (want `rule-id path-prefix`)"),
                zone: None,
                chain: None,
            });
            continue;
        }
        entries.push(AllowlistEntry { rule: rule.to_string(), path_prefix: path.to_string() });
    }
    (entries, bad)
}

/// Directories never descended into: vendored API stand-ins, build
/// output, lint test fixtures (deliberately bad code), and VCS innards.
const SKIP_DIRS: &[&str] = &["third_party", "target", "fixtures", ".git"];

/// Collects every workspace `.rs` file under `root`, sorted for
/// deterministic diagnostic order (the linter holds itself to its own
/// rules).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Reads every workspace `.rs` file under `root` into
/// `(workspace-relative path, source)` pairs with `/` separators, in
/// deterministic order.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(&path)?;
        out.push((rel, source));
    }
    Ok(out)
}

/// Lints an in-memory file set: the per-file token rules plus the
/// whole-set passes, `no-panic` certification and `dead-api` (which need
/// every file at once to build the symbol table and call graph). Returns
/// diagnostics sorted by path, line, column.
pub fn lint_files(
    files: &[(String, String)],
    allowlist: &[AllowlistEntry],
    std_allow: &StdAllow,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (rel, source) in files {
        diags.extend(lint_source(rel, source, allowlist));
    }
    let prepared = nopanic::prepare(files);
    diags.extend(nopanic::certify(&prepared, allowlist, std_allow).0);
    diags.extend(deadapi::analyze(&prepared, allowlist));
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    diags
}

/// Loads the committed std allowlist (`lint-certified-std.txt`) at
/// `root`; a missing file yields an empty allowlist (every std call in a
/// zone then fails, which is the safe direction).
pub fn load_std_allow(root: &Path) -> StdAllow {
    match std::fs::read_to_string(root.join(CERTIFIED_STD_FILE)) {
        Ok(text) => nopanic::parse_std_allow(&text),
        Err(_) => StdAllow::default(),
    }
}

/// Lints the whole workspace rooted at `root`: loads the allowlist and
/// std allowlist, walks every `.rs` file, and returns all surviving
/// diagnostics sorted by path, line, column.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let (allowlist, mut diags) = match std::fs::read_to_string(root.join(ALLOWLIST_FILE)) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => (Vec::new(), Vec::new()),
    };
    let files = collect_sources(root)?;
    diags.extend(lint_files(&files, &allowlist, &load_std_allow(root)));
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(diags)
}

/// Certification-surface summary for the workspace at `root` (zone
/// roots, transitive certified set, files declaring zones).
pub fn certification_stats(root: &Path) -> std::io::Result<CertStats> {
    let files = collect_sources(root)?;
    let (_diags, stats) = nopanic::analyze(&files, &[], &load_std_allow(root));
    Ok(stats)
}

/// Allowlist-drift check: returns the `lint-allowlist.txt` entries that
/// no longer suppress anything — the raw workspace lint (inline allows
/// still applied, committed allowlist withheld) produces no diagnostic
/// the entry would match. Stale suppressions are lies about the
/// codebase and must be pruned.
pub fn stale_allowlist_entries(root: &Path) -> std::io::Result<Vec<AllowlistEntry>> {
    let entries = match std::fs::read_to_string(root.join(ALLOWLIST_FILE)) {
        Ok(text) => parse_allowlist(&text).0,
        Err(_) => Vec::new(),
    };
    if entries.is_empty() {
        return Ok(Vec::new());
    }
    let files = collect_sources(root)?;
    let raw = lint_files(&files, &[], &load_std_allow(root));
    Ok(entries
        .into_iter()
        .filter(|e| {
            !raw.iter().any(|d| d.rule == e.rule && d.file.starts_with(e.path_prefix.as_str()))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_allow_suppresses_same_and_next_line() {
        let src = "fn f() {\n    // lint:allow(wall-clock): harness timing only\n    \
                   let t = std::time::Instant::now();\n}\n";
        assert!(lint_source("crates/x/src/a.rs", src, &[]).is_empty());
        let same = "fn f() {\n    let t = std::time::Instant::now(); \
                    // lint:allow(wall-clock): harness timing only\n}\n";
        assert!(lint_source("crates/x/src/a.rs", same, &[]).is_empty());
    }

    #[test]
    fn inline_allow_covers_a_multi_line_statement() {
        // The diagnostic lands on the `.iter()` line, not the `let`
        // line under the comment; the allow must still reach it.
        let src = "fn f(map: std::collections::HashMap<u32, u32>) {\n    \
                   // lint:allow(hash-iter): removal set, order-free\n    \
                   let dead: Vec<u32> =\n        \
                   map.iter().map(|(k, _)| *k).collect();\n    \
                   drop(dead);\n}\n";
        assert!(lint_source("crates/x/src/a.rs", src, &[]).is_empty());
    }

    #[test]
    fn inline_allow_does_not_blanket_a_block_body() {
        // Coverage stops at `{`: an allow above a fn header does not
        // waive violations inside the body.
        let src = "// lint:allow(wall-clock): header only\nfn f() {\n    \
                   let t = std::time::Instant::now();\n}\n";
        let diags = lint_source("crates/x/src/a.rs", src, &[]);
        assert!(diags.iter().any(|d| d.rule == "wall-clock"), "{diags:?}");
    }

    #[test]
    fn allow_without_justification_is_bad_allow() {
        let src = "fn f() {\n    // lint:allow(wall-clock)\n    \
                   let t = std::time::Instant::now();\n}\n";
        let diags = lint_source("crates/x/src/a.rs", src, &[]);
        // The rule list parsed fine so the site itself is covered, but
        // the missing justification keeps the gate red via bad-allow.
        assert!(diags.iter().any(|d| d.rule == "bad-allow"), "{diags:?}");
        assert!(!diags.iter().any(|d| d.rule == "wall-clock"), "{diags:?}");
    }

    #[test]
    fn allow_with_unknown_rule_is_bad_allow() {
        let src = "// lint:allow(no-such-rule): because\nfn f() {}\n";
        let diags = lint_source("crates/x/src/a.rs", src, &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "bad-allow");
        assert!(diags[0].message.contains("no-such-rule"));
    }

    #[test]
    fn allowlist_waives_by_path_prefix() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let (entries, bad) = parse_allowlist("# comment\nwall-clock crates/bench/\n");
        assert!(bad.is_empty());
        assert!(lint_source("crates/bench/src/x.rs", src, &entries).is_empty());
        assert!(!lint_source("crates/core/src/x.rs", src, &entries).is_empty());
    }

    #[test]
    fn malformed_allowlist_lines_are_reported() {
        let (entries, bad) = parse_allowlist("wall-clock\nnot-a-rule crates/x/\n");
        assert!(entries.is_empty());
        assert_eq!(bad.len(), 2);
        assert!(bad.iter().all(|d| d.rule == "bad-allow"));
    }
}
