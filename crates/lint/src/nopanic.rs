//! The `no-panic` certification pass: call-graph-aware panic-freedom
//! for declared zones.
//!
//! A module or function opts in with a `// lint:certify(no-panic)`
//! marker (file head, above a `mod`, or above a `fn`; see
//! [`crate::parser`]). Inside a zone the pass rejects every panicking
//! construct, and the *requirement propagates transitively*: a certified
//! fn may only call other certified fns, fns resolved inside the
//! workspace symbol table (which are then pulled into the zone and
//! checked themselves), or the reviewed set of known-total std/core
//! names committed as `lint-certified-std.txt`. A violation in a
//! transitively-required fn reports the call chain from the marked root
//! so the finding explains *why* the fn lost certification.
//!
//! Construct rules inside a zone (`no-panic`):
//!
//! * `.unwrap()` / `.expect()` / `.unwrap_err()` / `.expect_err()`;
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!` and the
//!   whole `assert*!` / `debug_assert*!` family (debug asserts panic in
//!   the debug builds the proptests run under);
//! * any other macro invocation not allowlisted in
//!   `lint-certified-std.txt` (macros hide arbitrary code);
//! * raw slice/array indexing `x[i]` — use `.get()`;
//! * `/` and `%` with a non-constant denominator and no visible
//!   zero-guard (`d == 0` / `d != 0` / `d > 0` / `0 < d` / `.max(`)
//!   earlier in the body — use `checked_div` / `checked_rem`;
//! * on untrusted-input fns (signature mentions `u8` or `str`): binary
//!   `-` (any operand shape — the `len() - 4` underflow class), and
//!   `+` / `*` between two non-literal operands — use `checked_*` /
//!   `saturating_*` / `wrapping_*` siblings.
//!
//! Call-graph failures (unresolvable callee, macro outside the
//! allowlist's reach) report under `no-panic-call`.
//!
//! Escape hatches are the same as every other rule: inline
//! `// lint:allow(no-panic): why` with a mandatory justification, or a
//! committed allowlist prefix. Both are audited in review.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::diag::Diagnostic;
use crate::lexer::{self, Lexed, Token, TokenKind};
use crate::parser::{self, FnItem, ParsedFile};
use crate::rules;
use crate::AllowlistEntry;

/// Name of the committed known-total std/core allowlist at the
/// workspace root.
pub const CERTIFIED_STD_FILE: &str = "lint-certified-std.txt";

/// Methods whose mere presence in a zone is a violation.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that panic by design (including debug asserts: proptests run
/// in debug builds where they are live).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Keywords that can directly precede `(` or `[` without forming a call
/// or an index expression.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "where", "dyn", "use", "fn", "impl", "yield", "static", "const",
];

/// The reviewed set of known-total std/core names, parsed from
/// `lint-certified-std.txt`.
#[derive(Debug, Default)]
pub struct StdAllow {
    /// Entries as committed: `name` (bare fn/method, total for every
    /// receiver certified code calls it on), `Type::name`, or `name!`.
    entries: HashSet<String>,
}

impl StdAllow {
    /// Number of entries (for reporting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist is empty (no std file was found).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Parses `lint-certified-std.txt`: one entry per line — `name`,
/// `Type::name`, or `name!` for macros; `#` starts a comment.
pub fn parse_std_allow(text: &str) -> StdAllow {
    let entries = text
        .lines()
        .map(|raw| raw.split('#').next().unwrap_or("").trim())
        .filter(|entry| !entry.is_empty())
        .map(str::to_string)
        .collect();
    StdAllow { entries }
}

/// The std allowlist as one certification pass consults it: every entry
/// that decides a resolution is recorded, so the drift check can tell
/// live entries from stale ones.
struct StdLookup<'a> {
    allow: &'a StdAllow,
    used: HashSet<&'a str>,
}

impl StdLookup<'_> {
    /// Whether `entry` (in committed form) is allowlisted.
    fn allows(&mut self, entry: &str) -> bool {
        let hit = self.allow.entries.get(entry).map(String::as_str);
        self.used.extend(hit);
        hit.is_some()
    }
}

/// Summary of the certification surface, for the bench gate and the
/// fidelity self-test.
#[derive(Debug, Clone)]
pub struct CertStats {
    /// Fns carrying a certification marker (directly or via mod/file).
    pub marked_roots: usize,
    /// Total fns in the transitive certified set (roots + everything
    /// the call graph pulled in).
    pub certified_fns: usize,
    /// Workspace-relative paths of files that declare zone roots.
    pub files_with_zones: Vec<String>,
    /// Std allowlist entries that decided no macro or call resolution
    /// in any zone, sorted — dead weight in `lint-certified-std.txt`.
    pub stale_std_entries: Vec<String>,
}

/// One file prepared for whole-workspace analysis.
pub(crate) struct Prepared {
    pub(crate) rel: String,
    pub(crate) lexed: Lexed,
    pub(crate) parsed: ParsedFile,
}

/// A fn as `(file index, fn index)` into a prepared file set.
pub(crate) type FnId = (usize, usize);

/// The workspace symbol table: non-test fns by name, and by `Self` type
/// then name.
pub(crate) struct Symbols<'a> {
    by_name: HashMap<&'a str, Vec<FnId>>,
    by_type: HashMap<&'a str, HashMap<&'a str, Vec<FnId>>>,
}

impl<'a> Symbols<'a> {
    pub(crate) fn new(prepared: &'a [Prepared]) -> Self {
        let mut symbols = Symbols { by_name: HashMap::new(), by_type: HashMap::new() };
        for (fi, p) in prepared.iter().enumerate() {
            for (k, f) in p.parsed.fns.iter().enumerate().filter(|(_, f)| !f.in_test) {
                symbols.by_name.entry(f.name.as_str()).or_default().push((fi, k));
                if let Some(ty) = &f.impl_type {
                    let of_type = symbols.by_type.entry(ty.as_str()).or_default();
                    of_type.entry(f.name.as_str()).or_default().push((fi, k));
                }
            }
        }
        symbols
    }

    /// Every fn called `name`.
    pub(crate) fn named(&self, name: &str) -> Option<&[FnId]> {
        self.by_name.get(name).map(Vec::as_slice)
    }

    /// The fns called `name` in an `impl`/`trait` block for `ty`.
    pub(crate) fn typed(&self, ty: &str, name: &str) -> Option<&[FnId]> {
        self.by_type.get(ty)?.get(name).map(Vec::as_slice)
    }
}

/// Lexes and parses a file set once for the whole-workspace passes.
pub(crate) fn prepare(files: &[(String, String)]) -> Vec<Prepared> {
    files
        .iter()
        .map(|(rel, source)| {
            let lexed = lexer::lex(source);
            let is_test_file = rel.starts_with("tests/") || rel.contains("/tests/");
            let parsed = parser::parse(&lexed, is_test_file);
            Prepared { rel: rel.clone(), lexed, parsed }
        })
        .collect()
}

/// Drops the findings an inline allow or the committed allowlist waives,
/// exactly as for every per-file rule.
pub(crate) fn suppress(
    diags: &mut Vec<Diagnostic>,
    prepared: &[Prepared],
    allowlist: &[AllowlistEntry],
) {
    let by_rel: HashMap<&str, usize> =
        prepared.iter().enumerate().map(|(i, p)| (p.rel.as_str(), i)).collect();
    let mut allows_cache: HashMap<usize, Vec<crate::InlineAllow>> = HashMap::new();
    diags.retain(|d| {
        let listed = allowlist
            .iter()
            .any(|e| e.rule == d.rule && d.file.starts_with(e.path_prefix.as_str()));
        if listed {
            return false;
        }
        let Some(&fi) = by_rel.get(d.file.as_str()) else {
            return true;
        };
        let allows = allows_cache
            .entry(fi)
            .or_insert_with(|| crate::parse_allows(&d.file, &prepared[fi].lexed.comments).0);
        !allows
            .iter()
            .any(|a| a.rule == d.rule && crate::allow_covers(&prepared[fi].lexed, a.line, d.line))
    });
}

/// What a body scan found: either a construct violation at a location,
/// or a call to resolve against the symbol table.
enum Found {
    Construct { line: u32, col: u32, message: String },
    MacroViolation { line: u32, col: u32, message: String },
    Call(Call),
}

struct Call {
    name: String,
    qual: Option<String>,
    method: bool,
    line: u32,
    col: u32,
}

/// Runs the certification pass over an in-memory file set. Returns the
/// surviving diagnostics (inline allows and the committed allowlist
/// already applied) plus the certification stats.
pub fn analyze(
    files: &[(String, String)],
    allowlist: &[AllowlistEntry],
    std_allow: &StdAllow,
) -> (Vec<Diagnostic>, CertStats) {
    certify(&prepare(files), allowlist, std_allow)
}

/// [`analyze`] over files already prepared.
pub(crate) fn certify(
    prepared: &[Prepared],
    allowlist: &[AllowlistEntry],
    std_allow: &StdAllow,
) -> (Vec<Diagnostic>, CertStats) {
    let symbols = Symbols::new(prepared);

    let mut diags: Vec<Diagnostic> = Vec::new();

    // Marker hygiene: a marker that certifies nothing is itself a bug.
    for p in prepared {
        for marker in &p.parsed.markers {
            if !marker.arg_ok {
                diags.push(marker_diag(
                    &p.rel,
                    marker.line,
                    "unknown certification — only `lint:certify(no-panic)` is defined".to_string(),
                ));
            } else if !marker.attached {
                diags.push(marker_diag(
                    &p.rel,
                    marker.line,
                    "dangling certify marker: it must sit at the file head, above a `mod`, or \
                     above a `fn`"
                        .to_string(),
                ));
            }
        }
    }

    // BFS over the call graph from the marked roots. Chains record how
    // each fn entered the zone (shortest path wins).
    let mut queue: VecDeque<((usize, usize), Vec<String>)> = VecDeque::new();
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut std = StdLookup { allow: std_allow, used: HashSet::new() };
    let mut marked_roots = 0usize;
    let mut files_with_zones: Vec<String> = Vec::new();
    for (fi, p) in prepared.iter().enumerate() {
        let mut any_root = false;
        for (k, f) in p.parsed.fns.iter().enumerate() {
            if f.certified_root && !f.in_test {
                marked_roots += 1;
                any_root = true;
                if seen.insert((fi, k)) {
                    queue.push_back(((fi, k), vec![f.display()]));
                }
            }
        }
        if any_root {
            files_with_zones.push(p.rel.clone());
        }
    }

    while let Some(((fi, k), chain)) = queue.pop_front() {
        let p = &prepared[fi];
        let f = &p.parsed.fns[k];
        let Some((open, close)) = f.body else {
            continue; // bodiless trait declaration — nothing to scan
        };
        let zone = chain.first().cloned();
        let via = (chain.len() > 1).then(|| chain.join(" -> "));
        let excluded = nested_fn_spans(&p.parsed, k, open, close);
        let untrusted = sig_mentions_bytes(&p.lexed.tokens, f);
        for found in scan_body(&p.lexed.tokens, f, open, close, &excluded, untrusted, &mut std) {
            match found {
                Found::Construct { line, col, message } => diags.push(Diagnostic {
                    file: p.rel.clone(),
                    line,
                    col,
                    rule: "no-panic",
                    message,
                    zone: zone.clone(),
                    chain: via.clone(),
                }),
                Found::MacroViolation { line, col, message } => diags.push(Diagnostic {
                    file: p.rel.clone(),
                    line,
                    col,
                    rule: "no-panic-call",
                    message,
                    zone: zone.clone(),
                    chain: via.clone(),
                }),
                Found::Call(call) => match resolve(&call, f, &mut std, &symbols) {
                    Resolution::Total => {}
                    Resolution::Workspace(targets) => {
                        for tgt in targets {
                            if seen.insert(tgt) {
                                let callee = &prepared[tgt.0].parsed.fns[tgt.1];
                                let mut next = chain.clone();
                                next.push(callee.display());
                                queue.push_back((tgt, next));
                            }
                        }
                    }
                    Resolution::Unresolved(message) => diags.push(Diagnostic {
                        file: p.rel.clone(),
                        line: call.line,
                        col: call.col,
                        rule: "no-panic-call",
                        message,
                        zone: zone.clone(),
                        chain: via.clone(),
                    }),
                },
            }
        }
    }

    suppress(&mut diags, prepared, allowlist);

    let mut stale_std_entries: Vec<String> =
        std_allow.entries.iter().filter(|e| !std.used.contains(e.as_str())).cloned().collect();
    stale_std_entries.sort();
    let stats =
        CertStats { marked_roots, certified_fns: seen.len(), files_with_zones, stale_std_entries };
    (diags, stats)
}

fn marker_diag(rel: &str, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        file: rel.to_string(),
        line,
        col: 1,
        rule: "no-panic",
        message,
        zone: None,
        chain: None,
    }
}

/// Token spans of fns nested inside `outer`'s body — their tokens are
/// scanned when the nested fn itself is required, not as part of the
/// outer body.
fn nested_fn_spans(
    parsed: &ParsedFile,
    outer: usize,
    open: usize,
    close: usize,
) -> Vec<(usize, usize)> {
    parsed
        .fns
        .iter()
        .enumerate()
        .filter(|&(k, g)| k != outer && g.fn_idx > open && g.fn_idx < close)
        .map(|(_, g)| (g.fn_idx, g.body.map_or(g.sig_end, |(_, c)| c)))
        .collect()
}

/// Whether a fn's signature mentions raw bytes or strings — the
/// untrusted-input heuristic that arms the unchecked-arithmetic rules.
fn sig_mentions_bytes(t: &[Token], f: &FnItem) -> bool {
    t[f.fn_idx..f.sig_end.min(t.len())].iter().any(|tok| tok.is_ident("u8") || tok.is_ident("str"))
}

/// Whether the token at `idx - 1` ends an expression (so `[`, `/`, `-`,
/// … at `idx` operate on a value).
fn prev_ends_expr(t: &[Token], idx: usize) -> bool {
    let Some(prev) = idx.checked_sub(1).and_then(|p| t.get(p)) else {
        return false;
    };
    match prev.kind {
        TokenKind::Number | TokenKind::Str | TokenKind::RawStr | TokenKind::Char => true,
        TokenKind::Ident => !EXPR_KEYWORDS.contains(&prev.text.as_str()),
        TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
        TokenKind::Lifetime => false,
    }
}

/// Whether a `Number` token is definitely nonzero (`0`, `0x0`, `0_0`
/// are zero; anything containing a nonzero digit is not).
fn nonzero_literal(tok: &Token) -> bool {
    tok.kind == TokenKind::Number && tok.text.chars().any(|c| c.is_ascii_digit() && c != '0')
}

/// SCREAMING_CASE idents are compile-time constants; dividing by one is
/// a reviewed decision, not a runtime surprise.
fn screaming_const(tok: &Token) -> bool {
    tok.kind == TokenKind::Ident
        && tok.text.chars().any(|c| c.is_ascii_uppercase())
        && tok.text.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Whether the body tokens in `[open, upto)` visibly guard `denom`
/// against zero: `d == 0`, `d != 0`, `d > 0`, `0 < d`, or `d.max(…)`.
fn zero_guarded(t: &[Token], open: usize, upto: usize, denom: &str) -> bool {
    for k in open..upto {
        if !t[k].is_ident(denom) {
            continue;
        }
        let a = t.get(k + 1);
        let b = t.get(k + 2);
        let c = t.get(k + 3);
        let zero = |x: Option<&Token>| {
            x.is_some_and(|x| x.kind == TokenKind::Number && !nonzero_literal(x))
        };
        if a.is_some_and(|x| x.is_punct('=') || x.is_punct('!'))
            && b.is_some_and(|x| x.is_punct('='))
            && zero(c)
        {
            return true;
        }
        if a.is_some_and(|x| x.is_punct('>')) && zero(b) {
            return true;
        }
        if a.is_some_and(|x| x.is_punct('.')) && b.is_some_and(|x| x.is_ident("max")) {
            return true;
        }
        if k >= 2
            && t[k - 1].is_punct('<')
            && t[k - 2].kind == TokenKind::Number
            && !nonzero_literal(&t[k - 2])
        {
            return true;
        }
    }
    false
}

/// Closure names bound in a body (`let f = |…|` / `let f = move |…|`)
/// and closure-typed parameters — calls to these stay inside the zone.
fn local_callables(t: &[Token], f: &FnItem, open: usize, close: usize) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut i = open;
    while i + 3 < close {
        if t[i].is_ident("let") {
            let mut j = i + 1;
            if t.get(j).is_some_and(|x| x.is_ident("mut")) {
                j += 1;
            }
            if t.get(j).is_some_and(|x| x.kind == TokenKind::Ident)
                && t.get(j + 1).is_some_and(|x| x.is_punct('='))
                && t.get(j + 2).is_some_and(|x| x.is_punct('|') || x.is_ident("move"))
            {
                out.insert(t[j].text.clone());
            }
        }
        i += 1;
    }
    // Parameters: any `name:` pair in the signature — closure params are
    // the interesting case, and treating every param name as callable is
    // harmless (shadowing a param with a fn call is not a thing).
    let sig = &t[f.fn_idx..f.sig_end.min(t.len())];
    for (k, tok) in sig.iter().enumerate() {
        if tok.kind == TokenKind::Ident && sig.get(k + 1).is_some_and(|x| x.is_punct(':')) {
            out.insert(tok.text.clone());
        }
    }
    out
}

/// Scans one fn body for panicking constructs and call sites.
#[allow(clippy::too_many_arguments)]
fn scan_body(
    t: &[Token],
    f: &FnItem,
    open: usize,
    close: usize,
    excluded: &[(usize, usize)],
    untrusted: bool,
    std: &mut StdLookup<'_>,
) -> Vec<Found> {
    let mut found = Vec::new();
    let locals = local_callables(t, f, open, close);
    let mut i = open + 1;
    while i < close {
        if let Some(&(_, end)) = excluded.iter().find(|&&(lo, hi)| i >= lo && i <= hi) {
            i = end + 1;
            continue;
        }
        let tok = &t[i];

        // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
        if tok.kind == TokenKind::Ident
            && t.get(i + 1).is_some_and(|x| x.is_punct('!'))
            && t.get(i + 2).is_some_and(|x| x.is_punct('(') || x.is_punct('[') || x.is_punct('{'))
        {
            let name = tok.text.as_str();
            if PANIC_MACROS.contains(&name) {
                found.push(Found::Construct {
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "`{name}!` panics; certified zones must return errors (asserts included: \
                         debug asserts are live in the builds the proptests run)"
                    ),
                });
            } else if !std.allows(&format!("{name}!")) {
                found.push(Found::MacroViolation {
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "macro `{name}!` is not allowlisted in {CERTIFIED_STD_FILE}; macros hide \
                         arbitrary code from the certification pass"
                    ),
                });
            }
            i += 2; // land on the opening bracket so its contents still scan
            continue;
        }

        // Method call `.name(…)` (with optional turbofish).
        if tok.is_punct('.') {
            if let Some(next) = t.get(i + 1) {
                if next.kind == TokenKind::Ident && rules::call_opens_at(t, i + 2) {
                    let name = next.text.as_str();
                    if PANIC_METHODS.contains(&name) {
                        found.push(Found::Construct {
                            line: next.line,
                            col: next.col,
                            message: format!(
                                "`.{name}()` panics on the error path; return a typed error instead"
                            ),
                        });
                    } else {
                        found.push(Found::Call(Call {
                            name: next.text.clone(),
                            qual: None,
                            method: true,
                            line: next.line,
                            col: next.col,
                        }));
                    }
                    i += 2;
                    continue;
                }
            }
            i += 1;
            continue;
        }

        // Plain or path-qualified call `name(…)` / `path::name(…)`.
        if tok.kind == TokenKind::Ident
            && !EXPR_KEYWORDS.contains(&tok.text.as_str())
            && rules::call_opens_at(t, i + 1)
            && i.checked_sub(1)
                .and_then(|p| t.get(p))
                .is_none_or(|p| !p.is_punct('.') && !p.is_ident("fn"))
        {
            let qual = path_qualifier(t, i);
            let bare_local = qual.is_none() && locals.contains(&tok.text);
            if !bare_local {
                found.push(Found::Call(Call {
                    name: tok.text.clone(),
                    qual,
                    method: false,
                    line: tok.line,
                    col: tok.col,
                }));
            }
            i += 1;
            continue;
        }

        if tok.kind == TokenKind::Punct {
            match tok.text.as_str() {
                "[" if prev_ends_expr(t, i) => found.push(Found::Construct {
                    line: tok.line,
                    col: tok.col,
                    message: "raw slice/array index panics out of bounds; use `.get()` and \
                              handle `None`"
                        .to_string(),
                }),
                "/" | "%" if prev_ends_expr(t, i) => {
                    // `/=` and `%=`: the denominator sits after the `=`.
                    let denom_idx =
                        if t.get(i + 1).is_some_and(|x| x.is_punct('=')) { i + 2 } else { i + 1 };
                    if let Some(denom) = t.get(denom_idx) {
                        let constant = nonzero_literal(denom) || screaming_const(denom);
                        let guarded =
                            denom.kind == TokenKind::Ident && zero_guarded(t, open, i, &denom.text);
                        if !constant && !guarded {
                            found.push(Found::Construct {
                                line: tok.line,
                                col: tok.col,
                                message: format!(
                                    "`{}` with a non-constant, unguarded denominator panics on \
                                     zero; guard it or use `checked_div`/`checked_rem`",
                                    tok.text
                                ),
                            });
                        }
                    }
                }
                "-" if untrusted
                    && prev_ends_expr(t, i)
                    && t.get(i + 1).is_some_and(|x| !x.is_punct('>')) =>
                {
                    let lit_lit =
                        t.get(i.wrapping_sub(1)).is_some_and(|x| x.kind == TokenKind::Number)
                            && t.get(i + 1).is_some_and(|x| x.kind == TokenKind::Number);
                    if !lit_lit {
                        found.push(Found::Construct {
                            line: tok.line,
                            col: tok.col,
                            message: "unchecked subtraction on an untrusted-input path can \
                                      underflow (the `len() - 4` class); use `checked_sub` or \
                                      `saturating_sub`"
                                .to_string(),
                        });
                    }
                }
                "+" | "*" if untrusted && prev_ends_expr(t, i) => {
                    let rhs_idx =
                        if t.get(i + 1).is_some_and(|x| x.is_punct('=')) { i + 2 } else { i + 1 };
                    let rhs_runtime = t.get(rhs_idx).is_some_and(|x| {
                        (x.kind == TokenKind::Ident && !EXPR_KEYWORDS.contains(&x.text.as_str()))
                            || x.is_punct('(')
                    });
                    let lhs_literal =
                        t.get(i.wrapping_sub(1)).is_some_and(|x| x.kind == TokenKind::Number);
                    if rhs_runtime && !lhs_literal {
                        found.push(Found::Construct {
                            line: tok.line,
                            col: tok.col,
                            message: format!(
                                "unchecked `{}` between runtime values on an untrusted-input \
                                 path overflows in debug builds; use the `checked_*`/\
                                 `saturating_*`/`wrapping_*` sibling",
                                tok.text
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    found
}

/// If the call at token `idx` is path-qualified (`seg::name(`), returns
/// the segment immediately before the final `::`. Walks back over a
/// turbofish (`Vec::<u8>::new`) to the real segment; an unrecognisable
/// path shape yields `Some("<expr>")` so resolution fails loudly rather
/// than silently treating it as a bare call.
pub(crate) fn path_qualifier(t: &[Token], idx: usize) -> Option<String> {
    if idx < 2 || !t[idx - 1].is_punct(':') || !t[idx - 2].is_punct(':') {
        return None;
    }
    let mut j = idx.checked_sub(3)?;
    if t[j].is_punct('>') {
        // Walk back over the balanced `<…>` group.
        let mut depth = 1usize;
        loop {
            if j == 0 {
                return Some("<expr>".to_string());
            }
            j -= 1;
            if t[j].is_punct('>') && !(j > 0 && t[j - 1].is_punct('-')) {
                depth += 1;
            } else if t[j].is_punct('<') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        // `Vec::<u8>` — the segment sits before `::<`.
        if j >= 3 && t[j - 1].is_punct(':') && t[j - 2].is_punct(':') {
            j -= 3;
        } else {
            return Some("<expr>".to_string());
        }
    }
    if t[j].kind == TokenKind::Ident {
        Some(t[j].text.clone())
    } else {
        Some("<expr>".to_string())
    }
}

enum Resolution {
    /// Known-total: std allowlist, constructor, or local closure.
    Total,
    /// Resolved to workspace fns — all of them join the zone.
    Workspace(Vec<FnId>),
    /// Cannot be resolved: a violation at the call site.
    Unresolved(String),
}

fn resolve(
    call: &Call,
    caller: &FnItem,
    std: &mut StdLookup<'_>,
    symbols: &Symbols<'_>,
) -> Resolution {
    let name = call.name.as_str();
    // Uppercase initial = tuple-struct / enum-variant constructor
    // (`Some`, `Ok`, `RData::A`): constructors only move their fields.
    if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        return Resolution::Total;
    }
    if let Some(qual) = &call.qual {
        // `Self::helper` resolves against the caller's impl type.
        let ty: &str = if qual == "Self" {
            caller.impl_type.as_deref().unwrap_or(qual)
        } else {
            qual.as_str()
        };
        if let Some(targets) = symbols.typed(ty, name) {
            return Resolution::Workspace(targets.to_vec());
        }
        if std.allows(&format!("{ty}::{name}")) || std.allows(name) {
            return Resolution::Total;
        }
        // Module-qualified free fn (`io::atomic_write`, `keys::decode_rdata`).
        if let Some(targets) = symbols.named(name) {
            return Resolution::Workspace(targets.to_vec());
        }
        Resolution::Unresolved(format!(
            "cannot resolve `{qual}::{name}` — not in {CERTIFIED_STD_FILE} and not in the \
             workspace symbol table"
        ))
    } else if call.method {
        // Methods hit std containers constantly; the allowlist wins by
        // name, then any workspace fn of that name must be certified.
        if std.allows(name) {
            return Resolution::Total;
        }
        if let Some(targets) = symbols.named(name) {
            return Resolution::Workspace(targets.to_vec());
        }
        Resolution::Unresolved(format!(
            "cannot resolve method `.{name}()` — not in {CERTIFIED_STD_FILE} and not in the \
             workspace symbol table"
        ))
    } else {
        if let Some(targets) = symbols.named(name) {
            return Resolution::Workspace(targets.to_vec());
        }
        if std.allows(name) {
            return Resolution::Total;
        }
        Resolution::Unresolved(format!(
            "cannot resolve call `{name}(…)` — not in {CERTIFIED_STD_FILE} and not in the \
             workspace symbol table"
        ))
    }
}
