//! The lint rules: token-pattern checks over one lexed file.
//!
//! Every rule is a deliberately *narrow, honest heuristic*: it matches
//! token shapes, not types, so it can run before anything compiles and
//! without a parser. Where a heuristic can be wrong, the escape hatch is
//! an inline `// lint:allow(rule): justification` comment or an entry
//! in the committed allowlist — both force the "why is this
//! order-independent / lossless / guarded" argument into the source.
//!
//! Rules (ids are stable; DESIGN.md §static-analysis documents each):
//!
//! * `hash-iter` — iteration over a `HashMap`/`HashSet`-typed binding.
//!   Hash iteration order is randomized per process, so any iteration
//!   whose order can escape (into a `Vec`, an export, a merge) is a
//!   determinism bug. Order-free terminal chains (`.count()`, `.sum()`,
//!   `.len()`, `.any(…)`, …) and the sorted-collect idiom
//!   (`let v: Vec<_> = m.values().collect(); v.sort…()`) are exempt.
//! * `wall-clock` — `Instant::now` / `SystemTime::now`. Replay output
//!   must be a pure function of the trace and seed; wall-clock reads may
//!   only feed `PhaseTimings` (excluded from exports) and must say so.
//! * `ambient-rng` — `thread_rng`, `from_entropy`, `OsRng`,
//!   `rand::random`: randomness that does not come from a seed.
//! * `merge-cast` — inside `fn merge` / `fn merge_runs`: casts to narrow
//!   integer or float types, or `f32`/`f64` accumulation. The counter
//!   merges behind multi-day figures and cluster totals, and pDNS run
//!   compactions, must be exact; floats and narrowing casts silently
//!   make a total depend on the order it was folded in.
//! * `export-purity` — inside `fn to_json` / `fn timeline_csv`: the
//!   overload field names (`queue_backlog`, `dropped`, `rate_limited`)
//!   must be under an `if … overload_enabled …` guard so the baseline
//!   export never grows overload columns.
//! * `fs-direct-write` — direct filesystem *mutation* (`fs::write`,
//!   `fs::rename`, `fs::remove_file`, `File::create`,
//!   `OpenOptions::new`, …) on a persistence path
//!   (`crates/pdns/src/store/`, `crates/stream/src/`) outside the one
//!   sanctioned module, `crates/pdns/src/store/io.rs`. Durable
//!   artifacts must go through the atomic write→fsync→rename→dir-fsync
//!   protocol (and its fault injector); a bare `fs::write` to a final
//!   name is a torn-write crash bug. Reads stay legal — recovery scans
//!   and parsers consume bytes, they do not publish them.
//!
//! `hash-iter`, `export-purity`, and `fs-direct-write` skip test code
//! (`tests/` files and `#[cfg(test)]` modules): test-local iteration
//! cannot leak into replay or export output, purity tests must be able
//! to name the very fields they assert absent, and corruption tests
//! must be able to shred files directly.

use crate::diag::Diagnostic;
use crate::lexer::{Lexed, Token, TokenKind};

/// Every rule id the linter knows (excluding the meta `bad-allow`).
/// `no-panic` / `no-panic-call` are the certification family implemented
/// in [`crate::nopanic`]; they are listed here so `lint:allow` and the
/// committed allowlist validate against them.
pub const RULES: &[&str] = &[
    "hash-iter",
    "wall-clock",
    "ambient-rng",
    "merge-cast",
    "export-purity",
    "fs-direct-write",
    "no-panic",
    "no-panic-call",
];

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Chain terminals whose result is independent of iteration order.
const ORDER_FREE: &[&str] = &[
    "count",
    "sum",
    "len",
    "any",
    "all",
    "max",
    "min",
    "max_by",
    "min_by",
    "max_by_key",
    "min_by_key",
    "fold_first",
    "product",
];

const MERGE_FNS: &[&str] = &["merge", "merge_runs"];
const EXPORT_FNS: &[&str] = &["to_json", "timeline_csv"];
const OVERLOAD_FIELDS: &[&str] = &["queue_backlog", "dropped", "rate_limited"];
/// Cast targets that can lose information (narrow integers and floats).
const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32", "f64"];

/// `std::fs` functions that mutate the filesystem. Read-side calls
/// (`read`, `read_dir`, `metadata`, `File::open`) stay legal on
/// persistence paths.
const FS_MUTATORS: &[&str] = &[
    "write",
    "rename",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "create_dir",
    "create_dir_all",
    "copy",
    "hard_link",
];

/// Directory prefixes where every durable write must go through the
/// atomic writer in [`FS_WRITE_HOME`].
const PERSISTENCE_PATHS: &[&str] = &["crates/pdns/src/store/", "crates/stream/src/"];

/// The one module allowed to touch the filesystem directly: the atomic
/// write→fsync→rename protocol and its fault injector.
const FS_WRITE_HOME: &str = "crates/pdns/src/store/io.rs";

/// Runs every rule over one file. `rel_path` is workspace-relative and
/// drives path-scoped rules (`fs-direct-write`, test-file detection).
/// Inline `lint:allow` suppression is applied by the caller
/// ([`crate::lint_source`]), not here.
pub fn analyze(rel_path: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let t = &lexed.tokens;
    let in_lint = rel_path.starts_with("crates/lint/");
    let is_test_file = rel_path.starts_with("tests/") || rel_path.contains("/tests/");
    let on_persistence_path =
        rel_path != FS_WRITE_HOME && PERSISTENCE_PATHS.iter().any(|p| rel_path.starts_with(p));

    let hash_idents = collect_hash_idents(t);
    let test_regions = cfg_test_regions(t);
    let in_test = |i: usize| is_test_file || test_regions.iter().any(|&(lo, hi)| i >= lo && i < hi);

    let mut diags = Vec::new();
    let mut push = |tok: &Token, rule: &'static str, message: String| {
        diags.push(Diagnostic {
            file: rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            rule,
            message,
            zone: None,
            chain: None,
        });
    };

    // --- Structural pass state -------------------------------------------
    // Brace frames annotated with the construct that opened them: the
    // enclosing `fn` name drives merge-cast/export-purity, and `if`
    // frames remember whether their condition mentions `overload_enabled`
    // (the export-gating guard).
    enum Frame {
        Fn(String),
        IfGuard(bool),
        Other,
    }
    let mut stack: Vec<Frame> = Vec::new();
    let mut pending: Option<Frame> = None;
    let mut pending_depth = 0usize;
    let mut depth = 0usize; // parens + brackets

    let current_fn = |stack: &[Frame]| -> Option<String> {
        stack.iter().rev().find_map(|f| match f {
            Frame::Fn(name) => Some(name.clone()),
            _ => None,
        })
    };
    let overload_guarded =
        |stack: &[Frame]| -> bool { stack.iter().any(|f| matches!(f, Frame::IfGuard(true))) };

    for i in 0..t.len() {
        let tok = &t[i];

        // Maintain structure.
        match tok.kind {
            TokenKind::Punct => match tok.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" => stack.push(pending.take().unwrap_or(Frame::Other)),
                "}" => {
                    stack.pop();
                }
                ";" if pending.is_some() && depth == pending_depth => pending = None,
                _ => {}
            },
            TokenKind::Ident => match tok.text.as_str() {
                "fn" => {
                    if let Some(name) = t.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                        pending = Some(Frame::Fn(name.text.clone()));
                        pending_depth = depth;
                    }
                }
                "if" => {
                    pending = Some(Frame::IfGuard(if_condition_mentions(t, i, "overload_enabled")));
                    pending_depth = depth;
                }
                _ => {}
            },
            _ => {}
        }

        // The linter's own sources spell the forbidden patterns as string
        // data; everything below inspects idents/strings, so restricting
        // rules to non-lint files keeps the self-lint meaningful without
        // contortions. (The fixture suite covers the rules themselves.)
        if in_lint {
            continue;
        }

        // --- wall-clock --------------------------------------------------
        if (tok.is_ident("Instant") || tok.is_ident("SystemTime"))
            && matches!(t.get(i + 1), Some(c) if c.is_punct(':'))
            && matches!(t.get(i + 2), Some(c) if c.is_punct(':'))
            && matches!(t.get(i + 3), Some(n) if n.is_ident("now"))
            && matches!(t.get(i + 4), Some(p) if p.is_punct('('))
        {
            push(
                tok,
                "wall-clock",
                format!(
                    "`{}::now()` reads the wall clock; replay output must be a pure function \
                     of trace and seed. Route timings through PhaseTimings and justify with \
                     `lint:allow(wall-clock)`",
                    tok.text
                ),
            );
        }

        // --- ambient-rng -------------------------------------------------
        if tok.is_ident("thread_rng") || tok.is_ident("from_entropy") || tok.is_ident("OsRng") {
            push(
                tok,
                "ambient-rng",
                format!(
                    "`{}` draws ambient randomness; all randomness must flow from an \
                     explicit seed",
                    tok.text
                ),
            );
        }
        if tok.is_ident("rand")
            && matches!(t.get(i + 1), Some(c) if c.is_punct(':'))
            && matches!(t.get(i + 2), Some(c) if c.is_punct(':'))
            && matches!(t.get(i + 3), Some(n) if n.is_ident("random"))
        {
            push(
                tok,
                "ambient-rng",
                "`rand::random` draws from the thread RNG; all randomness must flow from an \
                 explicit seed"
                    .to_string(),
            );
        }

        // --- fs-direct-write ---------------------------------------------
        if on_persistence_path && !in_test(i) {
            // `[std ::] <recv> :: <name> (` with a mutating callee.
            let path_call = |set: &[&str]| -> Option<&Token> {
                if matches!(t.get(i + 1), Some(c) if c.is_punct(':'))
                    && matches!(t.get(i + 2), Some(c) if c.is_punct(':'))
                {
                    let name = t.get(i + 3)?;
                    if set.contains(&name.text.as_str()) && call_opens_at(t, i + 4) {
                        return Some(name);
                    }
                }
                None
            };
            let offender = if tok.is_ident("fs") {
                path_call(FS_MUTATORS)
            } else if tok.is_ident("File") {
                path_call(&["create", "create_new", "options"])
            } else if tok.is_ident("OpenOptions") {
                path_call(&["new"])
            } else {
                None
            };
            if let Some(name) = offender {
                push(
                    name,
                    "fs-direct-write",
                    format!(
                        "direct filesystem mutation `{}::{}` on a persistence path; durable \
                         artifacts must go through the atomic writer in {} (write → fsync → \
                         rename → dir-fsync, fault-injectable) or justify with \
                         `lint:allow(fs-direct-write)`",
                        tok.text, name.text, FS_WRITE_HOME
                    ),
                );
            }
        }

        // --- merge-cast --------------------------------------------------
        if let Some(fn_name) = current_fn(&stack) {
            if MERGE_FNS.contains(&fn_name.as_str()) {
                if tok.is_ident("as") {
                    if let Some(ty) = t.get(i + 1) {
                        if NARROW_CASTS.contains(&ty.text.as_str()) {
                            push(
                                ty,
                                "merge-cast",
                                format!(
                                    "`as {}` in `fn {}` can lose information; counter merges \
                                     and run compactions must be exact",
                                    ty.text, fn_name
                                ),
                            );
                        }
                    }
                } else if (tok.is_ident("f32") || tok.is_ident("f64"))
                    && !(i > 0 && t[i - 1].is_ident("as"))
                {
                    push(
                        tok,
                        "merge-cast",
                        format!(
                            "`{}` in `fn {}`: float accumulation is not associative, so \
                             merge order would leak into results",
                            tok.text, fn_name
                        ),
                    );
                }
            }

            // --- export-purity -------------------------------------------
            if EXPORT_FNS.contains(&fn_name.as_str()) && !in_test(i) {
                let is_overload_name = match tok.kind {
                    TokenKind::Ident | TokenKind::Str => {
                        OVERLOAD_FIELDS.contains(&tok.text.as_str())
                    }
                    _ => false,
                };
                if is_overload_name && !overload_guarded(&stack) {
                    push(
                        tok,
                        "export-purity",
                        format!(
                            "overload field `{}` in `fn {}` outside an `overload_enabled` \
                             guard; the baseline export must stay byte-identical to \
                             pre-admission-control builds",
                            tok.text, fn_name
                        ),
                    );
                }
            }
        }

        // --- hash-iter ---------------------------------------------------
        if !in_test(i) {
            // Method-call form: `recv.iter()`, `recv.values()`, …
            if tok.is_punct('.') {
                if let (Some(name), true) = (t.get(i + 1), call_opens_at(t, i + 2)) {
                    if ITER_METHODS.contains(&name.text.as_str()) {
                        if let Some(hash_name) = receiver_hash_ident(t, i, &hash_idents) {
                            if !order_free_chain(t, i) && !sorted_collect_statement(t, i) {
                                push(
                                    name,
                                    "hash-iter",
                                    format!(
                                        "iterating `{hash_name}` (HashMap/HashSet-typed): hash \
                                         order is randomized per process. Use BTreeMap, a \
                                         sorted collect, an order-free terminal, or justify \
                                         with `lint:allow(hash-iter)`"
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            // Loop form: `for pat in <expr-with-hash-ident> {`.
            if tok.is_ident("for") {
                if let Some((offender, name)) = for_loop_hash_ident(t, i, &hash_idents) {
                    push(
                        &t[offender],
                        "hash-iter",
                        format!(
                            "`for` loop over `{name}` (HashMap/HashSet-typed): hash order is \
                             randomized per process. Use BTreeMap or justify with \
                             `lint:allow(hash-iter)`"
                        ),
                    );
                }
            }
        }
    }

    diags
}

/// Collects identifiers declared with a `HashMap`/`HashSet` type in this
/// file: struct fields and annotated bindings (`name: HashMap<…>`, also
/// through `&`/`&mut`), and inferred bindings
/// (`let name = HashMap::new()` / `with_capacity` / `default`).
fn collect_hash_idents(t: &[Token]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for i in 0..t.len() {
        if t[i].is_ident("HashMap") || t[i].is_ident("HashSet") {
            // Walk back over a `std :: collections ::` path prefix…
            let mut j = i;
            while j >= 3
                && t[j - 1].is_punct(':')
                && t[j - 2].is_punct(':')
                && t[j - 3].kind == TokenKind::Ident
            {
                j -= 3;
            }
            // …and over `&`, `mut`, lifetimes in the type position.
            while j >= 1
                && (t[j - 1].is_punct('&')
                    || t[j - 1].is_ident("mut")
                    || t[j - 1].kind == TokenKind::Lifetime)
            {
                j -= 1;
            }
            if j >= 2 && t[j - 1].is_punct(':') && t[j - 2].kind == TokenKind::Ident {
                names.push(t[j - 2].text.clone());
            }
        }
        if t[i].is_ident("let") {
            let mut k = i + 1;
            if t.get(k).is_some_and(|x| x.is_ident("mut")) {
                k += 1;
            }
            let Some(name) = t.get(k).filter(|x| x.kind == TokenKind::Ident) else { continue };
            if !t.get(k + 1).is_some_and(|x| x.is_punct('=')) {
                continue;
            }
            // `let name = [std::collections::]Hash{Map,Set}::…`.
            let mut j = k + 2;
            while t.get(j).is_some_and(|x| x.kind == TokenKind::Ident)
                && t.get(j + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(j + 2).is_some_and(|x| x.is_punct(':'))
            {
                if t[j].is_ident("HashMap") || t[j].is_ident("HashSet") {
                    names.push(name.text.clone());
                    break;
                }
                j += 3;
            }
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

use crate::parser::cfg_test_regions;

/// Whether the `if` condition starting after token `if_idx` mentions
/// `needle` before its body brace.
fn if_condition_mentions(t: &[Token], if_idx: usize, needle: &str) -> bool {
    let mut depth = 0usize;
    for tok in t.iter().skip(if_idx + 1) {
        match tok.text.as_str() {
            "(" | "[" if tok.kind == TokenKind::Punct => depth += 1,
            ")" | "]" if tok.kind == TokenKind::Punct => depth = depth.saturating_sub(1),
            "{" if tok.kind == TokenKind::Punct && depth == 0 => return false,
            ";" if tok.kind == TokenKind::Punct && depth == 0 => return false,
            _ if tok.is_ident(needle) => return true,
            _ => {}
        }
    }
    false
}

/// Whether a call's argument list opens at `idx` (allowing a turbofish
/// between the method name and the parens).
pub(crate) fn call_opens_at(t: &[Token], idx: usize) -> bool {
    skip_turbofish(t, idx).is_some_and(|j| t.get(j).is_some_and(|x| x.is_punct('(')))
}

/// Skips `::<…>` at `idx` if present, returning the index after it.
pub(crate) fn skip_turbofish(t: &[Token], idx: usize) -> Option<usize> {
    if t.get(idx).is_some_and(|x| x.is_punct(':'))
        && t.get(idx + 1).is_some_and(|x| x.is_punct(':'))
        && t.get(idx + 2).is_some_and(|x| x.is_punct('<'))
    {
        let mut depth = 1usize;
        let mut j = idx + 3;
        while j < t.len() && depth > 0 {
            if t[j].is_punct('<') {
                depth += 1;
            } else if t[j].is_punct('>') {
                depth -= 1;
            }
            j += 1;
        }
        Some(j)
    } else {
        Some(idx)
    }
}

/// If the receiver chain ending at the `.` token `dot_idx` contains a
/// hash-typed identifier, returns its name. Matches `a.b.c` chains of
/// plain idents (including `self`); anything else (call results, index
/// expressions) is conservatively ignored.
fn receiver_hash_ident(t: &[Token], dot_idx: usize, hash_idents: &[String]) -> Option<String> {
    let mut j = dot_idx;
    loop {
        if j == 0 || t[j - 1].kind != TokenKind::Ident {
            return None;
        }
        if hash_idents.binary_search(&t[j - 1].text).is_ok() {
            return Some(t[j - 1].text.clone());
        }
        if j >= 2 && t[j - 2].is_punct('.') {
            j -= 2;
        } else {
            return None;
        }
    }
}

/// Walks the method chain starting at the iterator call's `.` and returns
/// `true` when it ends in an order-free terminal (count/sum/len/…)
/// before any `collect`.
fn order_free_chain(t: &[Token], mut dot_idx: usize) -> bool {
    loop {
        if !t.get(dot_idx).is_some_and(|x| x.is_punct('.')) {
            return false;
        }
        let Some(name) = t.get(dot_idx + 1).filter(|x| x.kind == TokenKind::Ident) else {
            return false;
        };
        let after_name = match skip_turbofish(t, dot_idx + 2) {
            Some(j) => j,
            None => return false,
        };
        if !t.get(after_name).is_some_and(|x| x.is_punct('(')) {
            return false;
        }
        if ORDER_FREE.contains(&name.text.as_str()) {
            return true;
        }
        // Skip the balanced argument list.
        let mut depth = 1usize;
        let mut j = after_name + 1;
        while j < t.len() && depth > 0 {
            if t[j].is_punct('(') {
                depth += 1;
            } else if t[j].is_punct(')') {
                depth -= 1;
            }
            j += 1;
        }
        dot_idx = j;
    }
}

/// Detects the sorted-collect idiom: the iteration happens in a
/// `let [mut] NAME … = …;` statement whose *next* statement starts with
/// `NAME.sort…(`.
fn sorted_collect_statement(t: &[Token], site: usize) -> bool {
    // Find the statement start: the token after the previous `;`/`{`/`}`.
    let mut start = site;
    while start > 0 {
        let p = &t[start - 1];
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            break;
        }
        start -= 1;
    }
    if !t.get(start).is_some_and(|x| x.is_ident("let")) {
        return false;
    }
    let mut k = start + 1;
    if t.get(k).is_some_and(|x| x.is_ident("mut")) {
        k += 1;
    }
    let Some(name) = t.get(k).filter(|x| x.kind == TokenKind::Ident) else {
        return false;
    };
    // Find the end of this statement (`;` with balanced delimiters).
    let mut depth = 0isize;
    let mut j = site;
    while j < t.len() {
        match t[j].text.as_str() {
            "(" | "[" | "{" if t[j].kind == TokenKind::Punct => depth += 1,
            ")" | "]" | "}" if t[j].kind == TokenKind::Punct => depth -= 1,
            ";" if t[j].kind == TokenKind::Punct && depth <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    t.get(j + 1).is_some_and(|x| x.text == name.text)
        && t.get(j + 2).is_some_and(|x| x.is_punct('.'))
        && t.get(j + 3).is_some_and(|x| x.kind == TokenKind::Ident && x.text.starts_with("sort"))
}

/// For `for pat in expr {`: if `expr` contains a hash-typed identifier,
/// returns `(token_index, name)` of the first one. Non-loop `for` tokens
/// (`impl Trait for`, `for<'a>`) never reach an `in` and bail out.
fn for_loop_hash_ident(
    t: &[Token],
    for_idx: usize,
    hash_idents: &[String],
) -> Option<(usize, String)> {
    let mut depth = 0usize;
    let mut j = for_idx + 1;
    // Find `in` at depth 0, bailing at `{`/`;` (not a loop).
    loop {
        let tok = t.get(j)?;
        match tok.text.as_str() {
            "(" | "[" if tok.kind == TokenKind::Punct => depth += 1,
            ")" | "]" if tok.kind == TokenKind::Punct => depth = depth.saturating_sub(1),
            "{" | ";" if tok.kind == TokenKind::Punct && depth == 0 => return None,
            "in" if tok.kind == TokenKind::Ident && depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    // Scan the iterated expression up to the body brace.
    let mut k = j + 1;
    let mut depth = 0usize;
    loop {
        let tok = t.get(k)?;
        match tok.text.as_str() {
            "(" | "[" if tok.kind == TokenKind::Punct => depth += 1,
            ")" | "]" if tok.kind == TokenKind::Punct => depth = depth.saturating_sub(1),
            "{" if tok.kind == TokenKind::Punct && depth == 0 => return None,
            _ => {
                if tok.kind == TokenKind::Ident && hash_idents.binary_search(&tok.text).is_ok() {
                    return Some((k, tok.text.clone()));
                }
            }
        }
        k += 1;
    }
}
