//! The `dead-api` pass: no public fn that only tests reach.
//!
//! rustc's `dead_code` lint already rejects unused private and
//! `pub(crate)` items. A plain `pub fn` escapes it, because another crate
//! might call it; this pass closes that gap over the workspace as a
//! whole. Its subjects are every non-test `pub fn`, free or an inherent
//! method. Its roots are:
//!
//! * every non-test token of a file under [`ROOTS`]: the binaries, the
//!   examples, the benchmark and the experiments;
//! * every fn in a `trait` body or an `impl Trait for Type` block (trait
//!   implementations are exempt, and their bodies reach on);
//! * every identifier outside fn items and `use` declarations in
//!   non-test code, such as const and static initialisers, and the
//!   original name in an aliased import (`use a::f as g;`).
//!
//! An identifier in a reached body reaches every non-test workspace fn
//! of that name, whether it is called or named as a value
//! (`.map(Type::f)`); a `Type::name` path narrows the match to that
//! type's fns when it has one of the name. Matching by name
//! over-approximates what is reached, so a missed call edge never yields
//! a false finding.
//!
//! A flagged fn goes, or stays under an inline waiver that names the test
//! or doc example needing it:
//! `// lint:allow(dead-api): <the test that needs it>`.

use std::collections::HashSet;

use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::nopanic::{path_qualifier, suppress, FnId, Prepared, Symbols};
use crate::AllowlistEntry;

/// Workspace-relative path prefixes of the entry points.
const ROOTS: &[&str] =
    &["src/bin/", "examples/", "benchmark/src/", "crates/bench/src/", "crates/lint/src/main.rs"];

impl Symbols<'_> {
    /// The fns the identifier at token `i` can name; `self_type` resolves
    /// a `Self::` qualifier.
    fn targets(&self, t: &[Token], i: usize, self_type: Option<&str>) -> &[FnId] {
        let name = t[i].text.as_str();
        let qual = path_qualifier(t, i);
        let ty = match qual.as_deref() {
            Some("Self") => self_type,
            other => other,
        };
        ty.and_then(|ty| self.typed(ty, name)).or_else(|| self.named(name)).unwrap_or(&[])
    }
}

/// Per token of a non-root file: whether it lies outside every fn item
/// (signature and body) and every `use` declaration, or is the original
/// name of an aliased import (`use a::f as g;` calls `f` as `g`).
fn item_level(p: &Prepared) -> Vec<bool> {
    let t = &p.lexed.tokens;
    let mut outside = vec![true; t.len()];
    for f in &p.parsed.fns {
        let end = f.body.map_or(f.sig_end, |(_, close)| close);
        outside[f.fn_idx..=end.min(t.len() - 1)].fill(false);
    }
    let mut i = 0;
    while i < t.len() {
        if outside[i] && t[i].is_ident("use") {
            while i < t.len() && !t[i].is_punct(';') {
                outside[i] = t.get(i + 1).is_some_and(|next| next.is_ident("as"));
                i += 1;
            }
        }
        i += 1;
    }
    outside
}

/// Runs the pass over prepared files and returns the findings that no
/// inline allow or allowlist entry waives.
pub(crate) fn analyze(prepared: &[Prepared], allowlist: &[AllowlistEntry]) -> Vec<Diagnostic> {
    let symbols = Symbols::new(prepared);
    let mut reached: HashSet<FnId> = HashSet::new();
    let mut queue: Vec<FnId> = Vec::new();
    let mut tested: HashSet<FnId> = HashSet::new();
    let mut reach = |ids: &[FnId], queue: &mut Vec<FnId>| {
        queue.extend(ids.iter().filter(|&&id| reached.insert(id)));
    };
    for (fi, p) in prepared.iter().enumerate() {
        let root_file = ROOTS.iter().any(|r| p.rel.starts_with(r));
        let roots: Vec<FnId> = (p.parsed.fns.iter().enumerate())
            .filter(|(_, f)| !f.in_test && (root_file || f.in_trait))
            .map(|(k, _)| (fi, k))
            .collect();
        reach(&roots, &mut queue);
        let t = &p.lexed.tokens;
        let outside = if root_file { vec![true; t.len()] } else { item_level(p) };
        for i in (0..t.len()).filter(|&i| t[i].kind == TokenKind::Ident) {
            if p.parsed.in_test(i) {
                tested.extend(symbols.targets(t, i, None));
            } else if outside[i] {
                reach(symbols.targets(t, i, None), &mut queue);
            }
        }
    }
    while let Some((fi, k)) = queue.pop() {
        let (t, f) = (&prepared[fi].lexed.tokens, &prepared[fi].parsed.fns[k]);
        let Some((open, close)) = f.body else {
            continue;
        };
        for i in (open..close).filter(|&i| t[i].kind == TokenKind::Ident) {
            reach(symbols.targets(t, i, f.impl_type.as_deref()), &mut queue);
        }
    }

    let mut diags = Vec::new();
    for (fi, p) in prepared.iter().enumerate() {
        for (k, f) in p.parsed.fns.iter().enumerate() {
            if f.in_test || !f.is_pub || f.in_trait || reached.contains(&(fi, k)) {
                continue;
            }
            let tests = if tested.contains(&(fi, k)) { "; only tests call it" } else { "" };
            diags.push(Diagnostic {
                file: p.rel.clone(),
                line: f.line,
                col: f.col,
                rule: "dead-api",
                message: format!(
                    "pub fn {}: no binary, example, benchmark or experiment reaches it{tests}",
                    f.display()
                ),
                zone: None,
                chain: None,
            });
        }
    }
    suppress(&mut diags, prepared, allowlist);
    diags
}
