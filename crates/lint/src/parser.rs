//! A lightweight recursive-descent *item* parser over [`crate::lexer`].
//!
//! This is deliberately not a Rust grammar: it recovers just enough
//! structure for the `no-panic` certification pass — `mod`/`impl`/
//! `trait` nesting, `fn` items with signature and body token spans, and
//! `// lint:certify(no-panic)` marker attachment — so the analysis in
//! [`crate::nopanic`] can build a per-crate symbol table and an
//! intra-workspace call graph. Expressions are left as raw token spans;
//! the construct checks scan them directly.
//!
//! The parser must never panic on weird-but-compiling input (the same
//! contract as the lexer): every scan is bounds-checked and unknown
//! shapes degrade to "no item here".

use crate::lexer::{Lexed, Token, TokenKind};

/// The marker comment that opens a certification zone.
pub const CERTIFY_PREFIX: &str = "lint:certify(";

/// One `fn` item recovered from the token stream.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The `Self` type of the enclosing `impl`/`trait` block, if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token span `[fn_idx, end)` of the signature (exclusive of the
    /// body's opening brace / the terminating `;`).
    pub sig_end: usize,
    /// Token span `(open, close)` of the body braces, inclusive of both
    /// brace tokens. `None` for bodiless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Whether a certification marker covers this fn (directly, via its
    /// enclosing `mod`, or via a file-head marker).
    pub certified_root: bool,
    /// Whether the fn lives in test code (`tests/` file or a
    /// `#[cfg(test)]` region).
    pub in_test: bool,
    /// Whether the fn is declared plain `pub` (`pub(crate)` and
    /// narrower are not).
    pub is_pub: bool,
    /// Whether the fn sits in a `trait` body or an `impl Trait for Type`
    /// block.
    pub in_trait: bool,
}

impl FnItem {
    /// Display name for call chains: `Type::name` inside an impl block,
    /// plain `name` for free functions.
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A `lint:certify(…)` marker comment and what became of it.
#[derive(Debug)]
pub struct Marker {
    /// 1-based line of the marker comment.
    pub line: u32,
    /// Whether the argument list was exactly `no-panic`.
    pub arg_ok: bool,
    /// Whether the marker attached to a `fn`, a `mod`, or the file head.
    pub attached: bool,
}

/// Everything the certification pass needs from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All `fn` items in source order.
    pub fns: Vec<FnItem>,
    /// All certification markers (for dangling-marker diagnostics).
    pub markers: Vec<Marker>,
    /// Token spans `[lo, hi)` of test code: the whole file for a
    /// `tests/` file, else its `#[cfg(test)]` items.
    test_spans: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// Whether token `i` lies in test code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(lo, hi)| i >= lo && i < hi)
    }
}

/// Token-index spans `[lo, hi)` of `#[cfg(test)] mod … { … }` bodies.
pub(crate) fn cfg_test_regions(t: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 6 < t.len() {
        let is_cfg_test = t[i].is_punct('#')
            && t[i + 1].is_punct('[')
            && t[i + 2].is_ident("cfg")
            && t[i + 3].is_punct('(')
            && t[i + 4].is_ident("test")
            && t[i + 5].is_punct(')')
            && t[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find the opening brace of the annotated item and match it.
        let mut j = i + 7;
        while j < t.len() && !t[j].is_punct('{') && !t[j].is_punct(';') {
            j += 1;
        }
        if j < t.len() && t[j].is_punct('{') {
            let mut depth = 1usize;
            let mut k = j + 1;
            while k < t.len() && depth > 0 {
                if t[k].is_punct('{') {
                    depth += 1;
                } else if t[k].is_punct('}') {
                    depth -= 1;
                }
                k += 1;
            }
            regions.push((i, k));
            i = k;
        } else {
            i = j;
        }
    }
    regions
}

/// Skips a balanced `[…]` / `(…)` / `<…>` group whose *opening* token is
/// at `idx`, returning the index just past the closing token. For angle
/// brackets, a `>` that completes a `->` arrow does not close the group.
fn skip_balanced(t: &[Token], idx: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut j = idx;
    while j < t.len() {
        if t[j].is_punct(open) {
            depth += 1;
        } else if t[j].is_punct(close) {
            let is_arrow = close == '>' && j > 0 && t[j - 1].is_punct('-');
            if !is_arrow {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
        }
        j += 1;
    }
    t.len()
}

/// Recovers the `Self` type name of an `impl`/`trait` header starting at
/// the keyword token `kw_idx`: the last path segment before the body
/// brace, restarting the capture after `for` (so `impl Trait for Type`
/// yields `Type`). The flag says whether the header names a trait: a
/// `trait` keyword or an `impl … for`.
fn impl_self_type(t: &[Token], kw_idx: usize) -> (Option<String>, bool) {
    let mut of_trait = t[kw_idx].is_ident("trait");
    let mut j = kw_idx + 1;
    if t.get(j).is_some_and(|x| x.is_punct('<')) {
        j = skip_balanced(t, j, '<', '>');
    }
    let mut last: Option<String> = None;
    while j < t.len() {
        let tok = &t[j];
        if tok.is_punct('{') || tok.is_punct(';') || tok.is_ident("where") {
            break;
        }
        if tok.is_ident("for") {
            last = None;
            of_trait = true;
            j += 1;
            continue;
        }
        if tok.kind == TokenKind::Ident {
            last = Some(tok.text.clone());
            j += 1;
            continue;
        }
        if tok.is_punct('<') {
            j = skip_balanced(t, j, '<', '>');
            continue;
        }
        if tok.is_punct('(') {
            j = skip_balanced(t, j, '(', ')');
            continue;
        }
        j += 1;
    }
    (last, of_trait)
}

/// Whether `impl`/`trait` at `idx` opens an item (vs. `-> impl Trait` /
/// `arg: impl Into<…>` type positions): item position means the previous
/// token ends an item (`}` `;` `]`) or is `unsafe`, or there is none.
fn is_item_container(t: &[Token], idx: usize) -> bool {
    match idx.checked_sub(1).and_then(|p| t.get(p)) {
        None => true,
        Some(prev) => {
            prev.is_punct('}')
                || prev.is_punct(';')
                || prev.is_punct(']')
                || prev.is_ident("unsafe")
                || prev.is_ident("pub")
        }
    }
}

/// Whether the `fn` keyword at `fn_idx` follows a plain `pub`, past any
/// `const`/`unsafe`/`async`/`extern "abi"` qualifiers.
fn is_plain_pub(t: &[Token], fn_idx: usize) -> bool {
    let mut j = fn_idx;
    while let Some(prev) = j.checked_sub(1).and_then(|p| t.get(p)) {
        let qualifier = ["const", "unsafe", "async", "extern"].iter().any(|q| prev.is_ident(q))
            || prev.kind == TokenKind::Str;
        if !qualifier {
            return prev.is_ident("pub");
        }
        j -= 1;
    }
    false
}

/// Parses one lexed file into its `fn` items and certification markers.
/// `is_test_file` marks every fn as test code (integration-test files).
pub fn parse(lexed: &Lexed, is_test_file: bool) -> ParsedFile {
    let t = &lexed.tokens;
    let test_spans = if is_test_file { vec![(0, t.len())] } else { cfg_test_regions(t) };
    let mut out = ParsedFile { test_spans, ..ParsedFile::default() };
    // Frames annotate what each `{` opened so fn bodies and container
    // spans close at the matching `}`.
    enum Frame {
        Fn(usize, usize),                // (fns index, open brace token index)
        Container(Option<String>, bool), // impl/trait Self type, and whether of a trait
        Mod(usize, usize),               // (mods index, open brace token index)
        Other,
    }
    // `mod` blocks by keyword token index, with their brace spans, for
    // marker attachment.
    let mut mods: Vec<(usize, Option<(usize, usize)>)> = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut pending: Option<Frame> = None;
    let mut pending_depth = 0usize;
    let mut depth = 0usize; // parens + brackets

    let enclosing_type = |stack: &[Frame]| -> (Option<String>, bool) {
        for frame in stack.iter().rev() {
            match frame {
                Frame::Fn(..) | Frame::Mod(..) => break,
                Frame::Container(ty, of_trait) => return (ty.clone(), *of_trait),
                Frame::Other => {}
            }
        }
        (None, false)
    };

    for i in 0..t.len() {
        let tok = &t[i];
        if tok.kind == TokenKind::Punct {
            match tok.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" => stack.push(match pending.take() {
                    Some(Frame::Fn(k, _)) => Frame::Fn(k, i),
                    Some(Frame::Mod(m, _)) => Frame::Mod(m, i),
                    Some(other) => other,
                    None => Frame::Other,
                }),
                "}" => match stack.pop() {
                    Some(Frame::Fn(k, open)) => {
                        if let Some(f) = out.fns.get_mut(k) {
                            f.body = Some((open, i));
                        }
                    }
                    Some(Frame::Mod(m, open)) => {
                        if let Some(entry) = mods.get_mut(m) {
                            entry.1 = Some((open, i));
                        }
                    }
                    _ => {}
                },
                ";" if pending.is_some() && depth == pending_depth => {
                    if let Some(Frame::Fn(k, _)) = pending.take() {
                        if let Some(f) = out.fns.get_mut(k) {
                            f.sig_end = i;
                        }
                    }
                }
                _ => {}
            }
            continue;
        }
        if tok.kind != TokenKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            // `fn name` is an item; `fn(…)` pointer types have no name.
            "fn" if t.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) => {
                let name_tok = &t[i + 1];
                let k = out.fns.len();
                let (impl_type, in_trait) = enclosing_type(&stack);
                let in_test = out.in_test(i);
                out.fns.push(FnItem {
                    name: name_tok.text.clone(),
                    impl_type,
                    line: tok.line,
                    col: tok.col,
                    fn_idx: i,
                    sig_end: t.len(),
                    body: None,
                    certified_root: false,
                    in_test,
                    is_pub: is_plain_pub(t, i),
                    in_trait,
                });
                pending = Some(Frame::Fn(k, i));
                pending_depth = depth;
            }
            "impl" | "trait" if is_item_container(t, i) => {
                let (ty, of_trait) = impl_self_type(t, i);
                pending = Some(Frame::Container(ty, of_trait));
                pending_depth = depth;
            }
            "mod"
                if t.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)
                    && is_item_container(t, i) =>
            {
                let m = mods.len();
                mods.push((i, None));
                pending = Some(Frame::Mod(m, i));
                pending_depth = depth;
            }
            _ => {}
        }
    }
    // A fn whose body never closed (unbalanced braces in weird input):
    // clamp the signature end so downstream spans stay in bounds.
    for f in &mut out.fns {
        if let Some((open, _)) = f.body {
            f.sig_end = open;
        } else if f.sig_end > t.len() {
            f.sig_end = t.len();
        }
    }

    attach_markers(lexed, &mut out, &mods);
    out
}

/// Attaches every `lint:certify(no-panic)` marker comment: a marker
/// before the first token *followed by a blank line* certifies the
/// whole file (module head), a marker above a `mod name {` certifies
/// every fn in the block, and a marker directly above (or trailing) a
/// `fn` certifies that fn. Anything else is recorded as dangling for
/// diagnostics.
fn attach_markers(lexed: &Lexed, out: &mut ParsedFile, mods: &[(usize, Option<(usize, usize)>)]) {
    let t = &lexed.tokens;
    for comment in &lexed.comments {
        let text = comment.text.trim();
        let Some(rest) = text.strip_prefix(CERTIFY_PREFIX) else {
            continue;
        };
        let arg_ok = rest.split(')').next().map(str::trim) == Some("no-panic");
        let mut marker = Marker { line: comment.line, arg_ok, attached: false };
        if arg_ok {
            // "Module head" means the marker is detached from the item
            // below it: before every token, with a blank line after.
            let next_line = comment.line + 1;
            let next_line_busy = t.iter().any(|tok| tok.line == next_line)
                || lexed.comments.iter().any(|c| c.line == next_line);
            marker.attached = attach_one(t, out, mods, comment.line, !next_line_busy);
        }
        out.markers.push(marker);
    }
}

/// Attaches one marker at `line`; returns whether it found a target.
fn attach_one(
    t: &[Token],
    out: &mut ParsedFile,
    mods: &[(usize, Option<(usize, usize)>)],
    line: u32,
    detached: bool,
) -> bool {
    // Trailing marker on the `fn` line itself.
    if let Some(f) = out.fns.iter_mut().find(|f| f.line == line) {
        f.certified_root = true;
        return true;
    }
    let Some(start) = t.iter().position(|tok| tok.line > line) else {
        return false;
    };
    if start == 0 && detached {
        // Module-head marker: before any token, set off by a blank
        // line, certifies the whole file.
        for f in &mut out.fns {
            f.certified_root = true;
        }
        return true;
    }
    // Scan an item header: attributes, visibility, qualifiers, then the
    // `fn` or `mod` keyword this marker certifies.
    let mut j = start;
    loop {
        let Some(tok) = t.get(j) else {
            return false;
        };
        if tok.is_punct('#') {
            if t.get(j + 1).is_some_and(|n| n.is_punct('[')) {
                j = skip_balanced(t, j + 1, '[', ']');
                continue;
            }
            return false;
        }
        match tok.kind {
            TokenKind::Ident => match tok.text.as_str() {
                "pub" => {
                    j += 1;
                    if t.get(j).is_some_and(|n| n.is_punct('(')) {
                        j = skip_balanced(t, j, '(', ')');
                    }
                }
                "const" | "unsafe" | "async" | "extern" => j += 1,
                "fn" => {
                    if let Some(f) = out.fns.iter_mut().find(|f| f.fn_idx == j) {
                        f.certified_root = true;
                        return true;
                    }
                    return false;
                }
                "mod" => {
                    let Some(&(_, Some((open, close)))) = mods.iter().find(|(kw, _)| *kw == j)
                    else {
                        return false;
                    };
                    for f in &mut out.fns {
                        if f.fn_idx > open && f.fn_idx < close {
                            f.certified_root = true;
                        }
                    }
                    return true;
                }
                _ => return false,
            },
            TokenKind::Str => j += 1, // extern "C"
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src), false)
    }

    #[test]
    fn recovers_fn_items_with_impl_types() {
        let p = parse_src(
            "impl<'a> Cursor<'a> {\n    fn take(&mut self, n: usize) -> u8 { 0 }\n}\n\
             fn free() {}\n\
             impl fmt::Display for Diagnostic {\n    fn fmt(&self) {}\n}\n",
        );
        let names: Vec<_> = p.fns.iter().map(FnItem::display).collect();
        assert_eq!(names, ["Cursor::take", "free", "Diagnostic::fmt"]);
        assert!(p.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn marker_attaches_through_attributes_and_visibility() {
        let p = parse_src(
            "// lint:certify(no-panic)\n#[inline]\npub(crate) fn total(x: u32) -> u32 { x }\n\
             fn other() {}\n",
        );
        assert!(p.fns[0].certified_root);
        assert!(!p.fns[1].certified_root);
        assert!(p.markers[0].attached);
    }

    #[test]
    fn file_head_marker_certifies_every_fn() {
        // Detached from the first item by a blank line = module head.
        let p = parse_src("//! docs\n// lint:certify(no-panic)\n\nfn a() {}\nfn b() {}\n");
        assert!(p.fns.iter().all(|f| f.certified_root));
        // Adjacent to the first fn = that fn only.
        let q = parse_src("// lint:certify(no-panic)\nfn a() {}\nfn b() {}\n");
        assert!(q.fns[0].certified_root);
        assert!(!q.fns[1].certified_root);
    }

    #[test]
    fn mod_marker_certifies_the_block_only() {
        let p = parse_src(
            "// lint:certify(no-panic)\nmod zone {\n    pub fn inside() {}\n}\nfn outside() {}\n",
        );
        assert!(p.fns.iter().find(|f| f.name == "inside").unwrap().certified_root);
        assert!(!p.fns.iter().find(|f| f.name == "outside").unwrap().certified_root);
    }

    #[test]
    fn dangling_and_misspelled_markers_are_recorded() {
        let p = parse_src(
            "use std::fmt;\n// lint:certify(no-panic)\nstruct S;\n// lint:certify(never)\nfn f() {}\n",
        );
        assert_eq!(p.markers.len(), 2);
        assert!(!p.markers[0].attached, "marker above a struct cannot attach");
        assert!(p.markers[0].arg_ok);
        assert!(!p.markers[1].arg_ok);
    }

    #[test]
    fn impl_in_type_position_is_not_an_item() {
        let p =
            parse_src("fn f(x: impl Into<String>) -> impl Iterator<Item = u8> {\n    body()\n}\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].impl_type, None);
    }

    #[test]
    fn cfg_test_fns_are_flagged() {
        let p = parse_src("fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n");
        assert!(!p.fns.iter().find(|f| f.name == "prod").unwrap().in_test);
        assert!(p.fns.iter().find(|f| f.name == "helper").unwrap().in_test);
    }

    #[test]
    fn visibility_and_trait_membership_are_recovered() {
        let p = parse_src(
            "pub const fn a() {}\npub(crate) fn b() {}\nfn c() {}\n\
             impl S {\n    pub unsafe fn d() {}\n}\n\
             impl<T> Tr for S<T> {\n    fn e() {}\n}\ntrait Tr {\n    fn f();\n}\n",
        );
        let flags: Vec<_> = p.fns.iter().map(|f| (f.name.as_str(), f.is_pub, f.in_trait)).collect();
        assert_eq!(
            flags,
            [
                ("a", true, false),
                ("b", false, false),
                ("c", false, false),
                ("d", true, false),
                ("e", false, true),
                ("f", false, true),
            ]
        );
    }

    #[test]
    fn bodiless_trait_fns_have_no_body() {
        let p = parse_src("trait T {\n    fn decl(&self);\n    fn with_default(&self) {}\n}\n");
        assert_eq!(p.fns[0].body, None);
        assert!(p.fns[1].body.is_some());
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("T"));
    }
}
