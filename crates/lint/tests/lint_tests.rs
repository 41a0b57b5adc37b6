//! Integration tests: each committed bad fixture must trip exactly its
//! rule, the clean/suppressed fixtures must pass, and the linter binary
//! must behave end-to-end (exit codes, JSON output, live workspace).
//!
//! Fixtures live in `tests/fixtures/` — a directory cargo never
//! compiles and the workspace walk never descends into — and are linted
//! with synthetic non-lint, non-resolver paths so no rule is skipped.

use std::path::Path;

use dnsnoise_lint::{
    certification_stats, lint_files, lint_source, lint_workspace, load_std_allow, parse_allowlist,
    stale_allowlist_entries, Diagnostic,
};

/// Lints a fixture as if it lived at `crates/fake/src/<name>`.
fn lint_fixture(name: &str, source: &str) -> Vec<Diagnostic> {
    lint_source(&format!("crates/fake/src/{name}"), source, &[])
}

/// Asserts the fixture yields exactly `expected` as its (rule, line)
/// multiset, using the `EXPECT <rule>` markers for line numbers.
fn rules_fired(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

/// Every diagnostic must land on a line carrying an `EXPECT <rule>`
/// marker (or, for `for`-loop diagnostics, the line before one), and
/// the count must match the number of markers.
fn check_against_markers(source: &str, rule: &str, diags: &[Diagnostic]) {
    let marker = format!("EXPECT {rule}");
    let expected: Vec<u32> = source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(&marker))
        .map(|(i, _)| (i + 1) as u32)
        .collect();
    let mut got: Vec<u32> = diags.iter().filter(|d| d.rule == rule).map(|d| d.line).collect();
    got.sort_unstable();
    assert_eq!(
        got, expected,
        "{rule}: diagnostics {got:?} vs EXPECT markers on lines {expected:?}\n{diags:#?}"
    );
}

#[test]
fn hash_iter_fixture_trips_only_hash_iter() {
    let src = include_str!("fixtures/hash_iter.rs");
    let diags = lint_fixture("hash_iter.rs", src);
    assert_eq!(rules_fired(&diags), ["hash-iter"]);
    // Three method-call sites land on their EXPECT line; the for-loop
    // diagnostic lands on the `for` line whose marker is one line below.
    assert_eq!(diags.len(), 4, "{diags:#?}");
    let for_line = src.lines().position(|l| l.contains("for (_, v)")).unwrap() + 1;
    assert!(diags.iter().any(|d| d.line == for_line as u32), "{diags:#?}");
}

#[test]
fn wall_clock_fixture() {
    let src = include_str!("fixtures/wall_clock.rs");
    let diags = lint_fixture("wall_clock.rs", src);
    assert_eq!(rules_fired(&diags), ["wall-clock"]);
    check_against_markers(src, "wall-clock", &diags);
}

#[test]
fn ambient_rng_fixture() {
    let src = include_str!("fixtures/ambient_rng.rs");
    let diags = lint_fixture("ambient_rng.rs", src);
    assert_eq!(rules_fired(&diags), ["ambient-rng"]);
    check_against_markers(src, "ambient-rng", &diags);
}

#[test]
fn merge_cast_fixture() {
    let src = include_str!("fixtures/merge_cast.rs");
    let diags = lint_fixture("merge_cast.rs", src);
    assert_eq!(rules_fired(&diags), ["merge-cast"]);
    check_against_markers(src, "merge-cast", &diags);
}

#[test]
fn export_purity_fixture() {
    let src = include_str!("fixtures/export_purity.rs");
    let diags = lint_fixture("export_purity.rs", src);
    assert_eq!(rules_fired(&diags), ["export-purity"]);
    check_against_markers(src, "export-purity", &diags);
}

#[test]
fn fs_direct_write_fixture() {
    let src = include_str!("fixtures/fs_direct_write.rs");
    // On a persistence path every mutation fires…
    let diags = lint_source("crates/pdns/src/store/fake.rs", src, &[]);
    assert_eq!(rules_fired(&diags), ["fs-direct-write"]);
    check_against_markers(src, "fs-direct-write", &diags);
    let diags = lint_source("crates/stream/src/fake.rs", src, &[]);
    assert_eq!(rules_fired(&diags), ["fs-direct-write"]);
    check_against_markers(src, "fs-direct-write", &diags);
    // …the atomic writer itself is the one sanctioned home…
    let diags = lint_source("crates/pdns/src/store/io.rs", src, &[]);
    assert!(diags.is_empty(), "{diags:#?}");
    // …and non-persistence paths are out of scope.
    let diags = lint_fixture("fs_direct_write.rs", src);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn bad_allow_fixture() {
    let src = include_str!("fixtures/bad_allow.rs");
    let diags = lint_fixture("bad_allow.rs", src);
    assert_eq!(rules_fired(&diags), ["bad-allow"]);
    assert_eq!(diags.len(), 4, "{diags:#?}");
}

#[test]
fn clean_fixture_is_clean() {
    let diags = lint_fixture("clean.rs", include_str!("fixtures/clean.rs"));
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn suppressed_fixture_is_clean() {
    let diags = lint_fixture("suppressed.rs", include_str!("fixtures/suppressed.rs"));
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn allowlist_waives_fixture_violations() {
    let (entries, bad) = parse_allowlist("wall-clock crates/fake/src/wall_clock.rs\n");
    assert!(bad.is_empty());
    let diags = lint_source(
        "crates/fake/src/wall_clock.rs",
        include_str!("fixtures/wall_clock.rs"),
        &entries,
    );
    assert!(diags.is_empty(), "{diags:#?}");
}

// --- lexer edge cases through the full pipeline --------------------------

#[test]
fn cfg_gated_code_is_still_linted() {
    // #[cfg(feature = "x")] is not #[cfg(test)]: rules still apply.
    let src = "#[cfg(feature = \"slow\")]\nfn f() -> std::time::Instant {\n    \
               std::time::Instant::now()\n}\n";
    let diags = lint_fixture("gated.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "wall-clock");
}

#[test]
fn cfg_test_module_is_exempt_from_hash_iter() {
    let src = "use std::collections::HashMap;\n\
               #[cfg(test)]\nmod tests {\n    use super::*;\n    \
               fn helper(m: &HashMap<u32, u32>) -> Vec<u32> {\n        \
               m.keys().copied().collect()\n    }\n}\n";
    let diags = lint_fixture("test_mod.rs", src);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn violations_inside_raw_strings_and_comments_are_inert() {
    let src = "fn f() -> &'static str {\n    \
               // Instant::now() in a comment is prose.\n    \
               /* nested /* block */ with thread_rng() */\n    \
               r##\"SystemTime::now() and thread_rng()\"##\n}\n";
    let diags = lint_fixture("inert.rs", src);
    assert!(diags.is_empty(), "{diags:#?}");
}

// --- binary end-to-end ---------------------------------------------------

/// Builds a throwaway mini-workspace, runs the real binary against it,
/// and checks exit code + diagnostic output.
#[test]
fn binary_flags_a_bad_workspace_and_accepts_a_fixed_one() {
    let dir = std::env::temp_dir().join(format!("dnsnoise-lint-e2e-{}", std::process::id()));
    let src_dir = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        "fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    )
    .unwrap();

    let bin = env!("CARGO_BIN_EXE_dnsnoise-lint");
    let out =
        std::process::Command::new(bin).args(["--root", dir.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/demo/src/lib.rs:2:16: wall-clock:"), "{stdout}");

    // JSON mode carries the same diagnostic.
    let json_out = std::process::Command::new(bin)
        .args(["--root", dir.to_str().unwrap(), "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(json_out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&json_out.stdout);
    assert!(json.contains("\"rule\": \"wall-clock\""), "{json}");

    // An allowlist entry turns the same tree clean (exit 0).
    std::fs::write(dir.join("lint-allowlist.txt"), "wall-clock crates/demo/\n").unwrap();
    let ok =
        std::process::Command::new(bin).args(["--root", dir.to_str().unwrap()]).output().unwrap();
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_rejects_unknown_arguments() {
    let bin = env!("CARGO_BIN_EXE_dnsnoise-lint");
    let out = std::process::Command::new(bin).arg("--bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

// --- no-panic certification fixtures --------------------------------------

/// Runs the full pipeline (path rules + certification pass) over
/// fixtures at synthetic non-test paths, against the committed std
/// allowlist so fixture expectations track the reviewed entries. The
/// fixture sets hold no binary, so every `pub fn` in them is dead API;
/// those findings are `dead-api`'s own fixture's business.
fn lint_nopanic_fixtures(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(name, src)| (format!("crates/fake/src/{name}"), src.to_string()))
        .collect();
    let mut diags = lint_files(&files, &[], &load_std_allow(&root));
    diags.retain(|d| d.rule != "dead-api");
    diags
}

#[test]
fn nopanic_constructs_fixture_trips_every_class() {
    let src = include_str!("fixtures/nopanic_constructs.rs");
    let diags = lint_nopanic_fixtures(&[("nopanic_constructs.rs", src)]);
    assert_eq!(rules_fired(&diags), ["no-panic"]);
    check_against_markers(src, "no-panic", &diags);
    // Direct zone violations carry the zone but no multi-hop chain.
    assert!(diags.iter().all(|d| d.zone.as_deref() == Some("decode")), "{diags:#?}");
    assert!(diags.iter().all(|d| d.chain.is_none()), "{diags:#?}");
}

#[test]
fn nopanic_calls_fixture_trips_resolution_failures() {
    let src = include_str!("fixtures/nopanic_calls.rs");
    let diags = lint_nopanic_fixtures(&[("nopanic_calls.rs", src)]);
    assert_eq!(rules_fired(&diags), ["no-panic-call"]);
    check_against_markers(src, "no-panic-call", &diags);
}

#[test]
fn no_panic_propagates_across_files_two_hops() {
    let root_src = include_str!("fixtures/nopanic_prop_root.rs");
    let leaf_src = include_str!("fixtures/nopanic_prop_leaf.rs");
    let diags = lint_nopanic_fixtures(&[
        ("nopanic_prop_root.rs", root_src),
        ("nopanic_prop_leaf.rs", leaf_src),
    ]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(d.rule, "no-panic");
    assert_eq!(d.file, "crates/fake/src/nopanic_prop_leaf.rs");
    assert_eq!(d.zone.as_deref(), Some("root"));
    assert_eq!(d.chain.as_deref(), Some("root -> middle -> leaf"));
    // The leaf alone, with no certified root pulling it in, is legal.
    let alone = lint_nopanic_fixtures(&[("nopanic_prop_leaf.rs", leaf_src)]);
    assert!(alone.is_empty(), "{alone:#?}");
    // And the JSON rendering carries the zone and chain for CI triage.
    let json = dnsnoise_lint::diag::to_json(&diags);
    assert!(json.contains("\"zone\": \"root\""), "{json}");
    assert!(json.contains("\"chain\": \"root -> middle -> leaf\""), "{json}");
}

#[test]
fn turbofish_in_call_position_resolves_through_the_path_qualifier() {
    let src = "// lint:certify(no-panic)\n\
               pub fn alloc(n: usize) -> Vec<u8> {\n    \
               let buf = Vec::<u8>::with_capacity(n.min(64));\n    buf\n}\n";
    let diags = lint_nopanic_fixtures(&[("turbofish.rs", src)]);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn multi_line_chain_is_scanned_and_an_allow_covers_the_whole_statement() {
    let bad = "// lint:certify(no-panic)\n\
               pub fn pick(v: &[u32]) -> u32 {\n    \
               v.iter()\n        .copied()\n        .min()\n        .expect(\"nonempty\")\n}\n";
    let diags = lint_nopanic_fixtures(&[("chain.rs", bad)]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, "no-panic");
    assert_eq!(diags[0].line, 6, "{diags:#?}");

    let allowed = "// lint:certify(no-panic)\n\
                   pub fn pick(v: &[u32]) -> u32 {\n    \
                   // lint:allow(no-panic): fixture; callers pass nonempty slices\n    \
                   v.iter()\n        .copied()\n        .min()\n        .expect(\"nonempty\")\n}\n";
    let diags = lint_nopanic_fixtures(&[("chain_ok.rs", allowed)]);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn bogus_or_dangling_certify_markers_are_flagged() {
    let bogus = "// lint:certify(no-unwind)\npub fn f() -> u32 {\n    7\n}\n";
    let diags = lint_nopanic_fixtures(&[("bogus.rs", bogus)]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(diags[0].message.contains("unknown certification"), "{diags:#?}");

    let dangling = "pub fn f() -> u32 {\n    7\n}\n\n// lint:certify(no-panic)\n";
    let diags = lint_nopanic_fixtures(&[("dangling.rs", dangling)]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(diags[0].message.contains("dangling certify marker"), "{diags:#?}");
}

#[test]
fn std_entries_no_zone_consults_are_reported_stale() {
    // `first` decides a resolution inside the zone; `last` is only called
    // outside any zone and `vec!` never — both are dead weight.
    let src = "// lint:certify(no-panic)\n\
               pub fn head(v: &[u8]) -> Option<&u8> {\n    v.first()\n}\n\
               pub fn tail(v: &[u8]) -> Option<&u8> {\n    v.last()\n}\n";
    let files = [("crates/fake/src/a.rs".to_string(), src.to_string())];
    let std_allow = dnsnoise_lint::nopanic::parse_std_allow("first\nlast\nvec!\n");
    let (diags, stats) = dnsnoise_lint::nopanic::analyze(&files, &[], &std_allow);
    assert!(diags.is_empty(), "{diags:#?}");
    assert_eq!(stats.stale_std_entries, ["last", "vec!"]);
}

// --- dead-api reachability fixture ---------------------------------------

/// Lints the `dead-api` fixture: `tool` as the one root binary, the
/// fixture library, and one integration test calling `Lib::tested`.
fn lint_dead_api_fixture(tool: &str) -> Vec<Diagnostic> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = [
        ("src/bin/tool.rs", tool),
        ("crates/fake/src/lib.rs", include_str!("fixtures/dead_api_lib.rs")),
        ("crates/fake/tests/t.rs", "use fake::Lib;\n\n#[test]\nfn t() {\n    Lib::tested();\n}\n"),
    ];
    let files: Vec<(String, String)> =
        files.iter().map(|(rel, src)| (rel.to_string(), src.to_string())).collect();
    lint_files(&files, &[], &load_std_allow(&root))
}

#[test]
fn dead_api_flags_only_what_no_root_reaches() {
    let lib = include_str!("fixtures/dead_api_lib.rs");
    let tool = include_str!("fixtures/dead_api_tool.rs");
    let diags = lint_dead_api_fixture(tool);
    assert_eq!(rules_fired(&diags), ["dead-api"]);
    assert!(diags.iter().all(|d| d.file == "crates/fake/src/lib.rs"), "{diags:#?}");
    check_against_markers(lib, "dead-api", &diags);
    let message = |name: &str| {
        let d = diags.iter().find(|d| d.message.starts_with(&format!("pub fn Lib::{name}:")));
        d.map(|d| d.message.clone()).unwrap_or_else(|| panic!("no finding for {name}: {diags:#?}"))
    };
    assert!(!message("dead").contains("tests call it"), "{diags:#?}");
    assert!(message("tested").ends_with("; only tests call it"), "{diags:#?}");

    // Without the root's call, the fn it called is dead too.
    let cut = tool.replace("total + Lib::called()", "total");
    assert_ne!(cut, tool);
    let diags = lint_dead_api_fixture(&cut);
    assert_eq!(diags.len(), 3, "{diags:#?}");
    assert!(diags.iter().any(|d| d.message.starts_with("pub fn Lib::called:")), "{diags:#?}");
}

/// Pins a known over-approximation: a method call resolves by its name
/// alone, so a root calling `Other::get` through a value also reaches
/// `Cache::get`, which only a test calls. A name no other type shares
/// is still flagged. Receiver types would need type inference the pass
/// does not do; workspace fns caught this way carry inline waivers.
#[test]
fn dead_api_resolves_a_method_call_by_its_name_alone() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let lib = "pub struct Cache;\npub struct Other;\n\n\
               impl Cache {\n    pub fn get(&self) {}\n    pub fn peek(&self) {}\n}\n\n\
               impl Other {\n    pub fn get(&self) {}\n}\n";
    let files = [
        ("src/bin/tool.rs", "fn main() {\n    fake::Other.get();\n}\n"),
        ("crates/fake/src/lib.rs", lib),
        (
            "crates/fake/tests/t.rs",
            "#[test]\nfn t() {\n    fake::Cache.get();\n    fake::Cache.peek();\n}\n",
        ),
    ];
    let files: Vec<(String, String)> =
        files.iter().map(|(rel, src)| (rel.to_string(), src.to_string())).collect();
    let diags: Vec<Diagnostic> = lint_files(&files, &[], &load_std_allow(&root))
        .into_iter()
        .filter(|d| d.rule == "dead-api")
        .collect();
    let flagged: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(flagged.len(), 1, "{diags:#?}");
    assert!(flagged[0].starts_with("pub fn Cache::peek:"), "{diags:#?}");
}

// --- the workspace holds itself to its own rules --------------------------

#[test]
fn live_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = lint_workspace(&root).unwrap();
    assert!(diags.is_empty(), "workspace must lint clean:\n{diags:#?}");
}

#[test]
fn live_workspace_certified_surfaces_are_declared() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let stats = certification_stats(&root).unwrap();
    assert!(stats.marked_roots >= 8, "{stats:?}");
    // Non-trivial: the call graph pulls in more fns than were marked.
    assert!(stats.certified_fns > stats.marked_roots, "{stats:?}");
    // The surfaces DESIGN.md §8 names must each declare a zone root; a
    // dropped marker would silently shrink the certified set.
    for surface in [
        "crates/dns/src/wire.rs",
        "crates/pdns/src/store/crc.rs",
        "crates/pdns/src/store/frame.rs",
        "crates/pdns/src/store/io.rs",
        "crates/pdns/src/store/manifest.rs",
        "crates/pdns/src/store/run.rs",
        "crates/pdns/src/store/keys.rs",
        "crates/pdns/src/store/recovery.rs",
        "crates/stream/src/checkpoint.rs",
    ] {
        assert!(
            stats.files_with_zones.iter().any(|f| f == surface),
            "missing certified surface {surface}; zones: {:?}",
            stats.files_with_zones
        );
    }
}

#[test]
fn committed_allowlist_has_no_stale_entries() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let stale = stale_allowlist_entries(&root).unwrap();
    assert!(stale.is_empty(), "stale allowlist entries must be pruned: {stale:?}");
    let stale_std = certification_stats(&root).unwrap().stale_std_entries;
    assert!(stale_std.is_empty(), "stale certified-std entries must be pruned: {stale_std:?}");
}
