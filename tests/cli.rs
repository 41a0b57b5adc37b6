//! End-to-end tests of the `dnsnoise` CLI binary: generate → simulate →
//! train → mine, through real process invocations and real files.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dnsnoise"))
}

fn tempdir() -> std::path::PathBuf {
    tempdir_named("test")
}

/// Tests run in parallel threads of one process, so directories need a
/// per-test discriminator on top of the pid.
fn tempdir_named(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dnsnoise-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn generate_simulate_train_mine_roundtrip() {
    let dir = tempdir();
    let trace = dir.join("day0.trace");
    let model = dir.join("model.txt");

    // generate
    let out = bin()
        .args(["generate", "--scale", "0.02", "--seed", "11", "--out"])
        .arg(&trace)
        .output()
        .expect("run generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(text.lines().count() > 1_000, "trace has events");

    // simulate
    let out = bin().args(["simulate", "--trace"]).arg(&trace).output().expect("run simulate");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("below records:"), "{stdout}");
    assert!(stdout.contains("cache hit rate:"), "{stdout}");

    // train
    let out = bin()
        .args(["train", "--scale", "0.1", "--seed", "11", "--out"])
        .arg(&model)
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    let model_text = std::fs::read_to_string(&model).expect("model written");
    assert!(model_text.starts_with("ladtree v1"), "{model_text}");

    // mine with the persisted model
    let out = bin()
        .args(["mine", "--trace"])
        .arg(&trace)
        .args(["--model"])
        .arg(&model)
        .output()
        .expect("run mine");
    assert!(out.status.success(), "mine failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().next().unwrap_or("").starts_with("# zone"), "{stdout}");
    // The Google IPv6 experiment dominates at this scale and must be found.
    assert!(stdout.contains("google.com"), "expected google findings:\n{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_fail_cleanly() {
    let out = bin().args(["mine", "--bogus"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    let out = bin().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());

    // The thread knobs are deleted, not aliased: an unknown flag, then usage.
    for args in [["simulate", "--threads", "4"], ["ingest", "x.pcap", "--threads"]] {
        let out = bin().args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag --threads"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: dnsnoise"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }

    let out = bin().args(["help"]).output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
}

/// argv is outside input: values that once panicked (`--scale nan` at
/// the scenario constructor, `--scale inf` as a capacity overflow,
/// `--capacity 0` in the cluster) or aborted on a 608 GB allocation
/// (`--buckets 4000000000`), and a `--theta` outside [0, 1] that mined
/// nothing, are refused up front: exit 1, the flag named on one line.
#[test]
fn hostile_flag_values_are_refused_without_a_panic() {
    let cases: [&[&str]; 10] = [
        &["generate", "--scale", "nan"],
        &["generate", "--scale", "inf"],
        &["simulate", "--capacity", "0"],
        &["simulate", "--buckets", "4000000000"],
        &["mine", "--theta", "7"],
        &["stream", "--theta", "7"],
        &["train", "--theta", "7"],
        &["mine", "--theta", "nan"],
        &["stream", "--theta", "nan"],
        &["train", "--theta", "nan"],
    ];
    for args in cases {
        let out = bin().args(args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(first.starts_with(args[1]) && first.contains("must be"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// Usage follows an argument error only: a run that fails prints its one
/// error line, so a caller's last stderr line is the error.
#[test]
fn runtime_errors_print_one_line_without_usage() {
    for args in [&["fsck", "/nonexistent/dir"][..], &["simulate", "--faults", "loss=2"]] {
        let out = bin().args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("usage"), "{args:?}: {stderr}");
    }
}

/// Every usage text, generated from the flag tables, pinned: a new flag
/// or a changed help line is one reviewed diff of `tests/golden/usage.txt`.
/// To rebless after an intended change: `UPDATE_GOLDEN=1 cargo test --test
/// cli usage`.
#[test]
fn usage_texts_match_the_golden_file() {
    let help = |args: &[&str]| {
        let out = bin().args(args).output().expect("run");
        assert!(out.status.success(), "{args:?}");
        format!("$ dnsnoise {}\n{}", args.join(" "), String::from_utf8_lossy(&out.stdout))
    };
    let top = help(&["help"]);
    let names = top.split_once('<').and_then(|(_, rest)| rest.split_once('>')).expect("<cmds>").0;
    let mut rendered = top.clone();
    for name in names.split('|') {
        rendered += &help(&[name, "--help"]);
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/usage.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden usage");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden usage (UPDATE_GOLDEN=1)");
    assert_eq!(rendered, expected, "usage drifted; rebless with UPDATE_GOLDEN=1 if intended");
}

#[test]
fn subcommands_own_their_flags() {
    // A simulate-only flag is an error under mine (it used to parse
    // silently when all subcommands shared one flat option set).
    let out = bin().args(["mine", "--members", "9"]).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");

    // Per-subcommand help names the subcommand's own flags.
    let out = bin().args(["simulate", "--help"]).output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: dnsnoise simulate"), "{stdout}");
    assert!(stdout.contains("--metrics"), "{stdout}");
}

#[test]
fn simulate_attack_flags_drive_admission_control() {
    // A flood plus admission control prints the overload section and
    // actually sheds. The tiny synthetic day idles well below 1 qps, so
    // the budget must be proportionally tight for the surge to saturate it.
    let spec = "seed=9; victim=flood.example; labellen=16; clients=300; surge=0,86400,25";
    let out = bin()
        .args(["simulate", "--scale", "0.01", "--seed", "5", "--members", "2", "--attack", spec])
        .args(["--rrl", "--queue-depth", "16", "--service-rate", "1"])
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("-- overload --"), "{stdout}");
    let shed = stdout
        .lines()
        .find_map(|l| l.strip_prefix("shed attack/legit: "))
        .expect("shed line present");
    let attack_shed: u64 = shed.split('/').next().unwrap().parse().expect("shed count");
    assert!(attack_shed > 0, "flood must be shed: {stdout}");

    // Without the admission knobs the overload section stays hidden,
    // even when a flood is injected.
    let out = bin()
        .args(["simulate", "--scale", "0.01", "--seed", "5", "--attack", spec])
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("-- overload --"));
}

#[test]
fn attack_flags_fail_cleanly() {
    // A malformed attack spec is a parse error, not a panic.
    let out = bin()
        .args(["simulate", "--scale", "0.01", "--attack", "victim="])
        .output()
        .expect("run simulate");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("attack"));

    // --queue-depth 0 is rejected up front.
    let out = bin().args(["simulate", "--queue-depth", "0"]).output().expect("run");
    assert!(!out.status.success());

    // The overload flags belong to simulate only.
    let out = bin().args(["mine", "--rrl"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    // And the per-subcommand help documents them.
    let out = bin().args(["simulate", "--help"]).output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--attack"), "{stdout}");
    assert!(stdout.contains("--queue-depth"), "{stdout}");
}

#[test]
fn capture_ingest_pipeline_roundtrips() {
    let dir = tempdir_named("capture-roundtrip");
    let pcap = dir.join("day.pcap");
    let dnstap = dir.join("day.dnstap");
    let from_pcap = dir.join("from-pcap.trace");
    let from_tap = dir.join("from-dnstap.trace");

    for (fmt, capture, trace) in [("pcap", &pcap, &from_pcap), ("dnstap", &dnstap, &from_tap)] {
        let out = bin()
            .args(["generate", "--scale", "0.01", "--seed", "11", "--capture", fmt, "--out"])
            .arg(capture)
            .output()
            .expect("run generate --capture");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

        let out = bin()
            .args(["ingest"])
            .arg(capture)
            .args(["-o"])
            .arg(trace)
            .output()
            .expect("run ingest");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("conserved"), "ledger on stderr: {stderr}");
        assert!(stderr.contains("0 quarantined"), "clean capture: {stderr}");
    }

    // Both captures came from the same scenario day, so both roundtrips
    // must recover the identical event stream.
    let a = std::fs::read_to_string(&from_pcap).expect("pcap trace");
    let b = std::fs::read_to_string(&from_tap).expect("dnstap trace");
    assert_eq!(a, b, "pcap and dnstap roundtrips must agree");

    // The ingested trace feeds the rest of the pipeline.
    let out = bin().args(["simulate", "--trace"]).arg(&from_pcap).output().expect("simulate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("cache hit rate:"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_survives_corruption_and_repeats_byte_for_byte() {
    let dir = tempdir_named("ingest-corrupt");
    let capture = dir.join("bad.pcap");
    let out = bin()
        .args([
            "generate",
            "--scale",
            "0.01",
            "--seed",
            "4",
            "--capture",
            "pcap",
            "--corrupt",
            "0.01",
            "--corrupt-seed",
            "2",
            "--out",
        ])
        .arg(&capture)
        .output()
        .expect("run generate --corrupt");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let mut traces = Vec::new();
    for run in ["a", "b"] {
        let path = dir.join(format!("{run}.trace"));
        let out =
            bin().args(["ingest"]).arg(&capture).arg("-o").arg(&path).output().expect("run ingest");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        // The ledger, less the line naming this run's destination.
        let ledger = String::from_utf8_lossy(&out.stderr).replace(&*path.to_string_lossy(), "-");
        assert!(ledger.contains("conserved"), "{ledger}");
        assert!(ledger.contains("resyncs"), "the corruption must bite: {ledger}");
        traces.push((std::fs::read(&path).expect("trace written"), ledger));
    }
    assert!(traces[0].0.len() > 1_000, "most of the day survives");
    assert!(traces[0].0 == traces[1].0, "a repeated ingest must not move a trace byte");
    assert_eq!(traces[0].1, traces[1].1, "nor a ledger byte");

    // A ruined capture is rejected with the ledger, not half-emitted.
    let out = bin()
        .args(["ingest"])
        .arg(&capture)
        .args(["--max-error-rate", "0.0001"])
        .output()
        .expect("run ingest");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exceeds"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_refusal_emits_nothing_and_leaves_nothing_behind() {
    let dir = tempdir_named("ingest-refusal");
    let capture = dir.join("bad.pcap");
    let out = bin()
        .args(["generate", "--scale", "0.01", "--seed", "4", "--capture", "pcap"])
        .args(["--corrupt", "0.01", "--corrupt-seed", "2", "--out"])
        .arg(&capture)
        .output()
        .expect("run generate --corrupt");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let files = || {
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list temp dir")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
            .collect();
        names.sort();
        names
    };

    // A good run publishes `dest` and nothing else.
    let dest = dir.join("day.trace");
    let out = bin().args(["ingest"]).arg(&capture).arg("-o").arg(&dest).output().expect("ingest");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(files(), ["bad.pcap", "day.trace"]);
    let published = std::fs::read(&dest).expect("trace written");
    assert!(!published.is_empty());

    // Over budget: the ledger on stderr, nothing on stdout, and neither a
    // fresh destination nor a temp sibling; an earlier good `dest` stays.
    for target in [Some("day.trace"), Some("fresh.trace"), None] {
        let mut cmd = bin();
        cmd.args(["ingest"]).arg(&capture).args(["--max-error-rate", "0.0001"]);
        if let Some(name) = target {
            cmd.arg("-o").arg(dir.join(name));
        }
        let out = cmd.output().expect("run ingest");
        assert!(!out.status.success(), "{target:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("bytes: ") && stderr.contains("(conserved)"), "{stderr}");
        assert!(stderr.contains("frames: ") && stderr.contains("exceeds"), "{stderr}");
        assert!(out.stdout.is_empty(), "{target:?}: refused source reached stdout");
        assert_eq!(files(), ["bad.pcap", "day.trace"], "{target:?}");
        assert_eq!(std::fs::read(&dest).expect("still there"), published, "{target:?}");
    }

    // A destination that is not a regular file is written through, not
    // renamed over: `-o /dev/stdout` behaves like stdout.
    let out =
        bin().args(["ingest"]).arg(&capture).args(["-o", "/dev/stdout"]).output().expect("ingest");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.stdout, published);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("events to /dev/stdout"), "{stderr}");
    let out = bin().args(["ingest"]).arg(&capture).output().expect("ingest");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.stdout, published);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mine_replays_empty_and_malformed_traces_like_a_loaded_day() {
    let dir = tempdir_named("mine-edges");
    let model = dir.join("model.txt");
    let out = bin()
        .args(["train", "--scale", "0.02", "--seed", "3", "--out"])
        .arg(&model)
        .output()
        .expect("run train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mine = |trace: &std::path::Path| {
        bin()
            .args(["mine", "--trace"])
            .arg(trace)
            .arg("--model")
            .arg(&model)
            .output()
            .expect("run mine")
    };

    let empty = dir.join("empty.trace");
    std::fs::write(&empty, "").expect("write empty trace");
    let out = mine(&empty);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "# zone\tdepth\tconfidence\tnames\n");

    let malformed = dir.join("malformed.trace");
    std::fs::write(&malformed, "10\t7\twww.example.com\tA\tNXDOMAIN\nnot a line\n")
        .expect("write malformed trace");
    let out = mine(&malformed);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no findings from a trace that does not parse");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A capture that cannot be read is refused like a ruined one: non-zero
/// exit, nothing on stdout, and neither the destination nor its temp
/// sibling; an earlier good `dest` stays.
#[test]
fn ingest_read_failure_leaves_nothing_behind() {
    let dir = tempdir_named("ingest-read-failure");
    // A directory opens but fails its first read.
    let capture = dir.join("capture.pcap");
    std::fs::create_dir_all(&capture).expect("create capture dir");
    let dest = dir.join("day.trace");
    std::fs::write(&dest, b"an earlier good trace\n").expect("write dest");
    let files = || {
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list temp dir")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
            .collect();
        names.sort();
        names
    };
    for target in [Some("day.trace"), Some("fresh.trace"), None] {
        let mut cmd = bin();
        cmd.args(["ingest"]).arg(&capture);
        if let Some(name) = target {
            cmd.arg("-o").arg(dir.join(name));
        }
        let out = cmd.output().expect("run ingest");
        assert!(!out.status.success(), "{target:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("read failed after 0 bytes"), "{target:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{target:?}: an unreadable source reached stdout");
        assert_eq!(files(), ["capture.pcap", "day.trace"], "{target:?}");
        assert_eq!(std::fs::read(&dest).expect("still there"), b"an earlier good trace\n");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_rejects_garbage_cleanly() {
    let dir = tempdir_named("ingest-garbage");
    let junk = dir.join("junk.bin");
    std::fs::write(&junk, b"this is not a capture of any kind").expect("write junk");
    let out = bin().args(["ingest"]).arg(&junk).output().expect("run ingest");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--format"), "suggests forcing a format: {stderr}");

    let out = bin().args(["ingest", "--help"]).output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: dnsnoise ingest"), "{stdout}");
    assert!(stdout.contains("--max-error-rate"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_exports_metrics_identically_across_runs() {
    let dir = tempdir_named("metrics");
    let trace = dir.join("metrics-day.trace");
    let out = bin()
        .args(["generate", "--scale", "0.01", "--seed", "3", "--out"])
        .arg(&trace)
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let mut payloads = Vec::new();
    for name in ["a.json", "b.json"] {
        let path = dir.join(name);
        let out = bin()
            .args(["simulate", "--trace"])
            .arg(&trace)
            .args(["--buckets", "8", "--metrics"])
            .arg(&path)
            .output()
            .expect("run simulate");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        // The wall-clock phase table (generate / replay / total) goes to
        // stderr, never into the export.
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("phase") && stderr.contains("replay"), "{stderr}");
        assert!(!stderr.contains("partition") && !stderr.contains("merge"), "{stderr}");
        payloads.push(std::fs::read_to_string(&path).expect("metrics written"));
    }
    assert_eq!(payloads[0], payloads[1], "wall-clock must not leak into the export");
    assert!(payloads[0].starts_with("{"), "JSON export");
    assert!(!payloads[0].contains("phase") && !payloads[0].contains("wall"), "{}", payloads[0]);

    // The CSV form is selected by extension.
    let csv_path = dir.join("timeline.csv");
    let out = bin()
        .args(["simulate", "--trace"])
        .arg(&trace)
        .args(["--buckets", "8", "--metrics"])
        .arg(&csv_path)
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    let csv = std::fs::read_to_string(&csv_path).expect("csv written");
    assert!(csv.starts_with("bucket,start_secs"), "{csv}");
    assert_eq!(csv.lines().count(), 9, "header + 8 buckets");

    std::fs::remove_dir_all(&dir).ok();
}

/// `simulate --store disk` is a function of the trace: two runs leave the
/// same bytes under `--store-path` (run ids and MANIFEST included) and
/// print the same summary line.
#[test]
fn simulate_disk_store_repeats_byte_for_byte() {
    let dir = tempdir_named("store-repeat");
    let trace = dir.join("day.trace");
    let out = bin()
        .args(["generate", "--scale", "0.02", "--seed", "3", "--out"])
        .arg(&trace)
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let run = |name: &str| {
        let store = dir.join(name);
        let out = bin()
            .args(["simulate", "--trace"])
            .arg(&trace)
            .args(["--store", "disk", "--store-path"])
            .arg(&store)
            .output()
            .expect("run simulate");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let summary = stderr.lines().find(|l| l.starts_with("rpdns store:")).map(str::to_owned);
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&store)
            .expect("store directory written")
            .map(|e| e.expect("dir entry").path())
            .map(|p| {
                let name = p.file_name().expect("file name").to_string_lossy().into_owned();
                (name, std::fs::read(&p).expect("store file"))
            })
            .collect();
        files.sort();
        (out.stdout, summary.expect("summary line on stderr"), files)
    };
    let (a, b) = (run("pd-a"), run("pd-b"));
    assert!(a.1.contains("backend=disk") && a.1.contains("flushes="), "{}", a.1);
    let names: Vec<&str> = a.2.iter().map(|(name, _)| name.as_str()).collect();
    assert!(
        names.contains(&"MANIFEST") && names.iter().any(|n| n.starts_with("run-")),
        "{names:?}"
    );
    assert_eq!(a.0, b.0, "stdout");
    assert_eq!(a.1, b.1, "summary line");
    assert!(a.2 == b.2, "store directories differ: {names:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint's `pushed` is outside input behind only a CRC: a
/// well-formed image claiming more events than the trace holds must end
/// in the named error, not in an allocation sized from the claim. So is
/// its format version: the committed `dnckpt1` to `dnckpt5` images are
/// refused as such.
#[test]
fn stream_refuses_a_checkpoint_that_outruns_the_trace() {
    use dnsnoise::stream::Checkpoint;

    let dir = tempdir_named("ckpt-outrun");
    let trace = dir.join("day0.trace");
    let ckpt_dir = dir.join("ck");
    let out = bin()
        .args(["generate", "--scale", "0.02", "--seed", "11", "--out"])
        .arg(&trace)
        .output()
        .expect("run generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));

    let stream = || {
        let mut cmd = bin();
        cmd.args(["stream", "--scale", "0.02", "--seed", "11", "--trace"])
            .arg(&trace)
            .arg("--checkpoint")
            .arg(&ckpt_dir);
        cmd.output().expect("run stream")
    };
    let out = stream();
    assert!(out.status.success(), "stream failed: {}", String::from_utf8_lossy(&out.stderr));

    let mut ckpt = Checkpoint::load(&ckpt_dir).expect("readable").expect("a boundary was crossed");
    assert!(ckpt.pushed > 0);
    ckpt.pushed = u64::MAX;
    ckpt.save(&ckpt_dir).expect("save forged checkpoint");

    let out = stream();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("checkpoint covers more events than the trace supplies"), "{stderr}");

    // Intact images of earlier formats (per-record counters in the body,
    // then a name HyperLogLog and a whole fpDNS log, then the observer's
    // state and a copy of the store, then a client HyperLogLog's precision
    // and seed) are refused by name, never misparsed or restarted from
    // zero.
    for (magic, hex) in [
        (b"dnckpt1\n", include_str!("../crates/stream/tests/golden/checkpoint_v1.hex")),
        (b"dnckpt2\n", include_str!("../crates/stream/tests/golden/checkpoint_v2.hex")),
        (b"dnckpt3\n", include_str!("../crates/stream/tests/golden/checkpoint_v3.hex")),
        (b"dnckpt4\n", include_str!("../crates/stream/tests/golden/checkpoint_v4.hex")),
        (b"dnckpt5\n", include_str!("../crates/stream/tests/golden/checkpoint_v5.hex")),
    ] {
        let image: Vec<u8> = hex
            .split_whitespace()
            .flat_map(|line| line.as_bytes().chunks_exact(2))
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect();
        assert!(image.starts_with(magic));
        std::fs::write(ckpt_dir.join(dnsnoise::stream::CHECKPOINT_NAME), image)
            .expect("plant an old image");
        let out = stream();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("unsupported version"), "{stderr}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// One trace line with an absurd timestamp is outside input like any
/// other: `stream` (either store) and `simulate` observe its answers under
/// the replayed day, so the run ends normally instead of aborting on an
/// allocation sized by the stamp's day, and a day-10⁷ stamp leaves no
/// ten-million-entry per-day table in the MANIFEST or the checkpoint. On
/// the trace's first line the stamp would name the replayed day itself:
/// both subcommands refuse it by line and day (exit 1) before sizing
/// anything.
#[test]
fn a_hostile_trace_timestamp_sizes_nothing() {
    let dir = tempdir_named("hostile-stamp");
    let clean = dir.join("day.trace");
    let out = bin()
        .args(["generate", "--scale", "0.02", "--seed", "7", "--out"])
        .arg(&clean)
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&clean).expect("trace written");
    let answer = "shop.lhm4twt.com\tA\tshop.lhm4twt.com,A,900,A:40.191.241.20";
    let first_lines = [("18446744073709551615", 1000), ("864000000000", 1000)];
    let first_lines =
        first_lines.into_iter().chain([("18446744073709551615", 0), ("864000000000", 0)]);
    for (stamp, at) in first_lines {
        let mut lines: Vec<&str> = text.lines().collect();
        let hostile = format!("{stamp}\t40\t{answer}");
        lines.insert(at, &hostile);
        let trace = dir.join(format!("{stamp}-{at}.trace"));
        std::fs::write(&trace, lines.join("\n") + "\n").expect("write hostile trace");
        let runs: [(&str, &[&str]); 3] = [
            ("simulate", &[]),
            ("stream", &["--store", "memory"]),
            ("stream", &["--store", "disk", "--store-path", "pd", "--checkpoint", "ck"]),
        ];
        for (sub, flags) in runs {
            let _ = std::fs::remove_dir_all(dir.join("pd"));
            let _ = std::fs::remove_dir_all(dir.join("ck"));
            let mut cmd = bin();
            cmd.current_dir(&dir).arg(sub).arg("--trace").arg(&trace).args(flags);
            if sub == "stream" {
                cmd.args(["--scale", "0.02", "--seed", "7"]);
            }
            let out = cmd.output().expect("run");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(matches!(out.status.code(), Some(0 | 1)), "{sub} {flags:?} @{stamp}: {stderr}");
            if at == 0 {
                let day = stamp.parse::<u64>().unwrap() / 86_400;
                assert_eq!(out.status.code(), Some(1), "{sub} {flags:?} @{stamp}: {stderr}");
                let refusal = format!("line 1: the first event is on day {day}, past day 65536");
                assert_eq!(stderr.trim_end(), refusal, "{sub} {flags:?}");
            }
            for file in ["pd/MANIFEST", "ck/checkpoint.bin"] {
                let len = std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
                assert!(len < 1 << 20, "{sub} @{stamp}: {file} holds {len} B");
            }
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// One corrupted but plausible stamp must not silence the stream's
/// closes. On these corruption seeds a lone stamp lands hours off its
/// neighbours (the previous day's 23:46 on seed 20), and seed 18's capture
/// also has an hour with no events; every hourly epoch but the last, which
/// the final report covers, must still close.
#[test]
fn corrupted_stamps_close_every_hourly_epoch() {
    let dir = tempdir_named("corrupt-closes");
    let model = dir.join("model.txt");
    let out = bin()
        .args(["train", "--epoch", "0", "--scale", "0.05", "--seed", "7", "--out"])
        .arg(&model)
        .output()
        .expect("run train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for seed in ["2", "18", "20"] {
        let (capture, trace) =
            (dir.join(format!("{seed}.pcap")), dir.join(format!("{seed}.trace")));
        let out = bin()
            .args(["generate", "--epoch", "0", "--scale", "0.05", "--seed", "7", "--day", "1"])
            .args(["--capture", "pcap", "--corrupt", "0.002", "--corrupt-seed", seed, "--out"])
            .arg(&capture)
            .output()
            .expect("run generate");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let out = bin().arg("ingest").arg(&capture).arg("-o").arg(&trace).output().expect("ingest");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let out = bin()
            .args(["stream", "--epoch-secs", "3600", "--trace"])
            .arg(&trace)
            .arg("--model")
            .arg(&model)
            .output()
            .expect("run stream");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let closes: Vec<u64> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|line| line.strip_prefix("-- epoch ")?.split(' ').next()?.parse().ok())
            .collect();
        assert_eq!(closes, (0..23).collect::<Vec<u64>>(), "corrupt seed {seed}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A stream killed before its first epoch boundary has already published a
/// store (a flush wrote `MANIFEST` and a run). The day-start checkpoint
/// makes the identical rerun a resume that takes the store over: its
/// render equals the uninterrupted run's, and the store checks clean.
#[test]
fn a_stream_killed_before_its_first_boundary_restarts() {
    let dir = tempdir_named("ckpt-day-start");
    let (trace, model) = (dir.join("day.trace"), dir.join("model.txt"));
    let out = bin()
        .args(["generate", "--scale", "0.08", "--seed", "3", "--out"])
        .arg(&trace)
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin().args(["train", "--scale", "0.02", "--seed", "3", "--out"]).arg(&model).output();
    assert!(out.expect("run train").status.success());
    let stream = |store: &str, die_after: Option<&str>| {
        let mut cmd = bin();
        cmd.args(["stream", "--seed", "3", "--epoch-secs", "86400", "--trace"]).arg(&trace);
        cmd.arg("--model").arg(&model).args(["--store", "disk", "--store-path"]);
        cmd.arg(dir.join(store)).arg("--checkpoint").arg(dir.join(format!("{store}.ckpt")));
        if let Some(n) = die_after {
            cmd.args(["--die-after", n]);
        }
        cmd.output().expect("run stream")
    };

    let reference = stream("whole", None);
    assert!(reference.status.success(), "{}", String::from_utf8_lossy(&reference.stderr));
    let killed = stream("killed", Some("90000"));
    assert!(!killed.status.success(), "--die-after must abort");
    assert!(dir.join("killed/MANIFEST").exists(), "a flush published the store before the kill");
    let resumed = stream("killed", None);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "{stderr}");
    assert!(stderr.contains("resuming from checkpoint: day=0 events=0"), "{stderr}");
    assert_eq!(resumed.stdout, reference.stdout, "the resumed render diverged");
    let fsck = bin().arg("fsck").arg(dir.join("killed")).output().expect("run fsck");
    assert!(fsck.status.success(), "{}", String::from_utf8_lossy(&fsck.stdout));

    std::fs::remove_dir_all(&dir).ok();
}

/// A run its `MANIFEST` lists, corrupted between the kill and the rerun,
/// would leave the reopened store short of records. The resume refuses in
/// one line naming the store directory, prints no report, and keeps the
/// corrupt bytes as `*.quarantined` evidence.
#[test]
fn a_resume_refuses_a_store_that_lost_a_listed_run() {
    let dir = tempdir_named("ckpt-lost-run");
    let (trace, model, store) = (dir.join("day.trace"), dir.join("model.txt"), dir.join("pd"));
    let out = bin()
        .args(["generate", "--scale", "0.08", "--seed", "3", "--out"])
        .arg(&trace)
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin().args(["train", "--scale", "0.02", "--seed", "3", "--out"]).arg(&model).output();
    assert!(out.expect("run train").status.success());
    let stream = |die_after: Option<&str>| {
        let mut cmd = bin();
        cmd.args(["stream", "--seed", "3", "--epoch-secs", "86400", "--trace"]).arg(&trace);
        cmd.arg("--model").arg(&model).args(["--store", "disk", "--store-path"]).arg(&store);
        cmd.arg("--checkpoint").arg(dir.join("ckpt"));
        if let Some(n) = die_after {
            cmd.args(["--die-after", n]);
        }
        cmd.output().expect("run stream")
    };

    assert!(!stream(Some("90000")).status.success(), "--die-after must abort");
    let run = std::fs::read_dir(&store)
        .expect("the kill left a store")
        .map(|entry| entry.expect("readable entry").path())
        .find(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.starts_with("run-") && name.ends_with(".bin")
        })
        .expect("a flush published a run before the kill");
    let mut bytes = std::fs::read(&run).expect("read run");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&run, &bytes).expect("flip a run byte");

    let out = stream(None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "a refused resume prints no report");
    let named: Vec<&str> =
        stderr.lines().filter(|line| line.contains(&*store.to_string_lossy())).collect();
    assert_eq!(named.len(), 1, "{stderr}");
    assert!(named[0].contains("recovery lost 1 run"), "{stderr}");
    let quarantined =
        run.with_file_name(format!("{}.quarantined", run.file_name().unwrap().to_string_lossy()));
    assert_eq!(std::fs::read(&quarantined).expect("corrupt bytes kept"), bytes);

    std::fs::remove_dir_all(&dir).ok();
}

/// A run that is not resuming must not start a second store on top of an
/// existing one (MANIFEST seq back at 1, fresh images renamed over files
/// the old MANIFEST lists): it is refused, naming the directory, before
/// any event is read. An empty directory is accepted.
#[test]
fn simulate_fails_like_stream_when_its_disk_store_degrades() {
    let dir = tempdir_named("store-degraded");
    let trace = dir.join("day.trace");
    let out = bin()
        .args(["generate", "--scale", "0.01", "--seed", "3", "--out"])
        .arg(&trace)
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // A store path under a regular file can never be created.
    let file = dir.join("file");
    std::fs::write(&file, b"not a directory").expect("write the blocking file");
    let store = file.join("sub");
    let failure = |subcommand: &[&str]| {
        let out = bin()
            .args(subcommand)
            .arg("--trace")
            .arg(&trace)
            .args(["--store", "disk", "--store-path"])
            .arg(&store)
            .output()
            .expect("run the subcommand");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{subcommand:?}: {stderr}");
        let last = stderr.lines().last().unwrap_or_default().to_owned();
        assert!(last.contains("rpdns store degraded to memory-only: "), "{subcommand:?}: {stderr}");
        last
    };
    let model = dir.join("model.txt");
    let out = bin()
        .args(["train", "--scale", "0.01", "--seed", "3", "--out"])
        .arg(&model)
        .output()
        .expect("run train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let simulate = failure(&["simulate"]);
    let stream = failure(&["stream", "--model", model.to_str().expect("UTF-8 temp path")]);
    assert_eq!(simulate, stream);
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn a_fresh_run_refuses_a_store_path_that_holds_a_store() {
    let dir = tempdir_named("store-reuse");
    let trace = dir.join("day.trace");
    let out = bin()
        .args(["generate", "--scale", "0.01", "--seed", "3", "--out"])
        .arg(&trace)
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let store = dir.join("pd");
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).expect("create empty store dir");
    let simulate = |path: &std::path::Path| {
        bin()
            .args(["simulate", "--trace"])
            .arg(&trace)
            .args(["--store", "disk", "--store-path"])
            .arg(path)
            .output()
            .expect("run simulate")
    };
    for path in [&store, &empty] {
        let out = simulate(path);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let before = std::fs::read(store.join("MANIFEST")).expect("manifest published");

    let stream = bin()
        .args(["stream", "--trace"])
        .arg(&trace)
        .args(["--store", "disk", "--store-path"])
        .arg(&store)
        .output()
        .expect("run stream");
    for out in [simulate(&store), stream] {
        assert_eq!(out.status.code(), Some(1));
        assert!(out.stdout.is_empty(), "refused before any event is read");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or("");
        assert!(
            first.contains(&*store.to_string_lossy()) && first.contains("already holds"),
            "{stderr}"
        );
    }
    assert_eq!(std::fs::read(store.join("MANIFEST")).expect("still there"), before);

    std::fs::remove_dir_all(&dir).ok();
}

/// `fsck` through the binary: a flipped byte in a run image is reported
/// (exit 1), `--repair` quarantines it (exit 0), and the store then
/// checks clean.
#[test]
fn fsck_flags_a_flipped_run_byte_and_repair_clears_it() {
    let dir = tempdir_named("fsck-flip");
    let trace = dir.join("day.trace");
    let store = dir.join("pd");
    let out = bin()
        .args(["generate", "--scale", "0.02", "--seed", "3", "--out"])
        .arg(&trace)
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["stream", "--scale", "0.02", "--seed", "3", "--trace"])
        .arg(&trace)
        .args(["--store", "disk", "--store-path"])
        .arg(&store)
        .output()
        .expect("run stream");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let run = std::fs::read_dir(&store)
        .expect("store written")
        .map(|e| e.expect("dir entry").path())
        .find(|p| {
            let name = p.file_name().expect("file name").to_string_lossy().into_owned();
            name.starts_with("run-") && name.ends_with(".bin")
        })
        .expect("a run file");
    let mut bytes = std::fs::read(&run).expect("run image");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&run, &bytes).expect("flip a byte");

    let fsck = |repair: bool| {
        let mut cmd = bin();
        cmd.arg("fsck").arg(&store);
        if repair {
            cmd.arg("--repair");
        }
        let out = cmd.output().expect("run fsck");
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let (code, report) = fsck(false);
    assert_eq!(code, Some(1), "{report}");
    assert!(report.contains("quarantine[bad-run-checksum]: 1 files"), "{report}");
    let (code, report) = fsck(true);
    assert_eq!(code, Some(0), "{report}");
    let (code, report) = fsck(false);
    assert_eq!(code, Some(0), "{report}");
    assert!(report.contains("status: clean"), "{report}");

    std::fs::remove_dir_all(&dir).ok();
}
