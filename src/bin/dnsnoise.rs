//! The `dnsnoise` command-line tool: generate traces, replay them through
//! the resolver cluster, and mine them for disposable zones.
//!
//! ```text
//! dnsnoise generate --epoch 1.0 --scale 0.1 --seed 7 --day 0 --out day0.trace
//! dnsnoise simulate --trace day0.trace
//! dnsnoise simulate --trace day0.trace --metrics day0.json --buckets 96
//! dnsnoise mine     --trace day0.trace --theta 0.9
//! dnsnoise mine     --epoch 1.0 --scale 0.2        # synthetic, self-grading
//! dnsnoise train    --scale 0.3 --out model.txt    # persist the classifier
//! dnsnoise mine     --trace day0.trace --model model.txt
//! ```
//!
//! Each subcommand accepts the common scenario flags (`--epoch`,
//! `--scale`, `--seed`, `--day`) plus its own option set, and rejects
//! flags that belong to another subcommand; `dnsnoise <cmd> --help`
//! prints the per-subcommand usage.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

use dnsnoise::core::{DailyPipeline, DomainTree, Miner, MinerConfig, TrainingSetBuilder};
use dnsnoise::dns::{SuffixList, Ttl};
use dnsnoise::ingest::{
    corrupt, framestream, pcap, CaptureFormat, EventStream, IngestConfig, IngestError, IngestReport,
};
use dnsnoise::pdns::store::manifest::MANIFEST_NAME;
use dnsnoise::pdns::{BackendKind, PdnsBackend};
use dnsnoise::resolver::{
    EventSession, FaultPlan, MetricsRegistry, OverloadConfig, PdnsCollector, ResolverSim,
    SimConfig, DEFAULT_TIMELINE_BUCKETS,
};
use dnsnoise::stream::RpdnsStoreSummary;
use dnsnoise::workload::{trace_io, AttackPlan, DayTrace, Scenario, ScenarioConfig};

/// Scenario flags shared by every subcommand.
#[derive(Debug, Clone, PartialEq)]
struct CommonOpts {
    epoch: f64,
    scale: f64,
    seed: u64,
    day: u64,
}

impl Default for CommonOpts {
    fn default() -> Self {
        CommonOpts { epoch: 1.0, scale: 0.1, seed: 7, day: 0 }
    }
}

/// `dnsnoise generate` options.
#[derive(Debug, Clone, Default, PartialEq)]
struct GenerateOpts {
    common: CommonOpts,
    out: Option<String>,
    /// Write a binary capture instead of the text trace format.
    capture: Option<CaptureFormat>,
    /// Corrupt the written capture with seeded burst flips (testing aid).
    corrupt: Option<f64>,
    corrupt_seed: u64,
}

/// `dnsnoise ingest` options.
#[derive(Debug, Clone, PartialEq)]
struct IngestOpts {
    capture: Option<String>,
    format: Option<CaptureFormat>,
    out: Option<String>,
    max_error_rate: f64,
}

impl Default for IngestOpts {
    fn default() -> Self {
        IngestOpts {
            capture: None,
            format: None,
            out: None,
            max_error_rate: IngestConfig::default().max_error_rate,
        }
    }
}

/// `dnsnoise simulate` options.
#[derive(Debug, Clone, PartialEq)]
struct SimulateOpts {
    common: CommonOpts,
    trace: Option<String>,
    members: usize,
    capacity: usize,
    faults: Option<String>,
    stale: Option<u32>,
    metrics: Option<String>,
    buckets: usize,
    attack: Option<String>,
    rrl: bool,
    queue_depth: Option<u64>,
    service_rate: Option<u64>,
    /// `None` = the default memory backend with no summary printed, so
    /// pre-`--store` invocations stay byte-identical on both streams.
    store: Option<BackendKind>,
    store_path: Option<String>,
}

impl Default for SimulateOpts {
    fn default() -> Self {
        SimulateOpts {
            common: CommonOpts::default(),
            trace: None,
            members: 4,
            capacity: 50_000,
            faults: None,
            stale: None,
            metrics: None,
            buckets: DEFAULT_TIMELINE_BUCKETS,
            attack: None,
            rrl: false,
            queue_depth: None,
            service_rate: None,
            store: None,
            store_path: None,
        }
    }
}

/// `dnsnoise mine` options.
#[derive(Debug, Clone, PartialEq)]
struct MineOpts {
    common: CommonOpts,
    trace: Option<String>,
    model: Option<String>,
    theta: f64,
    min_group: usize,
}

impl Default for MineOpts {
    fn default() -> Self {
        MineOpts {
            common: CommonOpts::default(),
            trace: None,
            model: None,
            theta: 0.9,
            min_group: 10,
        }
    }
}

/// `dnsnoise stream` options.
#[derive(Debug, Clone, PartialEq)]
struct StreamOpts {
    common: CommonOpts,
    /// Trace file to stream; `None` reads the trace from stdin, so
    /// `dnsnoise generate | dnsnoise stream` (or `... | dnsnoise ingest |
    /// dnsnoise stream`) pipelines work.
    trace: Option<String>,
    model: Option<String>,
    theta: f64,
    min_group: usize,
    epoch_secs: u64,
    /// `None` = the default memory backend with no summary printed.
    store: Option<BackendKind>,
    store_path: Option<String>,
    /// Crash-checkpoint directory: resume from it when a checkpoint
    /// exists, write boundary checkpoints into it either way.
    checkpoint: Option<String>,
    /// Abort the process after pushing this many events (testing aid for
    /// the kill/resume smoke — leaves exactly what a SIGKILL would).
    die_after: Option<u64>,
}

impl Default for StreamOpts {
    fn default() -> Self {
        StreamOpts {
            common: CommonOpts::default(),
            trace: None,
            model: None,
            theta: 0.9,
            min_group: 10,
            epoch_secs: dnsnoise::stream::StreamConfig::default().epoch_secs,
            store: None,
            store_path: None,
            checkpoint: None,
            die_after: None,
        }
    }
}

/// `dnsnoise fsck` options.
#[derive(Debug, Clone, PartialEq, Default)]
struct FsckOpts {
    dir: Option<String>,
    repair: bool,
}

/// `dnsnoise train` options.
#[derive(Debug, Clone, PartialEq)]
struct TrainOpts {
    common: CommonOpts,
    out: Option<String>,
    theta: f64,
    min_group: usize,
}

impl Default for TrainOpts {
    fn default() -> Self {
        TrainOpts { common: CommonOpts::default(), out: None, theta: 0.9, min_group: 10 }
    }
}

/// Walks the flag stream, yielding values for flags that take one.
struct FlagValues<'a>(std::slice::Iter<'a, String>);

impl<'a> FlagValues<'a> {
    fn take(&mut self, name: &str) -> Result<&'a str, String> {
        self.0.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
    }
}

fn parsed<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("bad {name}"))
}

impl CommonOpts {
    /// Consumes one common flag; `Ok(false)` means the flag is not a
    /// common one and belongs to the subcommand (or to nobody).
    fn try_flag(&mut self, flag: &str, values: &mut FlagValues) -> Result<bool, String> {
        match flag {
            "--epoch" => self.epoch = parsed(values.take("--epoch")?, "--epoch")?,
            "--scale" => self.scale = parsed(values.take("--scale")?, "--scale")?,
            "--seed" => self.seed = parsed(values.take("--seed")?, "--seed")?,
            "--day" => self.day = parsed(values.take("--day")?, "--day")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.epoch) {
            return Err("--epoch must be in [0, 1]".into());
        }
        if self.scale <= 0.0 {
            return Err("--scale must be positive".into());
        }
        Ok(())
    }
}

/// The outcome of parsing a subcommand's flags: either the options, or a
/// request to print the per-subcommand usage.
enum ParseOutcome<T> {
    Parsed(T),
    Help,
}

/// The shared flag loop: `--help`/`-h` short-circuit, common flags are
/// tried first, and anything the subcommand handler declines is an
/// "unknown flag" error naming the subcommand.
fn parse_flags(
    cmd: &str,
    args: &[String],
    common: &mut CommonOpts,
    mut handle: impl FnMut(&str, &mut FlagValues) -> Result<bool, String>,
) -> Result<ParseOutcome<()>, String> {
    let mut values = FlagValues(args.iter());
    while let Some(flag) = values.0.next() {
        match flag.as_str() {
            "--help" | "-h" => return Ok(ParseOutcome::Help),
            f => {
                if !common.try_flag(f, &mut values)? && !handle(f, &mut values)? {
                    return Err(format!("unknown flag {f} for `{cmd}`"));
                }
            }
        }
    }
    common.validate()?;
    Ok(ParseOutcome::Parsed(()))
}

/// Shared validation for the `--store`/`--store-path` pair: the spill
/// directory only means something to the disk engine.
fn validate_store(store: Option<BackendKind>, store_path: &Option<String>) -> Result<(), String> {
    if store_path.is_some() && store != Some(BackendKind::Disk) {
        return Err("--store-path requires --store disk".into());
    }
    Ok(())
}

fn parse_format(raw: &str) -> Result<CaptureFormat, String> {
    CaptureFormat::parse(raw)
        .ok_or_else(|| format!("bad capture format {raw} (expected pcap or dnstap)"))
}

fn parse_generate(args: &[String]) -> Result<ParseOutcome<GenerateOpts>, String> {
    let mut opts = GenerateOpts::default();
    let mut common = std::mem::take(&mut opts.common);
    let outcome = parse_flags("generate", args, &mut common, |flag, values| {
        match flag {
            "--out" => opts.out = Some(values.take("--out")?.to_owned()),
            "--capture" => opts.capture = Some(parse_format(values.take("--capture")?)?),
            "--corrupt" => opts.corrupt = Some(parsed(values.take("--corrupt")?, "--corrupt")?),
            "--corrupt-seed" => {
                opts.corrupt_seed = parsed(values.take("--corrupt-seed")?, "--corrupt-seed")?
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    opts.common = common;
    if let ParseOutcome::Parsed(()) = outcome {
        if let Some(frac) = opts.corrupt {
            if opts.capture.is_none() {
                return Err("--corrupt only applies to --capture output".into());
            }
            if !(0.0..=1.0).contains(&frac) {
                return Err("--corrupt must be in [0, 1]".into());
            }
        }
        return Ok(ParseOutcome::Parsed(opts));
    }
    Ok(ParseOutcome::Help)
}

/// `dnsnoise ingest` has its own flag loop: it takes a positional capture
/// path and none of the scenario flags.
fn parse_ingest(args: &[String]) -> Result<ParseOutcome<IngestOpts>, String> {
    let mut opts = IngestOpts::default();
    let mut values = FlagValues(args.iter());
    while let Some(token) = values.0.next() {
        match token.as_str() {
            "--help" | "-h" => return Ok(ParseOutcome::Help),
            "--format" => opts.format = Some(parse_format(values.take("--format")?)?),
            "-o" | "--out" => opts.out = Some(values.take("--out")?.to_owned()),
            "--max-error-rate" => {
                opts.max_error_rate = parsed(values.take("--max-error-rate")?, "--max-error-rate")?
            }
            f if f.starts_with('-') => return Err(format!("unknown flag {f} for `ingest`")),
            path => {
                if opts.capture.is_some() {
                    return Err("ingest takes exactly one capture path".into());
                }
                opts.capture = Some(path.to_owned());
            }
        }
    }
    if !(0.0..=1.0).contains(&opts.max_error_rate) {
        return Err("--max-error-rate must be in [0, 1]".into());
    }
    if opts.capture.is_none() {
        return Err("ingest needs a capture path".into());
    }
    Ok(ParseOutcome::Parsed(opts))
}

/// `dnsnoise fsck` has its own flag loop like `ingest`: it takes a
/// positional store directory and none of the scenario flags.
fn parse_fsck(args: &[String]) -> Result<ParseOutcome<FsckOpts>, String> {
    let mut opts = FsckOpts::default();
    for token in args {
        match token.as_str() {
            "--help" | "-h" => return Ok(ParseOutcome::Help),
            "--repair" => opts.repair = true,
            f if f.starts_with('-') => return Err(format!("unknown flag {f} for `fsck`")),
            path => {
                if opts.dir.is_some() {
                    return Err("fsck takes exactly one store directory".into());
                }
                opts.dir = Some(path.to_owned());
            }
        }
    }
    if opts.dir.is_none() {
        return Err("fsck needs a store directory".into());
    }
    Ok(ParseOutcome::Parsed(opts))
}

fn parse_simulate(args: &[String]) -> Result<ParseOutcome<SimulateOpts>, String> {
    let mut opts = SimulateOpts::default();
    let mut common = std::mem::take(&mut opts.common);
    let outcome = parse_flags("simulate", args, &mut common, |flag, values| {
        match flag {
            "--trace" => opts.trace = Some(values.take("--trace")?.to_owned()),
            "--members" => opts.members = parsed(values.take("--members")?, "--members")?,
            "--capacity" => opts.capacity = parsed(values.take("--capacity")?, "--capacity")?,
            "--faults" => opts.faults = Some(values.take("--faults")?.to_owned()),
            "--stale" => opts.stale = Some(parsed(values.take("--stale")?, "--stale")?),
            "--metrics" => opts.metrics = Some(values.take("--metrics")?.to_owned()),
            "--buckets" => opts.buckets = parsed(values.take("--buckets")?, "--buckets")?,
            "--attack" => opts.attack = Some(values.take("--attack")?.to_owned()),
            "--rrl" => opts.rrl = true,
            "--queue-depth" => {
                opts.queue_depth = Some(parsed(values.take("--queue-depth")?, "--queue-depth")?)
            }
            "--service-rate" => {
                opts.service_rate = Some(parsed(values.take("--service-rate")?, "--service-rate")?)
            }
            "--store" => opts.store = Some(values.take("--store")?.parse()?),
            "--store-path" => opts.store_path = Some(values.take("--store-path")?.to_owned()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    opts.common = common;
    if let ParseOutcome::Parsed(()) = outcome {
        validate_store(opts.store, &opts.store_path)?;
        if opts.members == 0 {
            return Err("--members must be at least 1".into());
        }
        if opts.buckets == 0 {
            return Err("--buckets must be at least 1".into());
        }
        if opts.queue_depth == Some(0) {
            return Err("--queue-depth must be at least 1".into());
        }
        if opts.service_rate == Some(0) {
            return Err("--service-rate must be at least 1".into());
        }
        return Ok(ParseOutcome::Parsed(opts));
    }
    Ok(ParseOutcome::Help)
}

fn parse_mine(args: &[String]) -> Result<ParseOutcome<MineOpts>, String> {
    let mut opts = MineOpts::default();
    let mut common = std::mem::take(&mut opts.common);
    let outcome = parse_flags("mine", args, &mut common, |flag, values| {
        match flag {
            "--trace" => opts.trace = Some(values.take("--trace")?.to_owned()),
            "--model" => opts.model = Some(values.take("--model")?.to_owned()),
            "--theta" => opts.theta = parsed(values.take("--theta")?, "--theta")?,
            "--min-group" => opts.min_group = parsed(values.take("--min-group")?, "--min-group")?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    opts.common = common;
    Ok(match outcome {
        ParseOutcome::Parsed(()) => ParseOutcome::Parsed(opts),
        ParseOutcome::Help => ParseOutcome::Help,
    })
}

fn parse_stream(args: &[String]) -> Result<ParseOutcome<StreamOpts>, String> {
    let mut opts = StreamOpts::default();
    let mut common = std::mem::take(&mut opts.common);
    let outcome = parse_flags("stream", args, &mut common, |flag, values| {
        match flag {
            "--trace" => opts.trace = Some(values.take("--trace")?.to_owned()),
            "--model" => opts.model = Some(values.take("--model")?.to_owned()),
            "--theta" => opts.theta = parsed(values.take("--theta")?, "--theta")?,
            "--min-group" => opts.min_group = parsed(values.take("--min-group")?, "--min-group")?,
            "--epoch-secs" => {
                opts.epoch_secs = parsed(values.take("--epoch-secs")?, "--epoch-secs")?
            }
            "--store" => opts.store = Some(values.take("--store")?.parse()?),
            "--store-path" => opts.store_path = Some(values.take("--store-path")?.to_owned()),
            "--checkpoint" => opts.checkpoint = Some(values.take("--checkpoint")?.to_owned()),
            "--die-after" => {
                opts.die_after = Some(parsed(values.take("--die-after")?, "--die-after")?)
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    opts.common = common;
    if let ParseOutcome::Parsed(()) = outcome {
        validate_store(opts.store, &opts.store_path)?;
        if opts.epoch_secs == 0 {
            return Err("--epoch-secs must be at least 1".into());
        }
        if opts.die_after == Some(0) {
            return Err("--die-after must be at least 1".into());
        }
        return Ok(ParseOutcome::Parsed(opts));
    }
    Ok(ParseOutcome::Help)
}

fn parse_train(args: &[String]) -> Result<ParseOutcome<TrainOpts>, String> {
    let mut opts = TrainOpts::default();
    let mut common = std::mem::take(&mut opts.common);
    let outcome = parse_flags("train", args, &mut common, |flag, values| {
        match flag {
            "--out" => opts.out = Some(values.take("--out")?.to_owned()),
            "--theta" => opts.theta = parsed(values.take("--theta")?, "--theta")?,
            "--min-group" => opts.min_group = parsed(values.take("--min-group")?, "--min-group")?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    opts.common = common;
    Ok(match outcome {
        ParseOutcome::Parsed(()) => ParseOutcome::Parsed(opts),
        ParseOutcome::Help => ParseOutcome::Help,
    })
}

fn scenario_of(common: &CommonOpts) -> Scenario {
    Scenario::new(ScenarioConfig::paper_epoch(common.epoch).with_scale(common.scale), common.seed)
}

fn load_trace(path: &str) -> Result<DayTrace, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    trace_io::read_trace(BufReader::new(file)).map_err(|e| e.to_string())
}

fn cmd_generate(opts: &GenerateOpts) -> Result<(), String> {
    let scenario = scenario_of(&opts.common);
    let trace = scenario.generate_day(opts.common.day);
    if let Some(format) = opts.capture {
        let mut bytes = match format {
            CaptureFormat::Pcap => pcap::write_pcap(&trace),
            CaptureFormat::Dnstap => framestream::write_dnstap(&trace),
        }
        .map_err(|e| e.to_string())?;
        if let Some(frac) = opts.corrupt {
            // Leave the pcap global header intact so the file stays
            // detectable; the scanner is what is under test, not sniffing.
            let skip = match format {
                CaptureFormat::Pcap => pcap::GLOBAL_HEADER_LEN.min(bytes.len()),
                CaptureFormat::Dnstap => 0,
            };
            corrupt::flip_bursts(&mut bytes[skip..], frac, opts.corrupt_seed);
        }
        match &opts.out {
            Some(path) => {
                std::fs::write(path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!(
                    "wrote {} events as a {} byte {format} capture to {path}",
                    trace.events.len(),
                    bytes.len()
                );
            }
            None => {
                std::io::stdout()
                    .lock()
                    .write_all(&bytes)
                    .map_err(|e| format!("cannot write capture to stdout: {e}"))?;
            }
        }
        return Ok(());
    }
    match &opts.out {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            trace_io::write_trace(&trace, BufWriter::new(file)).map_err(|e| e.to_string())?;
            eprintln!("wrote {} events to {path}", trace.events.len());
        }
        None => {
            let stdout = std::io::stdout();
            trace_io::write_trace(&trace, BufWriter::new(stdout.lock()))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn cmd_ingest(opts: &IngestOpts) -> Result<(), String> {
    let path = opts.capture.as_deref().expect("validated by the parser");
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let config = IngestConfig {
        format: opts.format,
        max_error_rate: opts.max_error_rate,
        ..IngestConfig::default()
    };
    let mut stream = EventStream::new(&bytes, &config).map_err(|e| format!("{path}: {e}"))?;

    // Each event is rendered as it leaves the filter, but the error-budget
    // verdict exists only at end of capture and a refused source must emit
    // nothing. So the text goes to a sibling of the destination that is
    // renamed over it after the verdict — or, with nothing a rename may
    // replace (stdout; a `-o /dev/stdout`, pipe or symlink that has to be
    // written through), is held back until then.
    let renamed_over = opts
        .out
        .as_deref()
        .filter(|dest| std::fs::symlink_metadata(dest).map_or(true, |m| m.is_file()));
    let Some(dest) = renamed_over else {
        let mut text = Vec::new();
        trace_io::write_events(stream.by_ref(), &mut text).map_err(|e| e.to_string())?;
        let report = ingest_verdict(stream, path)?;
        return match &opts.out {
            Some(dest) => {
                std::fs::write(dest, &text).map_err(|e| format!("cannot write {dest}: {e}"))?;
                eprintln!("wrote {} events to {dest}", report.events);
                Ok(())
            }
            None => std::io::stdout().lock().write_all(&text).map_err(|e| e.to_string()),
        };
    };
    let sibling = format!("{dest}.tmp{}", std::process::id());
    let publish = || -> Result<u64, String> {
        let file = File::create(&sibling).map_err(|e| format!("cannot create {dest}: {e}"))?;
        trace_io::write_events(stream.by_ref(), BufWriter::new(file))
            .map_err(|e| format!("cannot write {dest}: {e}"))?;
        let report = ingest_verdict(stream, path)?;
        std::fs::rename(&sibling, dest).map_err(|e| format!("cannot create {dest}: {e}"))?;
        Ok(report.events)
    };
    match publish() {
        Ok(events) => {
            eprintln!("wrote {events} events to {dest}");
            Ok(())
        }
        Err(e) => {
            let _ = std::fs::remove_file(&sibling);
            Err(e)
        }
    }
}

/// Closes an ingest stream and prints its ledger — to stderr, so the trace
/// can go to stdout — whether the source passed its error budget or not.
fn ingest_verdict(stream: EventStream, path: &str) -> Result<IngestReport, String> {
    match stream.finish() {
        Ok(report) => {
            eprint!("{report}");
            Ok(report)
        }
        Err(IngestError::ErrorBudgetExceeded { rate, limit, report }) => {
            eprint!("{report}");
            Err(format!(
                "{path}: error rate {:.1}% exceeds the {:.1}% budget",
                rate * 100.0,
                limit * 100.0
            ))
        }
        Err(e) => Err(format!("{path}: {e}")),
    }
}

fn cmd_simulate(opts: &SimulateOpts) -> Result<(), String> {
    refuse_existing_store(opts.store_path.as_deref())?;
    let plan: FaultPlan = match &opts.faults {
        Some(spec) => {
            spec.parse().map_err(|e: dnsnoise::resolver::FaultSpecError| e.to_string())?
        }
        None => FaultPlan::default(),
    };
    let mut config =
        SimConfig { members: opts.members, capacity_each: opts.capacity, ..SimConfig::default() };
    if let Some(secs) = opts.stale {
        config = config.with_serve_stale(Ttl::from_secs(secs));
    }
    let mut sim = ResolverSim::new(config);
    let mut registry = MetricsRegistry::with_buckets(opts.buckets);
    let gt;
    let mut ground_truth = None;
    let mut trace = match &opts.trace {
        Some(path) => load_trace(path)?,
        None => {
            let scenario = scenario_of(&opts.common);
            let t = scenario.generate_day(opts.common.day);
            gt = scenario.ground_truth().clone();
            ground_truth = Some(&gt);
            t
        }
    };
    if let Some(spec) = &opts.attack {
        let attack: AttackPlan =
            spec.parse().map_err(|e: dnsnoise::workload::AttackSpecError| e.to_string())?;
        attack.inject(&mut trace);
    }
    // Admission control engages as soon as either overload knob is set;
    // without them the replay (and its metric exports) is byte-identical
    // to an overload-unaware build.
    let overload =
        (opts.rrl || opts.queue_depth.is_some() || opts.service_rate.is_some()).then(|| {
            let mut cfg = OverloadConfig::default();
            if let Some(depth) = opts.queue_depth {
                cfg = cfg.with_queue_depth(depth);
            }
            if let Some(rate) = opts.service_rate {
                cfg = cfg.with_service_rate(rate);
            }
            if opts.rrl {
                let limit = cfg.rrl_limit;
                cfg = cfg.with_rrl(limit);
            }
            cfg
        });
    // The pDNS collector rides along on every replay; without the store
    // flags it stays on the silent in-memory backend, keeping stdout and
    // stderr byte-identical to pre-`--store` builds.
    let report_store = opts.store.is_some() || opts.store_path.is_some();
    let backend = PdnsBackend::create(
        opts.store.unwrap_or_default(),
        opts.store_path.as_deref().map(std::path::Path::new),
    );
    let mut collector = PdnsCollector::new(backend);
    let mut run = sim.day(&trace).faults(&plan).metrics(&mut registry).observer(&mut collector);
    if let Some(gt) = ground_truth {
        run = run.ground_truth(gt);
    }
    if let Some(cfg) = &overload {
        run = run.overload(cfg);
    }
    let report = run.run();
    if report_store {
        let mut store = collector.into_store();
        if let PdnsBackend::Disk(ref mut s) = store {
            // Flush and collapse so a spill directory holds the final
            // single-run image of the day.
            s.optimize();
        }
        eprintln!("{}", store_summary_line(&RpdnsStoreSummary::from(&store)));
    }
    println!("events:            {}", trace.events.len());
    println!("below records:     {}", report.below_total);
    println!("above records:     {}", report.above_total);
    println!("nxdomain (below):  {}", report.nx_below);
    println!("distinct RRs:      {}", report.rr_stats.len());
    println!("cache hit rate:    {:.1}%", report.cache.hit_rate() * 100.0);
    println!("zero-DHR fraction: {:.1}%", report.rr_stats.zero_dhr_fraction() * 100.0);
    println!("premature evicts:  {}", report.cache.premature_evictions());
    if opts.faults.is_some() {
        let r = &report.resilience;
        println!("-- resilience --");
        println!(
            "failed attempts:   {} ({} timeouts, {} servfails)",
            r.failed_attempts, r.timeouts, r.upstream_servfails
        );
        println!("retries:           {}", r.retries);
        println!("stale serves:      {}", r.stale_serves);
        println!("servfail (below):  {}", r.servfails_below);
        println!("avail disposable:  {:.2}%", r.disposable.fraction() * 100.0);
        println!("avail other:       {:.2}%", r.nondisposable.fraction() * 100.0);
    }
    if overload.is_some() {
        let o = &report.overload;
        println!("-- overload --");
        println!("offered:           {}", o.offered);
        println!("admitted:          {}", o.admitted);
        println!("dropped:           {}", o.dropped);
        println!("rate limited:      {}", o.rate_limited);
        println!("shed attack/legit: {}/{}", o.shed_attack, o.shed_legit);
        println!("stale (pressure):  {}", o.stale_under_pressure);
        println!("queue peak:        {}", o.queue_peak);
    }
    if let Some(path) = &opts.metrics {
        // `.csv` selects the timeline table; anything else gets the full
        // JSON registry dump. Both are deterministic byte-for-byte.
        let payload =
            if path.ends_with(".csv") { registry.timeline_csv() } else { registry.to_json() };
        std::fs::write(path, payload).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote metrics to {path}");
        eprint!("{}", registry.phases().render_table());
    }
    Ok(())
}

/// The one-line `--store` summary `simulate` and `stream` both print.
/// Goes to stderr so stdout stays byte-identical across backends.
fn store_summary_line(s: &RpdnsStoreSummary) -> String {
    let mut line = format!(
        "rpdns store: backend={} records={} storage_bytes={}",
        s.backend, s.records, s.storage_bytes
    );
    if let Some(st) = s.stats {
        line.push_str(&format!(
            " runs={} flushes={} compactions={} bytes_written={}",
            st.runs, st.flushes, st.compactions, st.bytes_written
        ));
    }
    line
}

/// Builds a labeled training set from a synthetic day.
fn synthetic_labeled(common: &CommonOpts) -> dnsnoise::core::LabeledZones {
    let train_scenario = Scenario::new(
        ScenarioConfig::paper_epoch(common.epoch).with_scale(common.scale.max(0.1)),
        common.seed,
    );
    let train_trace = train_scenario.generate_day(0);
    let mut train_sim = ResolverSim::new(SimConfig::default());
    let train_report =
        train_sim.day(&train_trace).ground_truth(train_scenario.ground_truth()).run();
    let train_tree = DomainTree::from_day_stats(&train_report.rr_stats);
    TrainingSetBuilder { min_disposable_names: 8, ..Default::default() }
        .build(&train_tree, train_scenario.ground_truth())
}

fn cmd_train(opts: &TrainOpts) -> Result<(), String> {
    let miner_config =
        MinerConfig { theta: opts.theta, min_group_size: opts.min_group, ..Default::default() };
    let labeled = synthetic_labeled(&opts.common);
    let model = Miner::train_model(&labeled, miner_config);
    let text = dnsnoise::ml::model_to_text(&model);
    match &opts.out {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "trained on {} disposable / {} non-disposable zones → {path}",
                labeled.positives(),
                labeled.len() - labeled.positives()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn load_or_train_miner(
    model: Option<&str>,
    common: &CommonOpts,
    miner_config: MinerConfig,
) -> Result<Miner, String> {
    match model {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let model = dnsnoise::ml::model_from_text(&text).map_err(|e| e.to_string())?;
            Ok(Miner::new(Box::new(model), miner_config))
        }
        None => {
            // No persisted model: train the classifier on a synthetic
            // labeled day.
            let labeled = synthetic_labeled(common);
            Ok(Miner::train(&labeled, miner_config))
        }
    }
}

fn cmd_mine(opts: &MineOpts) -> Result<(), String> {
    let miner_config =
        MinerConfig { theta: opts.theta, min_group_size: opts.min_group, ..Default::default() };
    match &opts.trace {
        Some(_) => {
            // The day is replayed straight off the reader, as `stream`
            // does, and only its per-record table outlives the loop.
            let mut session = EventSession::new(ResolverSim::new(SimConfig::default()), 0);
            let mut day_known = false;
            feed_trace(&opts.trace, &mut |event| {
                if !day_known {
                    session.set_day(event.time.day());
                    day_known = true;
                }
                session.push(&event, None, &mut ());
                Ok(())
            })?;
            let (report, _sim) = session.finish();
            let miner = load_or_train_miner(opts.model.as_deref(), &opts.common, miner_config)?;

            let mut tree = DomainTree::from_day_stats(&report.rr_stats);
            let mut findings = miner.mine(&mut tree, &SuffixList::builtin());
            findings.sort_by(|a, b| b.confidence.partial_cmp(&a.confidence).expect("finite"));
            let mut out = std::io::stdout().lock();
            writeln!(out, "# zone\tdepth\tconfidence\tnames").map_err(|e| e.to_string())?;
            for f in findings {
                writeln!(out, "{}\t{}\t{:.3}\t{}", f.zone, f.depth, f.confidence, f.members)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        None => {
            let scenario = scenario_of(&opts.common);
            let mut pipeline = DailyPipeline::new(miner_config);
            let report = pipeline.run_day(&scenario, opts.common.day);
            println!("# zone\tdepth\tconfidence\tnames");
            for f in &report.ranking {
                println!("{}\t{}\t{:.3}\t{}", f.zone, f.depth, f.confidence, f.members);
            }
            eprintln!(
                "\n{} zones under {} 2LDs | TPR {:.1}% FPR {:.1}% precision {:.1}%",
                report.found.len(),
                report.unique_2lds,
                report.tpr() * 100.0,
                report.fpr() * 100.0,
                report.precision() * 100.0
            );
            Ok(())
        }
    }
}

fn cmd_stream(opts: &StreamOpts) -> Result<(), String> {
    let miner_config =
        MinerConfig { theta: opts.theta, min_group_size: opts.min_group, ..Default::default() };
    let resume_from = match &opts.checkpoint {
        Some(dir) => dnsnoise::stream::Checkpoint::load(std::path::Path::new(dir))
            .map_err(|e| e.to_string())?,
        None => None,
    };
    // A resume takes its store directory over; a fresh run must not.
    if resume_from.is_none() {
        refuse_existing_store(opts.store_path.as_deref())?;
    }
    let miner = load_or_train_miner(opts.model.as_deref(), &opts.common, miner_config)?;
    let config =
        dnsnoise::stream::StreamConfig { epoch_secs: opts.epoch_secs, seed: opts.common.seed };
    let report_store = opts.store.is_some() || opts.store_path.is_some();
    let backend = PdnsBackend::create(
        opts.store.unwrap_or_default(),
        opts.store_path.as_deref().map(std::path::Path::new),
    );
    let mut stream = dnsnoise::stream::StreamMiner::new(config, &miner).with_store(backend);

    // Feeds events one at a time straight off the reader — the trace is
    // never materialised, which is the point of the streaming path. When
    // resuming from a checkpoint, the first `pushed` events are buffered
    // as the deterministic warmup prefix the checkpoint already consumed;
    // everything after flows through `push` as usual.
    struct Feeder<'m> {
        stream: Option<dnsnoise::stream::StreamMiner<'m>>,
        /// Set while collecting the warmup prefix of a resume.
        pending: Option<(dnsnoise::stream::Checkpoint, Vec<dnsnoise::workload::QueryEvent>)>,
        die_after: Option<u64>,
        fed: u64,
    }

    impl<'m> Feeder<'m> {
        fn feed(&mut self, event: dnsnoise::workload::QueryEvent) -> Result<(), String> {
            self.fed += 1;
            if let Some((ckpt, warmup)) = self.pending.as_mut() {
                warmup.push(event);
                if warmup.len() as u64 == ckpt.pushed {
                    let (ckpt, warmup) = self.pending.take().expect("just matched");
                    let stream = self.stream.take().expect("present until resume");
                    self.stream = Some(stream.resume(&ckpt, &warmup).map_err(|e| e.to_string())?);
                }
            } else {
                self.stream.as_mut().expect("present").push(&event);
            }
            if self.die_after == Some(self.fed) {
                // Simulated crash for the recovery smoke: no cleanup, no
                // flush — exactly what a SIGKILL leaves behind.
                std::process::abort();
            }
            Ok(())
        }
    }

    if let Some(dir) = &opts.checkpoint {
        stream = stream.with_checkpoint(std::path::Path::new(dir));
        if let Some(ckpt) = resume_from {
            eprintln!("resuming from checkpoint: day={} events={}", ckpt.day, ckpt.pushed);
            if ckpt.pushed == 0 {
                stream = stream.resume(&ckpt, &[]).map_err(|e| e.to_string())?;
            } else {
                // `pushed` is outside input: never size an allocation
                // from it; a short trace must reach the error below.
                let mut feeder = Feeder {
                    stream: Some(stream),
                    pending: Some((ckpt, Vec::new())),
                    die_after: opts.die_after,
                    fed: 0,
                };
                feed_trace(&opts.trace, &mut |e| feeder.feed(e))?;
                if feeder.pending.is_some() {
                    return Err("checkpoint covers more events than the trace supplies".into());
                }
                return finish_stream(feeder.stream.take().expect("resumed"), report_store);
            }
        }
    }
    let mut feeder =
        Feeder { stream: Some(stream), pending: None, die_after: opts.die_after, fed: 0 };
    feed_trace(&opts.trace, &mut |e| feeder.feed(e))?;
    finish_stream(feeder.stream.take().expect("never resumes"), report_store)
}

/// Refuses a `--store-path` that already holds a store (a `MANIFEST` or a
/// `run-*.bin`). A run that is not resuming numbers its runs and its
/// MANIFEST from zero, so it would rename fresh images over files the old
/// MANIFEST still lists.
fn refuse_existing_store(path: Option<&str>) -> Result<(), String> {
    let Some(dir) = path else { return Ok(()) };
    let Ok(entries) = std::fs::read_dir(dir) else { return Ok(()) };
    let holds_store = entries.flatten().any(|entry| {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        name == MANIFEST_NAME || (name.starts_with("run-") && name.ends_with(".bin"))
    });
    if holds_store {
        return Err(format!(
            "--store-path {dir} already holds a pDNS store; pass an empty directory \
             (only a --checkpoint resume takes an existing store over)"
        ));
    }
    Ok(())
}

/// Streams every event of `trace` (or stdin) into `feed`.
fn feed_trace(
    trace: &Option<String>,
    feed: &mut dyn FnMut(dnsnoise::workload::QueryEvent) -> Result<(), String>,
) -> Result<(), String> {
    let mut push_all = |reader: &mut dyn Iterator<
        Item = Result<dnsnoise::workload::QueryEvent, trace_io::TraceIoError>,
    >|
     -> Result<(), String> {
        for event in reader {
            feed(event.map_err(|e| e.to_string())?)?;
        }
        Ok(())
    };
    match trace {
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            push_all(&mut trace_io::EventReader::new(BufReader::new(file)))
        }
        None => {
            let stdin = std::io::stdin();
            push_all(&mut trace_io::EventReader::new(stdin.lock()))
        }
    }
}

/// Closes out a stream run: render, store summary, and every latched
/// persistence failure surfaced as a non-zero exit.
fn finish_stream(stream: dnsnoise::stream::StreamMiner, report_store: bool) -> Result<(), String> {
    let checkpoint_error = stream.checkpoint_error().map(ToString::to_string);
    let (report, _sim) = stream.finish();
    if report_store {
        eprintln!("{}", store_summary_line(&report.rpdns_store));
    }
    print!("{}", report.render());
    if !report.conserves() {
        return Err(report.conservation_line());
    }
    if let Some(e) = checkpoint_error {
        return Err(format!("checkpointing failed: {e}"));
    }
    if let Some(e) = &report.rpdns_store_error {
        return Err(format!("rpdns store degraded to memory-only: {e}"));
    }
    Ok(())
}

fn cmd_fsck(opts: &FsckOpts) -> Result<(), String> {
    let dir = opts.dir.as_deref().expect("validated by the parser");
    let report =
        dnsnoise::pdns::fsck(std::path::Path::new(dir), opts.repair).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    // A repair pass reports what it quarantined but exits clean; a plain
    // check exits non-zero so scripts can gate on store health.
    if report.is_clean() || opts.repair {
        Ok(())
    } else {
        Err(format!("{dir}: fsck found problems (rerun with --repair to quarantine them)"))
    }
}

const COMMON_USAGE: &str = "common flags: --epoch <0..1> --scale <f64> --seed <u64> --day <u64>\n";

fn usage() -> String {
    format!(
        "usage: dnsnoise <generate|ingest|simulate|mine|stream|train|fsck> [flags]\n\
         \n\
         {COMMON_USAGE}\
         run `dnsnoise <command> --help` for the per-command flags\n\
         \n\
         generate:  write a synthetic day trace (or a binary capture)\n\
         ingest:    parse a pcap/dnstap capture into a day trace\n\
         simulate:  replay a day through the resolver cluster\n\
         mine:      mine a day for disposable zones\n\
         stream:    mine a day incrementally, one event at a time\n\
         train:     train and persist the classifier\n\
         fsck:      check (and repair) an on-disk pDNS store directory\n"
    )
}

fn subcommand_usage(cmd: &str) -> String {
    let specific = match cmd {
        "generate" => {
            "  --out <file>       trace destination (default: stdout)\n\
             \x20 --capture <fmt>    write a binary capture instead: pcap or dnstap\n\
             \x20 --corrupt <frac>   flip this fraction of capture bytes in seeded bursts\n\
             \x20 --corrupt-seed <n> corruption seed (default: 0)\n"
        }
        "ingest" => {
            return "usage: dnsnoise ingest <capture> [flags]\n\
                 \n\
                 \x20 --format <fmt>         force pcap or dnstap (default: auto-detect)\n\
                 \x20 -o, --out <file>       trace destination (default: stdout)\n\
                 \x20 --max-error-rate <r>   reject sources losing more than this byte\n\
                 \x20                        fraction (default: 0.5)\n\
                 \n\
                 the quarantine ledger is printed to stderr\n"
                .to_string();
        }
        "simulate" => {
            "  --trace <file>     replay this trace (default: synthesize one)\n\
             \x20 --members <n>      cluster size (default: 4)\n\
             \x20 --capacity <n>     per-member cache capacity (default: 50000)\n\
             \x20 --faults <spec>    e.g. 'seed=7; loss=0.1; outage=all,timeout,28800,57600;\n\
             \x20                    member=0,3600,7200; retries=2; timeout=1500; backoff=200;\n\
             \x20                    budget=4000'\n\
             \x20 --stale <secs>     serve-stale window\n\
             \x20 --metrics <file>   export the metrics registry (.csv = timeline table,\n\
             \x20                    anything else = full JSON dump)\n\
             \x20 --buckets <n>      timeline buckets per day (default: 24)\n\
             \x20 --attack <spec>    inject a random-subdomain flood, e.g. 'seed=9;\n\
             \x20                    victim=flood.example; labellen=16; clients=300;\n\
             \x20                    surge=28800,50400,20'\n\
             \x20 --rrl              enable NXDOMAIN response-rate-limiting\n\
             \x20 --queue-depth <n>  bound the per-member admission queue\n\
             \x20 --service-rate <n> queued queries retired per member per second\n\
             \x20 --store <kind>     pDNS collector backend: memory or disk (default: memory;\n\
             \x20                    results are bit-identical, a summary goes to stderr)\n\
             \x20 --store-path <dir> mirror the disk backend's sorted runs under this directory\n"
        }
        "mine" => {
            "  --trace <file>     mine this trace (default: synthetic, self-grading)\n\
             \x20 --model <file>     load a persisted classifier instead of training\n\
             \x20 --theta <f64>      confidence threshold (default: 0.9)\n\
             \x20 --min-group <n>    minimal group size (default: 10)\n"
        }
        "stream" => {
            "  --trace <file>       stream this trace (default: read stdin, so\n\
             \x20                      `dnsnoise ingest ... | dnsnoise stream` pipelines)\n\
             \x20 --model <file>       load a persisted classifier instead of training\n\
             \x20 --theta <f64>        confidence threshold (default: 0.9)\n\
             \x20 --min-group <n>      minimal group size (default: 10)\n\
             \x20 --epoch-secs <n>     seconds per classification epoch (default: 21600)\n\
             \x20 --store <kind>       pDNS collector backend: memory or disk (default:\n\
             \x20                      memory; the report is bit-identical either way)\n\
             \x20 --store-path <dir>   mirror the disk backend's sorted runs under this\n\
             \x20                      directory\n\
             \x20 --checkpoint <dir>   write a crash checkpoint at every epoch boundary;\n\
             \x20                      when <dir> already holds one, resume from it and\n\
             \x20                      produce the same report an uninterrupted run would\n\
             \x20 --die-after <n>      abort after n events (crash-testing aid)\n"
        }
        "fsck" => {
            return "usage: dnsnoise fsck <dir> [flags]\n\
                 \n\
                 \x20 --repair               quarantine corrupt runs and rewrite the\n\
                 \x20                        manifest so the store opens clean\n\
                 \n\
                 exits non-zero when problems are found and --repair is not given\n"
                .to_string();
        }
        "train" => {
            "  --out <file>       model destination (default: stdout)\n\
             \x20 --theta <f64>      confidence threshold (default: 0.9)\n\
             \x20 --min-group <n>    minimal group size (default: 10)\n"
        }
        _ => "",
    };
    format!("usage: dnsnoise {cmd} [flags]\n\n{COMMON_USAGE}{specific}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "generate" => parse_generate(rest).and_then(|o| match o {
            ParseOutcome::Parsed(opts) => cmd_generate(&opts),
            ParseOutcome::Help => {
                print!("{}", subcommand_usage("generate"));
                Ok(())
            }
        }),
        "ingest" => parse_ingest(rest).and_then(|o| match o {
            ParseOutcome::Parsed(opts) => cmd_ingest(&opts),
            ParseOutcome::Help => {
                print!("{}", subcommand_usage("ingest"));
                Ok(())
            }
        }),
        "simulate" => parse_simulate(rest).and_then(|o| match o {
            ParseOutcome::Parsed(opts) => cmd_simulate(&opts),
            ParseOutcome::Help => {
                print!("{}", subcommand_usage("simulate"));
                Ok(())
            }
        }),
        "mine" => parse_mine(rest).and_then(|o| match o {
            ParseOutcome::Parsed(opts) => cmd_mine(&opts),
            ParseOutcome::Help => {
                print!("{}", subcommand_usage("mine"));
                Ok(())
            }
        }),
        "stream" => parse_stream(rest).and_then(|o| match o {
            ParseOutcome::Parsed(opts) => cmd_stream(&opts),
            ParseOutcome::Help => {
                print!("{}", subcommand_usage("stream"));
                Ok(())
            }
        }),
        "train" => parse_train(rest).and_then(|o| match o {
            ParseOutcome::Parsed(opts) => cmd_train(&opts),
            ParseOutcome::Help => {
                print!("{}", subcommand_usage("train"));
                Ok(())
            }
        }),
        "fsck" => parse_fsck(rest).and_then(|o| match o {
            ParseOutcome::Parsed(opts) => cmd_fsck(&opts),
            ParseOutcome::Help => {
                print!("{}", subcommand_usage("fsck"));
                Ok(())
            }
        }),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn simulate(s: &str) -> Result<SimulateOpts, String> {
        match parse_simulate(&args(s))? {
            ParseOutcome::Parsed(o) => Ok(o),
            ParseOutcome::Help => Err("help".into()),
        }
    }

    fn mine(s: &str) -> Result<MineOpts, String> {
        match parse_mine(&args(s))? {
            ParseOutcome::Parsed(o) => Ok(o),
            ParseOutcome::Help => Err("help".into()),
        }
    }

    #[test]
    fn defaults_apply() {
        assert_eq!(simulate("").unwrap(), SimulateOpts::default());
        assert_eq!(mine("").unwrap(), MineOpts::default());
    }

    #[test]
    fn common_flags_parse_everywhere() {
        let o = simulate("--epoch 0.5 --scale 2 --seed 9 --day 3").unwrap();
        assert_eq!(o.common, CommonOpts { epoch: 0.5, scale: 2.0, seed: 9, day: 3 });
        let o = mine("--epoch 0.25 --theta 0.7 --min-group 5 --trace t.txt").unwrap();
        assert_eq!(o.common.epoch, 0.25);
        assert_eq!(o.theta, 0.7);
        assert_eq!(o.min_group, 5);
        assert_eq!(o.trace.as_deref(), Some("t.txt"));
    }

    #[test]
    fn simulate_flags_parse() {
        let o = simulate("--trace t.txt --members 2 --capacity 100 --metrics m.json --buckets 96")
            .unwrap();
        assert_eq!(o.trace.as_deref(), Some("t.txt"));
        assert_eq!(o.members, 2);
        assert_eq!(o.capacity, 100);
        assert_eq!(o.metrics.as_deref(), Some("m.json"));
        assert_eq!(o.buckets, 96);
    }

    #[test]
    fn simulate_rejects_degenerate_values() {
        assert!(simulate("--members 0").is_err());
        assert!(simulate("--members many").is_err());
        assert!(simulate("--buckets 0").is_err());
        assert!(simulate("--epoch 2.0").is_err());
        assert!(simulate("--scale -1").is_err());
        assert!(simulate("--stale lots").is_err());
        assert!(simulate("--epoch").is_err());
    }

    #[test]
    fn overload_flags_parse() {
        let o = simulate("--attack seed=1;victim=v.example;surge=0,3600,4 --rrl --queue-depth 32")
            .unwrap();
        assert_eq!(o.attack.as_deref(), Some("seed=1;victim=v.example;surge=0,3600,4"));
        assert!(o.rrl);
        assert_eq!(o.queue_depth, Some(32));
        let plan: AttackPlan = o.attack.unwrap().parse().unwrap();
        assert!(!plan.is_empty());

        // `--rrl` takes no value: the next token is parsed as its own flag.
        let o = simulate("--rrl --members 2").unwrap();
        assert!(o.rrl);
        assert_eq!(o.members, 2);

        let o = simulate("--service-rate 2").unwrap();
        assert_eq!(o.service_rate, Some(2));

        assert!(simulate("--queue-depth 0").is_err());
        assert!(simulate("--service-rate 0").is_err());
        assert!(simulate("--queue-depth deep").is_err());
        assert!(simulate("--attack").is_err());
    }

    #[test]
    fn fault_flags_parse() {
        let o = simulate("--faults loss=0.1;retries=3 --stale 3600").unwrap();
        assert_eq!(o.faults.as_deref(), Some("loss=0.1;retries=3"));
        assert_eq!(o.stale, Some(3600));
        let plan: FaultPlan = o.faults.unwrap().parse().unwrap();
        assert_eq!(plan.retry.max_retries, 3);
    }

    #[test]
    fn subcommands_reject_foreign_flags() {
        // Pre-redesign, one flat option set meant `mine --members 9`
        // parsed silently; each subcommand now owns its flags.
        let err = mine("--members 9").unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        assert!(err.contains("mine"), "{err}");
        assert!(simulate("--theta 0.5").is_err());
        assert!(simulate("--bogus 1").is_err());
        // The thread knobs are deleted, not aliased: replay and decode
        // are serial, so the flag is as foreign as any other.
        for (cmd, err) in [
            ("simulate", simulate("--threads 4").unwrap_err()),
            ("ingest", ingest("x --threads 4").unwrap_err()),
        ] {
            assert!(err.contains("unknown flag --threads"), "{cmd}: {err}");
            assert!(!subcommand_usage(cmd).contains("--threads"), "{cmd} usage");
        }
        // So is the HyperLogLog precision: one value was ever in use, and
        // it is a constant of the stream crate now.
        let err = stream("--hll-precision 12").unwrap_err();
        assert!(err.contains("unknown flag --hll-precision for `stream`"), "{err}");
        assert!(!subcommand_usage("stream").contains("--hll-precision"));
        match parse_generate(&args("--metrics m.json")) {
            Err(e) => assert!(e.contains("unknown flag"), "{e}"),
            Ok(_) => panic!("generate must not accept --metrics"),
        }
        match parse_train(&args("--trace t.txt")) {
            Err(e) => assert!(e.contains("unknown flag"), "{e}"),
            Ok(_) => panic!("train must not accept --trace"),
        }
    }

    #[test]
    fn help_flag_short_circuits() {
        for cmd_args in ["--help", "-h", "--members 2 --help"] {
            match parse_simulate(&args(cmd_args)).unwrap() {
                ParseOutcome::Help => {}
                ParseOutcome::Parsed(_) => panic!("{cmd_args} must yield help"),
            }
        }
        assert!(subcommand_usage("simulate").contains("--metrics"));
        assert!(subcommand_usage("mine").contains("--theta"));
        assert!(subcommand_usage("generate").starts_with("usage: dnsnoise generate"));
        assert!(subcommand_usage("ingest").contains("--max-error-rate"));
    }

    fn stream(s: &str) -> Result<StreamOpts, String> {
        match parse_stream(&args(s))? {
            ParseOutcome::Parsed(o) => Ok(o),
            ParseOutcome::Help => Err("help".into()),
        }
    }

    #[test]
    fn stream_flags_parse() {
        assert_eq!(stream("").unwrap(), StreamOpts::default());
        let o = stream(
            "--trace t.txt --model m.txt --epoch-secs 3600 --theta 0.8 --min-group 5 --seed 11",
        )
        .unwrap();
        assert_eq!(o.trace.as_deref(), Some("t.txt"));
        assert_eq!(o.model.as_deref(), Some("m.txt"));
        assert_eq!(o.epoch_secs, 3600);
        assert_eq!(o.theta, 0.8);
        assert_eq!(o.min_group, 5);
        assert_eq!(o.common.seed, 11);
    }

    #[test]
    fn store_flags_parse_on_simulate_and_stream_only() {
        let o = simulate("--store disk --store-path /tmp/pdns").unwrap();
        assert_eq!(o.store, Some(BackendKind::Disk));
        assert_eq!(o.store_path.as_deref(), Some("/tmp/pdns"));
        let o = simulate("--store memory").unwrap();
        assert_eq!(o.store, Some(BackendKind::Memory));
        let o = stream("--store disk --store-path /tmp/pdns").unwrap();
        assert_eq!(o.store, Some(BackendKind::Disk));
        assert_eq!(o.store_path.as_deref(), Some("/tmp/pdns"));
        // Default invocations keep the silent memory backend.
        assert_eq!(simulate("").unwrap().store, None);
        assert_eq!(stream("").unwrap().store, None);
        // Bad values and misuse are rejected...
        assert!(simulate("--store floppy").is_err());
        assert!(simulate("--store-path /tmp/x").is_err(), "spill needs --store disk");
        assert!(stream("--store memory --store-path /tmp/x").is_err());
        // ...and the flags stay foreign to subcommands without a pDNS
        // collector, per the per-subcommand flag-ownership convention.
        for cmd_args in ["--store disk", "--store-path /tmp/x"] {
            let err = mine(cmd_args).unwrap_err();
            assert!(err.contains("unknown flag"), "{err}");
            assert!(parse_train(&args(cmd_args)).is_err());
            assert!(parse_generate(&args(cmd_args)).is_err());
        }
        assert!(subcommand_usage("simulate").contains("--store"));
        assert!(subcommand_usage("stream").contains("--store-path"));
    }

    #[test]
    fn stream_rejects_degenerate_values() {
        assert!(stream("--epoch-secs 0").is_err());
        assert!(stream("--members 4").is_err(), "no simulate flags");
        assert!(subcommand_usage("stream").contains("--epoch-secs"));
        match parse_stream(&args("--help")) {
            Ok(ParseOutcome::Help) => {}
            _ => panic!("--help must short-circuit"),
        }
    }

    #[test]
    fn stream_checkpoint_flags_parse() {
        let o = stream("--checkpoint /tmp/ck --die-after 500").unwrap();
        assert_eq!(o.checkpoint.as_deref(), Some("/tmp/ck"));
        assert_eq!(o.die_after, Some(500));
        assert_eq!(stream("").unwrap().checkpoint, None);
        assert_eq!(stream("").unwrap().die_after, None);
        assert!(stream("--die-after 0").is_err());
        assert!(stream("--die-after soon").is_err());
        assert!(stream("--checkpoint").is_err(), "needs a value");
        // Stream-only: no other subcommand checkpoints.
        assert!(mine("--checkpoint /tmp/x").is_err());
        assert!(simulate("--die-after 5").is_err());
        assert!(subcommand_usage("stream").contains("--checkpoint"));
        assert!(subcommand_usage("stream").contains("--die-after"));
    }

    fn fsck_opts(s: &str) -> Result<FsckOpts, String> {
        match parse_fsck(&args(s))? {
            ParseOutcome::Parsed(o) => Ok(o),
            ParseOutcome::Help => Err("help".into()),
        }
    }

    #[test]
    fn fsck_flags_parse() {
        let o = fsck_opts("/tmp/store").unwrap();
        assert_eq!(o.dir.as_deref(), Some("/tmp/store"));
        assert!(!o.repair);
        // The positional directory can come after flags, like `ingest`.
        let o = fsck_opts("--repair /tmp/store").unwrap();
        assert!(o.repair);
        assert_eq!(o.dir.as_deref(), Some("/tmp/store"));

        assert!(fsck_opts("").is_err(), "needs a directory");
        assert!(fsck_opts("a b").is_err(), "one directory only");
        assert!(fsck_opts("/tmp/x --epoch 0.5").is_err(), "no scenario flags");
        assert!(fsck_opts("/tmp/x --store disk").is_err(), "no foreign flags");
        match parse_fsck(&args("--help")) {
            Ok(ParseOutcome::Help) => {}
            _ => panic!("--help must short-circuit"),
        }
        assert!(usage().contains("fsck"));
        assert!(subcommand_usage("fsck").contains("--repair"));
    }

    fn ingest(s: &str) -> Result<IngestOpts, String> {
        match parse_ingest(&args(s))? {
            ParseOutcome::Parsed(o) => Ok(o),
            ParseOutcome::Help => Err("help".into()),
        }
    }

    #[test]
    fn ingest_flags_parse() {
        let o = ingest("cap.pcap --format pcap -o out.trace --max-error-rate 0.2").unwrap();
        assert_eq!(o.capture.as_deref(), Some("cap.pcap"));
        assert_eq!(o.format, Some(CaptureFormat::Pcap));
        assert_eq!(o.out.as_deref(), Some("out.trace"));
        assert_eq!(o.max_error_rate, 0.2);

        // The positional path can come after flags, and the format can be
        // left to auto-detection.
        let o = ingest("--max-error-rate 0.2 cap.bin").unwrap();
        assert_eq!(o.capture.as_deref(), Some("cap.bin"));
        assert_eq!(o.format, None);
    }

    #[test]
    fn ingest_rejects_bad_invocations() {
        assert!(ingest("").is_err(), "needs a capture path");
        assert!(ingest("a.pcap b.pcap").is_err(), "one path only");
        assert!(ingest("a.pcap --format pcapng").is_err(), "unknown format");
        assert!(ingest("a.pcap --max-error-rate 1.5").is_err());
        assert!(ingest("a.pcap --epoch 0.5").is_err(), "no scenario flags");
        match parse_ingest(&args("--help")) {
            Ok(ParseOutcome::Help) => {}
            _ => panic!("--help must short-circuit"),
        }
    }

    #[test]
    fn generate_capture_flags_parse() {
        let g = match parse_generate(&args("--capture dnstap --corrupt 0.01 --corrupt-seed 9"))
            .unwrap()
        {
            ParseOutcome::Parsed(o) => o,
            ParseOutcome::Help => panic!("not help"),
        };
        assert_eq!(g.capture, Some(CaptureFormat::Dnstap));
        assert_eq!(g.corrupt, Some(0.01));
        assert_eq!(g.corrupt_seed, 9);

        assert!(parse_generate(&args("--corrupt 0.01")).is_err(), "corrupt needs capture");
        assert!(parse_generate(&args("--capture pcap --corrupt 2.0")).is_err());
        assert!(parse_generate(&args("--capture tcpdump")).is_err());
    }
}
