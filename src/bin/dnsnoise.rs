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
//! Every flag is declared once, in a table (`cli`): the scenario, miner and
//! store groups (`plumbing`) or a subcommand's own (its module). Parsing,
//! the refusal of another subcommand's flags, and every usage text
//! (`dnsnoise <cmd> --help`) are generated from the tables.

/// The flag machinery, the shared plumbing and one module per subcommand,
/// each a file under `dnsnoise/`.
#[path = "dnsnoise"]
mod app {
    pub mod cli;
    pub mod fsck;
    pub mod generate;
    pub mod ingest;
    pub mod mine;
    pub mod plumbing;
    pub mod simulate;
    pub mod stream;
    pub mod train;
}

use std::process::ExitCode;

use app::*;
use cli::Subcommand;

/// The subcommand table, in usage order.
const COMMANDS: [&Subcommand; 7] = [
    &generate::GENERATE,
    &ingest::INGEST,
    &simulate::SIMULATE,
    &mine::MINE,
    &stream::STREAM,
    &train::TRAIN,
    &fsck::FSCK,
];

/// The top-level usage: the subcommand table and the scenario synopsis.
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let mut out = format!("usage: dnsnoise <{}> [flags]\n\n", names.join("|"));
    out += &format!("{}\n", plumbing::SCENARIO.synopsis());
    out += "run `dnsnoise <command> --help` for the per-command flags\n\n";
    for c in COMMANDS {
        out += &format!("{:<11}{}\n", format!("{}:", c.name), c.summary);
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    if let Some(command) = COMMANDS.iter().find(|c| c.name == name) {
        return command.main(rest);
    }
    if ["help", "--help", "-h"].contains(&name.as_str()) {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    eprint!("unknown command {name}\n\n{}", usage());
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;
    use cli::Kind;
    use dnsnoise::ingest::{CaptureFormat, IngestConfig};
    use dnsnoise::pdns::BackendKind;
    use dnsnoise::resolver::{FaultPlan, DEFAULT_TIMELINE_BUCKETS};
    use dnsnoise::stream::StreamConfig;
    use dnsnoise::workload::AttackPlan;
    use plumbing::Opts;
    use proptest::prelude::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse(command: &Subcommand, s: &str) -> Result<Opts, String> {
        command.parse(&args(s))?.ok_or_else(|| "help".into())
    }

    fn accepts(command: &Subcommand, token: &str) -> bool {
        let named = |f: &cli::Flag| f.name.starts_with('-') && f.name == token;
        command.flags().any(|f| named(f) || f.alias == Some(token))
    }

    /// Parses `tokens` after the positional argument `command` requires.
    fn run(command: &Subcommand, tokens: &[&str]) -> Result<bool, String> {
        let positional = command.flags().any(|f| matches!(f.kind, Kind::Positional(_)));
        let argv = positional.then_some("x").into_iter().chain(tokens.iter().copied());
        command.parse(&argv.map(String::from).collect::<Vec<_>>()).map(|o| o.is_some())
    }

    /// Every flag name and alias a command takes.
    fn names(command: &Subcommand) -> Vec<&'static str> {
        let flags = command.flags().filter(|f| f.name.starts_with('-'));
        flags.flat_map(|f| [Some(f.name), f.alias]).flatten().collect()
    }

    /// The flag surface the hand-written parsers had, pinned: every flag
    /// with its arity (`=` takes a value, `=d` defaults to `d`; a bare
    /// name is a switch) and its alias (`-o/--out`).
    #[test]
    fn defaults_apply() {
        let scenario = "--epoch=1.0 --scale=0.1 --seed=7 --day=0";
        let miner = "--theta=0.9 --min-group=10";
        let surface = [
            format!("{scenario} --out= --capture= --corrupt= --corrupt-seed=0"),
            "--format= -o/--out= --max-error-rate=0.5".to_string(),
            format!(
                "{scenario} --trace= --members=4 --capacity=50000 --faults= --stale= --metrics= \
                 --buckets=24 --attack= --rrl --queue-depth= --service-rate= --store= --store-path="
            ),
            format!("{scenario} --trace= --model= {miner}"),
            format!(
                "{scenario} --trace= --model= --epoch-secs=21600 --checkpoint= --die-after= \
                 {miner} --store= --store-path="
            ),
            format!("{scenario} --out= {miner}"),
            "--repair".to_string(),
        ];
        for (command, expected) in COMMANDS.iter().zip(surface) {
            let declared: Vec<String> = command
                .flags()
                .filter(|f| f.name.starts_with('-'))
                .map(|f| {
                    let alias = f.alias.map(|a| format!("{a}/")).unwrap_or_default();
                    let arity = match f.kind {
                        Kind::Value(_) => format!("={}", f.default.unwrap_or("")),
                        _ => String::new(),
                    };
                    format!("{alias}{}{arity}", f.name)
                })
                .collect();
            assert_eq!(declared.join(" "), expected, "{}", command.name);
            // Arity: a value flag without its value is named; a switch
            // parses alone.
            for flag in command.flags().filter(|f| f.name.starts_with('-')) {
                match (run(command, &[flag.name]), &flag.kind) {
                    (Err(e), Kind::Value(_)) => {
                        assert_eq!(e, format!("{} needs a value", flag.name))
                    }
                    (Ok(true), Kind::Switch) => {}
                    other => panic!("{} {}: {:?}", command.name, flag.name, other.0),
                }
            }
        }
        // The defaults land in the options, and agree with the library
        // defaults they mirror.
        let sim = parse(&simulate::SIMULATE, "").unwrap();
        assert_eq!((sim.epoch, sim.scale, sim.seed, sim.day), (1.0, 0.1, 7, 0));
        assert_eq!((sim.members, sim.capacity, sim.buckets), (4, 50_000, DEFAULT_TIMELINE_BUCKETS));
        assert_eq!((sim.store, sim.store_path), (None, None));
        let stream = parse(&stream::STREAM, "").unwrap();
        assert_eq!((stream.theta, stream.min_group), (0.9, 10));
        assert_eq!(stream.epoch_secs, StreamConfig::default().epoch_secs);
        let ingest = parse(&ingest::INGEST, "x").unwrap();
        assert_eq!(ingest.max_error_rate, IngestConfig::default().max_error_rate);
        assert_eq!(parse(&generate::GENERATE, "").unwrap().corrupt_seed, 0);
    }

    #[test]
    fn common_flags_parse_everywhere() {
        let flags = "--epoch 0.5 --scale 2 --seed 9 --day 3";
        let scenario_commands = COMMANDS.iter().filter(|c| accepts(c, "--scale"));
        let takers: Vec<&str> = scenario_commands.clone().map(|c| c.name).collect();
        assert_eq!(takers, ["generate", "simulate", "mine", "stream", "train"]);
        for command in scenario_commands {
            let o = parse(command, flags).unwrap();
            assert_eq!((o.epoch, o.scale, o.seed, o.day), (0.5, 2.0, 9, 3), "{}", command.name);
            // The group's checks run wherever the group is declared.
            for (flags, err) in [
                ("--scale -1", "--scale must be positive"),
                ("--scale nan", "--scale must be finite"),
                ("--scale inf", "--scale must be finite"),
                ("--epoch 2.0", "--epoch must be in [0, 1]"),
            ] {
                assert_eq!(parse(command, flags), Err(err.into()), "{}", command.name);
            }
        }
        let o = parse(&mine::MINE, "--epoch 0.25 --theta 0.7 --min-group 5 --trace t.txt").unwrap();
        assert_eq!((o.epoch, o.theta, o.min_group), (0.25, 0.7, 5));
        assert_eq!(o.trace.as_deref(), Some("t.txt"));
    }

    #[test]
    fn simulate_flags_parse() {
        let flags = "--trace t.txt --members 2 --capacity 100 --metrics m.json --buckets 96";
        let o = parse(&simulate::SIMULATE, flags).unwrap();
        assert_eq!(o.trace.as_deref(), Some("t.txt"));
        assert_eq!((o.members, o.capacity, o.buckets), (2, 100, 96));
        assert_eq!(o.metrics.as_deref(), Some("m.json"));
        assert_eq!(parse(&simulate::SIMULATE, "--buckets 86400").unwrap().buckets, 86_400);
    }

    #[test]
    fn simulate_rejects_degenerate_values() {
        for (flags, err) in [
            ("--members 0", "--members must be at least 1"),
            ("--members many", "bad --members"),
            ("--capacity 0", "--capacity must be at least 1"),
            ("--buckets 0", "--buckets must be at least 1"),
            ("--buckets 86401", "--buckets must be at most 86400, one per second"),
            ("--buckets 4000000000", "--buckets must be at most 86400, one per second"),
            ("--queue-depth 0", "--queue-depth must be at least 1"),
            ("--service-rate 0", "--service-rate must be at least 1"),
            ("--queue-depth deep", "bad --queue-depth"),
            ("--stale lots", "bad --stale"),
            ("--epoch", "--epoch needs a value"),
        ] {
            assert_eq!(parse(&simulate::SIMULATE, flags), Err(err.into()), "{flags}");
        }
    }

    #[test]
    fn overload_flags_parse() {
        let flags = "--attack seed=1;victim=v.example;surge=0,3600,4 --rrl --queue-depth 32";
        let o = parse(&simulate::SIMULATE, flags).unwrap();
        assert_eq!(o.attack.as_deref(), Some("seed=1;victim=v.example;surge=0,3600,4"));
        assert!(o.rrl);
        assert_eq!(o.queue_depth, Some(32));
        let plan: AttackPlan = o.attack.unwrap().parse().unwrap();
        assert!(!plan.is_empty());

        // `--rrl` takes no value: the next token is parsed as its own flag.
        let o = parse(&simulate::SIMULATE, "--rrl --members 2").unwrap();
        assert!(o.rrl);
        assert_eq!(o.members, 2);
        assert_eq!(parse(&simulate::SIMULATE, "--service-rate 2").unwrap().service_rate, Some(2));
    }

    #[test]
    fn fault_flags_parse() {
        let o = parse(&simulate::SIMULATE, "--faults loss=0.1;retries=3 --stale 3600").unwrap();
        assert_eq!(o.faults.as_deref(), Some("loss=0.1;retries=3"));
        assert_eq!(o.stale, Some(3600));
        let plan: FaultPlan = o.faults.unwrap().parse().unwrap();
        assert_eq!(plan.retry.max_retries, 3);
    }

    /// Generated from the tables: for every pair of subcommands (A, B),
    /// each flag of B that A does not declare is refused by A by name —
    /// and so are the deleted knobs.
    #[test]
    fn subcommands_reject_foreign_flags() {
        let deleted = ["--threads", "--hll-precision", "--bogus"];
        let every: Vec<&str> = COMMANDS.iter().flat_map(|c| names(c)).chain(deleted).collect();
        let mut refused = 0;
        for a in COMMANDS {
            for &flag in every.iter().filter(|f| !accepts(a, f)) {
                let err = format!("unknown flag {flag} for `{}`", a.name);
                assert_eq!(run(a, &[flag, "1"]), Err(err), "{}", a.name);
                refused += 1;
            }
        }
        assert!(refused > 100, "{refused}");
    }

    /// Generated from the tables: `--help` wins wherever it appears, every
    /// declared flag is in the usage, and no flag the parser refuses is.
    #[test]
    fn help_flag_short_circuits() {
        assert_eq!(simulate::SIMULATE.parse(&args("--members 2 --help")), Ok(None));
        for command in COMMANDS {
            for tokens in [["--help"], ["-h"]] {
                assert_eq!(run(command, &tokens), Ok(false), "{} {tokens:?}", command.name);
            }
            let usage = command.usage();
            assert!(usage.starts_with(&format!("usage: dnsnoise {}", command.name)), "{usage}");
            for flag in command.flags() {
                let alias = flag.alias.map(|a| format!("{a}, ")).unwrap_or_default();
                let listed = format!("  {alias}{} ", flag.name);
                assert!(usage.contains(&listed), "{}: {listed}", command.name);
            }
            for word in usage.split_whitespace().filter(|w| w.starts_with('-')) {
                let word = word.trim_end_matches(',');
                assert!(accepts(command, word), "{} usage names {word}", command.name);
            }
        }
        assert!(usage().starts_with("usage: dnsnoise <generate|ingest|simulate|"));
        assert!(usage().contains("scenario flags: --epoch <0..1> --scale <f64>"));
    }

    #[test]
    fn stream_flags_parse() {
        let flags =
            "--trace t.txt --model m.txt --epoch-secs 3600 --theta 0.8 --min-group 5 --seed 11";
        let o = parse(&stream::STREAM, flags).unwrap();
        assert_eq!(o.trace.as_deref(), Some("t.txt"));
        assert_eq!(o.model.as_deref(), Some("m.txt"));
        assert_eq!((o.epoch_secs, o.theta, o.min_group, o.seed), (3600, 0.8, 5, 11));
    }

    #[test]
    fn store_flags_parse_on_simulate_and_stream_only() {
        let takers: Vec<&str> =
            COMMANDS.iter().filter(|c| accepts(c, "--store-path")).map(|c| c.name).collect();
        assert_eq!(takers, ["simulate", "stream"]);
        for command in [&simulate::SIMULATE, &stream::STREAM] {
            let o = parse(command, "--store disk --store-path /tmp/pdns").unwrap();
            assert_eq!(o.store, Some(BackendKind::Disk));
            assert_eq!(o.store_path.as_deref(), Some("/tmp/pdns"));
            // Default invocations print no store summary.
            assert!(!parse(command, "").unwrap().store_reported());
            assert_eq!(parse(command, "--store memory").unwrap().store, Some(BackendKind::Memory));
            // Bad values and misuse are refused, with the flag's own error.
            let err = "unknown store backend `floppy` (expected memory|disk)";
            assert_eq!(parse(command, "--store floppy"), Err(err.into()));
            let spill =
                Err("--store memory contradicts --store-path, which makes a disk store".into());
            assert_eq!(parse(command, "--store memory --store-path /tmp/x"), spill);
            // A path alone is a disk store, as with `--store disk`.
            let alone = parse(command, "--store-path /tmp/x").unwrap();
            assert_eq!((alone.store, alone.store_path.as_deref()), (None, Some("/tmp/x")));
            assert!(alone.store_reported());
            assert_eq!(alone.backend(), BackendKind::Disk);
            assert_eq!(parse(command, "--store disk").unwrap().backend(), BackendKind::Disk);
            assert_eq!(parse(command, "").unwrap().backend(), BackendKind::Memory);
        }
    }

    #[test]
    fn stream_rejects_degenerate_values() {
        for (flags, err) in [
            ("--epoch-secs 0", "--epoch-secs must be at least 1"),
            ("--die-after 0", "--die-after must be at least 1"),
            ("--die-after soon", "bad --die-after"),
        ] {
            assert_eq!(parse(&stream::STREAM, flags), Err(err.into()), "{flags}");
        }
        // The miner group's checks, wherever it is declared.
        let takers: Vec<&str> =
            COMMANDS.iter().filter(|c| accepts(c, "--theta")).map(|c| c.name).collect();
        assert_eq!(takers, ["mine", "stream", "train"]);
        for command in COMMANDS.iter().filter(|c| accepts(c, "--theta")) {
            for theta in ["7", "-0.1", "nan", "inf"] {
                let err = Err("--theta must be in [0, 1]".into());
                assert_eq!(run(command, &["--theta", theta]), err, "{} {theta}", command.name);
            }
            assert_eq!(run(command, &["--theta", "0"]), Ok(true));
            assert_eq!(run(command, &["--theta", "1"]), Ok(true));
        }
    }

    #[test]
    fn stream_checkpoint_flags_parse() {
        let o = parse(&stream::STREAM, "--checkpoint /tmp/ck --die-after 500").unwrap();
        assert_eq!(o.checkpoint.as_deref(), Some("/tmp/ck"));
        assert_eq!(o.die_after, Some(500));
        let o = parse(&stream::STREAM, "").unwrap();
        assert_eq!((o.checkpoint, o.die_after), (None, None));
    }

    #[test]
    fn fsck_flags_parse() {
        let o = parse(&fsck::FSCK, "/tmp/store").unwrap();
        assert_eq!((o.input.as_str(), o.repair), ("/tmp/store", false));
        // The positional directory can come after flags, like `ingest`.
        let o = parse(&fsck::FSCK, "--repair /tmp/store").unwrap();
        assert_eq!((o.input.as_str(), o.repair), ("/tmp/store", true));

        assert_eq!(parse(&fsck::FSCK, ""), Err("fsck needs a store directory".into()));
        let err = Err("fsck takes exactly one store directory".into());
        assert_eq!(parse(&fsck::FSCK, "a b"), err);
    }

    #[test]
    fn ingest_flags_parse() {
        let flags = "cap.pcap --format pcap -o out.trace --max-error-rate 0.2";
        let o = parse(&ingest::INGEST, flags).unwrap();
        assert_eq!(o.input, "cap.pcap");
        assert_eq!(o.format, Some(CaptureFormat::Pcap));
        assert_eq!(o.out.as_deref(), Some("out.trace"));
        assert_eq!(o.max_error_rate, 0.2);

        // The positional path can come after flags, and the format can be
        // left to auto-detection.
        let o = parse(&ingest::INGEST, "--max-error-rate 0.2 --out t cap.bin").unwrap();
        assert_eq!((o.input.as_str(), o.out.as_deref()), ("cap.bin", Some("t")));
        assert_eq!(o.format, None);
    }

    #[test]
    fn ingest_rejects_bad_invocations() {
        for (flags, err) in [
            ("", "ingest needs a capture path"),
            ("a.pcap b.pcap", "ingest takes exactly one capture path"),
            ("a.pcap --format pcapng", "bad capture format pcapng (expected pcap or dnstap)"),
            ("a.pcap --max-error-rate 1.5", "--max-error-rate must be in [0, 1]"),
            ("a.pcap -o", "--out needs a value"),
        ] {
            assert_eq!(parse(&ingest::INGEST, flags), Err(err.into()), "{flags}");
        }
    }

    #[test]
    fn generate_capture_flags_parse() {
        let flags = "--capture dnstap --corrupt 0.01 --corrupt-seed 9";
        let g = parse(&generate::GENERATE, flags).unwrap();
        assert_eq!(g.capture, Some(CaptureFormat::Dnstap));
        assert_eq!((g.corrupt, g.corrupt_seed), (Some(0.01), 9));

        for (flags, err) in [
            ("--corrupt 0.01", "--corrupt only applies to --capture output"),
            ("--capture pcap --corrupt 2.0", "--corrupt must be in [0, 1]"),
            ("--capture tcpdump", "bad capture format tcpdump (expected pcap or dnstap)"),
        ] {
            assert_eq!(parse(&generate::GENERATE, flags), Err(err.into()), "{flags}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The parser is total: any sequence of flag names, aliases, junk
        /// values and stray positionals is `Ok` or `Err`, never a panic.
        #[test]
        fn parser_is_total_on_arbitrary_tokens(
            picks in proptest::collection::vec(0usize..1000, 0..12),
        ) {
            let junk = ["nan", "inf", "-inf", "-1", "0", "0.5", "4000000000", "1e309", "x", ""];
            let strays = ["-", "--", "disk", "pcap", "a.pcap", "--help"];
            let pool: Vec<&str> =
                COMMANDS.iter().flat_map(|c| names(c)).chain(junk).chain(strays).collect();
            let argv: Vec<String> = picks.iter().map(|&i| pool[i % pool.len()].into()).collect();
            for command in COMMANDS {
                let _ = command.parse(&argv);
            }
        }
    }
}
