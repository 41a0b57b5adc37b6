//! `dnsnoise mine`: a day's disposable zones, from a trace or a synthetic
//! day that grades itself.

use std::io::Write;

use dnsnoise::core::{DailyPipeline, DomainTree};
use dnsnoise::dns::SuffixList;
use dnsnoise::resolver::{EventSession, ResolverSim, SimConfig};

use crate::cli::{flag, some, Kind::Value, Subcommand, Table};
use crate::plumbing::{trace_events, Opts, MINER, MODEL, SCENARIO, TRACE};

#[rustfmt::skip]
pub const MINE: Subcommand = Subcommand {
    name: "mine",
    summary: "mine a day for disposable zones",
    tables: &[&SCENARIO, &Table { title: "mine", flags: &[
        flag(TRACE, Value("<file>"), "mine this trace (default: a synthetic day, self-grading)",
            |o, v| some(&mut o.trace, v)),
        flag(MODEL, Value("<file>"), "load a persisted classifier instead of training",
            |o, v| some(&mut o.model, v)),
    ] }, &MINER],
    validate: |o| o.check_scenario().and(o.check_miner()),
    run,
};

fn run(o: &Opts) -> Result<(), String> {
    if o.trace.is_none() {
        let mut pipeline = DailyPipeline::new(o.miner_config());
        let report = pipeline.run_day(&o.scenario(), o.day);
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
        return Ok(());
    }
    // The day is replayed straight off the reader, as `stream` does,
    // and only its per-record table outlives the loop: the simulator's
    // caches are dropped before the tree is built.
    let mut session = EventSession::new(ResolverSim::new(SimConfig::default()), 0);
    for (i, event) in trace_events(&o.trace)?.enumerate() {
        let event = event.map_err(|e| e.to_string())?;
        if i == 0 {
            session.set_day(event.time.day());
        }
        session.push(&event, None, &mut ());
    }
    let (report, _) = session.finish();
    let miner = o.load_or_train_miner()?;

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
