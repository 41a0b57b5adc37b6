//! `dnsnoise stream`: mine a day incrementally, one event at a time, with
//! crash checkpoints and resume.

use std::cell::Cell;
use std::path::Path;

use dnsnoise::stream::{Checkpoint, StreamConfig, StreamMiner};

use crate::cli::{ensure, flag, some, to, Kind::Value, Subcommand, Table};
use crate::plumbing::{trace_events, Opts};
use crate::plumbing::{MINER, MODEL, SCENARIO, STORE, TRACE};

#[rustfmt::skip]
pub const STREAM: Subcommand = Subcommand {
    name: "stream",
    summary: "mine a day incrementally, one event at a time",
    tables: &[&SCENARIO, &Table { title: "stream", flags: &[
        flag(TRACE, Value("<file>"), "stream this trace (default: read stdin, so `dnsnoise \
            ingest ... | dnsnoise stream` pipelines)", |o, v| some(&mut o.trace, v)),
        flag(MODEL, Value("<file>"), "load a persisted classifier instead of training",
            |o, v| some(&mut o.model, v)),
        flag("--epoch-secs", Value("<n>"), "seconds per classification epoch",
            |o, v| to(&mut o.epoch_secs, v)).default("21600"),
        flag("--checkpoint", Value("<dir>"), "write a crash checkpoint at the day start and \
            every epoch boundary; when <dir> holds one, resume from it and print the report an \
            uninterrupted run would", |o, v| some(&mut o.checkpoint, v)),
        flag("--die-after", Value("<n>"), "abort after n events (crash-testing aid)",
            |o, v| some(&mut o.die_after, v)),
    ] }, &MINER, &STORE],
    validate,
    run,
};

fn validate(o: &Opts) -> Result<(), String> {
    o.check_scenario()?;
    o.check_miner()?;
    o.check_store()?;
    ensure(o.epoch_secs > 0, "--epoch-secs must be at least 1")?;
    ensure(o.die_after != Some(0), "--die-after must be at least 1")
}

fn run(o: &Opts) -> Result<(), String> {
    let resume_from = o.checkpoint.as_ref().map(|dir| Checkpoint::load(Path::new(dir)));
    let resume_from = resume_from.transpose().map_err(|e| e.to_string())?.flatten();
    // A resume takes its store directory over; a fresh run must not.
    if resume_from.is_none() {
        o.refuse_existing_store()?;
    }
    let miner = o.load_or_train_miner()?;
    let config = StreamConfig { epoch_secs: o.epoch_secs };
    let mut stream = StreamMiner::new(config, &miner).with_store(o.store_backend());
    if let Some(dir) = &o.checkpoint {
        stream = stream.with_checkpoint(Path::new(dir));
    }
    // One feed for warm-up and push alike: events straight off the
    // reader, with the first read error and the end of the trace latched.
    let (fed, error, exhausted) = (Cell::new(0), Cell::new(None), Cell::new(false));
    let mut events = trace_events(&o.trace)?;
    let mut feed = std::iter::from_fn(|| {
        if o.die_after == Some(fed.get()) {
            // Simulated crash for the recovery smoke, once `die_after`
            // events are in: no cleanup, no flush — exactly what a SIGKILL
            // leaves behind.
            std::process::abort();
        }
        let next = events.next();
        exhausted.set(next.is_none());
        match next? {
            Ok(event) => {
                fed.set(fed.get() + 1);
                Some(event)
            }
            Err(e) => {
                error.set(Some(e.to_string()));
                None
            }
        }
    });
    if let Some(ckpt) = resume_from {
        eprintln!("resuming from checkpoint: day={} events={}", ckpt.day, ckpt.pushed);
        stream = stream.resume(&ckpt, feed.by_ref()).map_err(|e| match error.take() {
            Some(read_error) => read_error,
            None if exhausted.get() => {
                "checkpoint covers more events than the trace supplies".into()
            }
            None => e.to_string(),
        })?;
    }
    for event in feed.by_ref() {
        stream.push(&event);
    }
    if let Some(e) = error.take() {
        return Err(e);
    }
    // The trace is spent: its reader and name table go before the close.
    drop(events);

    // Close out: render, store summary, and every latched persistence
    // failure surfaced as a non-zero exit.
    let checkpoint_error = stream.checkpoint_error().map(ToString::to_string);
    // The closed store is done with: a spill directory already holds it.
    let (report, _) = stream.finish();
    if o.store_reported() {
        eprintln!("{}", o.store_summary_line(&report.rpdns_store));
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
