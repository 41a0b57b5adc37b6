//! `dnsnoise train`: train the classifier on a synthetic day and persist it.

use dnsnoise::core::Miner;

use crate::cli::{flag, some, Kind::Value, Subcommand, Table};
use crate::plumbing::{Opts, MINER, OUT, SCENARIO};

#[rustfmt::skip]
pub const TRAIN: Subcommand = Subcommand {
    name: "train",
    summary: "train and persist the classifier",
    tables: &[&SCENARIO, &Table { title: "train", flags: &[
        flag(OUT, Value("<file>"), "destination (default: stdout)", |o, v| some(&mut o.out, v)),
    ] }, &MINER],
    validate: |o| o.check_scenario().and(o.check_miner()),
    run,
};

fn run(o: &Opts) -> Result<(), String> {
    let labeled = o.synthetic_labeled();
    let model = Miner::train_model(&labeled, o.miner_config());
    let text = dnsnoise::ml::model_to_text(&model);
    let Some(path) = &o.out else {
        print!("{text}");
        return Ok(());
    };
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    let positives = labeled.positives();
    let negatives = labeled.len() - positives;
    eprintln!("trained on {positives} disposable / {negatives} non-disposable zones → {path}");
    Ok(())
}
