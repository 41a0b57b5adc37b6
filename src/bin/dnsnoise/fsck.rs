//! `dnsnoise fsck`: check (and repair) an on-disk pDNS store directory.

use crate::cli::{flag, to, Kind::Positional, Kind::Switch, Subcommand, Table};
use crate::plumbing::Opts;

#[rustfmt::skip]
pub const FSCK: Subcommand = Subcommand {
    name: "fsck",
    summary: "check (and repair) an on-disk pDNS store directory",
    tables: &[&Table { title: "fsck", flags: &[
        flag("<dir>", Positional("store directory"), "the store", |o, v| to(&mut o.input, v)),
        flag("--repair", Switch, "quarantine corrupt runs and rewrite the manifest so the store \
            opens clean (without it, problems exit non-zero)", |o, v| to(&mut o.repair, v)),
    ] }],
    validate: |_| Ok(()),
    run,
};

fn run(o: &Opts) -> Result<(), String> {
    let dir = &o.input;
    let report =
        dnsnoise::pdns::fsck(std::path::Path::new(dir), o.repair).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    // A repair pass reports what it quarantined but exits clean; a
    // plain check exits non-zero so scripts can gate on store health.
    if report.is_clean() || o.repair {
        Ok(())
    } else {
        Err(format!("{dir}: fsck found problems (rerun with --repair to quarantine them)"))
    }
}
