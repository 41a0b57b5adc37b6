//! Shared helpers for experiments and the `bench_*` binaries.

use std::time::Instant;

use dnsnoise_dns::{Name, QType, RData, Record, Ttl};
use dnsnoise_workload::{Scenario, ScenarioConfig};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Timed repetitions behind every `bench_*` measurement.
pub const RUNS: usize = 3;

/// Vendor zones the synthetic pDNS records spread over.
pub const ZONES: usize = 40;

/// First-seen-day window of the synthetic pDNS records.
pub const DAYS: u64 = 30;

/// The one stopwatch: runs `run` [`RUNS`] times and returns the fastest
/// wall time in seconds (the standard way to suppress scheduler noise in
/// a throughput figure) with the last run's result.
pub fn best_of<T>(mut run: impl FnMut() -> T) -> (f64, T) {
    let mut timed = || {
        let start = Instant::now();
        let out = run();
        (start.elapsed().as_secs_f64(), out)
    };
    let (mut best, mut out) = timed();
    for _ in 1..RUNS {
        let (secs, next) = timed();
        best = best.min(secs);
        out = next;
    }
    (best, out)
}

/// One throughput measurement: the fastest wall time and the rate of
/// work items it implies.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Fastest wall time, seconds.
    pub secs: f64,
    /// Work items per second at that time.
    pub per_sec: f64,
}

/// [`best_of`] over `run`, as a rate of `work_items` per second.
pub fn measure<T>(work_items: usize, run: impl FnMut() -> T) -> (Measurement, T) {
    let (secs, out) = best_of(run);
    (Measurement { secs, per_sec: work_items as f64 / secs }, out)
}

/// The `zi`th synthetic vendor zone.
pub fn zone_name(zi: usize) -> Name {
    format!("svc{zi:02}.metrics.example.com").parse().expect("static zone name")
}

/// One deterministic disposable-style record per index: a unique
/// high-entropy one-shot label (hashed payload first, as disposable
/// subdomains encode their measurements) under a vendor zone, an address
/// derived from the same stream, and a first-seen day inside the window.
pub fn make_records(n: usize) -> Vec<(Record, u64)> {
    let mut rng = StdRng::seed_from_u64(0x9d5f_00d5);
    let zones: Vec<Name> = (0..ZONES).map(zone_name).collect();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let salt = rng.next_u64();
        let name_str = format!("{:06x}-{:07x}.{}", salt & 0xff_ffff, i, zones[i % ZONES]);
        let name: Name = name_str.parse().expect("generated name parses");
        let ip = std::net::Ipv4Addr::from((salt >> 24) as u32);
        let record = Record::new(name, QType::A, Ttl::from_secs(60), RData::A(ip));
        out.push((record, i as u64 % DAYS));
    }
    out
}

/// Builds a paper-calibrated scenario.
pub fn scenario(epoch: f64, scale: f64, events_per_unique: f64, seed: u64) -> Scenario {
    Scenario::new(
        ScenarioConfig::paper_epoch(epoch)
            .with_scale(scale)
            .with_events_per_unique(events_per_unique),
        seed,
    )
}

/// A minimal fixed-width table renderer for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(c.len()))
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["day", "value"]);
        t.row(["02/01", "1"]);
        t.row(["12/30", "29738493"]);
        let s = t.render();
        assert!(s.contains("day"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn best_of_returns_the_last_result_after_every_run() {
        let mut calls = 0usize;
        let (secs, out) = best_of(|| {
            calls += 1;
            calls
        });
        assert_eq!(out, RUNS);
        assert!(secs >= 0.0);
    }

    #[test]
    fn make_records_is_deterministic_and_zone_partitioned() {
        let a = make_records(ZONES * 2);
        assert_eq!(a, make_records(ZONES * 2));
        for (i, (record, day)) in a.iter().enumerate() {
            assert!(record.name.is_subdomain_of(&zone_name(i % ZONES)));
            assert!(*day < DAYS);
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.276), "27.6%");
    }
}
