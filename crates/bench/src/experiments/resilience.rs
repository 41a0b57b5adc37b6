//! Resilience what-if: upstream outages versus disposable traffic.
//!
//! The paper's disposable domains are queried exactly once, so they are
//! never in cache when the upstream becomes unreachable — RFC 8767
//! serve-stale can rescue repeat (non-disposable) lookups but has nothing
//! stale to serve for disposables. This experiment sweeps the disposable
//! share (paper epoch) against outage severity and shows that availability
//! loss under an outage falls almost entirely on disposable queries once
//! serve-stale is enabled.

use dnsnoise_dns::{Timestamp, Ttl};
use dnsnoise_resolver::{FaultKind, FaultPlan, OutageScope, ResolverSim, SimConfig};

use crate::util::{pct, scenario, Table};

/// Seconds in a simulated day.
const DAY: u64 = 86_400;

/// One epoch × severity measurement. Day 0 runs fault-free to warm the
/// cluster; all numbers are from day 1, where the faults are scheduled.
#[derive(Debug, Clone)]
pub struct ResiliencePoint {
    /// Paper epoch (0.0 ≈ 2011 disposable share, 1.0 ≈ 2013).
    pub epoch: f64,
    /// Which fault plan ran.
    pub severity: String,
    /// Fraction of disposable queries answered.
    pub avail_disposable: f64,
    /// Fraction of non-disposable queries answered.
    pub avail_nondisposable: f64,
    /// RFC 8767 stale answers served.
    pub stale_serves: u64,
    /// SERVFAIL responses sent below.
    pub servfails_below: u64,
    /// Failed upstream attempts (retry amplification, billed above).
    pub failed_attempts: u64,
}

/// The disposable-share × outage-severity sweep.
#[derive(Debug, Clone, Default)]
pub struct ResilienceResult {
    /// All measured points.
    pub points: Vec<ResiliencePoint>,
}

impl ResilienceResult {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut out = String::from("== resilience: outages vs disposable traffic ==\n");
        let mut t = Table::new([
            "epoch",
            "severity",
            "avail (disposable)",
            "avail (other)",
            "stale serves",
            "servfails",
            "failed attempts",
        ]);
        for p in &self.points {
            t.row([
                format!("{:.1}", p.epoch),
                p.severity.clone(),
                pct(p.avail_disposable),
                pct(p.avail_nondisposable),
                p.stale_serves.to_string(),
                p.servfails_below.to_string(),
                p.failed_attempts.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(
            "\nexpected shape: serve-stale restores availability for repeat (non-disposable)\n\
             lookups during the outage but cannot help one-shot disposables — they were\n\
             never cached, so their availability loss strictly exceeds the rest.\n",
        );
        out
    }

    /// Finds a point by epoch and severity name.
    pub fn point(&self, epoch: f64, severity: &str) -> Option<&ResiliencePoint> {
        self.points.iter().find(|p| (p.epoch - epoch).abs() < 1e-9 && p.severity == severity)
    }
}

/// An eight-hour total upstream outage in the middle of day 1.
fn day1_outage() -> FaultPlan {
    FaultPlan::default().with_outage(
        OutageScope::All,
        FaultKind::Timeout,
        Timestamp::from_secs(DAY + 8 * 3_600),
        Timestamp::from_secs(DAY + 16 * 3_600),
    )
}

/// Runs the sweep: three epochs × {none, 20% loss, outage±serve-stale}.
pub fn run(scale_factor: f64) -> ResilienceResult {
    let severities: [(&str, FaultPlan, bool); 4] = [
        ("none", FaultPlan::default(), false),
        ("loss-20%", FaultPlan::default().with_seed(17).with_packet_loss(0.2), false),
        ("outage-8h", day1_outage(), false),
        ("outage-8h+stale", day1_outage(), true),
    ];

    let mut result = ResilienceResult::default();
    for epoch in [0.0, 0.5, 1.0] {
        let s = scenario(epoch, 0.05 * scale_factor, 250.0, 17);
        let gt = s.ground_truth();
        let warm = s.generate_day(0);
        let day1 = s.generate_day(1);
        for (name, plan, stale) in &severities {
            let mut config = SimConfig { members: 2, ..SimConfig::default() };
            if *stale {
                config = config.with_serve_stale(Ttl::from_secs(DAY as u32));
            }
            let mut sim = ResolverSim::new(config);
            sim.day(&warm).ground_truth(gt).run();
            let report = sim.day(&day1).ground_truth(gt).faults(plan).run();
            let r = &report.resilience;
            result.points.push(ResiliencePoint {
                epoch,
                severity: (*name).to_owned(),
                avail_disposable: r.disposable.fraction(),
                avail_nondisposable: r.nondisposable.fraction(),
                stale_serves: r.stale_serves,
                servfails_below: r.servfails_below,
                failed_attempts: r.failed_attempts,
            });
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_stale_shields_nondisposables_only() {
        let r = run(0.4);
        for epoch in [0.5, 1.0] {
            let stale = r.point(epoch, "outage-8h+stale").unwrap();
            let bare = r.point(epoch, "outage-8h").unwrap();
            assert!(stale.stale_serves > 0, "epoch {epoch}: stale path must fire");
            assert_eq!(bare.stale_serves, 0);
            assert!(
                stale.avail_nondisposable > bare.avail_nondisposable,
                "epoch {epoch}: serve-stale must recover non-disposable availability"
            );
            assert!(
                stale.avail_nondisposable > stale.avail_disposable,
                "epoch {epoch}: disposable loss must exceed non-disposable \
                 ({} vs {})",
                stale.avail_disposable,
                stale.avail_nondisposable
            );
        }
    }

    #[test]
    fn fault_free_row_is_fully_available() {
        let r = run(0.4);
        for epoch in [0.0, 0.5, 1.0] {
            let p = r.point(epoch, "none").unwrap();
            assert_eq!(p.servfails_below, 0);
            assert_eq!(p.failed_attempts, 0);
            assert!((p.avail_disposable - 1.0).abs() < 1e-12);
            assert!((p.avail_nondisposable - 1.0).abs() < 1e-12);
        }
        assert!(!r.render().is_empty());
    }

    #[test]
    fn packet_loss_amplifies_but_rarely_fails() {
        let r = run(0.4);
        let p = r.point(0.5, "loss-20%").unwrap();
        assert!(p.failed_attempts > 0, "20% loss must burn retries");
        assert!(p.avail_nondisposable > 0.95, "retries should absorb most loss");
    }
}
