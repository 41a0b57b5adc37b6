//! Overload what-if: random-subdomain floods versus admission control.
//!
//! A flood of one-shot NXDOMAIN names (the attack mirror of the paper's
//! disposable traffic — machine-generated, never repeated, cache-busting
//! by construction) is injected into day 1 at several intensities. The
//! sweep contrasts an open resolver with one running admission control
//! (bounded queues + per-client token buckets + NXDOMAIN RRL) and shows
//! graceful degradation: the admission stage sheds the attack traffic
//! first, keeps legitimate availability high, and caps the upstream
//! NXDOMAIN amplification an open cluster would forward wholesale.

use dnsnoise_resolver::{OverloadConfig, ResolverSim, SimConfig};
use dnsnoise_workload::AttackPlan;

use crate::util::{pct, scenario, Table};

/// One epoch × intensity × admission-mode measurement. Day 0 runs clean
/// to warm the cluster; all numbers are from day 1, which carries the
/// flood.
#[derive(Debug, Clone)]
pub struct OverloadPoint {
    /// Paper epoch (0.0 ≈ 2011 disposable share, 1.0 ≈ 2013).
    pub epoch: f64,
    /// Flood intensity label (`none`, `x10`, ...), `+open` when the
    /// cluster runs without admission control.
    pub intensity: String,
    /// Queries offered to the cluster on the flooded day.
    pub offered: u64,
    /// NXDOMAIN answers fetched upstream (amplification the
    /// authoritative tier absorbs).
    pub nx_above: u64,
    /// Attack queries shed by admission control.
    pub shed_attack: u64,
    /// Legitimate queries shed by admission control.
    pub shed_legit: u64,
    /// Fraction of legitimate queries answered.
    pub avail_legit: f64,
    /// Stale answers served instead of shedding (RFC 8767 under
    /// pressure).
    pub stale_under_pressure: u64,
    /// Deepest admission-queue backlog reached on any member.
    pub queue_peak: u64,
}

/// The flood-intensity × admission sweep.
#[derive(Debug, Clone, Default)]
pub struct OverloadResult {
    /// All measured points.
    pub points: Vec<OverloadPoint>,
}

impl OverloadResult {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut out = String::from("== overload: subdomain floods vs admission control ==\n");
        let mut t = Table::new([
            "epoch",
            "flood",
            "offered",
            "nx above",
            "shed (attack)",
            "shed (legit)",
            "avail (legit)",
            "stale",
            "queue peak",
        ]);
        for p in &self.points {
            t.row([
                format!("{:.1}", p.epoch),
                p.intensity.clone(),
                p.offered.to_string(),
                p.nx_above.to_string(),
                p.shed_attack.to_string(),
                p.shed_legit.to_string(),
                pct(p.avail_legit),
                p.stale_under_pressure.to_string(),
                p.queue_peak.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(
            "\nexpected shape: the open cluster forwards the whole flood upstream (nx above\n\
             tracks the offered volume); with admission control the shed falls mostly on\n\
             attack traffic, legitimate availability degrades gracefully, and the upstream\n\
             NXDOMAIN amplification is capped by the RRL.\n",
        );
        out
    }

    /// Finds a point by epoch and intensity label.
    pub fn point(&self, epoch: f64, intensity: &str) -> Option<&OverloadPoint> {
        self.points.iter().find(|p| (p.epoch - epoch).abs() < 1e-9 && p.intensity == intensity)
    }
}

/// The admission budget the guarded rows run with. The synthetic days
/// idle well below one query per second, so a tiny simulated service
/// rate is what makes the surge multipliers saturating.
fn guarded() -> OverloadConfig {
    OverloadConfig::default().with_queue_depth(64).with_service_rate(2).with_rrl(3)
}

/// A permissive budget for the `+open` rows: capacity so far above the
/// flood that nothing is ever shed, while keeping the admission stage's
/// accounting (offered/admitted) active for comparison.
fn open() -> OverloadConfig {
    OverloadConfig::default().with_queue_depth(1_000_000).with_service_rate(1_000_000)
}

/// A six-hour midday flood against two victim zones at `mult` × the
/// day's baseline rate.
fn flood(mult: u64) -> AttackPlan {
    format!(
        "seed=23; victim=flood-a.example; victim=flood-b.example; labellen=16; \
         clients=400; surge=28800,50400,{mult}"
    )
    .parse()
    .expect("static attack spec")
}

/// Runs the sweep: two epochs × {none, x10 open, x10, x40 open, x40}.
pub fn run(scale_factor: f64) -> OverloadResult {
    let rows: [(&str, u64, bool); 5] = [
        ("none", 0, false),
        ("x10+open", 10, true),
        ("x10", 10, false),
        ("x40+open", 40, true),
        ("x40", 40, false),
    ];

    let mut result = OverloadResult::default();
    for epoch in [0.5, 1.0] {
        let s = scenario(epoch, 0.05 * scale_factor, 250.0, 23);
        let gt = s.ground_truth();
        let warm = s.generate_day(0);
        let clean_day1 = s.generate_day(1);
        let legit = clean_day1.events.len() as u64;
        for &(name, mult, open_mode) in &rows {
            let mut day1 = clean_day1.clone();
            if mult > 0 {
                flood(mult).inject(&mut day1);
            }
            let cfg = if open_mode { open() } else { guarded() };
            let mut sim = ResolverSim::new(SimConfig { members: 2, ..SimConfig::default() });
            sim.day(&warm).ground_truth(gt).run();
            let report = sim.day(&day1).ground_truth(gt).overload(&cfg).run();
            let o = &report.overload;
            result.points.push(OverloadPoint {
                epoch,
                intensity: name.to_owned(),
                offered: o.offered,
                nx_above: report.nx_above(),
                shed_attack: o.shed_attack,
                shed_legit: o.shed_legit,
                avail_legit: 1.0 - o.shed_legit as f64 / legit as f64,
                stale_under_pressure: o.stale_under_pressure,
                queue_peak: o.queue_peak,
            });
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The sweep is the expensive part (20 day replays); run it once and
    /// let every assertion below read the shared result.
    fn sweep() -> &'static OverloadResult {
        static SWEEP: OnceLock<OverloadResult> = OnceLock::new();
        SWEEP.get_or_init(|| run(0.4))
    }

    #[test]
    fn admission_sheds_attack_first_and_degrades_gracefully() {
        let r = sweep();
        for epoch in [0.5, 1.0] {
            for intensity in ["x10", "x40"] {
                let p = r.point(epoch, intensity).unwrap();
                assert!(p.shed_attack > 0, "epoch {epoch} {intensity}: flood must be shed");
                assert!(
                    p.shed_attack > p.shed_legit,
                    "epoch {epoch} {intensity}: attack shed {} must exceed legit shed {}",
                    p.shed_attack,
                    p.shed_legit
                );
                assert!(
                    p.avail_legit > 0.8,
                    "epoch {epoch} {intensity}: legit availability {} collapsed",
                    p.avail_legit
                );
            }
        }
    }

    #[test]
    fn admission_caps_upstream_amplification() {
        let r = sweep();
        for epoch in [0.5, 1.0] {
            let open = r.point(epoch, "x40+open").unwrap();
            let guarded = r.point(epoch, "x40").unwrap();
            assert_eq!(open.shed_attack + open.shed_legit, 0, "open cluster sheds nothing");
            assert!(
                guarded.nx_above < open.nx_above,
                "epoch {epoch}: admission must cut upstream NXDOMAIN load ({} vs {})",
                guarded.nx_above,
                open.nx_above
            );
        }
    }

    #[test]
    fn quiet_day_sheds_nothing() {
        let r = sweep();
        for epoch in [0.5, 1.0] {
            let p = r.point(epoch, "none").unwrap();
            assert_eq!(p.shed_attack + p.shed_legit, 0);
            assert!((p.avail_legit - 1.0).abs() < 1e-12);
        }
        assert!(!r.render().is_empty());
    }
}
