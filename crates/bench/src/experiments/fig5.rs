//! Figure 5: deduplicated new resource records per day over a 13-day
//! rpDNS window (11/28 – 12/10).
//!
//! Shape targets (§III-C3): overall new RRs decline (≈30% by day 13),
//! Akamai declines sharply, Google *grows* (≈+25%) and ends up operating
//! the majority of all stored records (≈58%).

use dnsnoise_pdns::RunStore;
use dnsnoise_workload::Operator;

use crate::experiments::common;
use crate::util::{pct, scenario, Table};

/// Per-day new-record series split by operator.
#[derive(Debug, Clone, Default)]
pub struct Fig5Result {
    /// `(all, akamai, google)` new records per day.
    pub per_day: Vec<(u64, u64, u64)>,
    /// Total distinct records at the end of the window.
    pub total_records: u64,
    /// Records under Google zones at the end of the window.
    pub google_records: u64,
}

impl Fig5Result {
    /// Relative change of a series between day 0 and the last day.
    fn change(&self, pick: fn(&(u64, u64, u64)) -> u64) -> f64 {
        let first = pick(self.per_day.first().expect("window is non-empty")) as f64;
        let last = pick(self.per_day.last().expect("window is non-empty")) as f64;
        (last - first) / first.max(1.0)
    }

    /// Day-over-window change of the All series.
    pub fn all_change(&self) -> f64 {
        self.change(|d| d.0)
    }

    /// Change of the Akamai series.
    pub fn akamai_change(&self) -> f64 {
        self.change(|d| d.1)
    }

    /// Change of the Google series.
    pub fn google_change(&self) -> f64 {
        self.change(|d| d.2)
    }

    /// Google's share of all stored records.
    pub fn google_share(&self) -> f64 {
        self.google_records as f64 / self.total_records.max(1) as f64
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out =
            String::from("== Figure 5: new resource records per day (rpDNS, 13 days) ==\n");
        let mut t = Table::new(["day", "all", "akamai", "google"]);
        for (d, (a, k, g)) in self.per_day.iter().enumerate() {
            t.row([format!("{}", d + 1), a.to_string(), k.to_string(), g.to_string()]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "\nchange day1→day13: all {} (paper: −30%), akamai {} (paper: −69%), google {} (paper: +25%)\n",
            pct(self.all_change()),
            pct(self.akamai_change()),
            pct(self.google_change()),
        ));
        out.push_str(&format!(
            "google share of all stored records: {} (paper: 58%)\n",
            pct(self.google_share())
        ));
        out
    }
}

/// Runs the 13-day dedup experiment, handing `store` each day's distinct
/// records; the result is bit-identical with or without a spill directory.
pub fn run(scale_factor: f64, store: &mut RunStore) -> Fig5Result {
    let s = scenario(0.85, 0.2 * scale_factor, 40.0, 51);
    let gt = s.ground_truth();
    let mut sim = common::default_sim();
    let mut result = Fig5Result::default();

    for day in 0..13 {
        let m = common::measure_day(&s, &mut sim, day);
        let (mut all, mut akamai, mut google) = (0u64, 0u64, 0u64);
        for (key, _) in m.report.rr_stats.iter() {
            if store.observe_key(key, day) {
                all += 1;
                match gt.operator_of(&key.name) {
                    Some(Operator::Akamai) => akamai += 1,
                    Some(Operator::Google) => google += 1,
                    _ => {}
                }
            }
        }
        result.per_day.push((all, akamai, google));
    }

    result.total_records = store.len() as u64;
    // A record is new exactly once, so the daily counts sum to the store's.
    result.google_records = result.per_day.iter().map(|d| d.2).sum();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn google_grows_while_all_declines() {
        let r = run(0.3, &mut RunStore::new());
        assert_eq!(r.per_day.len(), 13);
        assert!(r.all_change() < 0.0, "all change {}", r.all_change());
        assert!(r.akamai_change() < 0.0, "akamai change {}", r.akamai_change());
        assert!(r.google_change() > 0.05, "google change {}", r.google_change());
        assert!(r.google_share() > 0.4, "google share {}", r.google_share());
        assert!(!r.render().is_empty());
    }
}
