//! Figure 15: new resource records per day over 13 days, split into
//! disposable and non-disposable (the pDNS bootstrap experiment of
//! §VI-C).
//!
//! Shape targets: non-disposable new records collapse (13 M → 1.6 M in
//! the paper) while disposable stay high, the daily disposable share of
//! new records climbs from ≈68% to ≈94%, and ≈88% of all stored records
//! end up disposable.

use dnsnoise_pdns::RunStore;

use crate::experiments::common;
use crate::util::{pct, scenario, Table};

/// The 13-day split series.
#[derive(Debug, Clone, Default)]
pub struct Fig15Result {
    /// `(disposable, non-disposable)` new records per day.
    pub per_day: Vec<(u64, u64)>,
    /// Disposable share of the final store.
    pub disposable_store_share: f64,
    /// Total stored records.
    pub total_records: u64,
}

impl Fig15Result {
    /// Daily disposable share of new records.
    pub fn daily_share(&self, day: usize) -> f64 {
        let (d, n) = self.per_day[day];
        d as f64 / (d + n).max(1) as f64
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out =
            String::from("== Figure 15: new RRs per day, disposable vs non-disposable ==\n");
        let mut t = Table::new(["day", "disposable", "non-disposable", "disposable share"]);
        for (i, (d, n)) in self.per_day.iter().enumerate() {
            t.row([format!("{}", i + 1), d.to_string(), n.to_string(), pct(self.daily_share(i))]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "\ndaily disposable share: day1 {} → day13 {} (paper: 68% → 94%)\n",
            pct(self.daily_share(0)),
            pct(self.daily_share(self.per_day.len() - 1)),
        ));
        out.push_str(&format!(
            "disposable share of the 13-day store: {} (paper: 88%)\n",
            pct(self.disposable_store_share)
        ));
        out
    }
}

/// Runs the 13-day bootstrap, handing `store` each day's distinct
/// records; the result is bit-identical with or without a spill directory.
pub fn run(scale_factor: f64, store: &mut RunStore) -> Fig15Result {
    let s = scenario(0.85, 0.2 * scale_factor, 40.0, 101);
    let gt = s.ground_truth();
    let mut sim = common::default_sim();
    let mut result = Fig15Result::default();

    for day in 0..13 {
        let m = common::measure_day(&s, &mut sim, day);
        let (mut disp, mut non) = (0u64, 0u64);
        for (key, _) in m.report.rr_stats.iter() {
            if store.observe_key(key, day) {
                if gt.is_disposable_name(&key.name) {
                    disp += 1;
                } else {
                    non += 1;
                }
            }
        }
        result.per_day.push((disp, non));
    }

    result.total_records = store.len() as u64;
    // A record is new exactly once, so the daily counts sum to the store's.
    let disposable_total: u64 = result.per_day.iter().map(|d| d.0).sum();
    result.disposable_store_share = disposable_total as f64 / result.total_records.max(1) as f64;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disposable_share_of_new_records_climbs() {
        let r = run(0.3, &mut RunStore::new());
        assert_eq!(r.per_day.len(), 13);
        let first = r.daily_share(0);
        let last = r.daily_share(12);
        assert!(last > first, "share should climb: {first} → {last}");
        assert!(last > 0.6, "late share {last}");
        // Non-disposable new records collapse.
        let (_, n0) = r.per_day[0];
        let (_, n12) = r.per_day[12];
        assert!((n12 as f64) < (n0 as f64) * 0.6, "non-disposable {n0} → {n12}");
        // The store ends up majority-disposable.
        assert!(r.disposable_store_share > 0.5, "store share {}", r.disposable_store_share);
        assert!(!r.render().is_empty());
    }
}
