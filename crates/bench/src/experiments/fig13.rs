//! Figure 13: growth of disposable zones across the six sampled 2011
//! measurement days.
//!
//! Shape targets: disposable share of unique queried domains 23.1→27.6%,
//! of unique resolved domains 27.6→37.2%, and of distinct resource
//! records 38.3→65.5%.

use dnsnoise_workload::ScenarioConfig;

use crate::experiments::common;
use crate::util::{pct, scenario, Table};

/// One measured day of the growth series.
#[derive(Debug, Clone)]
pub struct GrowthPoint {
    /// The paper's calendar label.
    pub label: String,
    /// Disposable share of unique queried domains.
    pub of_queried: f64,
    /// Disposable share of unique resolved domains.
    pub of_resolved: f64,
    /// Disposable share of distinct resource records.
    pub of_rrs: f64,
}

/// The six-day growth series.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// Points in calendar order.
    pub points: Vec<GrowthPoint>,
}

impl Fig13Result {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::from("== Figure 13: growth of disposable zones over 2011 ==\n");
        let mut t = Table::new(["day", "% of queried", "% of resolved", "% of RRs"]);
        for p in &self.points {
            t.row([p.label.clone(), pct(p.of_queried), pct(p.of_resolved), pct(p.of_rrs)]);
        }
        out.push_str(&t.render());
        out.push_str(
            "\npaper endpoints: queried 23.1→27.6%, resolved 27.6→37.2%, RRs 38.3→65.5%\n",
        );
        out
    }

    /// Whether all three series grew over the window.
    pub fn all_series_grow(&self) -> bool {
        let first = self.points.first().expect("series is non-empty");
        let last = self.points.last().expect("series is non-empty");
        last.of_queried > first.of_queried
            && last.of_resolved > first.of_resolved
            && last.of_rrs > first.of_rrs
    }
}

/// Measures the six paper days.
pub fn run(scale_factor: f64) -> Fig13Result {
    let mut points = Vec::new();
    for (label, epoch) in ScenarioConfig::paper_days() {
        let s = scenario(epoch, 0.25 * scale_factor, 40.0, 81);
        let mut sim = common::default_sim();
        let m = common::measure_day(&s, &mut sim, 0);
        points.push(GrowthPoint {
            label: label.to_owned(),
            of_queried: m.disposable_of_queried(),
            of_resolved: m.disposable_of_resolved(),
            of_rrs: m.disposable_of_rrs(),
        });
    }
    Fig13Result { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_series_match_paper_endpoints() {
        let r = run(0.6);
        assert_eq!(r.points.len(), 6);
        assert!(r.all_series_grow());
        let first = &r.points[0];
        let last = &r.points[5];
        assert!((0.17..0.30).contains(&first.of_queried), "feb queried {}", first.of_queried);
        assert!((0.22..0.34).contains(&first.of_resolved), "feb resolved {}", first.of_resolved);
        assert!((0.22..0.34).contains(&last.of_queried), "dec queried {}", last.of_queried);
        assert!((0.31..0.44).contains(&last.of_resolved), "dec resolved {}", last.of_resolved);
        // RR share exceeds the name share (multi-record disposable answers).
        assert!(last.of_rrs > last.of_resolved);
        assert!(!r.render().is_empty());
    }
}
