//! Figure 7: the cache-hit-rate distribution of disposable vs
//! non-disposable labeled zones.
//!
//! Shape targets (§IV-B): ≈90% of CHR weight from disposable RRs sits at
//! zero, while ≈45% of non-disposable CHR weight exceeds 0.58.

use dnsnoise_core::DomainTree;
use dnsnoise_resolver::ChrDistribution;

use crate::experiments::common;
use crate::util::{pct, scenario, Table};

/// The two labeled CHR distributions.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// CDF points for the disposable class.
    pub disposable_cdf: Vec<(f64, f64)>,
    /// CDF points for the non-disposable class.
    pub nondisposable_cdf: Vec<(f64, f64)>,
    /// Disposable CHR weight at exactly zero.
    pub disposable_zero: f64,
    /// Non-disposable CHR weight above 0.58.
    pub nondisposable_above_058: f64,
}

impl Fig7Result {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out =
            String::from("== Figure 7: CHR distribution, disposable vs non-disposable zones ==\n");
        let mut t = Table::new(["chr<=", "cdf(disposable)", "cdf(non-disposable)"]);
        for ((x, d), (_, n)) in self.disposable_cdf.iter().zip(&self.nondisposable_cdf) {
            t.row([format!("{x:.1}"), format!("{d:.3}"), format!("{n:.3}")]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "\ndisposable CHR at zero: {} (paper: 90%)\nnon-disposable CHR > 0.58: {} (paper: 45%)\n",
            pct(self.disposable_zero),
            pct(self.nondisposable_above_058)
        ));
        out
    }
}

/// Runs the labeled-zone CHR comparison on a November-ish day at
/// paper-like density.
pub fn run(scale_factor: f64) -> Fig7Result {
    let s = scenario(0.8, 0.05 * scale_factor, 300.0, 61);
    let gt = s.ground_truth();
    let mut sim = common::default_sim();
    let m = common::measure_day(&s, &mut sim, 0);
    let tree = DomainTree::from_day_stats(&m.report.rr_stats);

    // Pool per-RR (dhr, misses) samples across the labeled zones of each
    // class, like the paper pools its 398/401 zones.
    let mut disposable_samples: Vec<(f64, u64)> = Vec::new();
    let mut nondisposable_samples: Vec<(f64, u64)> = Vec::new();
    // The paper's non-disposable class is 401 zones sampled from the top
    // 1,000 Alexa sites — the Popular category here. CDN edge zones are
    // deliberately excluded, exactly as the paper's labels exclude them.
    for zone in gt.zones() {
        let include_nondisposable = zone.category == dnsnoise_workload::Category::Popular;
        if !zone.disposable && !include_nondisposable {
            continue;
        }
        let Some(groups) = tree.groups_under(&zone.apex) else { continue };
        for group in groups.groups.values() {
            for &member in &group.members {
                for (dhr, misses) in tree.node_chr(member) {
                    let sample = (dhr, u64::from(misses));
                    if zone.disposable {
                        disposable_samples.push(sample);
                    } else {
                        nondisposable_samples.push(sample);
                    }
                }
            }
        }
    }
    let disposable = ChrDistribution::from_samples(disposable_samples);
    let nondisposable = ChrDistribution::from_samples(nondisposable_samples);

    let points: Vec<f64> = (0..=10).map(|i| f64::from(i) / 10.0).collect();
    Fig7Result {
        disposable_zero: disposable.zero_fraction(),
        nondisposable_above_058: 1.0 - nondisposable.cdf(0.58),
        disposable_cdf: points.iter().map(|&x| (x, disposable.cdf(x))).collect(),
        nondisposable_cdf: points.iter().map(|&x| (x, nondisposable.cdf(x))).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_separate_like_figure_seven() {
        let r = run(0.5);
        assert!(r.disposable_zero > 0.75, "disposable zero {}", r.disposable_zero);
        assert!(
            r.nondisposable_above_058 > 0.2,
            "non-disposable above 0.58: {}",
            r.nondisposable_above_058
        );
        // The disposable CDF dominates (is above) the non-disposable CDF.
        for ((_, d), (_, n)) in r.disposable_cdf.iter().zip(&r.nondisposable_cdf) {
            assert!(d + 1e-9 >= *n, "disposable CDF should dominate: {d} vs {n}");
        }
        assert!(!r.render().is_empty());
    }
}
