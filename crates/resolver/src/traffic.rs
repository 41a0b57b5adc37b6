//! Hourly traffic volumes above/below the recursives (paper Fig. 2).

use dnsnoise_workload::Operator;

/// The traffic series the paper plots in Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Series {
    /// All resource records.
    All,
    /// NXDOMAIN responses.
    NxDomain,
    /// Records under Akamai's edge zones.
    Akamai,
    /// Records under Google's zones.
    Google,
}

impl Series {
    /// All four series in plot order.
    pub fn all() -> [Series; 4] {
        [Series::All, Series::NxDomain, Series::Akamai, Series::Google]
    }
}

impl std::fmt::Display for Series {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Series::All => "All",
            Series::NxDomain => "NXDOMAIN",
            Series::Akamai => "Akamai",
            Series::Google => "Google",
        };
        f.write_str(s)
    }
}

/// Hourly record volumes above and below the cluster, split by series.
///
/// Volumes count *resource records in answer sections* (the paper's unit),
/// so a CNAME chain of two records contributes two to each applicable
/// bucket; an NXDOMAIN contributes one response to the NXDOMAIN and All
/// series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficProfile {
    below: [[u64; 24]; 4],
    above: [[u64; 24]; 4],
}

fn idx(series: Series) -> usize {
    match series {
        Series::All => 0,
        Series::NxDomain => 1,
        Series::Akamai => 2,
        Series::Google => 3,
    }
}

impl TrafficProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        TrafficProfile::default()
    }

    /// Records `count` record(s) at `hour`, attributed to `operator`, at
    /// one or both taps.
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`.
    pub fn record(
        &mut self,
        hour: usize,
        operator: Option<Operator>,
        is_nx: bool,
        count: u64,
        went_above: bool,
    ) {
        assert!(hour < 24, "hour out of range");
        let add = |tap: &mut [[u64; 24]; 4]| {
            tap[idx(Series::All)][hour] += count;
            if is_nx {
                tap[idx(Series::NxDomain)][hour] += count;
            }
            match operator {
                Some(Operator::Akamai) => tap[idx(Series::Akamai)][hour] += count,
                Some(Operator::Google) => tap[idx(Series::Google)][hour] += count,
                _ => {}
            }
        };
        add(&mut self.below);
        if went_above {
            add(&mut self.above);
        }
    }

    /// Records `count` upstream-only unit(s) at `hour` — failed fetch
    /// attempts (timeouts, lost packets, upstream SERVFAILs) that produced
    /// traffic above the recursives but no answer below. This is how retry
    /// amplification under faults becomes visible in the Fig. 2 series.
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`.
    pub fn record_above_only(&mut self, hour: usize, operator: Option<Operator>, count: u64) {
        assert!(hour < 24, "hour out of range");
        self.above[idx(Series::All)][hour] += count;
        match operator {
            Some(Operator::Akamai) => self.above[idx(Series::Akamai)][hour] += count,
            Some(Operator::Google) => self.above[idx(Series::Google)][hour] += count,
            _ => {}
        }
    }

    /// Hourly volumes below the recursives for a series.
    pub fn below(&self, series: Series) -> &[u64; 24] {
        &self.below[idx(series)]
    }

    /// Hourly volumes above the recursives for a series.
    pub fn above(&self, series: Series) -> &[u64; 24] {
        &self.above[idx(series)]
    }

    /// Daily total below for a series.
    pub fn below_total(&self, series: Series) -> u64 {
        self.below[idx(series)].iter().sum()
    }

    /// Daily total above for a series.
    pub fn above_total(&self, series: Series) -> u64 {
        self.above[idx(series)].iter().sum()
    }

    /// Merges another profile into this one (multi-day aggregation).
    pub fn merge(&mut self, other: &TrafficProfile) {
        for s in 0..4 {
            for h in 0..24 {
                self.below[s][h] += other.below[s][h];
                self.above[s][h] += other.above[s][h];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_splits_series() {
        let mut p = TrafficProfile::new();
        p.record(3, Some(Operator::Google), false, 2, true);
        p.record(3, Some(Operator::Akamai), false, 1, false);
        p.record(4, None, true, 1, true);

        assert_eq!(p.below_total(Series::All), 4);
        assert_eq!(p.above_total(Series::All), 3);
        assert_eq!(p.below_total(Series::Google), 2);
        assert_eq!(p.above_total(Series::Google), 2);
        assert_eq!(p.below_total(Series::Akamai), 1);
        assert_eq!(p.above_total(Series::Akamai), 0);
        assert_eq!(p.below_total(Series::NxDomain), 1);
        assert_eq!(p.below(Series::All)[3], 3);
        assert_eq!(p.below(Series::All)[4], 1);
    }

    #[test]
    fn above_only_skips_the_below_tap() {
        let mut p = TrafficProfile::new();
        p.record(5, Some(Operator::Google), false, 1, true);
        p.record_above_only(5, Some(Operator::Google), 3);
        p.record_above_only(6, None, 2);
        assert_eq!(p.below_total(Series::All), 1);
        assert_eq!(p.above_total(Series::All), 6);
        assert_eq!(p.above_total(Series::Google), 4);
        assert_eq!(p.above_total(Series::NxDomain), 0);
        assert_eq!(p.above(Series::All)[6], 2);
    }

    #[test]
    fn merge_adds_buckets() {
        let mut a = TrafficProfile::new();
        a.record(0, None, false, 5, true);
        let mut b = TrafficProfile::new();
        b.record(0, None, false, 7, false);
        a.merge(&b);
        assert_eq!(a.below(Series::All)[0], 12);
        assert_eq!(a.above(Series::All)[0], 5);
    }

    #[test]
    #[should_panic(expected = "hour out of range")]
    fn hour_bounds_checked() {
        let mut p = TrafficProfile::new();
        p.record(24, None, false, 1, false);
    }
}
