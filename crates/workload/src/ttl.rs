//! TTL mixtures per zone class and measurement epoch (paper Fig. 14).

use dnsnoise_dns::Ttl;

use crate::namegen::mix64;

/// A discrete TTL mixture assigned deterministically per name.
///
/// Fig. 14 shows that disposable TTLs shifted across 2011: in February
/// 0.8% of disposable domains had TTL 0 and 28% had TTL 1 s, while by
/// December the mode had moved to 300 s. [`TtlModel::disposable_epoch`]
/// interpolates between those two observed mixtures.
///
/// The draw is keyed on a hash of the name (not an RNG stream) so that a
/// name keeps the same TTL every time it is generated — authoritative
/// servers do not change a record's TTL between queries.
///
/// # Examples
///
/// ```
/// use dnsnoise_workload::TtlModel;
///
/// let feb = TtlModel::disposable_epoch(0.0);
/// let ttl = feb.sample(12345);
/// assert_eq!(ttl, feb.sample(12345)); // stable per name hash
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TtlModel {
    /// `(ttl_seconds, weight)` pairs; weights need not sum to 1.
    buckets: Vec<(u32, f64)>,
    /// Cumulative weights, normalised.
    cdf: Vec<f64>,
}

impl TtlModel {
    /// Builds a mixture from `(ttl, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is empty or total weight is not positive.
    pub fn new(buckets: Vec<(u32, f64)>) -> Self {
        assert!(!buckets.is_empty(), "ttl mixture needs at least one bucket");
        let total: f64 = buckets.iter().map(|(_, w)| w).sum();
        assert!(total > 0.0, "ttl mixture weights must be positive");
        let mut cdf = Vec::with_capacity(buckets.len());
        let mut acc = 0.0;
        for (_, w) in &buckets {
            acc += w / total;
            cdf.push(acc);
        }
        *cdf.last_mut().expect("non-empty") = 1.0;
        TtlModel { buckets, cdf }
    }

    /// The disposable-domain TTL mixture at epoch `t ∈ [0, 1]`, where 0 is
    /// February 2011 and 1 is December 2011, linearly interpolating the two
    /// observed histograms of Fig. 14.
    pub fn disposable_epoch(t: f64) -> Self {
        let t = t.clamp(0.0, 1.0);
        let feb: &[(u32, f64)] = &[
            (0, 0.008),
            (1, 0.28),
            (30, 0.18),
            (60, 0.22),
            (300, 0.17),
            (900, 0.08),
            (3600, 0.052),
            (86_400, 0.01),
        ];
        let dec: &[(u32, f64)] = &[
            (0, 0.004),
            (1, 0.05),
            (30, 0.07),
            (60, 0.12),
            (300, 0.56),
            (900, 0.10),
            (3600, 0.076),
            (86_400, 0.02),
        ];
        let buckets = feb
            .iter()
            .zip(dec.iter())
            .map(|(&(ttl, wf), &(_, wd))| (ttl, wf * (1.0 - t) + wd * t))
            .collect();
        TtlModel::new(buckets)
    }

    /// A typical mixture for popular, well-run zones: short-to-medium TTLs
    /// dominated by 300 s with some 60 s and hour-scale entries.
    pub fn popular() -> Self {
        TtlModel::new(vec![(60, 0.15), (300, 0.50), (900, 0.15), (3600, 0.15), (86_400, 0.05)])
    }

    /// A CDN mixture: aggressive 20–60 s TTLs for request routing (§II-B2).
    pub fn cdn() -> Self {
        TtlModel::new(vec![(20, 0.25), (30, 0.10), (60, 0.45), (300, 0.20)])
    }

    /// A long-tail hosting mixture: mostly hour-or-day TTLs.
    pub fn long_tail() -> Self {
        TtlModel::new(vec![(300, 0.10), (3600, 0.45), (14_400, 0.20), (86_400, 0.25)])
    }

    /// Draws the TTL for a given name hash.
    pub fn sample(&self, name_hash: u64) -> Ttl {
        let u = (mix64(name_hash ^ 0x7717) >> 11) as f64 / (1u64 << 53) as f64;
        let idx = self.cdf.partition_point(|&c| c < u).min(self.buckets.len() - 1);
        Ttl::from_secs(self.buckets[idx].0)
    }

    /// The mixture's buckets (`(ttl_seconds, weight)` pairs, unnormalised).
    pub fn buckets(&self) -> &[(u32, f64)] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_stable_per_hash() {
        let m = TtlModel::disposable_epoch(0.5);
        for h in 0..100u64 {
            assert_eq!(m.sample(h), m.sample(h));
        }
    }

    #[test]
    fn fixed_always_returns_value() {
        let m = TtlModel::new(vec![(300, 1.0)]);
        for h in 0..50u64 {
            assert_eq!(m.sample(h).as_secs(), 300);
        }
    }

    #[test]
    fn feb_epoch_has_many_one_second_ttls() {
        let m = TtlModel::disposable_epoch(0.0);
        let mut ones = 0u32;
        let n = 20_000u64;
        for h in 0..n {
            if m.sample(h).as_secs() == 1 {
                ones += 1;
            }
        }
        let frac = f64::from(ones) / n as f64;
        assert!((frac - 0.28).abs() < 0.03, "TTL=1 fraction {frac} far from 0.28");
    }

    #[test]
    fn dec_epoch_mode_is_300() {
        let m = TtlModel::disposable_epoch(1.0);
        let mut histogram = std::collections::HashMap::new();
        for h in 0..20_000u64 {
            *histogram.entry(m.sample(h).as_secs()).or_insert(0u32) += 1;
        }
        let mode = histogram.iter().max_by_key(|(_, &c)| c).map(|(&t, _)| t).unwrap();
        assert_eq!(mode, 300);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn empty_mixture_panics() {
        let _ = TtlModel::new(vec![]);
    }
}
