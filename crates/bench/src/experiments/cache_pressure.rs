//! §VI-A what-if: disposable domains versus the resolver cache.
//!
//! Shape targets: under capacity pressure, disposable inserts cause
//! premature evictions of non-disposable records and inflate upstream
//! traffic; treating disposables as low-priority cache entries (the
//! paper's suggested policy change) shields the non-disposable working
//! set.

use std::sync::Arc;

use dnsnoise_resolver::{ResolverSim, SimConfig};

use crate::util::{pct, scenario, Table};

/// One measured cache configuration.
#[derive(Debug, Clone)]
pub struct CachePoint {
    /// Per-member capacity in entries.
    pub capacity: usize,
    /// Which policy ran.
    pub policy: String,
    /// Premature evictions of normal-priority (non-disposable) entries.
    pub premature_normal: u64,
    /// Premature evictions of low-priority entries.
    pub premature_low: u64,
    /// Cache hit rate.
    pub hit_rate: f64,
    /// Upstream (above) record volume.
    pub above_total: u64,
}

/// The capacity × policy sweep.
#[derive(Debug, Clone, Default)]
pub struct CachePressureResult {
    /// All measured points.
    pub points: Vec<CachePoint>,
}

impl CachePressureResult {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut out = String::from("== §VI-A: cache pressure from disposable domains ==\n");
        let mut t = Table::new([
            "capacity/member",
            "policy",
            "premature evict (normal)",
            "premature evict (low)",
            "hit rate",
            "above volume",
        ]);
        for p in &self.points {
            t.row([
                p.capacity.to_string(),
                p.policy.clone(),
                p.premature_normal.to_string(),
                p.premature_low.to_string(),
                pct(p.hit_rate),
                p.above_total.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str("\nexpected shape: premature normal-entry evictions shrink under the low-priority policy;\nsmaller caches evict more and push more traffic upstream.\n");
        out
    }

    /// Finds a point by capacity and policy name.
    pub fn point(&self, capacity: usize, policy: &str) -> Option<&CachePoint> {
        self.points.iter().find(|p| p.capacity == capacity && p.policy == policy)
    }
}

/// Runs the sweep: three capacities × {LRU, low-priority-disposables}.
pub fn run(scale_factor: f64) -> CachePressureResult {
    let s = scenario(0.9, 0.06 * scale_factor, 250.0, 131);
    let gt = Arc::new(s.ground_truth().clone());
    let trace = s.generate_day(0);

    let mut result = CachePressureResult::default();
    for capacity in [400, 1_500, 6_000] {
        for low_priority in [false, true] {
            let mut config =
                SimConfig { members: 2, capacity_each: capacity, ..SimConfig::default() };
            if low_priority {
                let gt = Arc::clone(&gt);
                config = config.with_low_priority(move |name| gt.is_disposable_name(name));
            }
            let mut sim = ResolverSim::new(config);
            let report = sim.day(&trace).ground_truth(s.ground_truth()).run();
            result.points.push(CachePoint {
                capacity,
                policy: if low_priority { "low-priority-disposable" } else { "lru" }.to_owned(),
                premature_normal: report.cache.premature_evictions_normal,
                premature_low: report.cache.premature_evictions_low,
                hit_rate: report.cache.hit_rate(),
                above_total: report.above_total(),
            });
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_priority_policy_shields_normal_entries() {
        let r = run(0.4);
        for capacity in [400, 1_500] {
            let lru = r.point(capacity, "lru").unwrap();
            let mitigated = r.point(capacity, "low-priority-disposable").unwrap();
            assert!(
                mitigated.premature_normal <= lru.premature_normal,
                "cap {capacity}: mitigated {} vs lru {}",
                mitigated.premature_normal,
                lru.premature_normal
            );
        }
        // At least one pressured configuration shows a strict improvement.
        let lru = r.point(400, "lru").unwrap();
        let mitigated = r.point(400, "low-priority-disposable").unwrap();
        assert!(mitigated.premature_normal < lru.premature_normal);
    }

    #[test]
    fn smaller_caches_evict_more_and_fetch_more() {
        let r = run(0.4);
        let small = r.point(400, "lru").unwrap();
        let large = r.point(6_000, "lru").unwrap();
        assert!(
            small.premature_normal + small.premature_low
                > large.premature_normal + large.premature_low
        );
        assert!(small.above_total >= large.above_total);
        assert!(small.hit_rate <= large.hit_rate + 1e-9);
        assert!(!r.render().is_empty());
    }
}
