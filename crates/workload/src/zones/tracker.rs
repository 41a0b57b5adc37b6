//! Cookie-tracking and ad-network beacon zones (2o7.net / Esomniture-style).
//!
//! Each page view mints a per-session hostname under the tracker zone
//! (`<session hash>.metrics.<tracker 2LD>`) that is looked up once, or
//! twice within seconds when the beacon retries. This is the most numerous
//! disposable class by zone count.

use dnsnoise_dns::{Name, QType, Record};
use rand::rngs::StdRng;
use rand::Rng;

use crate::event::Outcome;
use crate::namegen::{label_base32, mix64, NameForge};
use crate::scenario::ZoneInfo;
use crate::ttl::TtlModel;
use crate::zone::{Category, DayCtx, Operator, ZoneModel};
use crate::zones::event_at;

/// A fleet of tracker/ad-network operators, each owning one
/// `metrics.<tracker 2LD>` zone.
#[derive(Debug, Clone)]
pub struct TrackerFleet {
    zones: Vec<(Name, Operator)>,
    sessions_per_zone: usize,
    /// Probability a beacon fires a second lookup moments later.
    retry_fraction: f64,
    ttl: TtlModel,
    seed: u64,
}

impl TrackerFleet {
    /// Builds `n_zones` trackers with about `daily_sessions` page-view
    /// sessions in total per day.
    ///
    /// # Panics
    ///
    /// Panics if `n_zones` is zero.
    pub fn new(n_zones: usize, daily_sessions: usize, ttl: TtlModel, seed: u64) -> Self {
        assert!(n_zones > 0, "tracker fleet needs at least one zone");
        let sessions_per_zone = (daily_sessions / n_zones).max(1);
        let zones = (0..n_zones)
            .map(|i| {
                let brand = crate::namegen::label_alnum(mix64(seed ^ 0x7c ^ ((i as u64) << 9)), 9);
                let tld = if i % 3 == 0 { "net" } else { "com" };
                let apex: Name =
                    format!("metrics.{brand}.{tld}").parse().expect("tracker apex is valid");
                (apex, Operator::Other(5_000 + i as u32))
            })
            .collect();
        TrackerFleet { zones, sessions_per_zone, retry_fraction: 0.12, ttl, seed }
    }
}

impl ZoneModel for TrackerFleet {
    fn zones(&self) -> Vec<ZoneInfo> {
        self.zones
            .iter()
            .map(|(apex, op)| ZoneInfo {
                apex: apex.clone(),
                category: Category::Tracker,
                operator: *op,
                disposable: true,
                child_depth: Some(apex.depth() + 1),
            })
            .collect()
    }

    fn generate_day(
        &self,
        ctx: &DayCtx,
        tag: u32,
        rng: &mut StdRng,
        sink: &mut Vec<crate::event::QueryEvent>,
    ) {
        for (zi, (apex, _)) in self.zones.iter().enumerate() {
            let forge = NameForge::new(mix64(self.seed ^ zi as u64 ^ 0x7c), apex.clone());
            for s in 0..self.sessions_per_zone {
                let session_seed =
                    mix64(self.seed ^ ((ctx.day) << 40) ^ ((zi as u64) << 20) ^ s as u64);
                let name = apex.child(label_base32(session_seed, 14 + (session_seed % 5) as usize));
                let client = rng.gen_range(0..ctx.n_clients);
                let second = ctx.diurnal.sample_second(rng);
                let ttl = self.ttl.sample(session_seed);
                let rr = Record::new(name.clone(), QType::A, ttl, forge.ipv4(session_seed));
                sink.push(event_at(
                    ctx,
                    second,
                    client,
                    name.clone(),
                    QType::A,
                    Outcome::Answer(vec![rr.clone()]),
                    tag,
                ));
                if rng.gen::<f64>() < self.retry_fraction {
                    sink.push(event_at(
                        ctx,
                        second + 2,
                        client,
                        name,
                        QType::A,
                        Outcome::Answer(vec![rr]),
                        tag,
                    ));
                }
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "tracker fleet ({} zones, {} sessions each)",
            self.zones.len(),
            self.sessions_per_zone
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalCurve;
    use rand::SeedableRng;

    fn generate(fleet: &TrackerFleet) -> Vec<crate::event::QueryEvent> {
        let ctx =
            DayCtx { day: 0, epoch: 0.0, n_clients: 1_000, diurnal: DiurnalCurve::residential() };
        let mut rng = StdRng::seed_from_u64(8);
        let mut sink = Vec::new();
        fleet.generate_day(&ctx, 2, &mut rng, &mut sink);
        sink
    }

    #[test]
    fn children_sit_directly_under_apex() {
        let fleet = TrackerFleet::new(3, 90, TtlModel::new(vec![(60, 1.0)]), 11);
        let infos = fleet.zones();
        for ev in generate(&fleet) {
            let zone = infos
                .iter()
                .find(|z| ev.name.is_subdomain_of(&z.apex))
                .expect("event under a tracker zone");
            assert_eq!(ev.name.depth(), zone.child_depth.unwrap());
        }
    }

    #[test]
    fn retries_duplicate_some_names() {
        let fleet = TrackerFleet::new(1, 5_000, TtlModel::new(vec![(60, 1.0)]), 11);
        let events = generate(&fleet);
        let unique: std::collections::HashSet<_> = events.iter().map(|e| e.name.clone()).collect();
        assert!(unique.len() < events.len(), "retries should repeat names");
        let repeat_rate = 1.0 - unique.len() as f64 / events.len() as f64;
        assert!(repeat_rate < 0.2, "repeat rate {repeat_rate} too high");
    }

    #[test]
    fn zone_count_matches_request() {
        let fleet = TrackerFleet::new(307, 307 * 4, TtlModel::new(vec![(60, 1.0)]), 11);
        assert_eq!(fleet.zones().len(), 307);
        assert!(fleet.zones().iter().all(|z| z.disposable));
    }
}
