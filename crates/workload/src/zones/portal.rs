//! User-content portals: `<username>.<portal 2LD>` hosting
//! (blogspot/wordpress-style, ubiquitous in the paper's 2011 traffic).
//!
//! These are the classifier's hard negatives: thousands of distinct,
//! random-looking child labels under one zone — structurally similar to a
//! tracker — but the names are *reused* (readers return to blogs), so
//! their cache-hit-rate distribution is healthy. Only the combination of
//! both feature families separates them (§V-A2's stated motivation), and
//! the rarely-read tail of a portal is a genuine borderline case, like the
//! unpopular CDN sub-zones the paper flagged (§V-C1).

use dnsnoise_dns::{Name, QType, Record};
use rand::rngs::StdRng;
use rand::Rng;

use crate::event::Outcome;
use crate::namegen::{label_alnum, mix64, NameForge};
use crate::scenario::ZoneInfo;
use crate::ttl::TtlModel;
use crate::zipf::ZipfSampler;
use crate::zone::{Category, DayCtx, Operator, ZoneModel};
use crate::zones::event_at;

/// A fleet of user-content portals.
#[derive(Debug, Clone)]
pub struct PortalFleet {
    zones: Vec<(Name, Operator)>,
    /// Registered users per portal (the name pool).
    users_per_zone: usize,
    /// Daily lookups per portal.
    events_per_zone: usize,
    user_pop: ZipfSampler,
    ttl: TtlModel,
    seed: u64,
}

impl PortalFleet {
    /// Builds `n_zones` portals with about `daily_names` distinct user
    /// hostnames resolved per day in total, at roughly `events_per_name`
    /// lookups each.
    ///
    /// # Panics
    ///
    /// Panics if `n_zones` is zero.
    pub fn new(
        n_zones: usize,
        daily_names: usize,
        events_per_name: f64,
        ttl: TtlModel,
        seed: u64,
    ) -> Self {
        assert!(n_zones > 0, "portal fleet needs at least one zone");
        let names_per_zone = (daily_names / n_zones).max(4);
        // The pool is wider than the daily active set: the Zipf head is
        // read daily, the tail surfaces occasionally.
        let users_per_zone = names_per_zone * 3;
        let events_per_zone = ((names_per_zone as f64) * events_per_name).round() as usize;
        let zones = (0..n_zones)
            .map(|i| {
                let brand = label_alnum(mix64(seed ^ 0x90a7 ^ ((i as u64) << 10)), 8);
                let apex: Name = format!("{brand}.com").parse().expect("portal 2LD is valid");
                (apex, Operator::Other(7_000 + i as u32))
            })
            .collect();
        PortalFleet {
            zones,
            users_per_zone,
            events_per_zone,
            user_pop: ZipfSampler::new(users_per_zone.max(4), 0.9),
            ttl,
            seed,
        }
    }

    fn user_name(&self, zone_idx: usize, apex: &Name, user: usize) -> Name {
        let h = mix64(self.seed ^ ((zone_idx as u64) << 24) ^ user as u64);
        apex.child(label_alnum(h, 6 + (h % 7) as usize))
    }
}

impl ZoneModel for PortalFleet {
    fn zones(&self) -> Vec<ZoneInfo> {
        self.zones
            .iter()
            .map(|(apex, op)| ZoneInfo {
                apex: apex.clone(),
                category: Category::Portal,
                operator: *op,
                disposable: false,
                child_depth: None,
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
            let forge = NameForge::new(mix64(self.seed ^ zi as u64 ^ 0x90a7), apex.clone());
            for _ in 0..self.events_per_zone {
                let user = self.user_pop.sample(rng);
                let name = self.user_name(zi, apex, user);
                let client = rng.gen_range(0..ctx.n_clients);
                let second = ctx.diurnal.sample_second(rng);
                let name_hash = mix64((zi as u64) << 32 ^ user as u64 ^ self.seed);
                let ttl = self.ttl.sample(name_hash);
                let rr = Record::new(name.clone(), QType::A, ttl, forge.ipv4(user as u64));
                sink.push(event_at(
                    ctx,
                    second,
                    client,
                    name,
                    QType::A,
                    Outcome::Answer(vec![rr]),
                    tag,
                ));
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "user portals ({} zones, ~{} users each, {} lookups each)",
            self.zones.len(),
            self.users_per_zone,
            self.events_per_zone
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalCurve;
    use rand::SeedableRng;

    fn generate(fleet: &PortalFleet) -> Vec<crate::event::QueryEvent> {
        let ctx =
            DayCtx { day: 0, epoch: 0.5, n_clients: 2_000, diurnal: DiurnalCurve::residential() };
        let mut rng = StdRng::seed_from_u64(77);
        let mut sink = Vec::new();
        fleet.generate_day(&ctx, 6, &mut rng, &mut sink);
        sink
    }

    #[test]
    fn user_names_are_reused_within_a_day() {
        let fleet = PortalFleet::new(3, 300, 8.0, TtlModel::long_tail(), 5);
        let events = generate(&fleet);
        let unique: std::collections::HashSet<_> = events.iter().map(|e| e.name.clone()).collect();
        // Heavy reuse: far fewer names than events.
        assert!(
            unique.len() * 3 < events.len(),
            "{} names / {} events",
            unique.len(),
            events.len()
        );
    }

    #[test]
    fn user_names_recur_across_days() {
        let fleet = PortalFleet::new(2, 200, 6.0, TtlModel::long_tail(), 5);
        let names = |day: u64| -> std::collections::HashSet<Name> {
            let ctx =
                DayCtx { day, epoch: 0.5, n_clients: 2_000, diurnal: DiurnalCurve::residential() };
            let mut rng = StdRng::seed_from_u64(100 + day);
            let mut sink = Vec::new();
            fleet.generate_day(&ctx, 6, &mut rng, &mut sink);
            sink.into_iter().map(|e| e.name).collect()
        };
        let d0 = names(0);
        let d1 = names(1);
        let overlap = d0.intersection(&d1).count();
        // Unlike disposable zones, a large share of names returns the next day.
        assert!(overlap * 2 > d0.len().min(d1.len()), "overlap {overlap} of {}", d0.len());
    }

    #[test]
    fn labels_look_machine_generated() {
        // The hard-negative property: portal child labels have real entropy.
        let fleet = PortalFleet::new(1, 200, 4.0, TtlModel::long_tail(), 5);
        let events = generate(&fleet);
        let entropy = |l: &str| l.parse::<dnsnoise_dns::Label>().expect("valid label").entropy();
        let mean_entropy: f64 =
            events.iter().map(|e| e.name.leftmost().expect("has label")).map(entropy).sum::<f64>()
                / events.len() as f64;
        assert!(mean_entropy > 2.0, "portal labels should look random: {mean_entropy}");
    }

    #[test]
    fn zone_infos_are_nondisposable() {
        let fleet = PortalFleet::new(5, 100, 4.0, TtlModel::long_tail(), 5);
        let infos = fleet.zones();
        assert_eq!(infos.len(), 5);
        assert!(infos.iter().all(|z| !z.disposable && z.category == Category::Portal));
    }
}
