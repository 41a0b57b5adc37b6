//! McAfee-style anti-virus file-reputation lookups (paper Fig. 6-ii).
//!
//! When a client's AV engine meets a suspicious file it queries
//!
//! ```text
//! 0.0.0.0.1.0.0.4e.<base32 file fingerprint>.avqs.<vendor 2LD>
//! ```
//!
//! and receives a non-routable answer in `127.0.0.0/16` whose address
//! encodes the verdict (§IV-A). Fingerprints follow file prevalence: a few
//! widespread samples are queried by many clients (giving a small cache-hit
//! head), while the bulk are seen exactly once.

use dnsnoise_dns::{Label, Name, QType, Record};
use rand::rngs::StdRng;
use rand::Rng;

use crate::event::Outcome;
use crate::namegen::{label_base32, mix64, NameForge};
use crate::scenario::ZoneInfo;
use crate::ttl::TtlModel;
use crate::zipf::ZipfSampler;
use crate::zone::{Category, DayCtx, Operator, ZoneModel};
use crate::zones::event_at;

/// A fleet of AV vendors, each operating one `avqs.<vendor>.com` zone.
#[derive(Debug, Clone)]
pub struct AvReputation {
    zones: Vec<(Name, Operator)>,
    lookups_per_zone: usize,
    /// Zipf over the per-zone file-fingerprint pool.
    file_pool: ZipfSampler,
    ttl: TtlModel,
    seed: u64,
}

impl AvReputation {
    /// Builds `n_zones` vendors sized for about `daily_lookups` total
    /// queries per day across the fleet.
    ///
    /// # Panics
    ///
    /// Panics if `n_zones` is zero.
    pub fn new(n_zones: usize, daily_lookups: usize, ttl: TtlModel, seed: u64) -> Self {
        assert!(n_zones > 0, "av fleet needs at least one zone");
        let lookups_per_zone = (daily_lookups / n_zones).max(1);
        // A pool much larger than the daily draw keeps most fingerprints
        // single-use; the Zipf head supplies the few widespread samples.
        let pool = (lookups_per_zone * 40).max(64);
        let zones = (0..n_zones)
            .map(|i| {
                let vendor = crate::namegen::label_alnum(mix64(seed ^ 0xa7 ^ ((i as u64) << 5)), 7);
                let apex: Name = format!("avqs.{vendor}.com").parse().expect("av apex is valid");
                (apex, Operator::Other(3_000 + i as u32))
            })
            .collect();
        AvReputation { zones, lookups_per_zone, file_pool: ZipfSampler::new(pool, 0.85), ttl, seed }
    }

    fn fingerprint_name(&self, zone_idx: usize, apex: &Name, file: usize) -> Name {
        let fp_seed = mix64(self.seed ^ ((zone_idx as u64) << 32) ^ file as u64);
        let mut name = apex.child(label_base32(fp_seed, 26));
        // The fixed protocol prefix: version/flags octet labels.
        for l in ["4e", "0", "0", "1", "0", "0", "0", "0"] {
            name = name.child(Label::new(l).expect("protocol label is valid"));
        }
        name
    }
}

impl ZoneModel for AvReputation {
    fn zones(&self) -> Vec<ZoneInfo> {
        self.zones
            .iter()
            .map(|(apex, op)| ZoneInfo {
                apex: apex.clone(),
                category: Category::AvReputation,
                operator: *op,
                disposable: true,
                child_depth: Some(apex.depth() + 9),
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
            let forge = NameForge::new(mix64(self.seed ^ zi as u64), apex.clone());
            for _ in 0..self.lookups_per_zone {
                let file = self.file_pool.sample(rng);
                let name = self.fingerprint_name(zi, apex, file);
                let client = rng.gen_range(0..ctx.n_clients);
                // Suspicious-file encounters follow user activity.
                let second = ctx.diurnal.sample_second(rng);
                let ttl = self.ttl.sample(mix64(file as u64 ^ self.seed));
                let rr =
                    Record::new(name.clone(), QType::A, ttl, forge.loopback_signal(file as u64));
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
            "av reputation fleet ({} zones, {} lookups each)",
            self.zones.len(),
            self.lookups_per_zone
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalCurve;
    use dnsnoise_dns::RData;
    use rand::SeedableRng;

    fn ctx() -> DayCtx {
        DayCtx { day: 0, epoch: 0.0, n_clients: 500, diurnal: DiurnalCurve::residential() }
    }

    fn generate(fleet: &AvReputation) -> Vec<crate::event::QueryEvent> {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sink = Vec::new();
        fleet.generate_day(&ctx(), 3, &mut rng, &mut sink);
        sink
    }

    #[test]
    fn names_have_eleven_periods() {
        // §IV-A: "disposable domains under avqs.mcafee.com always have 11
        // periods in the domain".
        let fleet = AvReputation::new(1, 50, TtlModel::new(vec![(300, 1.0)]), 2);
        for ev in generate(&fleet) {
            assert_eq!(ev.name.depth(), 12, "{}: 11 periods", ev.name);
        }
    }

    #[test]
    fn answers_are_loopback_signals() {
        let fleet = AvReputation::new(2, 60, TtlModel::new(vec![(300, 1.0)]), 2);
        for ev in generate(&fleet) {
            match &ev.outcome {
                Outcome::Answer(rrs) => match rrs[0].rdata {
                    RData::A(ip) => assert_eq!(ip.octets()[0], 127),
                    _ => panic!("expected A record"),
                },
                Outcome::NxDomain => panic!("av lookups resolve"),
            }
        }
    }

    #[test]
    fn same_file_yields_same_name() {
        // A widespread sample queried twice must produce the identical
        // fingerprint name — that is what creates the small cache-hit head.
        let fleet = AvReputation::new(1, 2_000, TtlModel::new(vec![(300, 1.0)]), 2);
        let events = generate(&fleet);
        let unique: std::collections::HashSet<_> = events.iter().map(|e| e.name.clone()).collect();
        assert!(unique.len() < events.len(), "expected some repeated fingerprints");
        // But the bulk is still single-use.
        assert!(unique.len() * 10 > events.len() * 7, "most fingerprints should be unique");
    }

    #[test]
    fn child_depth_matches() {
        let fleet = AvReputation::new(1, 20, TtlModel::new(vec![(300, 1.0)]), 2);
        let info = &fleet.zones()[0];
        for ev in generate(&fleet) {
            assert_eq!(ev.name.depth(), info.child_depth.unwrap());
        }
    }
}
