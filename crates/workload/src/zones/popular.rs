//! Popular user-facing sites: the Alexa-style non-disposable class.
//!
//! A few hundred 2LDs with small, stable name sets (`www`, `mail`, `api`,
//! …) absorb most of the query volume with Zipf popularity across sites.
//! Site 0 is Google's user-driven traffic ("checking emails or web
//! searches", §III-C1); the rest are numbered brands. These zones are the
//! paper's 401-strong non-disposable training class.

use dnsnoise_dns::{Label, Name, QType, Record};
use rand::rngs::StdRng;
use rand::Rng;

use crate::event::Outcome;
use crate::namegen::{label_alnum, mix64, NameForge};
use crate::scenario::ZoneInfo;
use crate::ttl::TtlModel;
use crate::zipf::ZipfSampler;
use crate::zone::{Category, DayCtx, Operator, ZoneModel};
use crate::zones::event_at;

const SUBDOMAINS: &[&str] =
    &["www", "mail", "api", "img", "static", "login", "m", "news", "shop", "blog", "cdn", "search"];

/// A population of popular sites with Zipf traffic across sites.
#[derive(Debug, Clone)]
pub struct PopularSites {
    sites: Vec<(Name, Operator)>,
    /// How many of [`SUBDOMAINS`] each site exposes (per-site, 2..=12).
    subdomain_counts: Vec<usize>,
    daily_events: usize,
    site_pop: ZipfSampler,
    /// Fraction of queries that are AAAA instead of A.
    aaaa_fraction: f64,
    ttl: TtlModel,
    seed: u64,
}

impl PopularSites {
    /// Builds `n_sites` popular sites producing about `daily_events`
    /// lookups per day.
    ///
    /// # Panics
    ///
    /// Panics if `n_sites` is zero.
    pub fn new(n_sites: usize, daily_events: usize, ttl: TtlModel, seed: u64) -> Self {
        assert!(n_sites > 0, "popular class needs at least one site");
        let mut sites = Vec::with_capacity(n_sites);
        let mut subdomain_counts = Vec::with_capacity(n_sites);
        for i in 0..n_sites {
            let (apex, op): (Name, Operator) = if i == 0 {
                ("google.com".parse().expect("static"), Operator::Google)
            } else {
                let brand = label_alnum(mix64(seed ^ 0x909 ^ ((i as u64) << 13)), 7);
                (
                    format!("{brand}.com").parse().expect("brand 2LD is valid"),
                    Operator::Other(1_000 + i as u32),
                )
            };
            sites.push((apex, op));
            subdomain_counts
                .push(2 + (mix64(seed ^ i as u64) % (SUBDOMAINS.len() as u64 - 1)) as usize);
        }
        // Google gets the full set.
        subdomain_counts[0] = SUBDOMAINS.len();
        PopularSites {
            sites,
            subdomain_counts,
            daily_events,
            site_pop: ZipfSampler::new(n_sites, 0.9),
            aaaa_fraction: 0.12,
            ttl,
            seed,
        }
    }
}

impl ZoneModel for PopularSites {
    fn zones(&self) -> Vec<ZoneInfo> {
        self.sites
            .iter()
            .map(|(apex, op)| ZoneInfo {
                apex: apex.clone(),
                category: Category::Popular,
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
        for _ in 0..self.daily_events {
            let site = self.site_pop.sample(rng);
            let (apex, _) = &self.sites[site];
            let n_subs = self.subdomain_counts[site];
            // Within a site, the first subdomains (www, mail) dominate.
            let sub_idx = {
                let r: f64 = rng.gen();
                ((r * r) * n_subs as f64) as usize
            }
            .min(n_subs - 1);
            let name = apex.child(Label::new(SUBDOMAINS[sub_idx]).expect("static subdomain label"));
            let client = rng.gen_range(0..ctx.n_clients);
            let second = ctx.diurnal.sample_second(rng);
            let name_hash = mix64((site as u64) << 16 ^ sub_idx as u64 ^ self.seed);
            let ttl = self.ttl.sample(name_hash);
            let forge = NameForge::new(mix64(self.seed ^ site as u64), apex.clone());
            let (qtype, rdata) = if rng.gen::<f64>() < self.aaaa_fraction {
                let v6 = std::net::Ipv6Addr::new(
                    0x2606,
                    (site & 0xffff) as u16,
                    sub_idx as u16,
                    0,
                    0,
                    0,
                    0,
                    1,
                );
                (QType::Aaaa, dnsnoise_dns::RData::Aaaa(v6))
            } else {
                (QType::A, forge.ipv4(sub_idx as u64))
            };
            let rr = Record::new(name.clone(), qtype, ttl, rdata);
            sink.push(event_at(ctx, second, client, name, qtype, Outcome::Answer(vec![rr]), tag));
        }
    }

    fn describe(&self) -> String {
        format!("popular sites ({} sites, {} events)", self.sites.len(), self.daily_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalCurve;
    use rand::SeedableRng;

    fn generate(model: &PopularSites) -> Vec<crate::event::QueryEvent> {
        let ctx =
            DayCtx { day: 0, epoch: 0.0, n_clients: 2_000, diurnal: DiurnalCurve::residential() };
        let mut rng = StdRng::seed_from_u64(12);
        let mut sink = Vec::new();
        model.generate_day(&ctx, 9, &mut rng, &mut sink);
        sink
    }

    #[test]
    fn google_is_the_head_site() {
        let model = PopularSites::new(200, 30_000, TtlModel::popular(), 17);
        let events = generate(&model);
        let google: Name = "google.com".parse().unwrap();
        let google_events = events.iter().filter(|e| e.name.is_subdomain_of(&google)).count();
        // Zipf(0.9) head over 200 sites: google alone carries a large share.
        assert!(
            google_events * 10 > events.len(),
            "google carried only {google_events}/{} events",
            events.len()
        );
    }

    #[test]
    fn name_pool_is_small_and_stable() {
        let model = PopularSites::new(50, 20_000, TtlModel::popular(), 17);
        let events = generate(&model);
        let unique: std::collections::HashSet<_> = events.iter().map(|e| e.name.clone()).collect();
        assert!(unique.len() <= 50 * SUBDOMAINS.len());
        assert!(unique.len() * 20 < events.len(), "popular names repeat heavily");
    }

    #[test]
    fn some_queries_are_aaaa() {
        let model = PopularSites::new(50, 10_000, TtlModel::popular(), 17);
        let events = generate(&model);
        let aaaa = events.iter().filter(|e| e.qtype == QType::Aaaa).count();
        let frac = aaaa as f64 / events.len() as f64;
        assert!((0.05..0.25).contains(&frac), "aaaa fraction {frac}");
    }

    #[test]
    fn zone_infos_are_nondisposable_2lds() {
        let model = PopularSites::new(401, 100, TtlModel::popular(), 17);
        let infos = model.zones();
        assert_eq!(infos.len(), 401);
        assert!(infos.iter().all(|z| !z.disposable && z.apex.depth() == 2));
    }
}
