//! DNS blocklists queried by reversed IP (Spamhaus-style).
//!
//! Mail servers look up `<d>.<c>.<b>.<a>.zen.<dnsbl 2LD>` for every
//! connecting peer. Source addresses barely repeat inside a day, so the
//! children behave disposably even though each label is a short decimal
//! octet — a useful hard case for the classifier (low per-label entropy
//! but huge group cardinality and zero cache hits).

use dnsnoise_dns::{Label, Name, QType, Record};
use rand::rngs::StdRng;
use rand::Rng;

use crate::event::Outcome;
use crate::namegen::{mix64, NameForge};
use crate::scenario::ZoneInfo;
use crate::ttl::TtlModel;
use crate::zipf::ZipfSampler;
use crate::zone::{Category, DayCtx, Operator, ZoneModel};
use crate::zones::event_at;

/// A fleet of DNSBL operators, each owning one `zen.<op>.org`-style zone.
#[derive(Debug, Clone)]
pub struct DnsblFleet {
    zones: Vec<(Name, Operator)>,
    queries_per_zone: usize,
    /// Zipf over source-/24 prefixes: spamming ranges recur.
    prefix_pool: ZipfSampler,
    ttl: TtlModel,
    seed: u64,
}

impl DnsblFleet {
    /// Builds `n_zones` blocklists handling about `daily_queries` lookups
    /// per day in total.
    ///
    /// # Panics
    ///
    /// Panics if `n_zones` is zero.
    pub fn new(n_zones: usize, daily_queries: usize, ttl: TtlModel, seed: u64) -> Self {
        assert!(n_zones > 0, "dnsbl fleet needs at least one zone");
        let queries_per_zone = (daily_queries / n_zones).max(1);
        let zones = (0..n_zones)
            .map(|i| {
                let op = crate::namegen::label_alnum(mix64(seed ^ 0xb1 ^ ((i as u64) << 7)), 8);
                let apex: Name = format!("zen.{op}.org").parse().expect("dnsbl apex is valid");
                (apex, Operator::Other(4_000 + i as u32))
            })
            .collect();
        let pool = (queries_per_zone * 12).max(64);
        DnsblFleet { zones, queries_per_zone, prefix_pool: ZipfSampler::new(pool, 0.7), ttl, seed }
    }

    fn reverse_ip_name(&self, apex: &Name, prefix: usize, host: u8) -> Name {
        let h = mix64(self.seed ^ prefix as u64);
        let a = 1 + (h % 223) as u8;
        let b = (h >> 8) as u8;
        let c = (h >> 16) as u8;
        let mut name = apex.clone();
        for octet in [a, b, c, host] {
            name = name.child(Label::new(&octet.to_string()).expect("octet label is valid"));
        }
        name
    }
}

impl ZoneModel for DnsblFleet {
    fn zones(&self) -> Vec<ZoneInfo> {
        self.zones
            .iter()
            .map(|(apex, op)| ZoneInfo {
                apex: apex.clone(),
                category: Category::Dnsbl,
                operator: *op,
                disposable: true,
                child_depth: Some(apex.depth() + 4),
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
            let forge = NameForge::new(mix64(self.seed ^ zi as u64 ^ 0xb1), apex.clone());
            // DNSBL lookups come from the ISP's mail relays: a handful of
            // clients issue all queries.
            let relays: Vec<u64> =
                (0..8).map(|i| mix64(self.seed ^ 0xee ^ i) % ctx.n_clients).collect();
            for _ in 0..self.queries_per_zone {
                let prefix = self.prefix_pool.sample(rng);
                let host: u8 = rng.gen();
                let name = self.reverse_ip_name(apex, prefix, host);
                let client = relays[rng.gen_range(0..relays.len())];
                // Mail flow is flat-ish around the clock.
                let second = rng.gen_range(0..86_400);
                let ttl = self.ttl.sample(mix64(prefix as u64 ^ u64::from(host)));
                let rr = Record::new(
                    name.clone(),
                    QType::A,
                    ttl,
                    forge.loopback_signal(prefix as u64 ^ u64::from(host)),
                );
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
        format!("dnsbl fleet ({} zones, {} queries each)", self.zones.len(), self.queries_per_zone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalCurve;
    use rand::SeedableRng;

    fn generate(fleet: &DnsblFleet) -> Vec<crate::event::QueryEvent> {
        let ctx = DayCtx { day: 0, epoch: 0.0, n_clients: 1_000, diurnal: DiurnalCurve::flat() };
        let mut rng = StdRng::seed_from_u64(6);
        let mut sink = Vec::new();
        fleet.generate_day(&ctx, 1, &mut rng, &mut sink);
        sink
    }

    #[test]
    fn names_are_reversed_ip_children() {
        let fleet = DnsblFleet::new(1, 100, TtlModel::fixed(300), 5);
        let info = &fleet.zones()[0];
        for ev in generate(&fleet) {
            assert_eq!(ev.name.depth(), info.child_depth.unwrap());
            // The four leading labels are decimal octets.
            for l in ev.name.labels().iter().take(4) {
                let v: u32 = l.parse().expect("octet label");
                assert!(v <= 255);
            }
        }
    }

    #[test]
    fn few_clients_issue_all_queries() {
        let fleet = DnsblFleet::new(2, 400, TtlModel::fixed(300), 5);
        let events = generate(&fleet);
        let clients: std::collections::HashSet<_> = events.iter().map(|e| e.client).collect();
        assert!(
            clients.len() <= 16,
            "dnsbl lookups come from relays, got {} clients",
            clients.len()
        );
    }

    #[test]
    fn mostly_unique_names_with_recurring_head() {
        let fleet = DnsblFleet::new(1, 3_000, TtlModel::fixed(300), 5);
        let events = generate(&fleet);
        let unique: std::collections::HashSet<_> = events.iter().map(|e| e.name.clone()).collect();
        assert!(unique.len() * 10 > events.len() * 7, "bulk of lookups unique");
        assert!(unique.len() < events.len(), "spamming ranges recur");
    }
}
