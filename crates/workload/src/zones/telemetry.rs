//! eSoft-style host telemetry over DNS (paper Fig. 6-i).
//!
//! Devices report CPU load, uptime, memory and swap usage by encoding the
//! metrics into labels of a DNS query:
//!
//! ```text
//! load-0-p-01.up-1852280.mem-251379712-24440832-0-p-50.
//!   swap-236691456-297943040-0-p-44.3302068.1222092134.
//!   device.trans.manage.esoft.com
//! ```
//!
//! Every beacon produces a fresh name (the metric values change), so the
//! zone is maximally disposable: one query per name, ever.

use dnsnoise_dns::{Label, Name, QType, Record};
use rand::rngs::StdRng;
use rand::Rng;

use crate::event::Outcome;
use crate::namegen::{mix64, NameForge};
use crate::scenario::ZoneInfo;
use crate::ttl::TtlModel;
use crate::zone::{Category, DayCtx, Operator, ZoneModel};
use crate::zones::event_at;

/// A fleet of telemetry operators, each owning one
/// `device.trans.manage.<vendor>.com`-style zone.
#[derive(Debug, Clone)]
pub struct TelemetryFleet {
    zones: Vec<(Name, Operator)>,
    /// Reporting devices per zone.
    devices_per_zone: usize,
    /// Beacons per device per day.
    beacons_per_device: usize,
    ttl: TtlModel,
    seed: u64,
}

impl TelemetryFleet {
    /// Builds `n_zones` telemetry zones sized so the fleet emits about
    /// `daily_names` unique names per day in total.
    ///
    /// # Panics
    ///
    /// Panics if `n_zones` is zero.
    pub fn new(n_zones: usize, daily_names: usize, ttl: TtlModel, seed: u64) -> Self {
        assert!(n_zones > 0, "telemetry fleet needs at least one zone");
        let beacons_per_device = 4;
        let devices_per_zone = (daily_names / n_zones / beacons_per_device).max(1);
        let zones = (0..n_zones)
            .map(|i| {
                let vendor = crate::namegen::label_alnum(mix64(seed ^ (i as u64) << 3), 6);
                let apex: Name = format!("device.trans.manage.{vendor}.com")
                    .parse()
                    .expect("constructed telemetry apex is valid");
                (apex, Operator::Other(2_000 + i as u32))
            })
            .collect();
        TelemetryFleet { zones, devices_per_zone, beacons_per_device, ttl, seed }
    }

    fn beacon_name(&self, apex: &Name, rng: &mut StdRng) -> Name {
        let load: u32 = rng.gen_range(0..100);
        let up: u64 = rng.gen_range(10_000..9_999_999);
        let mem_a: u64 = rng.gen_range(10_000_000..999_999_999);
        let mem_b: u64 = rng.gen_range(1_000_000..99_999_999);
        let mem_p: u32 = rng.gen_range(0..100);
        let swap_a: u64 = rng.gen_range(10_000_000..999_999_999);
        let swap_b: u64 = rng.gen_range(10_000_000..999_999_999);
        let swap_p: u32 = rng.gen_range(0..100);
        let serial: u32 = rng.gen_range(1_000_000..9_999_999);
        let nonce: u32 = rng.gen();
        let labels = [
            format!("load-0-p-{load:02}"),
            format!("up-{up}"),
            format!("mem-{mem_a}-{mem_b}-0-p-{mem_p:02}"),
            format!("swap-{swap_a}-{swap_b}-0-p-{swap_p:02}"),
            format!("{serial}"),
            format!("{nonce}"),
        ];
        let mut name = apex.clone();
        for l in labels.iter().rev() {
            name = name.child(Label::new(l).expect("metric label is valid"));
        }
        name
    }
}

impl ZoneModel for TelemetryFleet {
    fn zones(&self) -> Vec<ZoneInfo> {
        self.zones
            .iter()
            .map(|(apex, op)| ZoneInfo {
                apex: apex.clone(),
                category: Category::Telemetry,
                operator: *op,
                disposable: true,
                child_depth: Some(apex.depth() + 6),
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
            let forge = NameForge::new(mix64(self.seed ^ (zi as u64)), apex.clone());
            for device in 0..self.devices_per_zone {
                // A device is one client machine; its identity is stable
                // across days.
                let client =
                    mix64(self.seed ^ 0xdead ^ ((zi * 131 + device) as u64)) % ctx.n_clients;
                for _ in 0..self.beacons_per_device {
                    // Telemetry beacons around the clock.
                    let second = rng.gen_range(0..86_400);
                    let name = self.beacon_name(apex, rng);
                    let ttl =
                        self.ttl.sample(mix64(name.presentation_len() as u64 ^ rng.gen::<u64>()));
                    let rr = Record::new(name.clone(), QType::A, ttl, forge.ipv4(rng.gen()));
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
    }

    fn describe(&self) -> String {
        format!(
            "telemetry fleet ({} zones, {} devices each)",
            self.zones.len(),
            self.devices_per_zone
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalCurve;
    use rand::SeedableRng;

    fn ctx() -> DayCtx {
        DayCtx { day: 0, epoch: 0.0, n_clients: 100, diurnal: DiurnalCurve::new([1.0; 24]) }
    }

    #[test]
    fn names_are_unique_and_under_apex() {
        let fleet = TelemetryFleet::new(2, 80, TtlModel::new(vec![(60, 1.0)]), 7);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sink = Vec::new();
        fleet.generate_day(&ctx(), 0, &mut rng, &mut sink);
        assert!(!sink.is_empty());
        let apexes: Vec<Name> = fleet.zones().iter().map(|z| z.apex.clone()).collect();
        let mut seen = std::collections::HashSet::new();
        for ev in &sink {
            assert!(
                apexes.iter().any(|a| ev.name.is_subdomain_of(a)),
                "{} not under any apex",
                ev.name
            );
            assert!(seen.insert(ev.name.clone()), "telemetry name repeated: {}", ev.name);
        }
    }

    #[test]
    fn child_depth_matches_generated_names() {
        let fleet = TelemetryFleet::new(1, 20, TtlModel::new(vec![(60, 1.0)]), 7);
        let info = &fleet.zones()[0];
        let mut rng = StdRng::seed_from_u64(2);
        let mut sink = Vec::new();
        fleet.generate_day(&ctx(), 0, &mut rng, &mut sink);
        for ev in &sink {
            assert_eq!(ev.name.depth(), info.child_depth.unwrap());
        }
    }

    #[test]
    fn volume_tracks_requested_names() {
        let fleet = TelemetryFleet::new(4, 400, TtlModel::new(vec![(60, 1.0)]), 7);
        let mut rng = StdRng::seed_from_u64(3);
        let mut sink = Vec::new();
        fleet.generate_day(&ctx(), 0, &mut rng, &mut sink);
        // 4 zones × (400/4/4 = 25 devices) × 4 beacons = 400 events.
        assert_eq!(sink.len(), 400);
    }

    #[test]
    fn deterministic_given_seeded_rng() {
        let fleet = TelemetryFleet::new(1, 40, TtlModel::new(vec![(60, 1.0)]), 9);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sink = Vec::new();
            fleet.generate_day(&ctx(), 0, &mut rng, &mut sink);
            sink
        };
        assert_eq!(run(5), run(5));
    }
}
