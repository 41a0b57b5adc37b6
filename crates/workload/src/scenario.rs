//! Scenario composition: the full ISP workload with ground truth.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use dnsnoise_dns::Name;

use crate::diurnal::DiurnalCurve;
use crate::event::QueryEvent;
use crate::namegen::mix64;
use crate::ttl::TtlModel;
use crate::zone::{Category, DayCtx, Operator, ZoneModel};
use crate::zones::{
    AvReputation, CdnFleet, DnsblFleet, Ipv6Experiment, LongTail, NxNoise, PopularSites,
    PortalFleet, TelemetryFleet, TrackerFleet,
};

/// Ground-truth descriptor for one zone a model operates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZoneInfo {
    /// The zone apex (e.g. `avqs.mcafee.com`).
    pub apex: Name,
    /// Behavioural class.
    pub category: Category,
    /// Operating organisation.
    pub operator: Operator,
    /// Whether children of this zone are disposable (ground truth).
    pub disposable: bool,
    /// For disposable zones: the absolute label depth at which the
    /// machine-generated children live.
    pub child_depth: Option<usize>,
}

/// Scenario parameters. The paper's six measurement days are expressed as
/// an *epoch* `t ∈ [0, 1]` interpolating February 2011 (`t = 0`) to
/// December 2011 (`t = 1`); all volumes and the disposable share grow with
/// `t` following §V-C2 (Fig. 13).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Growth epoch in `[0, 1]`.
    pub epoch: f64,
    /// Global volume multiplier. `1.0` ≈ 1/1000 of the paper's daily
    /// volumes; tests use much smaller values.
    pub scale: f64,
    /// Client population behind the cluster.
    pub n_clients: u64,
    /// Day-over-day growth of the IPv6 experiment inside a multi-day trace
    /// (Fig. 5 observes ≈+25% over 13 days ⇒ ≈0.018/day).
    pub ipv6_daily_growth: f64,
    /// Below-the-recursives responses per unique resolved name per day.
    /// The paper's ratio is ~300 (billions of responses over ~20M uniques);
    /// 40 is enough to reproduce the caching behaviour at tractable cost.
    pub events_per_unique: f64,
}

impl ScenarioConfig {
    /// A paper-calibrated configuration at growth epoch `t` (clamped to
    /// `[0, 1]`). `t = 0.0` ≈ 02/01/2011, `t = 1.0` ≈ 12/30/2011.
    pub fn paper_epoch(t: f64) -> Self {
        let t = t.clamp(0.0, 1.0);
        ScenarioConfig {
            epoch: t,
            scale: 1.0,
            n_clients: 4_000,
            ipv6_daily_growth: 0.018,
            events_per_unique: 40.0,
        }
    }

    /// The six sampled measurement days of §V-C (02/01, 09/02, 09/13,
    /// 11/14, 11/29, 12/30) as `(label, epoch)` pairs.
    pub fn paper_days() -> Vec<(&'static str, f64)> {
        vec![
            ("02/01/2011", 0.0),
            ("09/02/2011", 0.58),
            ("09/13/2011", 0.61),
            ("11/14/2011", 0.80),
            ("11/29/2011", 0.84),
            ("12/30/2011", 1.0),
        ]
    }

    /// Returns the config with a new scale.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.scale = scale;
        self.n_clients = ((4_000.0 * scale) as u64).max(16);
        self
    }

    /// Returns the config with an explicit client count.
    pub fn with_clients(mut self, n: u64) -> Self {
        assert!(n > 0, "client population must be positive");
        self.n_clients = n;
        self
    }

    // ---- Derived volume targets (per day, already scaled) ----

    fn scaled(&self, base: f64) -> usize {
        ((base * self.scale).round() as usize).max(1)
    }

    /// Target unique successfully-resolved names per day.
    pub fn resolved_uniques(&self) -> usize {
        self.scaled(20_000.0 + 10_000.0 * self.epoch)
    }

    /// Target unique disposable names per day (drives Fig. 13's
    /// 27.6%→37.2% resolved share). The budget share is set slightly above
    /// the paper's measured share because the long-tail pool realises a few
    /// percent more uniques than its own budget (empirical calibration).
    pub fn disposable_uniques(&self) -> usize {
        let share = 0.31 + 0.11 * self.epoch;
        ((self.resolved_uniques() as f64) * share).round() as usize
    }

    /// Target unique NXDOMAIN names per day (drives the queried-domain
    /// share of 23.1%→27.6%).
    pub fn nx_uniques(&self) -> usize {
        let queried_share = 0.231 + 0.045 * self.epoch;
        let queried_total = self.disposable_uniques() as f64 / queried_share;
        (queried_total - self.resolved_uniques() as f64).round().max(0.0) as usize
    }

    /// Target total below-the-recursives responses per day.
    pub fn below_events(&self) -> usize {
        ((self.resolved_uniques() as f64) * self.events_per_unique).round() as usize
    }

    /// Returns the config with a different volume multiplier (responses
    /// per unique name per day).
    pub fn with_events_per_unique(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0, "events-per-unique must be positive");
        self.events_per_unique = ratio;
        self
    }

    /// Number of disposable zones per category at this epoch:
    /// `(telemetry, av, tracker, dnsbl)` — the IPv6 experiment always
    /// contributes two zones (probe + collector). At `t = 1` the total is
    /// 398, matching the size of the paper's labeled disposable class.
    pub fn disposable_zone_counts(&self) -> (usize, usize, usize, usize) {
        let t = self.epoch;
        let tel = (10.0 + 30.0 * t).round() as usize;
        let av = (6.0 + 14.0 * t).round() as usize;
        let trk = (60.0 + 246.0 * t).round() as usize;
        let bl = (8.0 + 22.0 * t).round() as usize;
        (tel, av, trk, bl)
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig::paper_epoch(0.0)
    }
}

/// One generated day of traffic.
#[derive(Debug, Clone)]
pub struct DayTrace {
    /// Zero-based day index.
    pub day: u64,
    /// Time-sorted query events.
    pub events: Vec<QueryEvent>,
}

/// Ground truth about every zone in a scenario.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    zones: Vec<ZoneInfo>,
    by_apex: HashMap<Name, usize>,
    /// Category per model tag (covers models like the long tail that do
    /// not enumerate zones).
    tag_category: Vec<Category>,
}

impl GroundTruth {
    /// All known zones.
    pub fn zones(&self) -> &[ZoneInfo] {
        &self.zones
    }

    /// Looks up the zone owning `name` via longest-suffix match.
    pub fn zone_of(&self, name: &Name) -> Option<&ZoneInfo> {
        for k in (1..=name.depth()).rev() {
            let suffix = name.nld(k).expect("k <= depth");
            if let Some(&i) = self.by_apex.get(&suffix) {
                return Some(&self.zones[i]);
            }
        }
        None
    }

    /// Whether `name` falls under a disposable zone.
    pub fn is_disposable_name(&self, name: &Name) -> bool {
        self.zone_of(name).is_some_and(|z| z.disposable)
    }

    /// The operator owning `name`, if known.
    pub fn operator_of(&self, name: &Name) -> Option<Operator> {
        self.zone_of(name).map(|z| z.operator)
    }

    /// The ground-truth category of a model tag.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is out of range.
    pub fn category_of_tag(&self, tag: u32) -> Category {
        self.tag_category[tag as usize]
    }

    /// The ground-truth category of a model tag, or `None` when the tag
    /// does not belong to this scenario — e.g. the
    /// [`ATTACK_TAG`](crate::ATTACK_TAG) carried by injected flood
    /// traffic, or sentinel tags in replayed traces.
    pub fn try_category_of_tag(&self, tag: u32) -> Option<Category> {
        self.tag_category.get(tag as usize).copied()
    }

    /// Whether events with this tag come from a disposable class.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is out of range.
    pub fn tag_is_disposable(&self, tag: u32) -> bool {
        self.category_of_tag(tag).is_disposable()
    }

    /// All disposable zones.
    pub fn disposable_zones(&self) -> impl Iterator<Item = &ZoneInfo> {
        self.zones.iter().filter(|z| z.disposable)
    }

    /// All non-disposable zones.
    pub fn nondisposable_zones(&self) -> impl Iterator<Item = &ZoneInfo> {
        self.zones.iter().filter(|z| !z.disposable)
    }
}

/// A full ISP workload: the composed zone models plus ground truth.
pub struct Scenario {
    config: ScenarioConfig,
    seed: u64,
    models: Vec<Box<dyn ZoneModel>>,
    ground_truth: GroundTruth,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("config", &self.config)
            .field("seed", &self.seed)
            .field("models", &self.models.len())
            .field("zones", &self.ground_truth.zones().len())
            .finish()
    }
}

impl Scenario {
    /// Composes the paper-calibrated scenario from a config and seed.
    pub fn new(config: ScenarioConfig, seed: u64) -> Self {
        let t = config.epoch;
        let d = config.disposable_uniques() as f64;
        let (n_tel, n_av, n_trk, n_bl) = config.disposable_zone_counts();
        let disp_ttl = || TtlModel::disposable_epoch(t);

        // Disposable-name budget split across categories (§2 of DESIGN.md).
        let ipv6_names = 0.60 * d;
        let av_names = 0.14 * d;
        let tel_names = 0.08 * d;
        let trk_names = 0.10 * d;
        let bl_names = 0.08 * d;

        // Sessions mint ~2.5 probe names each.
        let ipv6_sessions = (ipv6_names / 2.5).round() as usize;

        // Non-disposable unique-name budget, split across classes. The
        // pools are sized so realised uniques land near the budget (Zipf
        // coverage calibrated empirically).
        let n = (config.resolved_uniques() - config.disposable_uniques()) as f64;
        let cdn_uniques = 0.15 * n;
        let popular_uniques = 0.12 * n;
        let portal_uniques = 0.08 * n;
        let longtail_uniques = n - cdn_uniques - popular_uniques - portal_uniques;
        // Popular sites expose ~4 hostnames on average; cap at the paper's
        // 520-site Alexa-like population.
        let popular_sites = ((popular_uniques / 4.0).round() as usize).clamp(20, 520);

        let below = config.below_events() as f64;
        let cdn_events = 0.21 * below;
        let longtail_events = 1.25 * longtail_uniques;
        let portal_events_per_name = 6.0;
        let nx_events = 0.06 * below;
        let disposable_events = 1.15 * d;
        let popular_events = (below
            - cdn_events
            - longtail_events
            - portal_events_per_name * portal_uniques
            - nx_events
            - disposable_events)
            .max(1_000.0 * config.scale);

        let models: Vec<Box<dyn ZoneModel>> = vec![
            Box::new(Ipv6Experiment::new(
                ipv6_sessions.max(1),
                config.ipv6_daily_growth,
                disp_ttl(),
                mix64(seed ^ 1),
            )),
            Box::new(AvReputation::new(n_av, av_names as usize, disp_ttl(), mix64(seed ^ 2))),
            Box::new(TelemetryFleet::new(n_tel, tel_names as usize, disp_ttl(), mix64(seed ^ 3))),
            Box::new(TrackerFleet::new(n_trk, trk_names as usize, disp_ttl(), mix64(seed ^ 4))),
            Box::new(DnsblFleet::new(n_bl, bl_names as usize, disp_ttl(), mix64(seed ^ 5))),
            Box::new(CdnFleet::new(
                // A pool well beyond the unique budget with a steep Zipf:
                // a hot head plus a once-a-day tail (the paper's
                // "extremely unpopular content" under CDN sub-zones).
                ((cdn_uniques * 3.0 / 6.0) as usize).max(10),
                ((cdn_uniques * 0.05) as usize).max(5),
                cdn_events as usize,
                TtlModel::cdn(),
                mix64(seed ^ 6),
            )),
            Box::new(PopularSites::new(
                popular_sites,
                popular_events as usize,
                TtlModel::popular(),
                mix64(seed ^ 7),
            )),
            Box::new(PortalFleet::new(
                ((portal_uniques / 90.0).round() as usize).clamp(4, 40),
                portal_uniques as usize,
                portal_events_per_name,
                TtlModel::long_tail(),
                mix64(seed ^ 10),
            )),
            Box::new(LongTail::new(
                ((longtail_uniques * 12.0) as usize).max(100),
                longtail_events as usize,
                TtlModel::long_tail(),
                mix64(seed ^ 8),
            )),
            Box::new(NxNoise::new(config.nx_uniques().max(1), nx_events as usize, mix64(seed ^ 9))),
        ];
        let tag_category = vec![
            Category::Ipv6Experiment,
            Category::AvReputation,
            Category::Telemetry,
            Category::Tracker,
            Category::Dnsbl,
            Category::Cdn,
            Category::Popular,
            Category::Portal,
            Category::LongTail,
            Category::NxNoise,
        ];

        let mut zones = Vec::new();
        for m in &models {
            zones.extend(m.zones());
        }
        let by_apex = zones.iter().enumerate().map(|(i, z)| (z.apex.clone(), i)).collect();
        let ground_truth = GroundTruth { zones, by_apex, tag_category };

        Scenario { config, seed, models, ground_truth }
    }

    /// The scenario configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Ground truth for every zone.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.ground_truth
    }

    /// Human-readable descriptions of the composed models.
    pub fn describe_models(&self) -> Vec<String> {
        self.models.iter().map(|m| m.describe()).collect()
    }

    /// Generates one day of traffic, time-sorted. Zone models run on
    /// scoped threads (each owns an independent seeded RNG, so the result
    /// is identical to the sequential order).
    pub fn generate_day(&self, day: u64) -> DayTrace {
        let ctx = DayCtx {
            day,
            epoch: self.config.epoch,
            n_clients: self.config.n_clients,
            diurnal: DiurnalCurve::residential(),
        };
        let per_model: Vec<Vec<QueryEvent>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .models
                .iter()
                .enumerate()
                .map(|(tag, model)| {
                    let ctx = ctx.clone();
                    let seed = mix64(self.seed ^ ((tag as u64) << 32) ^ day);
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let mut sink = Vec::new();
                        model.generate_day(&ctx, tag as u32, &mut rng, &mut sink);
                        sink
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("zone model panicked")).collect()
        });
        let mut events: Vec<QueryEvent> = per_model.into_iter().flatten().collect();
        events.sort_by_key(|e| (e.time, e.client, e.name.presentation_len()));
        DayTrace { day, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_scenario(t: f64) -> Scenario {
        Scenario::new(ScenarioConfig::paper_epoch(t).with_scale(0.05), 99)
    }

    #[test]
    fn events_are_sorted_and_tagged() {
        let s = small_scenario(0.0);
        let day = s.generate_day(0);
        assert!(!day.events.is_empty());
        assert!(day.events.windows(2).all(|w| w[0].time <= w[1].time));
        for ev in &day.events {
            // Every tag resolves to a category.
            let _ = s.ground_truth().category_of_tag(ev.zone_tag);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_scenario(0.5).generate_day(2);
        let b = small_scenario(0.5).generate_day(2);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn ground_truth_matches_tags() {
        let s = small_scenario(0.0);
        let day = s.generate_day(0);
        let gt = s.ground_truth();
        for ev in day.events.iter().take(5_000) {
            let by_tag = gt.tag_is_disposable(ev.zone_tag);
            // Name-based lookup agrees wherever the zone is enumerated
            // (long tail and nx noise are tag-only).
            if let Some(zone) = gt.zone_of(&ev.name) {
                assert_eq!(zone.disposable, by_tag, "{}", ev.name);
            }
        }
    }

    #[test]
    fn disposable_unique_share_tracks_epoch() {
        for (t, lo, hi) in [(0.0, 0.20, 0.36), (1.0, 0.29, 0.47)] {
            let s = Scenario::new(ScenarioConfig::paper_epoch(t).with_scale(0.25), 99);
            let day = s.generate_day(0);
            let gt = s.ground_truth();
            let mut resolved: HashSet<&Name> = HashSet::new();
            let mut disposable: HashSet<&Name> = HashSet::new();
            for ev in &day.events {
                if !ev.outcome.is_nxdomain() {
                    resolved.insert(&ev.name);
                    if gt.tag_is_disposable(ev.zone_tag) {
                        disposable.insert(&ev.name);
                    }
                }
            }
            let share = disposable.len() as f64 / resolved.len() as f64;
            assert!(
                (lo..hi).contains(&share),
                "epoch {t}: disposable share of resolved uniques = {share:.3}"
            );
        }
    }

    #[test]
    fn nxdomain_share_of_below_traffic_is_small() {
        let s = small_scenario(0.5);
        let day = s.generate_day(0);
        let nx = day.events.iter().filter(|e| e.outcome.is_nxdomain()).count();
        let share = nx as f64 / day.events.len() as f64;
        assert!((0.02..0.15).contains(&share), "nx share below = {share:.3}");
    }

    #[test]
    fn disposable_zone_total_is_398_at_epoch_one() {
        let cfg = ScenarioConfig::paper_epoch(1.0);
        let (tel, av, trk, bl) = cfg.disposable_zone_counts();
        assert_eq!(tel + av + trk + bl + 2, 398); // +2 = IPv6 probe + collector zones
        let s = Scenario::new(cfg.with_scale(0.05), 1);
        assert_eq!(s.ground_truth().disposable_zones().count(), 398);
    }

    #[test]
    fn operator_lookup_finds_google_and_akamai() {
        let s = small_scenario(0.0);
        let gt = s.ground_truth();
        assert_eq!(gt.operator_of(&"www.google.com".parse().unwrap()), Some(Operator::Google));
        assert_eq!(
            gt.operator_of(&"p2.x.y.1.i1.ds.ipv6-exp.l.google.com".parse().unwrap()),
            Some(Operator::Google)
        );
        assert_eq!(gt.operator_of(&"e5.akamaiedge.net".parse().unwrap()), Some(Operator::Akamai));
        assert_eq!(gt.operator_of(&"unknown.zz".parse().unwrap()), None);
    }
}
