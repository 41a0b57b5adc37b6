//! Seeded workload generator for the pDNS store: which records are put,
//! which keys are looked up, which zones are scanned, in which order.
//!
//! The knobs are the ones a store benchmark has to vary: put and get
//! counts, get skew, miss ratio, the weighted get/put mix of the
//! interleaved phase, and the key distribution (one-shot high-entropy
//! disposable-style names against re-observed stable-zone names). The same
//! seed always yields a byte-identical op list ([`StorePlan::render`]).

use std::collections::HashSet;
use std::net::Ipv4Addr;

use dnsnoise::dns::{Name, QType, RData, Record, RrKey, Ttl};
use dnsnoise::workload::{GroundTruth, ZipfSampler};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// First-seen days spread over this window, as the pDNS benches do.
const DAYS: u64 = 30;
/// Zones scanned per sweep at most.
const MAX_SCAN_ZONES: usize = 64;

/// One operation of the interleaved phase.
#[derive(Debug, Clone, PartialEq)]
pub enum MixedOp {
    Get(RrKey),
    Put(Record, u64),
}

/// The generated op lists, one per store phase.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StorePlan {
    /// `observe` calls of the build phase, in order, with their day.
    pub build: Vec<(Record, u64)>,
    /// Point lookups: Zipf-skewed hits plus guaranteed misses.
    pub gets: Vec<RrKey>,
    /// Zone apexes of one scan sweep.
    pub scans: Vec<Name>,
    /// The interleaved get/put phase.
    pub mixed: Vec<MixedOp>,
}

#[cfg(test)]
impl StorePlan {
    /// The whole plan as text, one op per line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (record, day) in &self.build {
            let _ = writeln!(out, "P\t{day}\t{record}");
        }
        for key in &self.gets {
            let _ = writeln!(out, "G\t{key}");
        }
        for zone in &self.scans {
            let _ = writeln!(out, "S\t{zone}");
        }
        for op in &self.mixed {
            match op {
                MixedOp::Get(key) => {
                    let _ = writeln!(out, "MG\t{key}");
                }
                MixedOp::Put(record, day) => {
                    let _ = writeln!(out, "MP\t{day}\t{record}");
                }
            }
        }
        out
    }

    pub fn ops(&self) -> usize {
        self.build.len() + self.gets.len() + self.scans.len() + self.mixed.len()
    }
}

/// Builder for a synthetic store workload.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreWorkload {
    seed: u64,
    records: usize,
    disposable_share: f64,
    duplicate_ratio: f64,
    disposable_zones: usize,
    stable_zones: usize,
    gets: usize,
    gets_skew: f64,
    gets_miss_ratio: f64,
    mixed_ops: usize,
    get_weight: u32,
    put_weight: u32,
}

impl StoreWorkload {
    /// A small default mix; the setters size and shape it.
    pub fn builder(seed: u64) -> StoreWorkload {
        StoreWorkload {
            seed,
            records: 1_000,
            disposable_share: 0.5,
            duplicate_ratio: 0.0,
            disposable_zones: 4,
            stable_zones: 16,
            gets: 1_000,
            gets_skew: 1.0,
            gets_miss_ratio: 0.0,
            mixed_ops: 1_000,
            get_weight: 1,
            put_weight: 1,
        }
    }

    /// Distinct records put, and the share of extra observes that repeat
    /// an earlier record.
    pub fn records(mut self, distinct: usize, duplicate_ratio: f64) -> StoreWorkload {
        self.records = distinct;
        self.duplicate_ratio = duplicate_ratio;
        self
    }

    /// Share of one-shot disposable-style names, and how many zones each
    /// of the two key distributions spreads over.
    pub fn key_distribution(
        mut self,
        disposable_share: f64,
        disposable_zones: usize,
        stable_zones: usize,
    ) -> StoreWorkload {
        self.disposable_share = disposable_share;
        self.disposable_zones = disposable_zones;
        self.stable_zones = stable_zones;
        self
    }

    /// Point lookups: count, Zipf exponent, share that miss.
    pub fn gets(mut self, count: usize, skew: f64, miss_ratio: f64) -> StoreWorkload {
        self.gets = count;
        self.gets_skew = skew;
        self.gets_miss_ratio = miss_ratio;
        self
    }

    /// The interleaved phase: op count and the get/put weights.
    pub fn action_weights(mut self, ops: usize, gets: u32, puts: u32) -> StoreWorkload {
        self.mixed_ops = ops;
        self.get_weight = gets;
        self.put_weight = puts;
        self
    }

    /// Generates the plan.
    ///
    /// # Errors
    ///
    /// Names the parameter that makes the workload impossible.
    pub fn build(self) -> Result<StorePlan, String> {
        let ratio_ok = |v: f64| (0.0..=1.0).contains(&v);
        if self.records == 0 {
            return Err("records: must have > 0 puts".into());
        }
        if !ratio_ok(self.disposable_share)
            || !ratio_ok(self.duplicate_ratio)
            || !ratio_ok(self.gets_miss_ratio)
        {
            return Err(
                "disposable_share, duplicate_ratio and gets_miss_ratio must be in [0, 1]".into()
            );
        }
        if self.disposable_zones == 0 || self.stable_zones == 0 {
            return Err("zones: need at least one disposable and one stable zone".into());
        }
        if !(self.gets_skew.is_finite() && self.gets_skew >= 0.0) {
            return Err("gets_skew must be a non-negative number".into());
        }
        if self.get_weight + self.put_weight == 0 {
            return Err("action weights: get and put weights cannot both be 0".into());
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut names = KeySpace::new(&self);
        let total = self.records as u64;
        let mut stored: Vec<Record> = Vec::with_capacity(self.records);
        let mut build =
            Vec::with_capacity((self.records as f64 * (1.0 + self.duplicate_ratio)) as usize);
        for i in 0..self.records {
            let day = i as u64 * DAYS / total;
            let record = names.fresh(&mut rng);
            build.push((record.clone(), day));
            stored.push(record);
            if rng.gen_bool(self.duplicate_ratio) {
                let again = stored[rng.gen_range(0..stored.len())].clone();
                build.push((again, day));
            }
        }

        let keys: Vec<RrKey> = stored.iter().map(Record::key).collect();
        let popularity = Popularity::new(&mut rng, keys.len(), self.gets_skew);
        let gets = (0..self.gets)
            .map(|n| popularity.get(&mut rng, &keys, self.gets_miss_ratio, n))
            .collect();

        let mut scans: Vec<Name> = names.disposable_zones.clone();
        scans.extend(names.stable_zone_names(MAX_SCAN_ZONES.saturating_sub(scans.len())));
        scans.truncate(MAX_SCAN_ZONES);

        let weight_total = self.get_weight + self.put_weight;
        let mut mixed = Vec::with_capacity(self.mixed_ops);
        for n in 0..self.mixed_ops {
            if rng.gen_range(0..weight_total) < self.get_weight {
                mixed.push(MixedOp::Get(popularity.get(
                    &mut rng,
                    &keys,
                    self.gets_miss_ratio,
                    self.gets + n,
                )));
            } else if rng.gen_bool(self.duplicate_ratio) {
                let again = stored[rng.gen_range(0..stored.len())].clone();
                mixed.push(MixedOp::Put(again, DAYS));
            } else {
                mixed.push(MixedOp::Put(names.fresh(&mut rng), DAYS));
            }
        }
        Ok(StorePlan { build, gets, scans, mixed })
    }
}

/// Generates never-repeating record names in the two key distributions.
struct KeySpace {
    disposable_share: f64,
    disposable_zones: Vec<Name>,
    stable_zones: usize,
    /// Hosts handed out so far per stable zone.
    stable_hosts: Vec<u32>,
    issued: u64,
}

impl KeySpace {
    fn new(w: &StoreWorkload) -> KeySpace {
        KeySpace {
            disposable_share: w.disposable_share,
            disposable_zones: (0..w.disposable_zones)
                .map(|z| parse_name(&format!("svc{z:02}.metrics.example.com")))
                .collect(),
            stable_zones: w.stable_zones,
            stable_hosts: vec![0; w.stable_zones],
            issued: 0,
        }
    }

    fn stable_zone(zone: usize) -> String {
        format!("site{zone:05}.example.org")
    }

    fn stable_zone_names(&self, limit: usize) -> Vec<Name> {
        (0..self.stable_zones.min(limit)).map(|z| parse_name(&KeySpace::stable_zone(z))).collect()
    }

    /// A record no earlier call returned.
    fn fresh(&mut self, rng: &mut StdRng) -> Record {
        let salt = rng.next_u64();
        let serial = self.issued;
        self.issued += 1;
        let name = if rng.gen_bool(self.disposable_share) {
            // One-shot, high-entropy label first, as disposable names
            // encode their payload.
            let zone =
                &self.disposable_zones[(serial % self.disposable_zones.len() as u64) as usize];
            format!("{:06x}-{serial:07x}.{zone}", salt & 0xff_ffff)
        } else {
            let zone = (salt >> 24) as usize % self.stable_zones;
            let host = self.stable_hosts[zone];
            self.stable_hosts[zone] += 1;
            format!("h{host}.{}", KeySpace::stable_zone(zone))
        };
        let ip = Ipv4Addr::from((salt >> 32) as u32);
        Record::new(parse_name(&name), QType::A, Ttl::from_secs(60), RData::A(ip))
    }
}

/// Zipf-ranked popularity over a shuffled key order, so the hot keys are
/// spread over zones and first-seen days.
struct Popularity {
    zipf: ZipfSampler,
    order: Vec<usize>,
}

impl Popularity {
    fn new(rng: &mut StdRng, keys: usize, skew: f64) -> Popularity {
        let mut order: Vec<usize> = (0..keys).collect();
        order.shuffle(rng);
        Popularity { zipf: ZipfSampler::new(keys, skew), order }
    }

    /// The `n`-th lookup key: a miss with probability `miss_ratio`, else
    /// a Zipf-ranked stored key.
    fn get(&self, rng: &mut StdRng, keys: &[RrKey], miss_ratio: f64, n: usize) -> RrKey {
        if rng.gen_bool(miss_ratio) {
            let near = &keys[self.order[self.zipf.sample(rng)]];
            miss_key(near, n)
        } else {
            keys[self.order[self.zipf.sample(rng)]].clone()
        }
    }
}

/// A key that was never stored, next to `near` in key order (same parent
/// zone), so a miss costs a real index probe rather than a range check.
fn miss_key(near: &RrKey, n: usize) -> RrKey {
    let parent = near.name.parent().unwrap_or_else(Name::root);
    let name = parse_name(&format!("zz-miss-{n:07x}.{parent}"));
    RrKey { name, qtype: QType::A, rdata: RData::A(Ipv4Addr::new(192, 0, 2, 1)) }
}

fn parse_name(text: &str) -> Name {
    text.trim_end_matches('.').parse().expect("generated names are valid")
}

/// The store workload a replayed day implies. `build` is every answer
/// record the monitoring point saw, in event order (what a pDNS collector
/// below the recursives observes); lookups are Zipf-skewed over the day's
/// distinct records, and the scanned zones are the scenario's ground-truth
/// zones.
pub fn plan_from_answers(
    build: Vec<(Record, u64)>,
    gt: &GroundTruth,
    seed: u64,
    gets: usize,
    mixed_ops: usize,
) -> StorePlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: HashSet<RrKey> = HashSet::new();
    let keys: Vec<RrKey> = build
        .iter()
        .map(|(record, _)| record.key())
        .filter(|key| seen.insert(key.clone()))
        .collect();
    if keys.is_empty() {
        return StorePlan::default();
    }
    let popularity = Popularity::new(&mut rng, keys.len(), 1.0);
    let gets = (0..gets).map(|n| popularity.get(&mut rng, &keys, 0.1, n)).collect();
    let scans = gt
        .disposable_zones()
        .chain(gt.nondisposable_zones())
        .map(|z| z.apex.clone())
        .take(MAX_SCAN_ZONES)
        .collect();
    let mixed = (0..mixed_ops)
        .map(|n| {
            if rng.gen_range(0..100u32) < 80 {
                MixedOp::Get(popularity.get(&mut rng, &keys, 0.1, gets_offset(n)))
            } else {
                let (record, day) = &build[rng.gen_range(0..build.len())];
                MixedOp::Put(record.clone(), *day)
            }
        })
        .collect();
    StorePlan { build, gets, scans, mixed }
}

/// Miss serials of the mixed phase start past any the get phase used.
fn gets_offset(n: usize) -> usize {
    (1 << 27) + n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> StoreWorkload {
        StoreWorkload::builder(seed)
            .records(1_200, 0.3)
            .gets(4_000, 1.0, 0.1)
            .action_weights(800, 80, 20)
    }

    #[test]
    fn same_seed_gives_a_byte_identical_op_list() {
        let a = small(11).build().unwrap().render();
        let b = small(11).build().unwrap().render();
        assert_eq!(a, b);
        assert_ne!(a, small(12).build().unwrap().render(), "the seed feeds the generator");
    }

    #[test]
    fn plan_follows_its_parameters() {
        let plan = StoreWorkload::builder(3)
            .records(2_000, 0.3)
            .key_distribution(0.6, 8, 50)
            .gets(5_000, 1.0, 0.1)
            .action_weights(4_000, 80, 20)
            .build()
            .unwrap();
        let distinct: HashSet<RrKey> = plan.build.iter().map(|(r, _)| r.key()).collect();
        assert_eq!(distinct.len(), 2_000, "fresh names never collide");
        let dups = plan.build.len() - 2_000;
        assert!((450..=750).contains(&dups), "about 30% duplicate observes, got {dups}");
        let disposable =
            distinct.iter().filter(|k| k.name.to_string().ends_with("metrics.example.com")).count();
        assert!(
            (1_050..=1_350).contains(&disposable),
            "about 60% disposable names, got {disposable}"
        );
        let misses = plan.gets.iter().filter(|k| !distinct.contains(k)).count();
        assert!((350..=650).contains(&misses), "about 10% misses, got {misses}");
        let mixed_gets = plan.mixed.iter().filter(|op| matches!(op, MixedOp::Get(_))).count();
        assert!((3_000..=3_400).contains(&mixed_gets), "about 80% gets, got {mixed_gets}");
        assert_eq!(plan.scans.len(), 8 + 50);
        // Zipf skew: the most popular key is looked up far more often than
        // a uniform draw over 2000 keys would allow.
        let mut counts = std::collections::HashMap::new();
        for key in &plan.gets {
            *counts.entry(key).or_insert(0usize) += 1;
        }
        assert!(counts.values().max().copied().unwrap_or(0) > 100);
    }

    #[test]
    fn impossible_parameters_are_named() {
        assert!(StoreWorkload::builder(1).records(0, 0.3).build().unwrap_err().contains("puts"));
        assert!(small(1).gets(10, -1.0, 0.1).build().unwrap_err().contains("gets_skew"));
        assert!(small(1).gets(10, 1.0, 1.5).build().unwrap_err().contains("gets_miss_ratio"));
        assert!(small(1).action_weights(10, 0, 0).build().unwrap_err().contains("weights"));
        assert!(small(1).key_distribution(0.5, 0, 10).build().unwrap_err().contains("zones"));
    }
}
