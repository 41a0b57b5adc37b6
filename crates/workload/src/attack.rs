//! Random-subdomain ("water torture") flood generation.
//!
//! A botnet floods a victim zone with queries for one-shot machine-
//! generated children (`<random-label>.victim.example`). Every query
//! misses every cache and produces NXDOMAIN upstream, so the flood
//! saturates the recursive's outbound path and poisons its negative
//! cache — structurally the same name shape as the paper's disposable
//! domains, which is exactly why the miner must be exercised against it.
//!
//! The plan is expressed in the same semicolon `key=value` text grammar
//! as [`FaultPlan`](../../dnsnoise_resolver/struct.FaultPlan.html):
//!
//! ```text
//! seed=7;victim=www.example.com;surge=28800,57600,8;clients=500;labellen=12;entropy=hex
//! ```
//!
//! Flood generation is a pure function of `(plan, day, baseline qps)` —
//! no scheduling-dependent state — so an attacked trace is as
//! deterministic as a clean one.

use std::fmt;
use std::str::FromStr;

use dnsnoise_dns::{Name, QType, Timestamp, MAX_NAME_LEN};

use crate::event::{Outcome, QueryEvent};
use crate::namegen::{label_alnum, label_base32, label_hex, mix64};
use crate::scenario::DayTrace;

/// `zone_tag` carried by injected flood events. Distinct from the
/// `u32::MAX` tag of replayed traces so observers can tell attack traffic
/// from untagged traffic; both are outside any scenario's zone table.
pub const ATTACK_TAG: u32 = u32::MAX - 1;

/// Client-id base for botnet members, far above any scenario's client
/// population so flood sources never collide with legitimate stubs.
pub const ATTACK_CLIENT_BASE: u64 = 1 << 40;

/// Largest botnet a plan may name: client ids run from
/// [`ATTACK_CLIENT_BASE`] up to `u64::MAX`, so a larger one would wrap
/// its ids below the base, where flood clients pass as legitimate ones.
const MAX_CLIENTS: u64 = u64::MAX - ATTACK_CLIENT_BASE + 1;

/// Largest surge multiplier a plan may name. The flood is generated
/// whole, so its size must stay a bounded multiple of the day's own
/// traffic: every caller floods at 40× or less, and a finite but huge
/// multiplier would ask for ~2^64 events.
const MAX_SURGE_MULTIPLIER: f64 = 100.0;

/// Alphabet used for the flood's random labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LabelEntropy {
    /// Lowercase hex — the profile of hash-style disposable names.
    #[default]
    Hex,
    /// Base32-flavoured lowercase (McAfee-style).
    Base32,
    /// Full alphanumeric.
    Alnum,
}

impl LabelEntropy {
    fn as_str(self) -> &'static str {
        match self {
            LabelEntropy::Hex => "hex",
            LabelEntropy::Base32 => "base32",
            LabelEntropy::Alnum => "alnum",
        }
    }
}

/// One attack burst: `[start, end)` in seconds within the day, flooding
/// at `multiplier` × the trace's baseline average QPS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurgeWindow {
    /// First flooded second of the day (inclusive).
    pub start: u64,
    /// First quiet second (exclusive).
    pub end: u64,
    /// Flood rate as a multiple of the day's average legitimate QPS.
    pub multiplier: f64,
}

/// A seeded random-subdomain flood plan.
///
/// # Examples
///
/// ```
/// use dnsnoise_workload::AttackPlan;
///
/// let plan: AttackPlan = "seed=7;victim=cdn.example.com;surge=3600,7200,4".parse()?;
/// assert!(!plan.is_empty());
/// assert_eq!(plan.to_string(), "seed=7;victim=cdn.example.com;surge=3600,7200,4");
/// # Ok::<(), dnsnoise_workload::AttackSpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AttackPlan {
    /// Seed deriving all flood randomness (labels, client spread).
    pub seed: u64,
    /// Zones under attack; flood names are direct children of these.
    pub victims: Vec<Name>,
    /// Number of distinct botnet client ids the flood is spread over.
    pub clients: u64,
    /// Length of the random label, in characters.
    pub label_len: usize,
    /// Alphabet of the random label.
    pub entropy: LabelEntropy,
    /// When, and how hard, the flood runs.
    pub surges: Vec<SurgeWindow>,
}

impl Default for AttackPlan {
    fn default() -> Self {
        AttackPlan {
            seed: 0,
            victims: Vec::new(),
            clients: 500,
            label_len: 12,
            entropy: LabelEntropy::default(),
            surges: Vec::new(),
        }
    }
}

/// A malformed attack spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackSpecError(String);

impl fmt::Display for AttackSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad attack spec: {}", self.0)
    }
}

impl std::error::Error for AttackSpecError {}

fn parse_num<T: FromStr>(what: &str, s: &str) -> Result<T, AttackSpecError> {
    s.trim().parse().map_err(|_| AttackSpecError(format!("bad {what}: {s}")))
}

impl FromStr for AttackPlan {
    type Err = AttackSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = AttackPlan::default();
        for clause in s.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| AttackSpecError(format!("clause without '=': {clause}")))?;
            match key.trim() {
                "seed" => plan.seed = parse_num("seed", value)?,
                "victim" => {
                    let victim = value.trim();
                    if victim.is_empty() || victim == "." {
                        return Err(AttackSpecError("victim must name a zone".into()));
                    }
                    plan.victims.push(
                        victim.parse().map_err(|e| AttackSpecError(format!("bad victim: {e}")))?,
                    );
                }
                "clients" => {
                    plan.clients = parse_num("clients", value)?;
                    if plan.clients == 0 {
                        return Err(AttackSpecError("clients must be positive".into()));
                    }
                    if plan.clients > MAX_CLIENTS {
                        return Err(AttackSpecError(format!(
                            "clients {} above {MAX_CLIENTS}: flood client ids would wrap \
                             below {ATTACK_CLIENT_BASE}",
                            plan.clients
                        )));
                    }
                }
                "labellen" => {
                    plan.label_len = parse_num("labellen", value)?;
                    if !(1..=63).contains(&plan.label_len) {
                        return Err(AttackSpecError(format!(
                            "labellen {} outside 1..=63",
                            plan.label_len
                        )));
                    }
                }
                "entropy" => {
                    plan.entropy = match value.trim() {
                        "hex" => LabelEntropy::Hex,
                        "base32" => LabelEntropy::Base32,
                        "alnum" => LabelEntropy::Alnum,
                        other => return Err(AttackSpecError(format!("unknown entropy {other}"))),
                    }
                }
                "surge" => {
                    let parts: Vec<&str> = value.split(',').collect();
                    if parts.len() != 3 {
                        return Err(AttackSpecError(format!(
                            "surge needs start,end,multiplier: {value}"
                        )));
                    }
                    let start: u64 = parse_num("surge start", parts[0])?;
                    let end: u64 = parse_num("surge end", parts[1])?;
                    let multiplier: f64 = parse_num("surge multiplier", parts[2])?;
                    if start >= end || end > 86_400 {
                        return Err(AttackSpecError(format!(
                            "surge window {start},{end} is not a sub-day range"
                        )));
                    }
                    if !(multiplier > 0.0 && multiplier.is_finite()) {
                        return Err(AttackSpecError(format!("bad surge multiplier {multiplier}")));
                    }
                    if multiplier > MAX_SURGE_MULTIPLIER {
                        return Err(AttackSpecError(format!(
                            "surge multiplier {} above {MAX_SURGE_MULTIPLIER}: \
                             the flood is built whole in memory",
                            parts[2].trim()
                        )));
                    }
                    plan.surges.push(SurgeWindow { start, end, multiplier });
                }
                other => return Err(AttackSpecError(format!("unknown clause {other}"))),
            }
        }
        // Checked once every clause is read, so `labellen` may come
        // before or after the victims it lengthens.
        if let Some(longest) = plan.victims.iter().map(Name::presentation_len).max() {
            if longest + 1 + plan.label_len > MAX_NAME_LEN {
                return Err(AttackSpecError(format!(
                    "a {}-character label under a {longest}-character victim \
                     exceeds {MAX_NAME_LEN} characters",
                    plan.label_len
                )));
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for AttackPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let defaults = AttackPlan::default();
        let mut clauses: Vec<String> = Vec::new();
        if self.seed != defaults.seed {
            clauses.push(format!("seed={}", self.seed));
        }
        for victim in &self.victims {
            clauses.push(format!("victim={victim}"));
        }
        for surge in &self.surges {
            clauses.push(format!("surge={},{},{}", surge.start, surge.end, surge.multiplier));
        }
        if self.clients != defaults.clients {
            clauses.push(format!("clients={}", self.clients));
        }
        if self.label_len != defaults.label_len {
            clauses.push(format!("labellen={}", self.label_len));
        }
        if self.entropy != defaults.entropy {
            clauses.push(format!("entropy={}", self.entropy.as_str()));
        }
        write!(f, "{}", clauses.join(";"))
    }
}

impl AttackPlan {
    /// `true` when the plan floods nothing (no victims or no surges).
    pub fn is_empty(&self) -> bool {
        self.victims.is_empty() || self.surges.is_empty()
    }

    /// Generates the flood events for `day` against a trace whose average
    /// legitimate rate is `baseline_qps`, time-sorted.
    ///
    /// Every event is an NXDOMAIN query for a fresh random child of a
    /// victim zone, attributed to one of [`AttackPlan::clients`] botnet
    /// ids starting at [`ATTACK_CLIENT_BASE`], tagged [`ATTACK_TAG`].
    pub fn flood_events(&self, day: u64, baseline_qps: f64) -> Vec<QueryEvent> {
        if self.is_empty() {
            return Vec::new();
        }
        let day_start = day * 86_400;
        let mut events = Vec::new();
        // One global counter across every surge: each flood event's
        // randomness is a pure function of (seed, day, counter).
        let mut counter: u64 = 0;
        for surge in &self.surges {
            let qps = baseline_qps * surge.multiplier;
            let mut emitted = 0u64;
            for s in surge.start..surge.end {
                let target = ((s + 1 - surge.start) as f64 * qps).floor() as u64;
                for _ in emitted..target {
                    let h = mix64(self.seed ^ mix64(day ^ 0xa77a_c4ed).wrapping_add(counter));
                    let victim = &self.victims[(h % self.victims.len() as u64) as usize];
                    let label_seed = mix64(h ^ 0x001a_be15_eed5);
                    let label = match self.entropy {
                        LabelEntropy::Hex => label_hex(label_seed, self.label_len),
                        LabelEntropy::Base32 => label_base32(label_seed, self.label_len),
                        LabelEntropy::Alnum => label_alnum(label_seed, self.label_len),
                    };
                    let client = ATTACK_CLIENT_BASE + mix64(h ^ 0xb07ae7) % self.clients;
                    events.push(QueryEvent {
                        time: Timestamp::from_secs(day_start + s),
                        client,
                        name: victim.child(label),
                        qtype: QType::A,
                        outcome: Outcome::NxDomain,
                        zone_tag: ATTACK_TAG,
                    });
                    counter += 1;
                }
                emitted = target;
            }
        }
        // Surge windows may overlap or be listed out of order; emit in
        // the same canonical order `inject` restores on the full trace.
        events.sort_by_key(|e| (e.time, e.client, e.name.presentation_len()));
        events
    }

    /// Injects this plan's flood into `trace`, preserving the scenario's
    /// canonical event order (`(time, client, name-length)` stable sort).
    ///
    /// The baseline rate is measured from the trace itself, so
    /// `multiplier` means "× the day's real average load".
    pub fn inject(&self, trace: &mut DayTrace) {
        if self.is_empty() || trace.events.is_empty() {
            return;
        }
        let baseline_qps = trace.events.len() as f64 / 86_400.0;
        let flood = self.flood_events(trace.day, baseline_qps);
        trace.events.extend(flood);
        trace.events.sort_by_key(|e| (e.time, e.client, e.name.presentation_len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &str) -> AttackPlan {
        spec.parse().expect("valid spec")
    }

    #[test]
    fn spec_round_trips() {
        let specs = [
            "seed=7;victim=cdn.example.com;surge=28800,57600,8",
            "victim=a.com;victim=b.net;surge=0,3600,2.5;clients=64;labellen=20;entropy=base32",
            "",
        ];
        for spec in specs {
            let parsed = plan(spec);
            let rendered = parsed.to_string();
            assert_eq!(plan(&rendered), parsed, "round-trip of {spec:?}");
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "nonsense",
            "surge=10,5,2;victim=x.com",
            "surge=0,90000,2;victim=x.com",
            "surge=0,100,0;victim=x.com",
            "surge=0,100;victim=x.com",
            "labellen=0",
            "labellen=64",
            "clients=0",
            "entropy=emoji",
            "victim=",
            "clients=18446744073709551615",
            "surge=0,100,100.5;victim=x.com",
        ] {
            assert!(bad.parse::<AttackPlan>().is_err(), "accepted {bad:?}");
        }
    }

    /// A victim of `len` presentation characters, in labels of at most 63.
    fn victim_of_len(len: usize) -> String {
        let mut text = String::new();
        while text.len() < len {
            if !text.is_empty() {
                text.push('.');
            }
            let take = (len - text.len()).min(63);
            text.push_str(&"v".repeat(take));
        }
        assert_eq!(text.len(), len);
        text
    }

    #[test]
    fn over_long_flood_names_are_refused_in_either_clause_order() {
        // One character longer than a 63-character label allows.
        let victim = victim_of_len(MAX_NAME_LEN - 63);
        for bad in [
            format!("victim={victim};labellen=63;surge=0,10,2"),
            format!("labellen=63;victim={victim};surge=0,10,2"),
            format!("victim=x.com;victim={victim};labellen=63"),
            format!("victim={};surge=0,10,2", victim_of_len(MAX_NAME_LEN - 12)),
        ] {
            let err = bad.parse::<AttackPlan>().expect_err("over-long flood names");
            assert!(err.to_string().contains("exceeds 253 characters"), "{err}");
        }
    }

    #[test]
    fn limits_name_their_reason() {
        let clients = format!("clients={}", MAX_CLIENTS + 1);
        let err = clients.parse::<AttackPlan>().expect_err("wrapping clients");
        assert!(err.to_string().contains("would wrap"), "{err}");
        assert_eq!(plan(&format!("clients={MAX_CLIENTS}")).clients, MAX_CLIENTS);

        let err = "surge=0,10,1e300".parse::<AttackPlan>().expect_err("unbounded flood");
        assert!(err.to_string().contains("1e300 above 100: the flood is built whole"), "{err}");
        assert_eq!(plan("surge=0,10,100").surges[0].multiplier, MAX_SURGE_MULTIPLIER);
    }

    #[test]
    fn the_longest_allowed_victim_floods_valid_names() {
        for label_len in [1, 12, 63] {
            let victim = victim_of_len(MAX_NAME_LEN - 1 - label_len);
            for spec in [
                format!("seed=5;victim={victim};labellen={label_len};surge=0,10,2"),
                format!("seed=5;labellen={label_len};surge=0,10,2;victim={victim}"),
            ] {
                let flood = plan(&spec).flood_events(0, 1.0);
                assert_eq!(flood.len(), 20);
                for ev in &flood {
                    let text = ev.name.to_string();
                    assert_eq!(text.len(), MAX_NAME_LEN);
                    assert_eq!(Name::parse(&text), Ok(ev.name.clone()));
                }
            }
        }
    }

    #[test]
    fn flood_volume_tracks_multiplier() {
        let p = plan("seed=3;victim=x.example.com;surge=100,200,5");
        let flood = p.flood_events(0, 10.0);
        // 100 seconds at 5 × 10 qps = ~5000 events.
        assert!((4_990..=5_010).contains(&flood.len()), "{}", flood.len());
        for ev in &flood {
            assert!(ev.outcome.is_nxdomain());
            assert_eq!(ev.zone_tag, ATTACK_TAG);
            assert!(ev.client >= ATTACK_CLIENT_BASE);
            let t = ev.time.as_secs();
            assert!((100..200).contains(&t), "time {t}");
            assert!(ev.name.to_string().ends_with(".x.example.com"));
        }
    }

    #[test]
    fn flood_is_deterministic_and_seed_sensitive() {
        let p = plan("seed=3;victim=x.com;surge=0,50,4");
        assert_eq!(p.flood_events(1, 7.0), p.flood_events(1, 7.0));
        let q = plan("seed=4;victim=x.com;surge=0,50,4");
        assert_ne!(p.flood_events(1, 7.0), q.flood_events(1, 7.0));
    }

    #[test]
    fn labels_are_one_shot() {
        let p = plan("seed=9;victim=v.example.net;surge=0,100,3");
        let flood = p.flood_events(0, 5.0);
        let unique: std::collections::HashSet<String> =
            flood.iter().map(|e| e.name.to_string()).collect();
        // Random 12-hex labels at this volume collide essentially never.
        assert_eq!(unique.len(), flood.len());
    }

    #[test]
    fn client_spread_honours_botnet_size() {
        let p = plan("seed=9;victim=v.com;surge=0,200,4;clients=16");
        let flood = p.flood_events(0, 5.0);
        let clients: std::collections::HashSet<u64> = flood.iter().map(|e| e.client).collect();
        assert!(clients.len() <= 16);
        assert!(clients.len() >= 12, "only {} distinct clients", clients.len());
    }

    #[test]
    fn inject_keeps_canonical_order() {
        use crate::scenario::{Scenario, ScenarioConfig};
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.005), 11);
        let mut trace = scenario.generate_day(0);
        let legit = trace.events.len();
        plan("seed=2;victim=flood.example.org;surge=3600,7200,6").inject(&mut trace);
        assert!(trace.events.len() > legit);
        assert!(trace.events.windows(2).all(|w| {
            let a = (w[0].time, w[0].client, w[0].name.presentation_len());
            let b = (w[1].time, w[1].client, w[1].name.presentation_len());
            a <= b
        }));
    }

    #[test]
    fn empty_plan_injects_nothing() {
        use crate::scenario::{Scenario, ScenarioConfig};
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(0.5).with_scale(0.003), 11);
        let mut trace = scenario.generate_day(0);
        let before = trace.events.clone();
        AttackPlan::default().inject(&mut trace);
        assert_eq!(trace.events, before);
    }
}
