//! The zone-model abstraction: each model owns one or more DNS zones and
//! synthesises a day of query traffic for them.

use std::fmt;

use rand::rngs::StdRng;

use crate::diurnal::DiurnalCurve;
use crate::event::QueryEvent;

/// The behavioural class of a zone — the industries of the paper's
/// Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Host metric reporting over DNS (eSoft-style, Fig. 6-i). Disposable.
    Telemetry,
    /// Anti-virus file-reputation lookups (McAfee-style, Fig. 6-ii).
    /// Disposable.
    AvReputation,
    /// Measurement experiments (Google IPv6-style, Fig. 6-iii). Disposable.
    Ipv6Experiment,
    /// DNS blocklists queried by reversed IP. Disposable.
    Dnsbl,
    /// Cookie-tracking / ad-network beacons. Disposable.
    Tracker,
    /// Content delivery network zones. Non-disposable (with an unpopular
    /// tail that can look disposable — §V-C1 found 0.6% CDN zones).
    Cdn,
    /// Popular user-facing sites (the Alexa-style non-disposable class).
    Popular,
    /// User-content portals (`<username>.<portal>`): non-disposable but
    /// structurally tracker-like — the classifier's hard negatives.
    Portal,
    /// Rarely-visited small sites: the bulk of the DNS long tail.
    LongTail,
    /// Typo and probe queries that produce NXDOMAIN.
    NxNoise,
}

impl Category {
    /// Whether the paper's ground truth considers this class disposable.
    pub fn is_disposable(self) -> bool {
        matches!(
            self,
            Category::Telemetry
                | Category::AvReputation
                | Category::Ipv6Experiment
                | Category::Dnsbl
                | Category::Tracker
        )
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Telemetry => "telemetry",
            Category::AvReputation => "av-reputation",
            Category::Ipv6Experiment => "ipv6-experiment",
            Category::Dnsbl => "dnsbl",
            Category::Tracker => "tracker",
            Category::Cdn => "cdn",
            Category::Popular => "popular",
            Category::Portal => "portal",
            Category::LongTail => "long-tail",
            Category::NxNoise => "nx-noise",
        };
        f.write_str(s)
    }
}

/// The organisation operating a zone, for the per-operator traffic series
/// of Fig. 2 and Fig. 5 (All / Akamai / Google).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operator {
    /// Google: both user-facing services and the IPv6 experiment zone.
    Google,
    /// Akamai: the CDN fleet.
    Akamai,
    /// Any other operator, numbered for distinctness.
    Other(u32),
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operator::Google => f.write_str("google"),
            Operator::Akamai => f.write_str("akamai"),
            Operator::Other(i) => write!(f, "op{i}"),
        }
    }
}

/// Per-day generation context shared by all zone models.
#[derive(Debug, Clone)]
pub struct DayCtx {
    /// Zero-based simulated day.
    pub day: u64,
    /// Growth epoch `t ∈ [0, 1]` (February 2011 → December 2011).
    pub epoch: f64,
    /// Number of distinct clients behind the resolver cluster.
    pub n_clients: u64,
    /// The human diurnal curve; machine workloads may ignore it.
    pub diurnal: DiurnalCurve,
}

/// A source of synthetic traffic for one or more zones.
///
/// Implementations must be deterministic given `(ctx, rng)` — the scenario
/// seeds the RNG from `(scenario seed, model tag, day)` so traces are
/// reproducible.
pub trait ZoneModel: Send + Sync {
    /// Ground-truth descriptors for every zone this model operates.
    fn zones(&self) -> Vec<crate::scenario::ZoneInfo>;

    /// Appends one day of query events to `sink`. Events carry `tag` as
    /// their `zone_tag` and may be in any time order; the scenario sorts.
    fn generate_day(&self, ctx: &DayCtx, tag: u32, rng: &mut StdRng, sink: &mut Vec<QueryEvent>);

    /// A short human-readable name for logs and reports.
    fn describe(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disposable_categories_match_paper() {
        assert!(Category::Telemetry.is_disposable());
        assert!(Category::AvReputation.is_disposable());
        assert!(Category::Ipv6Experiment.is_disposable());
        assert!(Category::Dnsbl.is_disposable());
        assert!(Category::Tracker.is_disposable());
        assert!(!Category::Cdn.is_disposable());
        assert!(!Category::Popular.is_disposable());
        assert!(!Category::Portal.is_disposable());
        assert!(!Category::LongTail.is_disposable());
        assert!(!Category::NxNoise.is_disposable());
    }

    #[test]
    fn operator_display() {
        assert_eq!(Operator::Google.to_string(), "google");
        assert_eq!(Operator::Akamai.to_string(), "akamai");
        assert_eq!(Operator::Other(3).to_string(), "op3");
    }
}
