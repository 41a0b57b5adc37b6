//! §VI-B what-if: DNSSEC validation pressure from disposable domains.
//!
//! Shape targets: with full DNSSEC deployment, each disposable lookup
//! costs a signature validation that is never reused; excluding
//! disposables removes most validations; wildcard-signing the disposable
//! zones collapses both the validation count and the RRSIG cache.

use dnsnoise_dns::Record;
use dnsnoise_dnssec::{DnssecConfig, DnssecCostModel};
use dnsnoise_resolver::{Observer, ResolverSim, Served, SimConfig};
use dnsnoise_workload::{GroundTruth, QueryEvent};

use crate::util::{pct, scenario, Table};

/// One validation-cost measurement.
#[derive(Debug, Clone)]
pub struct DnssecPoint {
    /// The configuration label.
    pub label: String,
    /// Signature verifications performed.
    pub signature_validations: u64,
    /// Validations avoided via an already-trusted (wildcard) signature.
    pub validations_reused: u64,
    /// DNSKEY/DS chain builds.
    pub chain_validations: u64,
    /// RRSIG cache bytes.
    pub signature_cache_bytes: u64,
}

/// The three-configuration comparison.
#[derive(Debug, Clone, Default)]
pub struct DnssecResult {
    /// Measured points.
    pub points: Vec<DnssecPoint>,
}

impl DnssecResult {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut out = String::from("== §VI-B: DNSSEC validation cost ==\n");
        let mut t = Table::new([
            "configuration",
            "sig validations",
            "reused",
            "chain builds",
            "rrsig cache bytes",
        ]);
        for p in &self.points {
            t.row([
                p.label.clone(),
                p.signature_validations.to_string(),
                p.validations_reused.to_string(),
                p.chain_validations.to_string(),
                p.signature_cache_bytes.to_string(),
            ]);
        }
        out.push_str(&t.render());
        if let (Some(all), Some(without)) =
            (self.point("all traffic"), self.point("without disposables"))
        {
            let share = 1.0
                - without.signature_validations as f64 / all.signature_validations.max(1) as f64;
            out.push_str(&format!("\ndisposable share of validations: {}\n", pct(share)));
        }
        out
    }

    /// Finds a point by label.
    pub fn point(&self, label: &str) -> Option<&DnssecPoint> {
        self.points.iter().find(|p| p.label == label)
    }
}

/// An observer feeding upstream answers to the cost model, optionally
/// filtering disposables out.
struct ValidationObserver<'a> {
    model: DnssecCostModel,
    gt: &'a GroundTruth,
    skip_disposable: bool,
}

impl Observer for ValidationObserver<'_> {
    fn observe(&mut self, event: &QueryEvent, served: Served, answers: &[Record]) {
        if !served.went_above() || answers.is_empty() {
            return;
        }
        if self.skip_disposable && self.gt.tag_is_disposable(event.zone_tag) {
            return;
        }
        self.model.validate_upstream_answer(answers, event.time);
    }
}

/// Runs the three configurations over the same December day.
pub fn run(scale_factor: f64) -> DnssecResult {
    let s = scenario(1.0, 0.15 * scale_factor, 40.0, 141);
    let gt = s.ground_truth();
    let trace = s.generate_day(0);

    // Wildcard rules from ground truth: every disposable zone signs one
    // wildcard at its child depth.
    let wildcard_rules: Vec<(dnsnoise_dns::Name, usize)> =
        gt.disposable_zones().filter_map(|z| z.child_depth.map(|d| (z.apex.clone(), d))).collect();

    let configs: Vec<(&str, bool, DnssecConfig)> = vec![
        ("all traffic", false, DnssecConfig::default()),
        ("without disposables", true, DnssecConfig::default()),
        (
            "wildcard-signed disposables",
            false,
            DnssecConfig::default().with_wildcard_rules(wildcard_rules),
        ),
    ];

    let mut result = DnssecResult::default();
    for (label, skip, config) in configs {
        let mut sim = ResolverSim::new(SimConfig::default());
        let mut obs =
            ValidationObserver { model: DnssecCostModel::new(config), gt, skip_disposable: skip };
        let _ = sim.day(&trace).ground_truth(gt).observer(&mut obs).run();
        let stats = *obs.model.stats();
        result.points.push(DnssecPoint {
            label: label.to_owned(),
            signature_validations: stats.signature_validations,
            validations_reused: stats.validations_reused,
            chain_validations: stats.chain_validations,
            signature_cache_bytes: obs.model.signature_cache_bytes(),
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disposables_dominate_validation_cost() {
        let r = run(0.4);
        let all = r.point("all traffic").unwrap();
        let without = r.point("without disposables").unwrap();
        let wildcard = r.point("wildcard-signed disposables").unwrap();

        assert!(
            (without.signature_validations as f64) < (all.signature_validations as f64) * 0.8,
            "removing disposables should cut validations: {} vs {}",
            without.signature_validations,
            all.signature_validations
        );
        assert!(
            wildcard.signature_validations < all.signature_validations,
            "wildcard signing reduces validations"
        );
        assert!(
            wildcard.signature_cache_bytes < all.signature_cache_bytes,
            "wildcard signing shrinks the RRSIG cache"
        );
        assert!(wildcard.validations_reused > 0);
        assert!(!r.render().is_empty());
    }
}
