//! Google's IPv6 connectivity experiment (paper Fig. 6-iii, ref. [4]).
//!
//! A sampled fraction of users performs cryptographically-signed background
//! requests after a search; each session mints names such as
//!
//! ```text
//! p2.a22a43lt5rwfg.ihg5ki5i6q3cfn3n.191742.i1.ds.ipv6-exp.l.google.com
//! p2.a22a43lt5rwfg.ihg5ki5i6q3cfn3n.191742.i2.v4.ipv6-exp.l.google.com
//! ```
//!
//! — several probe variants per session, each looked up exactly once.
//! Answers are CNAME chains onto session-unique collector hosts under
//! `exp.l.google.com`, and dual-stack clients also query AAAA. Every
//! record in those answers is one-shot, which is what multiplies distinct
//! RRs per disposable name (the paper's disposable names average ≈3 RRs
//! each) and drives Google to ≈58% of all rpDNS records (§III-C3, Fig. 5).
//! Session volume *grows* day over day within a trace (Google's new-RR
//! curve rises ≈25% over 13 days).

use dnsnoise_dns::{Label, Name, QType, RData, Record};
use rand::rngs::StdRng;
use rand::Rng;

use crate::event::Outcome;
use crate::namegen::{label_base32, mix64, NameForge};
use crate::scenario::ZoneInfo;
use crate::ttl::TtlModel;
use crate::zone::{Category, DayCtx, Operator, ZoneModel};
use crate::zones::event_at;

/// The probe variants a session may emit: `(probe id, transport)`.
const VARIANTS: &[(&str, &str)] = &[("i1", "ds"), ("i2", "v4"), ("s1", "v4"), ("i2", "ds")];

/// The Google IPv6 measurement-experiment zones (probe zone + collector
/// zone).
#[derive(Debug, Clone)]
pub struct Ipv6Experiment {
    /// Probe names live here (`p2.<u>.<r>.<n>.<probe>.<transport>.apex`).
    apex: Name,
    /// CNAME targets live here (`<hash>.collector_apex`).
    collector_apex: Name,
    /// Sessions on day 0; later days grow by `daily_growth`.
    base_sessions: usize,
    /// Multiplicative day-over-day session growth (e.g. `0.02` = +2%/day).
    daily_growth: f64,
    /// Fraction of probes also queried for AAAA at the December epoch;
    /// earlier epochs scale it down (dual-stack adoption grew over 2011).
    dual_stack_fraction: f64,
    ttl: TtlModel,
    seed: u64,
}

impl Ipv6Experiment {
    /// Creates the experiment zone with `base_sessions` sessions on day 0.
    pub fn new(base_sessions: usize, daily_growth: f64, ttl: TtlModel, seed: u64) -> Self {
        Ipv6Experiment {
            apex: "ipv6-exp.l.google.com".parse().expect("static apex is valid"),
            collector_apex: "exp.l.google.com".parse().expect("static apex is valid"),
            base_sessions,
            daily_growth,
            dual_stack_fraction: 0.85,
            ttl,
            seed,
        }
    }

    /// Sessions generated on `day`.
    pub fn sessions_on(&self, day: u64) -> usize {
        ((self.base_sessions as f64) * (1.0 + self.daily_growth).powi(day as i32)).round() as usize
    }
}

impl ZoneModel for Ipv6Experiment {
    fn zones(&self) -> Vec<ZoneInfo> {
        vec![
            ZoneInfo {
                apex: self.apex.clone(),
                category: Category::Ipv6Experiment,
                operator: Operator::Google,
                disposable: true,
                child_depth: Some(self.apex.depth() + 6),
            },
            ZoneInfo {
                apex: self.collector_apex.clone(),
                category: Category::Ipv6Experiment,
                operator: Operator::Google,
                disposable: true,
                child_depth: Some(self.collector_apex.depth() + 1),
            },
        ]
    }

    fn generate_day(
        &self,
        ctx: &DayCtx,
        tag: u32,
        rng: &mut StdRng,
        sink: &mut Vec<crate::event::QueryEvent>,
    ) {
        let sessions = self.sessions_on(ctx.day);
        let forge = NameForge::new(mix64(self.seed ^ 0x6006), self.collector_apex.clone());
        for s in 0..sessions {
            let session_seed = mix64(self.seed ^ ((ctx.day) << 32) ^ s as u64);
            let client = rng.gen_range(0..ctx.n_clients);
            // Probes fire right after a search: user-driven timing.
            let second = ctx.diurnal.sample_second(rng);
            let user_hash = label_base32(session_seed, 13);
            let req_hash = label_base32(mix64(session_seed ^ 1), 16);
            let counter = Label::new(&format!("{}", 100_000 + (mix64(session_seed ^ 2) % 900_000)))
                .expect("numeric label is valid");
            let n_probes = 2 + (mix64(session_seed ^ 3) % 2) as usize; // 2 or 3 variants
            for (vi, (probe, transport)) in VARIANTS.iter().take(n_probes).enumerate() {
                let mut name = self.apex.clone();
                name = name.child(Label::new(transport).expect("static label"));
                name = name.child(Label::new(probe).expect("static label"));
                name = name.child(counter.clone());
                name = name.child(req_hash.clone());
                name = name.child(user_hash.clone());
                name = name.child(Label::new("p2").expect("static label"));

                // Session-unique collector target.
                let target = self
                    .collector_apex
                    .child(label_base32(mix64(session_seed ^ 0xc011 ^ vi as u64), 18));
                let ttl = self.ttl.sample(mix64(session_seed ^ (vi as u64) << 8));
                let cname =
                    Record::new(name.clone(), QType::Cname, ttl, RData::Cname(target.clone()));
                let rr_a = Record::new(
                    target.clone(),
                    QType::A,
                    ttl,
                    forge.ipv4(session_seed ^ vi as u64),
                );
                sink.push(event_at(
                    ctx,
                    second + vi as u64,
                    client,
                    name.clone(),
                    QType::A,
                    Outcome::Answer(vec![cname.clone(), rr_a]),
                    tag,
                ));

                let dual_stack = self.dual_stack_fraction * (0.45 + 0.55 * ctx.epoch);
                if (mix64(session_seed ^ 0xaaaa ^ vi as u64) as f64 / u64::MAX as f64) < dual_stack
                {
                    // The v6 path reports to its own collector host, so a
                    // dual-stack probe mints two one-shot targets (this is
                    // what pushes disposable names to ≈3 RRs each,
                    // §III-C3).
                    let target_v6 = self
                        .collector_apex
                        .child(label_base32(mix64(session_seed ^ 0x06c0 ^ vi as u64), 18));
                    let cname_v6 = Record::new(
                        name.clone(),
                        QType::Cname,
                        ttl,
                        RData::Cname(target_v6.clone()),
                    );
                    let v6 = std::net::Ipv6Addr::new(
                        0x2001,
                        0x4860,
                        (session_seed >> 16) as u16,
                        (session_seed >> 32) as u16,
                        0,
                        0,
                        0,
                        (1 + vi) as u16,
                    );
                    let rr_aaaa = Record::new(target_v6, QType::Aaaa, ttl, RData::Aaaa(v6));
                    sink.push(event_at(
                        ctx,
                        second + vi as u64 + 1,
                        client,
                        name,
                        QType::Aaaa,
                        Outcome::Answer(vec![cname_v6, rr_aaaa]),
                        tag,
                    ));
                }
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "ipv6 experiment ({} base sessions, +{:.1}%/day)",
            self.base_sessions,
            self.daily_growth * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalCurve;
    use rand::SeedableRng;

    fn ctx(day: u64) -> DayCtx {
        DayCtx { day, epoch: 1.0, n_clients: 1_000, diurnal: DiurnalCurve::residential() }
    }

    fn generate(model: &Ipv6Experiment, day: u64) -> Vec<crate::event::QueryEvent> {
        let mut rng = StdRng::seed_from_u64(day ^ 17);
        let mut sink = Vec::new();
        model.generate_day(&ctx(day), 0, &mut rng, &mut sink);
        sink
    }

    #[test]
    fn names_match_published_structure() {
        let model = Ipv6Experiment::new(50, 0.02, TtlModel::fixed(300), 4);
        for ev in generate(&model, 0) {
            let labels: Vec<&str> = ev.name.labels().iter().collect();
            assert_eq!(labels.len(), 10, "{}", ev.name);
            assert_eq!(labels[0], "p2");
            assert!(["i1", "i2", "s1"].contains(&labels[4]));
            assert!(["ds", "v4"].contains(&labels[5]));
            assert!(ev.name.to_string().ends_with("ipv6-exp.l.google.com"));
        }
    }

    #[test]
    fn answers_are_cname_chains_onto_collectors() {
        let model = Ipv6Experiment::new(50, 0.0, TtlModel::fixed(300), 4);
        for ev in generate(&model, 0) {
            let records = ev.outcome.records();
            assert_eq!(records.len(), 2, "CNAME + address");
            assert_eq!(records[0].qtype, QType::Cname);
            assert!(records[1].name.to_string().ends_with("exp.l.google.com"));
            assert!(matches!(records[1].qtype, QType::A | QType::Aaaa));
        }
    }

    #[test]
    fn session_volume_grows_daily() {
        let model = Ipv6Experiment::new(200, 0.02, TtlModel::fixed(300), 4);
        let d0 = generate(&model, 0).len();
        let d12 = generate(&model, 12).len();
        assert!(d12 > d0, "day 12 ({d12}) should exceed day 0 ({d0})");
        // ≈ (1.02)^12 ≈ 1.27: within loose bounds.
        let ratio = d12 as f64 / d0 as f64;
        assert!(ratio > 1.1 && ratio < 1.5, "growth ratio {ratio} out of range");
    }

    #[test]
    fn dual_stack_probes_create_aaaa_records() {
        let model = Ipv6Experiment::new(200, 0.0, TtlModel::fixed(300), 4);
        let events = generate(&model, 0);
        let aaaa = events.iter().filter(|e| e.qtype == QType::Aaaa).count();
        let a = events.iter().filter(|e| e.qtype == QType::A).count();
        assert!(aaaa > 0, "expected some AAAA probes");
        assert!(aaaa < a, "AAAA probes are a fraction of A probes");
    }

    #[test]
    fn names_are_session_unique() {
        let model = Ipv6Experiment::new(300, 0.0, TtlModel::fixed(300), 4);
        let events = generate(&model, 0);
        // Within a session, A and AAAA share the name, but across sessions
        // names never repeat: unique names ≈ probes (2-3 per session).
        let unique: std::collections::HashSet<_> = events.iter().map(|e| e.name.clone()).collect();
        let a_probes = events.iter().filter(|e| e.qtype == QType::A).count();
        assert_eq!(unique.len(), a_probes);
    }

    #[test]
    fn rr_multiplicity_is_paper_like() {
        // Each disposable probe name should yield ≈3 distinct RRs (CNAME +
        // A + often AAAA) per §III-C3's disposable-RR arithmetic.
        let model = Ipv6Experiment::new(300, 0.0, TtlModel::fixed(300), 4);
        let events = generate(&model, 0);
        let mut names = std::collections::HashSet::new();
        let mut rrs = std::collections::HashSet::new();
        for ev in &events {
            names.insert(ev.name.clone());
            for r in ev.outcome.records() {
                rrs.insert(r.key());
            }
        }
        let multiplicity = rrs.len() as f64 / names.len() as f64;
        assert!((2.4..4.0).contains(&multiplicity), "multiplicity {multiplicity}");
    }
}
