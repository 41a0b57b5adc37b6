//! Property-based tests for workload-generation invariants.

use dnsnoise_workload::{Scenario, ScenarioConfig};
use proptest::prelude::*;

#[path = "common/corruption.rs"]
mod corruption;

use corruption::corruption;

fn small_config(epoch: f64) -> ScenarioConfig {
    ScenarioConfig::paper_epoch(epoch).with_scale(0.01)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Traces are internally consistent for any epoch/seed: time-sorted,
    /// answers own the queried name, NXDOMAINs carry no records, tags are
    /// valid, clients within the population.
    #[test]
    fn traces_are_well_formed(epoch in 0.0f64..=1.0, seed in 0u64..1_000, day in 0u64..3) {
        let scenario = Scenario::new(small_config(epoch), seed);
        let gt = scenario.ground_truth();
        let trace = scenario.generate_day(day);
        prop_assert!(!trace.events.is_empty());
        prop_assert_eq!(trace.day, day);
        let day_start = day * 86_400;
        let mut prev = 0u64;
        for ev in &trace.events {
            let t = ev.time.as_secs();
            prop_assert!(t >= day_start && t < day_start + 86_400 + 60, "time {t} outside day {day}");
            prop_assert!(t >= prev, "events out of order");
            prev = t;
            prop_assert!(ev.client < scenario.config().n_clients);
            let _ = gt.category_of_tag(ev.zone_tag);
            match ev.outcome.records() {
                [] => prop_assert!(ev.outcome.is_nxdomain()),
                records => {
                    // The first answer record owns the queried name; chain
                    // targets may be owned elsewhere (CNAME).
                    prop_assert_eq!(&records[0].name, &ev.name, "first record owns the qname");
                }
            }
        }
    }

    /// Authoritative answers for a (name, qtype) come from a small stable
    /// set within a day: most zones always answer identically, and CDN
    /// customer names rotate among their few assigned edge shards (real
    /// request-routing behaviour). An unbounded answer space would break
    /// the rpDNS dedup shape.
    #[test]
    fn authoritative_answers_form_small_sets(seed in 0u64..500) {
        let scenario = Scenario::new(small_config(0.6), seed);
        let trace = scenario.generate_day(0);
        let mut answers: std::collections::HashMap<(String, dnsnoise_dns::QType), std::collections::HashSet<String>> =
            std::collections::HashMap::new();
        for ev in &trace.events {
            if ev.outcome.is_nxdomain() {
                continue;
            }
            let key = (ev.name.to_string(), ev.qtype);
            let rendered = ev
                .outcome
                .records()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("|");
            answers.entry(key).or_default().insert(rendered);
        }
        for ((name, _), variants) in &answers {
            prop_assert!(variants.len() <= 8, "{name} answered {} different ways", variants.len());
        }
    }

    /// Ground truth is total over generated names: every resolved event's
    /// tag classification agrees with zone_of when the zone is enumerated.
    #[test]
    fn ground_truth_is_consistent(seed in 0u64..500) {
        let scenario = Scenario::new(small_config(0.3), seed);
        let gt = scenario.ground_truth();
        let trace = scenario.generate_day(0);
        for ev in &trace.events {
            if let Some(zone) = gt.zone_of(&ev.name) {
                prop_assert_eq!(zone.disposable, gt.tag_is_disposable(ev.zone_tag), "{}", ev.name);
                if let Some(depth) = zone.child_depth {
                    if zone.disposable && !ev.outcome.is_nxdomain() {
                        prop_assert_eq!(ev.name.depth(), depth, "{} depth mismatch", ev.name);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding corrupted or truncated trace bytes to `read_trace` never
    /// panics — it returns a (line-numbered) error or a parsed trace.
    #[test]
    fn corrupted_traces_never_panic(
        seed in 0u64..100,
        corruptions in proptest::collection::vec(corruption(), 1..6),
    ) {
        use dnsnoise_workload::trace_io::{read_trace, write_trace, TraceIoError};

        let scenario = Scenario::new(ScenarioConfig::paper_epoch(0.3).with_scale(0.002), seed);
        let trace = scenario.generate_day(0);
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).unwrap();
        corruption::apply(&mut bytes, corruptions);
        match read_trace(bytes.as_slice()) {
            Ok(_) => {}
            Err(TraceIoError::Parse { line, .. }) => prop_assert!(line >= 1),
            Err(TraceIoError::Io { .. }) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Attack specs round-trip: parse → render → parse is the identity
    /// for any clause combination including multiple surge windows, and
    /// flood generation is a pure function of the plan and the day.
    #[test]
    fn attack_specs_round_trip(
        seed in any::<u64>(),
        victims in proptest::collection::vec(0u64..100_000, 1..4),
        clients in 1u64..5_000,
        label_len in 1usize..=63,
        entropy_idx in 0usize..3,
        surges in proptest::collection::vec((0u64..86_399, 1u64..600, 1u64..20), 1..4),
    ) {
        use dnsnoise_workload::AttackPlan;

        let entropy = ["hex", "base32", "alnum"][entropy_idx];
        let mut spec =
            format!("seed={seed}; clients={clients}; labellen={label_len}; entropy={entropy}");
        for v in &victims {
            spec.push_str(&format!("; victim=zone{v}.example"));
        }
        for &(start, len, mult) in &surges {
            let end = (start + len).min(86_400);
            spec.push_str(&format!("; surge={start},{end},{mult}"));
        }

        let plan: AttackPlan = spec.parse().expect("generated spec parses");
        prop_assert!(!plan.is_empty());
        let rendered = plan.to_string();
        let back: AttackPlan = rendered.parse().expect("rendered spec parses");
        prop_assert_eq!(&back, &plan, "parse(render(p)) == p");
        prop_assert_eq!(back.to_string(), rendered, "render is stable");

        // Flood generation is deterministic, time-sorted, within the
        // day, and aimed only at the configured victims.
        let a = plan.flood_events(3, 0.2);
        let b = plan.flood_events(3, 0.2);
        prop_assert_eq!(&a, &b, "flood generation is pure");
        let day_start = 3 * 86_400;
        for ev in &a {
            let t = ev.time.as_secs();
            prop_assert!(t >= day_start && t < day_start + 86_400);
            prop_assert!(ev.outcome.is_nxdomain());
            prop_assert_eq!(ev.zone_tag, dnsnoise_workload::ATTACK_TAG);
        }
        prop_assert!(a.windows(2).all(|w| w[0].time <= w[1].time));
    }
}
