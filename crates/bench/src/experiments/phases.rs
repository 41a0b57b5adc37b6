//! Phase-timing profile of the day replay.
//!
//! Replays one paper-calibrated day with the metrics registry attached
//! and reports where the wall-clock goes (generate / replay) next to the
//! simulated-time counters the registry collected. The wall-clock table
//! is the only non-deterministic part of the whole observability layer —
//! everything under "registry" is a function of the simulated events.

use dnsnoise_resolver::{MetricsRegistry, ResolverSim, SimConfig, SERVED_LABELS};

use crate::util::{scenario, Table};

/// One profiled day: the registry (counters, histograms, timeline) plus
/// the size of the trace it replayed.
#[derive(Debug)]
pub struct PhasesResult {
    /// The full metrics registry recorded during the run.
    pub registry: MetricsRegistry,
    /// Events in the replayed trace.
    pub events: usize,
}

impl PhasesResult {
    /// Renders the phase table and a registry summary.
    pub fn render(&self) -> String {
        let mut out = format!("== replay phase timings ({} events) ==\n", self.events);
        out.push_str(&self.registry.phases().render_table());

        let c = self.registry.counters();
        out.push_str("\nregistry (simulated time, deterministic):\n");
        let mut t = Table::new(["counter", "value"]);
        t.row(["queries".to_owned(), c.queries.to_string()]);
        for (label, value) in SERVED_LABELS.iter().zip([
            c.cache_hits,
            c.cache_misses,
            c.negative_hits,
            c.nx_misses,
            c.stale_serves,
            c.servfails,
            c.dropped,
            c.rate_limited,
        ]) {
            t.row([(*label).to_owned(), value.to_string()]);
        }
        t.row(["upstream_fetches".to_owned(), c.upstream_fetches.to_string()]);
        t.row(["retries".to_owned(), c.retries.to_string()]);
        t.row(["mean_latency_ms".to_owned(), format!("{:.2}", self.registry.latency_ms().mean())]);
        out.push_str(&t.render());
        out
    }
}

/// Profiles one day at `scale_factor`.
pub fn run(scale_factor: f64) -> PhasesResult {
    let s = scenario(0.5, 0.05 * scale_factor, 250.0, 23);
    let mut registry = MetricsRegistry::new();
    let start = std::time::Instant::now();
    let trace = s.generate_day(0);
    registry.phases_mut().add_generate(start.elapsed());
    let mut sim = ResolverSim::new(SimConfig { members: 4, ..SimConfig::default() });
    sim.day(&trace).ground_truth(s.ground_truth()).metrics(&mut registry).run();
    PhasesResult { registry, events: trace.events.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_phase_table_is_not_in_the_deterministic_exports() {
        let r = run(0.1);
        assert!(r.registry.counters().queries > 0);
        assert!(r.registry.phases().total_ns() > 0, "both phases were timed");
        for export in [r.registry.to_json(), r.registry.timeline_csv()] {
            for leaked in ["phase", "wall", "generate", "replay"] {
                assert!(!export.contains(leaked), "{leaked} leaked into an export:\n{export}");
            }
        }
        // Two runs differ only in the wall-clock table.
        let again = run(0.1);
        assert_eq!(r.registry.to_json(), again.registry.to_json());
        assert_eq!(r.registry.timeline_csv(), again.registry.timeline_csv());
    }

    #[test]
    fn render_lists_every_phase_and_counter() {
        let r = run(0.05);
        let text = r.render();
        for phase in ["generate", "replay", "total"] {
            assert!(text.contains(phase), "missing {phase}:\n{text}");
        }
        for label in SERVED_LABELS {
            assert!(text.contains(label), "missing {label}:\n{text}");
        }
    }
}
