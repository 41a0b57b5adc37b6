//! The benchmark's declared surface: workloads and metric names, units,
//! directions and regression bounds. `../../BENCHMARK.json` repeats this
//! table for the driver; a test keeps the two in step.

use std::collections::BTreeMap;

/// One benchmark workload and the reason it exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const BATCH_DEC_PCAP: &str = "batch-dec-pcap";
pub const STREAM_DEC_DNSTAP: &str = "stream-dec-dnstap-durable";
pub const STREAM_FEB_CORRUPT: &str = "stream-feb-corrupt-hourly";
pub const PDNS_QUERY_MIX: &str = "pdns-query-mix";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: BATCH_DEC_PCAP,
        why: "Dec-2011 mix, clean pcap, ingest then mine: pcap and wire decode, text trace, \
              serial replay and one tree build plus Algorithm 1; sketches, store and checkpoint idle",
    },
    Workload {
        name: STREAM_DEC_DNSTAP,
        why: "same day as dnstap, ingest then stream to a disk store with checkpoints then fsck: \
              per-event sketch folding and run-store writes dominate, only 3 epochs close",
    },
    Workload {
        name: STREAM_FEB_CORRUPT,
        why: "Feb-2011 mix, pcap with 0.2% seeded burst corruption, hourly epochs: resync and \
              quarantine in ingest, then up to 23 closes and checkpoints, so tree build and the \
              codec weigh more than the push loop",
    },
    Workload {
        name: PDNS_QUERY_MIX,
        why: "store only, in-process: seeded build, cold open, fsck, Zipf gets with misses, zone \
              scans and an 80/20 get/put mix, each answer checked against an oracle; the store is \
              read while it is written",
    },
];

/// An end-to-end metric: what an operator of the pipeline sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "events_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.1 },
    EndToEnd { name: "durable_bytes_per_rr", unit: "B", better: "lower", bound: 0.04 },
    EndToEnd { name: "accounted_share", unit: "ratio", better: "higher", bound: 0.02 },
];

/// A per-layer metric: one crate's work, time or ratio. No bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 68] = [
    layer("workload.generate_s", "s", "lower"),
    layer("workload.encode_capture_s", "s", "lower"),
    layer("ingest.decode_s", "s", "lower"),
    layer("ingest.events_per_s", "1/s", "higher"),
    layer("ingest.mb_per_s", "MB/s", "higher"),
    layer("ingest.sharded_speedup", "ratio", "higher"),
    layer("ingest.frames_scanned", "count", "higher"),
    layer("ingest.frames_quarantined", "count", "lower"),
    layer("ingest.resyncs", "count", "lower"),
    layer("ingest.bytes_quarantined", "B", "lower"),
    layer("ingest.recovered_share", "ratio", "higher"),
    layer("dns.wire_decode_per_s", "1/s", "higher"),
    layer("dns.name_parse_per_s", "1/s", "higher"),
    layer("trace_io.write_s", "s", "lower"),
    layer("trace_io.read_s", "s", "lower"),
    layer("trace_io.bytes", "B", "lower"),
    layer("resolver.replay_s", "s", "lower"),
    layer("resolver.replay_events_per_s", "1/s", "higher"),
    layer("resolver.session_s", "s", "lower"),
    layer("resolver.sharded_speedup", "ratio", "higher"),
    layer("resolver.cache_hit_ratio", "ratio", "higher"),
    layer("resolver.rr_stats_entries", "count", "lower"),
    layer("core.tree_build_s", "s", "lower"),
    layer("core.tree_nodes", "count", "lower"),
    layer("core.mine_s", "s", "lower"),
    layer("core.findings", "count", "higher"),
    layer("core.findings_tpr", "ratio", "higher"),
    layer("core.findings_fpr", "ratio", "lower"),
    layer("ml.train_s", "s", "lower"),
    layer("ml.model_load_s", "s", "lower"),
    layer("ml.predict_per_s", "1/s", "higher"),
    layer("stream.push_s", "s", "lower"),
    layer("stream.fold_s", "s", "lower"),
    layer("stream.epochs_closed", "count", "higher"),
    layer("stream.epochs_skipped", "count", "lower"),
    layer("stream.epoch_close_s", "s", "lower"),
    layer("stream.epoch_close_max_s", "s", "lower"),
    layer("stream.checkpoint_write_s", "s", "lower"),
    layer("stream.checkpoint_load_s", "s", "lower"),
    layer("stream.checkpoint_bytes", "B", "lower"),
    layer("stream.finish_s", "s", "lower"),
    layer("stream.peak_state_bytes", "B", "lower"),
    layer("stream.findings_final", "count", "higher"),
    layer("stream.findings_batch_ref", "count", "higher"),
    layer("stream.findings_tpr", "ratio", "higher"),
    layer("stream.findings_fpr", "ratio", "lower"),
    layer("pdns.mem_observe_per_s", "1/s", "higher"),
    layer("pdns.disk_observe_per_s", "1/s", "higher"),
    layer("pdns.optimize_s", "s", "lower"),
    layer("pdns.flushes", "count", "lower"),
    layer("pdns.compactions", "count", "lower"),
    layer("pdns.cold_open_s", "s", "lower"),
    layer("pdns.fsck_s", "s", "lower"),
    layer("pdns.fsck_mb_per_s", "MB/s", "higher"),
    layer("pdns.get_hit_per_s", "1/s", "higher"),
    layer("pdns.get_miss_per_s", "1/s", "higher"),
    layer("pdns.scan_entries_per_s", "1/s", "higher"),
    layer("pdns.mixed_ops_per_s", "1/s", "higher"),
    layer("pdns.durable_bytes", "B", "lower"),
    layer("pdns.runs", "count", "lower"),
    layer("pdns.learned_runs", "count", "higher"),
    layer("cache.hits", "count", "higher"),
    layer("cache.misses", "count", "lower"),
    layer("cache.premature_evictions", "count", "lower"),
    layer("host.speed", "ratio", "higher"),
    layer("trace.end_to_end_wall_s", "s", "lower"),
    layer("trace.top_level_span_s", "s", "lower"),
    layer("trace.residual_share", "ratio", "lower"),
];

/// Metric values by name, filled in as a run proceeds.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The traced run's accounting: the median end-to-end wall, the
    /// in-process spans that mirror it, and the share they leave unexplained.
    pub fn set_residual(&mut self, wall_s: f64, span_s: f64) {
        self.set("trace.end_to_end_wall_s", wall_s);
        self.set("trace.top_level_span_s", span_s);
        self.set("trace.residual_share", (wall_s - span_s) / wall_s);
    }

    /// The value of every name in `names`, or the first one that is
    /// missing or not a finite number.
    pub fn all_of<'a>(
        &self,
        names: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Result<Vec<(&'a str, &'a str, f64)>, String> {
        names
            .map(|(name, unit)| match self.get(name) {
                Some(v) if v.is_finite() => Ok((name, unit, v)),
                Some(v) => Err(format!("metric {name} is not finite ({v})")),
                None => Err(format!("metric {name} was never measured")),
            })
            .collect()
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn all_names() -> Vec<&'static str> {
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect()
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let names = all_names();
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for (unit, better) in END_TO_END
            .iter()
            .map(|m| (m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.unit, m.better)))
        {
            assert!(unit_ok(unit), "bad unit {unit}");
            assert!(better == "lower" || better == "higher");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    /// Every `"name": "<x>"` string value in the JSON text, in order.
    fn json_names(text: &str) -> Vec<String> {
        text.split("\"name\":")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1).map(str::to_owned))
            .collect()
    }

    #[test]
    fn benchmark_json_agrees_with_this_table() {
        let text = include_str!("../../BENCHMARK.json");
        let declared = json_names(text);
        let ours: Vec<String> = all_names().into_iter().map(str::to_owned).collect();
        assert_eq!(declared, ours, "BENCHMARK.json and spec.rs list different names");
        for m in &END_TO_END {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(text.contains(&row), "BENCHMARK.json lacks {row}");
        }
        for m in &PER_LAYER {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(text.contains(&row), "BENCHMARK.json lacks {row}");
        }
        for w in &WORKLOADS {
            let row = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&row), "BENCHMARK.json lacks {row}");
        }
        assert!(text.contains("\"paths\": [\"benchmark\"]"));
    }
}
