//! Fixture: idiomatic code that must produce zero diagnostics —
//! including constructs that superficially resemble violations.

use std::collections::BTreeMap;

struct Day {
    // The field name alone must not trip export-purity outside export
    // functions.
    dropped: u64,
    by_zone: BTreeMap<String, u64>,
}

impl Day {
    fn to_json(&self) -> String {
        // BTreeMap iteration in an export path: deterministic, legal.
        let fields: Vec<String> =
            self.by_zone.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }

    fn merge(&mut self, other: &Day) {
        self.dropped += other.dropped;
        for (k, v) in &other.by_zone {
            *self.by_zone.entry(k.clone()).or_insert(0) += v;
        }
    }
}

/// A doc example using the blessed builder API:
///
/// ```
/// sim.day(&trace).metrics(&mut registry).run();
/// ```
fn builder_style() {}

// `for` in trait-impl position and HRTB position must not be mistaken
// for loops.
trait Visit {
    fn visit(&self);
}

impl Visit for Day {
    fn visit(&self) {}
}

fn hrtb<F>(f: F)
where
    F: for<'a> Fn(&'a str),
{
    f("x");
}

fn strings_are_data() -> &'static str {
    // Forbidden names inside string literals are data, not code.
    "Instant::now() thread_rng HashMap"
}

fn raw_strings_too() -> &'static str {
    r#"SystemTime::now() and thread_rng() stay inert in raw strings"#
}
