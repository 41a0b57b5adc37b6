//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `(name, start, end, parent)`; every span of one run shares
//! the run's workload name. Spans are kept in memory and written out as
//! JSON at exit (`--trace-out`). A layer's *self* time is its span minus
//! the part its child spans cover, so nested layers (ingest → wire
//! decode, stream push → resolver session) do not count twice.

use std::time::Instant;

/// The one place the harness reads the clock.
pub fn now() -> Instant {
    // lint:allow(wall-clock): a benchmark measures wall time by design; nothing timed here feeds replay or export data
    Instant::now()
}

/// One recorded interval, in seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer { origin: now(), workload: workload.to_owned(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `work` inside a span called `name`, nested under whichever
    /// span is open, and returns its result with the span's seconds.
    pub fn span<T>(&mut self, name: &str, work: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name: name.to_owned(), start, end: start, parent });
        self.open.push(index);
        let out = work(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans[index].end = end;
        (out, end - start)
    }

    /// Records a span whose duration was measured elsewhere (a child
    /// process, or a sum of timed pushes), ending now.
    pub fn record(&mut self, name: &str, secs: f64) {
        let end = self.origin.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.spans.push(Span { name: name.to_owned(), start: end - secs, end, parent });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `index`: its duration minus its direct children's.
    pub fn self_secs(&self, index: usize) -> f64 {
        self_secs(&self.spans, index)
    }

    /// The per-layer table: one row per distinct span name, in first-seen
    /// order, with call count, total and self seconds.
    pub fn table(&self) -> String {
        let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            let own = self.self_secs(i);
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.secs();
                    row.3 += own;
                }
                None => rows.push((span.name.clone(), 1, span.secs(), own)),
            }
        }
        let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(4).max(4);
        let mut out =
            format!("{:<width$}  {:>5}  {:>10}  {:>10}\n", "span", "calls", "total_s", "self_s");
        for (name, calls, total, own) in rows {
            out.push_str(&format!("{name:<width$}  {calls:>5}  {total:>10.4}  {own:>10.4}\n"));
        }
        out
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"workload\": \"{}\", \"spans\": [\n", self.workload);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \
                 \"parent\": {parent}, \"self_s\": {:.9}, \"workload\": \"{}\"}}{}\n",
                s.name,
                s.start,
                s.end,
                self.self_secs(i),
                self.workload,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

fn self_secs(spans: &[Span], index: usize) -> f64 {
    let children: f64 = spans.iter().filter(|s| s.parent == Some(index)).map(Span::secs).sum();
    spans[index].secs() - children
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: name.to_owned(), start, end, parent }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("stage", 0.0, 10.0, None),
            span("decode", 1.0, 4.0, Some(0)),
            span("wire", 2.0, 3.0, Some(1)),
            span("write", 5.0, 9.0, Some(0)),
        ];
        assert_eq!(
            self_secs(&spans, 0),
            3.0,
            "10 - (3 + 4); the grandchild is not subtracted twice"
        );
        assert_eq!(self_secs(&spans, 1), 2.0);
        assert_eq!(self_secs(&spans, 2), 1.0);
        assert_eq!(self_secs(&spans, 3), 4.0);
        let total_self: f64 = (0..spans.len()).map(|i| self_secs(&spans, i)).sum();
        assert_eq!(total_self, 10.0, "self times partition the top-level span");
    }

    #[test]
    fn tracer_nests_and_reports() {
        let mut t = Tracer::new("w");
        let (value, outer) = t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.record("measured", 0.001);
            7
        });
        assert_eq!(value, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(outer >= spans[1].secs());
        assert!((spans[0].secs() - outer).abs() < 1e-9);
        assert!(t.self_secs(0) <= outer);
        assert!(t.to_json().contains("\"parent\": 0"));
        assert!(t.table().contains("inner"));
    }
}
