//! Plain-text trace serialization.
//!
//! A day of events round-trips through a line-oriented, tab-separated
//! format (in the spirit of `dnstap`/`dnstop` text output, §II-B1) so
//! traces can be generated once and replayed by external tooling or the
//! CLI:
//!
//! ```text
//! <secs>\t<client>\t<qname>\t<qtype>\tNXDOMAIN
//! <secs>\t<client>\t<qname>\t<qtype>\t<name>,<type>,<ttl>,<rdata>[;<record>...]
//! ```
//!
//! Both directions work an event at a time: [`write_events`] renders any
//! event iterator through one reused line buffer, allocating nothing per
//! event, and [`EventReader`] parses lines through a bounded window. [`write_trace`] and [`read_trace`] are the
//! whole-[`DayTrace`] forms over them, so a pipeline stage that forwards
//! events holds a line, not the day.

use std::borrow::Borrow;
use std::fmt::Write as _;
use std::io::{BufRead, Read as _, Write};
use std::net::{Ipv4Addr, Ipv6Addr};

use dnsnoise_dns::{Name, QType, RData, Record, Timestamp, Ttl};

use crate::event::{Outcome, QueryEvent};
use crate::scenario::DayTrace;

/// Longest accepted trace line, in bytes. Generated lines stay well under
/// a kilobyte; anything beyond this is hostile or corrupt, and the reader
/// refuses it *before* buffering the rest of the line so a single
/// newline-free multi-gigabyte input cannot exhaust memory.
pub const MAX_LINE_BYTES: usize = 8192;

/// Most records accepted in one answer line. The simulator never emits
/// more than a handful; a burst of thousands is a decompression-bomb
/// shape, not a trace.
pub const MAX_ANSWER_RECORDS: usize = 64;

/// Most dot-separated labels accepted in a queried or record name,
/// mirroring the RFC 1035 wire limit (255 octets / at least 1 byte per
/// label + separator ⇒ < 128 labels).
pub const MAX_NAME_LABELS: usize = 127;

/// Errors while reading a serialized trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure. `line` is the 1-based number of the line
    /// being read when the failure occurred, when known (`None` for
    /// failures outside line-by-line reading, e.g. while writing).
    Io {
        /// 1-based line number of the failed read, if applicable.
        line: Option<usize>,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A malformed line, with its 1-based number and a description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io { line: Some(n), source } => {
                write!(f, "line {n}: trace i/o failed: {source}")
            }
            TraceIoError::Io { line: None, source } => write!(f, "trace i/o failed: {source}"),
            TraceIoError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io { source, .. } => Some(source),
            TraceIoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io { line: None, source: e }
    }
}

/// Percent-escapes the bytes that would collide with the trace format's
/// structure (tab/newline field separators, `;` record and `,` column
/// separators, `%` itself) plus ASCII control bytes. The inverse is
/// [`unescape_txt`]; together they make TXT payloads round-trip losslessly
/// where the format previously flattened them to `_`.
fn escape_txt(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '%' | '\t' | '\n' | '\r' | ';' | ',' => {
                let _ = write!(out, "%{:02x}", c as u32);
            }
            c if (c as u32) < 0x20 || (c as u32) == 0x7f => {
                let _ = write!(out, "%{:02x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn unescape_txt(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3).ok_or("truncated %-escape in TXT")?;
            if !hex.iter().all(u8::is_ascii_hexdigit) {
                return Err("bad %-escape in TXT".into());
            }
            let digits = std::str::from_utf8(hex).expect("hex digits are ascii");
            out.push(u8::from_str_radix(digits, 16).expect("two hex digits"));
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| "TXT %-escapes decode to invalid utf-8".to_owned())
}

fn append_rdata(rdata: &RData, line: &mut String) {
    let mut tagged_name = |tag: &str, name: &Name| {
        line.push_str(tag);
        line.push_str(name.as_str());
    };
    match rdata {
        RData::A(a) => {
            let _ = write!(line, "A:{a}");
        }
        RData::Aaaa(a) => {
            let _ = write!(line, "AAAA:{a}");
        }
        RData::Cname(n) => tagged_name("CNAME:", n),
        RData::Ns(n) => tagged_name("NS:", n),
        RData::Ptr(n) => tagged_name("PTR:", n),
        RData::Txt(s) => {
            line.push_str("TXT:");
            escape_txt(s, line);
        }
        RData::Mx { preference, exchange } => {
            let _ = write!(line, "MX:{preference}:");
            line.push_str(exchange.as_str());
        }
        RData::Soa { mname, rname, serial, refresh, retry, expire, minimum } => {
            tagged_name("SOA:", mname);
            tagged_name(":", rname);
            let _ = write!(line, ":{serial}:{refresh}:{retry}:{expire}:{minimum}");
        }
        RData::Opaque(b) => {
            line.push_str("OPAQUE:");
            for byte in b {
                let _ = write!(line, "{byte:02x}");
            }
        }
    }
}

fn parse_rdata(s: &str) -> Result<RData, String> {
    let (kind, rest) = s.split_once(':').ok_or_else(|| format!("rdata missing kind: {s}"))?;
    match kind {
        "A" => rest.parse::<Ipv4Addr>().map(RData::A).map_err(|e| e.to_string()),
        "AAAA" => rest.parse::<Ipv6Addr>().map(RData::Aaaa).map_err(|e| e.to_string()),
        "CNAME" => rest.parse::<Name>().map(RData::Cname).map_err(|e| e.to_string()),
        "NS" => rest.parse::<Name>().map(RData::Ns).map_err(|e| e.to_string()),
        "PTR" => rest.parse::<Name>().map(RData::Ptr).map_err(|e| e.to_string()),
        "TXT" => unescape_txt(rest).map(RData::Txt),
        "MX" => {
            let (pref, exch) = rest.split_once(':').ok_or("MX needs preference:exchange")?;
            Ok(RData::Mx {
                preference: pref.parse().map_err(|_| "bad MX preference")?,
                exchange: exch.parse().map_err(|_| "bad MX exchange")?,
            })
        }
        "SOA" => {
            let parts: Vec<&str> = rest.split(':').collect();
            if parts.len() != 7 {
                return Err("SOA needs 7 fields".into());
            }
            Ok(RData::Soa {
                mname: parts[0].parse().map_err(|_| "bad SOA mname")?,
                rname: parts[1].parse().map_err(|_| "bad SOA rname")?,
                serial: parts[2].parse().map_err(|_| "bad SOA serial")?,
                refresh: parts[3].parse().map_err(|_| "bad SOA refresh")?,
                retry: parts[4].parse().map_err(|_| "bad SOA retry")?,
                expire: parts[5].parse().map_err(|_| "bad SOA expire")?,
                minimum: parts[6].parse().map_err(|_| "bad SOA minimum")?,
            })
        }
        "OPAQUE" => {
            if rest.len() % 2 != 0 {
                return Err("odd-length hex".into());
            }
            // Reject non-hex input before slicing: byte-indexing a
            // multi-byte UTF-8 character would panic.
            if !rest.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err("non-hex byte in opaque rdata".into());
            }
            let bytes = (0..rest.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&rest[i..i + 2], 16))
                .collect::<Result<Vec<u8>, _>>()
                .map_err(|e| e.to_string())?;
            Ok(RData::Opaque(bytes))
        }
        other => Err(format!("unknown rdata kind {other}")),
    }
}

fn parse_qtype(s: &str) -> Result<QType, String> {
    s.parse().map_err(|_| format!("unknown qtype {s}"))
}

/// Appends one event's trace line (without the newline) to `line`,
/// allocating nothing beyond the buffer's own growth: a writer that
/// clears and reuses one buffer renders a whole day without touching the
/// heap per event. Every renderer here is a wrapper over it.
fn append_event(event: &QueryEvent, line: &mut String) {
    let _ = write!(line, "{}\t{}\t", event.time.as_secs(), event.client);
    line.push_str(event.name.as_str());
    let _ = write!(line, "\t{}\t", event.qtype);
    match &event.outcome {
        Outcome::NxDomain => line.push_str("NXDOMAIN"),
        Outcome::Answer(records) => {
            for (i, r) in records.iter().enumerate() {
                if i > 0 {
                    line.push(';');
                }
                line.push_str(r.name.as_str());
                let _ = write!(line, ",{},{},", r.qtype, r.ttl.as_secs());
                append_rdata(&r.rdata, line);
            }
        }
    }
}

/// Serializes one event as a trace line (without the newline).
pub fn render_event(event: &QueryEvent) -> String {
    let mut line = String::new();
    append_event(event, &mut line);
    line
}

/// Parses a raw name field (`what` is `qname` or `record name`) in one
/// pass: the name parser is the only thing that reads a well-formed field.
/// It refuses everything the trace format refuses — a control byte is not
/// a label byte, and more than [`MAX_NAME_LABELS`] labels cannot fit in
/// `MAX_NAME_LEN` characters — so the format's own, more specific reports
/// are worked out on the error path only, in their fixed precedence.
fn parse_name_field(field: &str, what: &str) -> Result<Name, String> {
    Name::parse(field).map_err(|e| {
        if field.bytes().any(|b| b < 0x20 || b == 0x7f) {
            return format!("control byte in {what}");
        }
        let labels = field.split('.').filter(|l| !l.is_empty()).count();
        if labels > MAX_NAME_LABELS {
            return format!("{what} has {labels} labels (cap {MAX_NAME_LABELS})");
        }
        format!("bad {what}: {e}")
    })
}

/// Parses one trace line.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn parse_event(line: &str) -> Result<QueryEvent, String> {
    if line.len() > MAX_LINE_BYTES {
        return Err(format!("line exceeds {MAX_LINE_BYTES} bytes"));
    }
    let mut fields = line.splitn(5, '\t');
    let secs: u64 = fields.next().ok_or("missing time")?.parse().map_err(|_| "bad time")?;
    let client: u64 = fields.next().ok_or("missing client")?.parse().map_err(|_| "bad client")?;
    let name = parse_name_field(fields.next().ok_or("missing qname")?, "qname")?;
    let qtype = parse_qtype(fields.next().ok_or("missing qtype")?)?;
    let outcome_field = fields.next().ok_or("missing outcome")?;
    let outcome = if outcome_field == "NXDOMAIN" {
        Outcome::NxDomain
    } else {
        let mut records = Vec::new();
        for part in outcome_field.split(';') {
            if records.len() >= MAX_ANSWER_RECORDS {
                return Err(format!("answer exceeds {MAX_ANSWER_RECORDS} records"));
            }
            let mut cols = part.splitn(4, ',');
            let rname = parse_name_field(cols.next().ok_or("missing record name")?, "record name")?;
            let rtype = parse_qtype(cols.next().ok_or("missing record type")?)?;
            let ttl: u32 = cols.next().ok_or("missing ttl")?.parse().map_err(|_| "bad ttl")?;
            let rdata = parse_rdata(cols.next().ok_or("missing rdata")?)?;
            records.push(Record::new(rname, rtype, Ttl::from_secs(ttl), rdata));
        }
        if records.is_empty() {
            return Err("empty answer".into());
        }
        Outcome::Answer(records)
    };
    Ok(QueryEvent {
        time: Timestamp::from_secs(secs),
        client,
        name,
        qtype,
        outcome,
        // Tags are scenario bookkeeping; replayed traces have none.
        zone_tag: u32::MAX,
    })
}

/// Writes `events` to `out`, one per line, through one reused line buffer,
/// and flushes: the writing half of [`EventReader`], for producers that
/// hand events over one by one instead of materialising a [`DayTrace`].
///
/// # Errors
///
/// Propagates write failures.
pub fn write_events<I, W>(events: I, mut out: W) -> Result<(), TraceIoError>
where
    I: IntoIterator,
    I::Item: Borrow<QueryEvent>,
    W: Write,
{
    let mut line = String::new();
    for event in events {
        line.clear();
        append_event(event.borrow(), &mut line);
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    Ok(out.flush()?)
}

/// Writes a trace to `out`, one event per line.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_trace<W: Write>(trace: &DayTrace, out: W) -> Result<(), TraceIoError> {
    write_events(&trace.events, out)
}

/// A resumable event-at-a-time trace reader: the iterator form of
/// [`read_trace`], for consumers (like the streaming miner) that feed
/// events forward one by one instead of materialising a whole
/// [`DayTrace`]. [`read_trace`] is implemented on top of it, so the two
/// agree exactly — same events, same skip rules, same line-numbered
/// errors.
///
/// Hostile input stays bounded: each line is read through a
/// [`MAX_LINE_BYTES`]-byte window, so a newline-free stream fails fast
/// with a line-numbered error instead of buffering without limit; bytes
/// that are not UTF-8 are likewise a line-numbered parse error.
///
/// # Examples
///
/// ```
/// use dnsnoise_workload::trace_io::EventReader;
///
/// let text = "# header\n10\t7\twww.example.com\tA\tNXDOMAIN\n";
/// let mut reader = EventReader::new(text.as_bytes());
/// let event = reader.next().unwrap().unwrap();
/// assert_eq!(event.client, 7);
/// assert!(reader.next().is_none());
/// assert_eq!(reader.lines_read(), 3); // the EOF probe counts a line too
/// ```
#[derive(Debug)]
pub struct EventReader<R: BufRead> {
    input: R,
    buf: Vec<u8>,
    lineno: usize,
    done: bool,
}

impl<R: BufRead> EventReader<R> {
    /// Wraps a buffered reader positioned at the start of (or anywhere
    /// within) a trace stream.
    pub fn new(input: R) -> EventReader<R> {
        EventReader { input, buf: Vec::with_capacity(256), lineno: 0, done: false }
    }

    /// 1-based count of lines consumed so far (including skipped blanks
    /// and comments, and the final empty read that detected EOF).
    pub fn lines_read(&self) -> usize {
        self.lineno
    }

    /// Reads forward to the next event. Returns `None` at end of input or
    /// after a previously-returned error (a trace is invalid past its
    /// first malformed line; resuming mid-garbage would desynchronize
    /// line numbers).
    #[allow(clippy::should_implement_trait)] // also exposed via Iterator
    pub fn next(&mut self) -> Option<Result<QueryEvent, TraceIoError>> {
        if self.done {
            return None;
        }
        loop {
            self.lineno += 1;
            self.buf.clear();
            // Read at most one byte past the cap: seeing the extra byte
            // distinguishes "line exactly at the cap" from "line too long".
            let read = self
                .input
                .by_ref()
                .take(MAX_LINE_BYTES as u64 + 1)
                .read_until(b'\n', &mut self.buf);
            let n = match read {
                Ok(n) => n,
                Err(source) => {
                    self.done = true;
                    return Some(Err(TraceIoError::Io { line: Some(self.lineno), source }));
                }
            };
            if n == 0 {
                self.done = true;
                return None;
            }
            if self.buf.last() == Some(&b'\n') {
                self.buf.pop();
                if self.buf.last() == Some(&b'\r') {
                    self.buf.pop();
                }
            } else if self.buf.len() > MAX_LINE_BYTES {
                self.done = true;
                return Some(Err(TraceIoError::Parse {
                    line: self.lineno,
                    message: format!("line exceeds {MAX_LINE_BYTES} bytes"),
                }));
            }
            let line = match std::str::from_utf8(&self.buf) {
                Ok(line) => line,
                Err(e) => {
                    self.done = true;
                    return Some(Err(TraceIoError::Parse {
                        line: self.lineno,
                        message: format!("line is not utf-8: {e}"),
                    }));
                }
            };
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            return Some(match parse_event(trimmed) {
                Ok(event) => Ok(event),
                Err(message) => {
                    self.done = true;
                    Err(TraceIoError::Parse { line: self.lineno, message })
                }
            });
        }
    }
}

impl<R: BufRead> Iterator for EventReader<R> {
    type Item = Result<QueryEvent, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        EventReader::next(self)
    }
}

/// Reads a trace from `input`, inferring the day from the first event.
/// Blank lines and `#` comments are skipped.
///
/// Implemented over [`EventReader`]; see there for the bounded-input
/// guarantees.
///
/// # Errors
///
/// Fails on I/O errors or the first malformed line; every error carries
/// the 1-based number of the offending line.
pub fn read_trace<R: BufRead>(input: R) -> Result<DayTrace, TraceIoError> {
    let mut events = Vec::new();
    for event in EventReader::new(input) {
        events.push(event?);
    }
    let day = events.first().map_or(0, |e| e.time.day());
    Ok(DayTrace { day, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioConfig};

    fn render_rdata(rdata: &RData) -> String {
        let mut out = String::new();
        append_rdata(rdata, &mut out);
        out
    }

    #[test]
    fn generated_trace_roundtrips() {
        let scenario = Scenario::new(ScenarioConfig::paper_epoch(0.8).with_scale(0.01), 5);
        let trace = scenario.generate_day(2);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.day, 2);
        assert_eq!(back.events.len(), trace.events.len());
        for (a, b) in trace.events.iter().zip(&back.events) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.client, b.client);
            assert_eq!(a.name, b.name);
            assert_eq!(a.qtype, b.qtype);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# header\n\n10\t7\twww.example.com\tA\tNXDOMAIN\n";
        let trace = read_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.events.len(), 1);
        assert!(trace.events[0].outcome.is_nxdomain());
    }

    #[test]
    fn malformed_lines_report_position() {
        let text = "10\t7\twww.example.com\tA\tNXDOMAIN\nnot a line\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn io_failures_report_position() {
        use std::io::{BufReader, Read};

        /// Yields one valid line, then fails.
        struct FailAfterOneLine {
            served: bool,
        }

        impl Read for FailAfterOneLine {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.served {
                    return Err(std::io::Error::other("disk on fire"));
                }
                self.served = true;
                let line = b"10\t7\twww.example.com\tA\tNXDOMAIN\n";
                buf[..line.len()].copy_from_slice(line);
                Ok(line.len())
            }
        }

        let reader = BufReader::new(FailAfterOneLine { served: false });
        let err = read_trace(reader).unwrap_err();
        match &err {
            TraceIoError::Io { line: Some(2), .. } => {}
            other => panic!("expected i/o error on line 2, got {other:?}"),
        }
        assert_eq!(err.to_string(), "line 2: trace i/o failed: disk on fire");
    }

    #[test]
    fn every_rdata_kind_roundtrips() {
        let kinds = [
            "A:192.0.2.1",
            "AAAA:2001:db8::1",
            "CNAME:target.example.com",
            "NS:ns1.example.com",
            "PTR:host.example.com",
            "TXT:hello_world",
            "MX:10:mail.example.com",
            "SOA:ns1.example.com:hostmaster.example.com:2011113001:7200:900:1209600:900",
            "OPAQUE:deadbeef",
        ];
        for k in kinds {
            let rdata = parse_rdata(k).unwrap();
            assert_eq!(render_rdata(&rdata), k, "roundtrip of {k}");
        }
        assert!(parse_rdata("BOGUS:x").is_err());
        assert!(parse_rdata("A:not-an-ip").is_err());
        assert!(parse_rdata("OPAQUE:abc").is_err(), "odd hex length");
    }

    #[test]
    fn hostile_txt_roundtrips_losslessly() {
        // Capture-ingested TXT records can contain every byte the text
        // format uses structurally; the old renderer flattened them all
        // to `_`, so replaying a written trace changed the data.
        use dnsnoise_dns::{Record, Ttl};
        let payloads = ["tab\there", "a;b,c", "pct%09literal", "line\nbreak\r", "\u{1f}ctl\u{7f}"];
        for p in payloads {
            let rdata = RData::Txt(p.to_owned());
            let rendered = render_rdata(&rdata);
            assert!(
                !rendered.contains(['\t', '\n', '\r', ';', ',']),
                "structural byte leaked: {rendered}"
            );
            assert_eq!(parse_rdata(&rendered).unwrap(), rdata, "rdata roundtrip of {p:?}");

            // And the full event line round-trips through write/read.
            let event = QueryEvent {
                time: Timestamp::from_secs(4242),
                client: 17,
                name: "txt.example.com".parse().unwrap(),
                qtype: QType::Txt,
                outcome: Outcome::Answer(vec![Record::new(
                    "txt.example.com".parse().unwrap(),
                    QType::Txt,
                    Ttl::from_secs(60),
                    RData::Txt(p.to_owned()),
                )]),
                zone_tag: u32::MAX,
            };
            let back = parse_event(&render_event(&event)).unwrap();
            assert_eq!(back.outcome, event.outcome, "event roundtrip of {p:?}");
        }
        assert!(parse_rdata("TXT:bad%zz").is_err());
        assert!(parse_rdata("TXT:trunc%0").is_err());
        assert!(parse_rdata("TXT:%ff").is_err(), "escapes must decode to utf-8");
    }

    #[test]
    fn opaque_rdata_rejects_multibyte_hex_without_panicking() {
        // "€x" is 4 bytes (even), but slicing [0..2] would split the
        // 3-byte euro sign — the old code panicked here.
        assert!(parse_rdata("OPAQUE:\u{20ac}x").is_err());
        assert!(parse_rdata("OPAQUE:zz").is_err());
    }

    #[test]
    fn oversized_lines_are_rejected_with_line_number() {
        let long = format!("10\t7\t{}.example.com\tA\tNXDOMAIN\n", "a".repeat(MAX_LINE_BYTES));
        let text = format!("10\t7\twww.example.com\tA\tNXDOMAIN\n{long}");
        let err = read_trace(text.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { line, ref message } => {
                assert_eq!(line, 2);
                assert!(message.contains("exceeds"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn newline_free_stream_fails_fast() {
        // A single unbounded line must error at the cap, not buffer it all.
        let garbage = vec![b'x'; MAX_LINE_BYTES * 4];
        let err = read_trace(garbage.as_slice()).unwrap_err();
        match err {
            TraceIoError::Parse { line: 1, .. } => {}
            other => panic!("expected line-1 parse error, got {other}"),
        }
    }

    #[test]
    fn control_bytes_in_names_are_rejected() {
        let text = "10\t7\twww.exa\u{0}mple.com\tA\tNXDOMAIN\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { line: 1, ref message } => {
                assert!(message.contains("control byte"), "{message}")
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn non_utf8_bytes_report_line_number() {
        let mut bytes = b"10\t7\twww.example.com\tA\tNXDOMAIN\n".to_vec();
        bytes.extend_from_slice(b"10\t7\t\xff\xfe\tA\tNXDOMAIN\n");
        let err = read_trace(bytes.as_slice()).unwrap_err();
        match err {
            TraceIoError::Parse { line: 2, ref message } => {
                assert!(message.contains("utf-8"), "{message}")
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn label_count_cap_is_enforced() {
        let deep = "a.".repeat(MAX_NAME_LABELS + 1) + "com";
        let text = format!("10\t7\t{deep}\tA\tNXDOMAIN\n");
        let err = read_trace(text.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { line: 1, ref message } => {
                assert!(message.contains("labels"), "{message}")
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn answer_record_cap_is_enforced() {
        let record = "www.example.com,A,60,A:192.0.2.1";
        let flood = vec![record; MAX_ANSWER_RECORDS + 1].join(";");
        let text = format!("10\t7\twww.example.com\tA\t{flood}\n");
        let err = read_trace(text.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { line: 1, ref message } => {
                assert!(message.contains("records"), "{message}")
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn crlf_lines_parse() {
        let text = "10\t7\twww.example.com\tA\tNXDOMAIN\r\n";
        let trace = read_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.events.len(), 1);
    }
}
