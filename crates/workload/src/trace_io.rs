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
//! event iterator through one reused line buffer, and [`EventReader`]
//! parses lines through a bounded window. [`write_trace`] and
//! [`read_trace`] are the whole-[`DayTrace`] forms over them, so a pipeline
//! stage that forwards events holds a line, not the day.
//!
//! Both halves cost what the bytes cost. There is one renderer,
//! [`append_line`], over an event's borrowed parts: its answer records are
//! [`RecordRef`]s, which an owned [`Record`] ([`append_event`]) and a
//! decoded wire message (capture ingestion, which builds no event) both
//! produce. It writes bytes into a `Vec<u8>` line, renders integers (two
//! digits per step), qtypes and IPv4 addresses by hand rather than through
//! `core::fmt` (AAAA alone keeps `Display`, for its RFC 5952 `::`
//! compression) and allocates nothing into a warmed buffer; ingest's wire
//! decode allocates nothing either, so a capture becomes text at no heap
//! cost per event. The reader ([`parse_event`]) does not parse again a
//! name it has just seen: an answer record owned by the qname, or by the
//! previous record's CNAME target, shares that `Name`, and every other
//! name field is looked up in a [`NameTable`] of recent names, one per
//! [`EventReader`], so a popular name asked all day is one heap block per
//! read, not one per line. On a cold table a one-record answer line costs
//! two allocations (the name block and the answer `Vec`), each CNAME
//! target one more, and an NXDOMAIN line one; once the table holds the
//! line's names, an answer line costs its `Vec` alone and an NXDOMAIN
//! line nothing.
//! `tests/trace_allocs.rs` pins those counts, `tests/golden/render.txt`
//! pins the rendered bytes, and the unit tests hold both halves to the
//! `core::fmt` codec they replaced, through a cold table and a shared one.

use std::borrow::Borrow;
use std::io::{BufRead, Read as _, Write};
use std::net::{Ipv4Addr, Ipv6Addr};

use dnsnoise_dns::{
    Name, NameTable, QType, RData, RDataRef, Record, RecordRef, Soa, Timestamp, Ttl,
};

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

/// Whether a TXT byte must go out %-escaped: the trace format's
/// structural bytes (tab/newline field separators, `;` record and `,`
/// column separators, `%` itself) and ASCII control bytes.
fn escapes(b: u8) -> bool {
    matches!(b, b'%' | b';' | b',') || b < 0x20 || b == 0x7f
}

/// Appends `b` as `%` and two lower-case hex digits.
fn push_escape(b: u8, out: &mut Vec<u8>) {
    out.push(b'%');
    push_hex(b, out);
}

/// Percent-escapes the bytes that would collide with the trace format's
/// structure (see [`escapes`]), and every byte of a trailing
/// [`char::is_whitespace`] run: the reader trims each line, so whitespace
/// left raw at a line's end would be lost. The inverse is
/// [`unescape_txt`]; together they make TXT payloads round-trip
/// losslessly through a file.
fn escape_txt(s: &str, out: &mut Vec<u8>) {
    let body = s.trim_end().as_bytes();
    let mut raw = 0;
    for (i, &b) in body.iter().enumerate() {
        if escapes(b) {
            out.extend_from_slice(&body[raw..i]);
            push_escape(b, out);
            raw = i + 1;
        }
    }
    out.extend_from_slice(&body[raw..]);
    for &b in &s.as_bytes()[body.len()..] {
        push_escape(b, out);
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

/// The two decimal digits of every number below 100, back to back.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `n` in decimal, as `Display` would, two digits at a time.
fn push_decimal(mut n: u64, out: &mut Vec<u8>) {
    let mut digits = [0u8; 20]; // u64::MAX has 20
    let mut at = digits.len();
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + n as u8;
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `b` as two lower-case hex digits.
fn push_hex(b: u8, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.extend_from_slice(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
}

/// Appends `tag` and then `name`'s presentation text.
fn push_tagged(tag: &str, name: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(tag.as_bytes());
    out.extend_from_slice(name.as_bytes());
}

fn append_rdata(rdata: RDataRef<'_>, line: &mut Vec<u8>) {
    match rdata {
        RDataRef::A(a) => {
            line.extend_from_slice(b"A:");
            for (i, octet) in a.octets().into_iter().enumerate() {
                if i > 0 {
                    line.push(b'.');
                }
                push_decimal(u64::from(octet), line);
            }
        }
        RDataRef::Aaaa(a) => {
            // `Display` does RFC 5952's `::` compression and the
            // v4-mapped form; neither is worth hand-copying. Writing into
            // a `Vec` cannot fail.
            let _ = write!(line, "AAAA:{a}");
        }
        RDataRef::Cname(n) => push_tagged("CNAME:", n, line),
        RDataRef::Ns(n) => push_tagged("NS:", n, line),
        RDataRef::Ptr(n) => push_tagged("PTR:", n, line),
        RDataRef::Txt(s) => {
            line.extend_from_slice(b"TXT:");
            escape_txt(s, line);
        }
        RDataRef::Mx { preference, exchange } => {
            line.extend_from_slice(b"MX:");
            push_decimal(u64::from(preference), line);
            push_tagged(":", exchange, line);
        }
        RDataRef::Soa { mname, rname, counters } => {
            push_tagged("SOA:", mname, line);
            push_tagged(":", rname, line);
            for field in counters {
                line.push(b':');
                push_decimal(u64::from(field), line);
            }
        }
        RDataRef::Opaque(b) => {
            line.extend_from_slice(b"OPAQUE:");
            for &byte in b {
                push_hex(byte, line);
            }
        }
    }
}

fn parse_rdata(s: &str, names: &mut NameTable) -> Result<RData, String> {
    let (kind, rest) = s.split_once(':').ok_or_else(|| format!("rdata missing kind: {s}"))?;
    match kind {
        "A" => rest.parse::<Ipv4Addr>().map(RData::A).map_err(|e| e.to_string()),
        "AAAA" => rest.parse::<Ipv6Addr>().map(RData::Aaaa).map_err(|e| e.to_string()),
        "CNAME" => names.intern(rest).map(RData::Cname).map_err(|e| e.to_string()),
        "NS" => names.intern(rest).map(RData::Ns).map_err(|e| e.to_string()),
        "PTR" => names.intern(rest).map(RData::Ptr).map_err(|e| e.to_string()),
        "TXT" => unescape_txt(rest).map(|text| RData::Txt(text.into())),
        "MX" => {
            let (pref, exch) = rest.split_once(':').ok_or("MX needs preference:exchange")?;
            Ok(RData::Mx {
                preference: pref.parse().map_err(|_| "bad MX preference")?,
                exchange: names.intern(exch).map_err(|_| "bad MX exchange")?,
            })
        }
        "SOA" => {
            let parts: Vec<&str> = rest.split(':').collect();
            if parts.len() != 7 {
                return Err("SOA needs 7 fields".into());
            }
            Ok(RData::Soa(Box::new(Soa {
                mname: names.intern(parts[0]).map_err(|_| "bad SOA mname")?,
                rname: names.intern(parts[1]).map_err(|_| "bad SOA rname")?,
                serial: parts[2].parse().map_err(|_| "bad SOA serial")?,
                refresh: parts[3].parse().map_err(|_| "bad SOA refresh")?,
                retry: parts[4].parse().map_err(|_| "bad SOA retry")?,
                expire: parts[5].parse().map_err(|_| "bad SOA expire")?,
                minimum: parts[6].parse().map_err(|_| "bad SOA minimum")?,
            })))
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
                .collect::<Result<Box<[u8]>, _>>()
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
/// heap per event. It is [`append_line`] over the event's fields.
pub fn append_event(event: &QueryEvent, line: &mut Vec<u8>) {
    let answers = match &event.outcome {
        Outcome::NxDomain => None,
        Outcome::Answer(records) => Some(records.iter().map(Record::borrowed)),
    };
    append_line(
        event.time.as_secs(),
        event.client,
        event.name.as_str(),
        event.qtype,
        answers,
        line,
    );
}

/// Appends the trace line of an event given by its borrowed fields (no
/// newline) to `line`: the one renderer, behind [`append_event`] and
/// behind capture ingestion, which hands it the records of a decoded wire
/// message without building an event. `answers` is `None` for NXDOMAIN.
pub fn append_line<'a>(
    secs: u64,
    client: u64,
    qname: &str,
    qtype: QType,
    answers: Option<impl IntoIterator<Item = RecordRef<'a>>>,
    line: &mut Vec<u8>,
) {
    push_decimal(secs, line);
    line.push(b'\t');
    push_decimal(client, line);
    line.push(b'\t');
    line.extend_from_slice(qname.as_bytes());
    line.push(b'\t');
    line.extend_from_slice(qtype.mnemonic().as_bytes());
    line.push(b'\t');
    let Some(answers) = answers else {
        line.extend_from_slice(b"NXDOMAIN");
        return;
    };
    for (i, r) in answers.into_iter().enumerate() {
        if i > 0 {
            line.push(b';');
        }
        line.extend_from_slice(r.name.as_bytes());
        line.push(b',');
        line.extend_from_slice(r.qtype.mnemonic().as_bytes());
        line.push(b',');
        push_decimal(u64::from(r.ttl.as_secs()), line);
        line.push(b',');
        append_rdata(r.rdata, line);
    }
}

/// Parses a raw name field (`what` is `qname` or `record name`) through
/// `names`: a field the table holds is that name, and any other is parsed
/// in one pass, the name parser being the only thing that reads a
/// well-formed field. It refuses everything the trace format refuses — a
/// control byte is not a label byte, and more than [`MAX_NAME_LABELS`]
/// labels cannot fit in `MAX_NAME_LEN` characters — so the format's own,
/// more specific reports are worked out on the error path only, in their
/// fixed precedence.
fn parse_name_field(field: &str, what: &str, names: &mut NameTable) -> Result<Name, String> {
    names.intern(field).map_err(|e| {
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

/// `str::splitn` over an ASCII separator, scanning bytes: a trace field is
/// a few bytes long, too short for the general searcher's set-up to pay.
/// At most `n` fields, the last of which is the rest of the text.
#[derive(Debug)]
struct Fields<'a> {
    rest: Option<&'a str>,
    sep: u8,
    n: usize,
}

fn split_ascii(text: &str, sep: u8, n: usize) -> Fields<'_> {
    Fields { rest: Some(text), sep, n }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.rest?;
        if self.n <= 1 {
            self.rest = None;
            return Some(rest);
        }
        self.n -= 1;
        match rest.bytes().position(|b| b == self.sep) {
            // The separator is ASCII, so both cuts are on char boundaries.
            Some(i) => {
                self.rest = Some(&rest[i + 1..]);
                Some(&rest[..i])
            }
            None => {
                self.rest = None;
                Some(rest)
            }
        }
    }
}

/// Parses one trace line, looking its name fields up in `names`.
///
/// A name the line repeats is not looked up again: a record owner field
/// that is the presentation text of the qname, or of the previous record's
/// `CNAME` target, shares that already-parsed [`Name`]. Every other name
/// field — the qname, other owners, CNAME/NS/PTR/MX/SOA targets — goes
/// through [`NameTable::intern`], which hands a field it holds the block
/// it made before. A name's own text parses back to it, and only a miss
/// parses, so the value and the error precedence are a fresh parse's
/// whatever the table holds. A one-record answer costs two allocations on
/// a cold table, the name block and the answer `Vec`, and the `Vec` alone
/// once the table holds its name.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn parse_event(line: &str, names: &mut NameTable) -> Result<QueryEvent, String> {
    if line.len() > MAX_LINE_BYTES {
        return Err(format!("line exceeds {MAX_LINE_BYTES} bytes"));
    }
    let mut fields = split_ascii(line, b'\t', 5);
    let secs: u64 = fields.next().ok_or("missing time")?.parse().map_err(|_| "bad time")?;
    let client: u64 = fields.next().ok_or("missing client")?.parse().map_err(|_| "bad client")?;
    let name = parse_name_field(fields.next().ok_or("missing qname")?, "qname", names)?;
    let qtype = parse_qtype(fields.next().ok_or("missing qtype")?)?;
    let outcome_field = fields.next().ok_or("missing outcome")?;
    let outcome = if outcome_field == "NXDOMAIN" {
        Outcome::NxDomain
    } else {
        let mut records: Vec<Record> = Vec::new();
        for part in split_ascii(outcome_field, b';', usize::MAX) {
            if records.len() >= MAX_ANSWER_RECORDS {
                return Err(format!("answer exceeds {MAX_ANSWER_RECORDS} records"));
            }
            let mut cols = split_ascii(part, b',', 4);
            let owner = cols.next().ok_or("missing record name")?;
            let rname = match records.last().map(|r| &r.rdata) {
                _ if owner == name.as_str() => name.clone(),
                Some(RData::Cname(target)) if owner == target.as_str() => target.clone(),
                _ => parse_name_field(owner, "record name", names)?,
            };
            let rtype = parse_qtype(cols.next().ok_or("missing record type")?)?;
            let ttl: u32 = cols.next().ok_or("missing ttl")?.parse().map_err(|_| "bad ttl")?;
            let rdata = parse_rdata(cols.next().ok_or("missing rdata")?, names)?;
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
    let mut line = Vec::new();
    for event in events {
        line.clear();
        append_event(event.borrow(), &mut line);
        line.push(b'\n');
        out.write_all(&line)?;
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
/// The reader owns one [`NameTable`] (64 KiB) and parses every line
/// through it, so a name the trace repeats shares one heap block while the
/// table holds it; dropping the reader drops the table.
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
    names: NameTable,
    lineno: usize,
    done: bool,
}

impl<R: BufRead> EventReader<R> {
    /// Wraps a buffered reader positioned at the start of (or anywhere
    /// within) a trace stream.
    pub fn new(input: R) -> EventReader<R> {
        EventReader {
            input,
            buf: Vec::with_capacity(256),
            names: NameTable::new(),
            lineno: 0,
            done: false,
        }
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
            return Some(match parse_event(trimmed, &mut self.names) {
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

/// The `core::fmt` codec the hand-rolled one replaced, kept as the
/// oracle the differential tests hold [`parse_event`] and
/// [`append_event`] to (the way `pdns::store::crc` keeps its bytewise
/// loop).
#[cfg(test)]
mod reference {
    use super::*;
    use std::fmt::Write as _;

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
            RData::Soa(soa) => {
                let Soa { mname, rname, serial, refresh, retry, expire, minimum } = &**soa;
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

    pub fn append_event(event: &QueryEvent, line: &mut String) {
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

    pub fn parse_event(line: &str) -> Result<QueryEvent, String> {
        if line.len() > MAX_LINE_BYTES {
            return Err(format!("line exceeds {MAX_LINE_BYTES} bytes"));
        }
        // A table no earlier line warmed: the values and errors of a
        // table-free parse.
        let names = &mut NameTable::new();
        let mut fields = line.splitn(5, '\t');
        let secs: u64 = fields.next().ok_or("missing time")?.parse().map_err(|_| "bad time")?;
        let client: u64 =
            fields.next().ok_or("missing client")?.parse().map_err(|_| "bad client")?;
        let name = parse_name_field(fields.next().ok_or("missing qname")?, "qname", names)?;
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
                let owner = cols.next().ok_or("missing record name")?;
                let rname = parse_name_field(owner, "record name", names)?;
                let rtype = parse_qtype(cols.next().ok_or("missing record type")?)?;
                let ttl: u32 = cols.next().ok_or("missing ttl")?.parse().map_err(|_| "bad ttl")?;
                let rdata = parse_rdata(cols.next().ok_or("missing rdata")?, names)?;
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
            zone_tag: u32::MAX,
        })
    }
}

#[cfg(test)]
#[path = "../tests/common/corruption.rs"]
mod corruption;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioConfig};

    /// `parse_rdata` through a table of its own.
    fn parse_rdata_alone(s: &str) -> Result<RData, String> {
        parse_rdata(s, &mut NameTable::new())
    }

    fn render_rdata(rdata: &RData) -> String {
        let mut out = Vec::new();
        append_rdata(rdata.borrowed(), &mut out);
        String::from_utf8(out).unwrap()
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
            let rdata = parse_rdata_alone(k).unwrap();
            assert_eq!(render_rdata(&rdata), k, "roundtrip of {k}");
        }
        assert!(parse_rdata_alone("BOGUS:x").is_err());
        assert!(parse_rdata_alone("A:not-an-ip").is_err());
        assert!(parse_rdata_alone("OPAQUE:abc").is_err(), "odd hex length");
    }

    fn txt_event(payload: &str) -> QueryEvent {
        QueryEvent {
            time: Timestamp::from_secs(4242),
            client: 17,
            name: "txt.example.com".parse().unwrap(),
            qtype: QType::Txt,
            outcome: Outcome::Answer(vec![Record::new(
                "txt.example.com".parse().unwrap(),
                QType::Txt,
                Ttl::from_secs(60),
                RData::Txt(payload.into()),
            )]),
            zone_tag: u32::MAX,
        }
    }

    #[test]
    fn hostile_txt_roundtrips_losslessly() {
        // Capture-ingested TXT records can contain every byte the text
        // format uses structurally; the old renderer flattened them all
        // to `_`, so replaying a written trace changed the data. The
        // reader trims each line, so a raw trailing whitespace run was
        // lost on the way through a file too.
        let payloads = [
            "tab\there",
            "a;b,c",
            "pct%09literal",
            "line\nbreak\r",
            "\u{1f}ctl\u{7f}",
            "hello ",
            "nbsp\u{a0}",
            "x\u{3000}",
            " \t ",
        ];
        for p in payloads {
            let rdata = RData::Txt(p.into());
            let rendered = render_rdata(&rdata);
            assert!(
                !rendered.contains(['\t', '\n', '\r', ';', ',']),
                "structural byte leaked: {rendered}"
            );
            assert_eq!(rendered.trim_end(), rendered, "trailing whitespace left raw");
            assert_eq!(parse_rdata_alone(&rendered).unwrap(), rdata, "rdata roundtrip of {p:?}");

            // And the full event line round-trips through a file.
            let event = txt_event(p);
            let mut file = Vec::new();
            write_events([&event], &mut file).unwrap();
            let back: Vec<QueryEvent> =
                EventReader::new(file.as_slice()).collect::<Result<_, _>>().unwrap();
            assert_eq!(back, [event], "file roundtrip of {p:?}");
        }
        assert_eq!(render_rdata(&RData::Txt("x\u{3000}".into())), "TXT:x%e3%80%80");
        assert!(parse_rdata_alone("TXT:bad%zz").is_err());
        assert!(parse_rdata_alone("TXT:trunc%0").is_err());
        assert!(parse_rdata_alone("TXT:%ff").is_err(), "escapes must decode to utf-8");
    }

    #[test]
    fn opaque_rdata_rejects_multibyte_hex_without_panicking() {
        // "€x" is 4 bytes (even), but slicing [0..2] would split the
        // 3-byte euro sign — the old code panicked here.
        assert!(parse_rdata_alone("OPAQUE:\u{20ac}x").is_err());
        assert!(parse_rdata_alone("OPAQUE:zz").is_err());
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

    /// Differential tests: the hand-rolled codec against the `core::fmt`
    /// one it replaced ([`reference`]).
    mod parent_codec {
        use super::*;
        use crate::trace_io::corruption::{self, corruption};
        use crate::trace_io::reference;
        use proptest::prelude::*;
        use proptest::string::string_regex;
        use proptest::test_runner::TestCaseError;

        /// Both parsers on `line`: the same event, or the same error text.
        fn assert_same_parse(line: &str) -> Result<(), TestCaseError> {
            let parsed = parse_event(line, &mut NameTable::new());
            prop_assert_eq!(parsed, reference::parse_event(line), "line {:?}", line);
            Ok(())
        }

        fn render_event(event: &QueryEvent) -> String {
            let mut line = Vec::new();
            append_event(event, &mut line);
            String::from_utf8(line).unwrap()
        }

        fn reference_render(event: &QueryEvent) -> String {
            let mut line = String::new();
            reference::append_event(event, &mut line);
            line
        }

        /// Whether `event` carries a TXT payload ending in whitespace, the
        /// one shape the two writers may render differently.
        fn trailing_space_txt(event: &QueryEvent) -> bool {
            event.outcome.records().iter().any(|r| match &r.rdata {
                RData::Txt(s) => s.trim_end() != &**s,
                _ => false,
            })
        }

        fn qtype(i: usize) -> QType {
            QType::all()[i % QType::all().len()]
        }

        /// Short names over a small alphabet, so owners, qnames and
        /// targets collide often.
        fn name() -> impl Strategy<Value = Name> {
            string_regex("[a-c]{1,2}(\\.[a-c]{1,2}){0,2}").unwrap().prop_map(|s| s.parse().unwrap())
        }

        fn rdata() -> impl Strategy<Value = RData> {
            // Runs of zero groups exercise AAAA's `::` compression.
            let v6 = (any::<[u8; 16]>(), any::<u8>()).prop_map(|(mut bytes, zeros)| {
                for group in 0..8 {
                    if zeros & (1 << group) != 0 {
                        bytes[2 * group] = 0;
                        bytes[2 * group + 1] = 0;
                    }
                }
                RData::Aaaa(Ipv6Addr::from(bytes))
            });
            let txt = "[ -~\t\n\r\u{0}-\u{1f}\u{7f}\u{85}\u{a0}\u{2028}\u{3000}é中%;,]{0,8}";
            prop_oneof![
                any::<u32>().prop_map(|a| RData::A(Ipv4Addr::from(a))),
                v6,
                any::<u32>().prop_map(|a| RData::Aaaa(Ipv4Addr::from(a).to_ipv6_mapped())),
                name().prop_map(RData::Cname),
                name().prop_map(RData::Ns),
                name().prop_map(RData::Ptr),
                string_regex(txt).unwrap().prop_map(|s| RData::Txt(s.into())),
                (any::<u16>(), name())
                    .prop_map(|(preference, exchange)| RData::Mx { preference, exchange }),
                (
                    name(),
                    name(),
                    (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>())
                )
                    .prop_map(
                        |(mname, rname, (serial, refresh, retry, expire, minimum))| {
                            RData::Soa(Box::new(Soa {
                                mname,
                                rname,
                                serial,
                                refresh,
                                retry,
                                expire,
                                minimum,
                            }))
                        }
                    ),
                proptest::collection::vec(any::<u8>(), 0..6).prop_map(|b| RData::Opaque(b.into())),
            ]
        }

        /// Events with every `RData` variant, whose records are owned by
        /// the qname, by the previous record's CNAME target, or by another
        /// name.
        fn event() -> impl Strategy<Value = QueryEvent> {
            let record = (0u8..3, name(), 0usize..11, any::<u32>(), rdata());
            (
                (any::<u64>(), any::<u64>(), name(), 0usize..11),
                proptest::collection::vec(record, 0..5),
            )
                .prop_map(|((secs, client, qname, qt), parts)| {
                    let mut records: Vec<Record> = Vec::new();
                    for (owner, other, rt, ttl, rdata) in parts {
                        let owner = match (owner, records.last().map(|r| &r.rdata)) {
                            (0, _) => qname.clone(),
                            (1, Some(RData::Cname(target))) => target.clone(),
                            _ => other,
                        };
                        records.push(Record::new(owner, qtype(rt), Ttl::from_secs(ttl), rdata));
                    }
                    QueryEvent {
                        time: Timestamp::from_secs(secs),
                        client,
                        name: qname,
                        qtype: qtype(qt),
                        outcome: if records.is_empty() {
                            Outcome::NxDomain
                        } else {
                            Outcome::Answer(records)
                        },
                        zone_tag: u32::MAX,
                    }
                })
        }

        /// Raw answer lines whose owner fields are the qname field, the
        /// previous CNAME target field, a near miss of either (case,
        /// trailing dot, one byte short, one byte off) or junk: the reuse
        /// paths next to the fields that must not take them.
        fn answer_line() -> impl Strategy<Value = String> {
            let field = || string_regex("[a-cA-C.\u{1}]{0,5}").unwrap();
            let record = (0u8..8, field(), 0u8..4, field());
            (field(), proptest::collection::vec(record, 1..5)).prop_map(|(qname, records)| {
                let mut line = format!("7\t3\t{qname}\tA\t");
                let mut target = String::new();
                for (i, (owner, junk, rdata, new_target)) in records.into_iter().enumerate() {
                    if i > 0 {
                        line.push(';');
                    }
                    // The fields are ASCII, so any byte cut is a char cut.
                    let owner = match owner {
                        0 => qname.clone(),
                        1 => target.clone(),
                        2 => qname.to_ascii_uppercase(),
                        3 => qname.to_ascii_lowercase(),
                        4 => format!("{target}."),
                        5 => qname[..qname.len().saturating_sub(1)].to_owned(),
                        6 => target.replacen('a', "b", 1),
                        _ => junk,
                    };
                    let rdata = match rdata {
                        0 | 1 => format!("CNAME:{new_target}"),
                        2 => "A:192.0.2.1".to_owned(),
                        _ => "A:bogus".to_owned(),
                    };
                    line.push_str(&format!("{owner},CNAME,60,{rdata}"));
                    target = new_target;
                }
                line
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn generated_days_render_and_parse_as_the_parent_did(
                epoch in 0.0f64..=1.0,
                seed in 0u64..1_000,
                day in 0u64..3,
            ) {
                let config = ScenarioConfig::paper_epoch(epoch).with_scale(0.003);
                for event in Scenario::new(config, seed).generate_day(day).events {
                    let line = render_event(&event);
                    prop_assert_eq!(&line, &reference_render(&event));
                    assert_same_parse(&line)?;
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn every_rdata_line_renders_and_parses_as_the_parent_did(event in event()) {
                let line = render_event(&event);
                let parent = reference_render(&event);
                if !trailing_space_txt(&event) {
                    prop_assert_eq!(&line, &parent);
                }
                assert_same_parse(&line)?;
                assert_same_parse(&parent)?;
                // Through a file, which the parent's render did not survive
                // when a TXT payload ended in whitespace.
                let mut file = Vec::new();
                write_events([&event], &mut file).unwrap();
                let back: Vec<QueryEvent> =
                    EventReader::new(file.as_slice()).collect::<Result<_, _>>().unwrap();
                prop_assert_eq!(back, vec![event]);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn owner_fields_parse_as_the_parent_did(line in answer_line()) {
                assert_same_parse(&line)?;
            }
        }

        /// A name field over a few spellings of a few names: upper case,
        /// a trailing dot, the root as `.` and as an empty field, and
        /// defects (an empty label, a space, a control byte, a 64-byte
        /// label).
        fn name_field() -> impl Strategy<Value = String> {
            let spelled = || string_regex("[a-cA-C]{1,2}(\\.[a-cA-C]{1,2}){0,2}\\.?").unwrap();
            prop_oneof![
                spelled(),
                spelled(),
                spelled(),
                Just(".".to_owned()),
                Just(String::new()),
                prop_oneof![
                    Just("a..b".to_owned()),
                    Just("a b.c".to_owned()),
                    Just("a\u{1}.c".to_owned()),
                    Just("x".repeat(64)),
                ],
            ]
        }

        /// Lines whose every name field is a [`name_field`]: the qname,
        /// the owners (often the qname's field again) and each rdata kind
        /// that names a name.
        fn table_line() -> impl Strategy<Value = String> {
            let rdata = prop_oneof![
                name_field().prop_map(|n| format!("CNAME:{n}")),
                name_field().prop_map(|n| format!("NS:{n}")),
                name_field().prop_map(|n| format!("PTR:{n}")),
                name_field().prop_map(|n| format!("MX:10:{n}")),
                (name_field(), name_field()).prop_map(|(m, r)| format!("SOA:{m}:{r}:1:2:3:4:5")),
                Just("A:192.0.2.1".to_owned()),
            ];
            let record = (any::<bool>(), name_field(), rdata);
            (name_field(), proptest::collection::vec(record, 0..4)).prop_map(|(qname, records)| {
                let mut line = format!("7\t3\t{qname}\tA\t");
                if records.is_empty() {
                    line.push_str("NXDOMAIN");
                }
                for (i, (own, owner, rdata)) in records.into_iter().enumerate() {
                    if i > 0 {
                        line.push(';');
                    }
                    let owner = if own { &qname } else { &owner };
                    line.push_str(&format!("{owner},A,60,{rdata}"));
                }
                line
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// A shared table changes no value and no error: every line,
            /// parsed twice through one table, equals its parse through a
            /// fresh one. With a crowd, the table first takes twice as many
            /// distinct names as it has slots, so every slot holds another
            /// name when a line's first lookup reaches it.
            #[test]
            fn a_shared_table_parses_as_a_fresh_one(
                lines in proptest::collection::vec(table_line(), 1..24),
                crowd in any::<bool>(),
            ) {
                let mut shared = NameTable::new();
                for i in 0..if crowd { 8192 } else { 0 } {
                    let crowded = format!("{i}\t1\tn{i}.crowd\tA\tNXDOMAIN");
                    prop_assert!(parse_event(&crowded, &mut shared).is_ok());
                }
                for line in lines.iter().chain(&lines) {
                    let fresh = parse_event(line, &mut NameTable::new());
                    prop_assert_eq!(parse_event(line, &mut shared), fresh, "line {:?}", line);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn corrupted_lines_parse_as_the_parent_did(
                seed in 0u64..100,
                events in proptest::collection::vec(event(), 1..8),
                respellings in proptest::collection::vec((0usize..8, 0usize..4, scalar()), 0..6),
                corruptions in proptest::collection::vec(corruption(), 1..6),
            ) {
                let config = ScenarioConfig::paper_epoch(0.3).with_scale(0.002);
                let trace = Scenario::new(config, seed).generate_day(0);
                let mut bytes = Vec::new();
                write_events(events.iter().chain(&trace.events), &mut bytes).unwrap();
                let mut lines: Vec<String> =
                    String::from_utf8(bytes).unwrap().lines().map(str::to_owned).collect();
                for (at, field, token) in respellings {
                    let at = at % lines.len();
                    lines[at] = respell(&lines[at], field, &token);
                }
                let mut bytes = lines.join("\n").into_bytes();
                corruption::apply(&mut bytes, corruptions);
                for raw in bytes.split(|&b| b == b'\n') {
                    if let Ok(line) = std::str::from_utf8(raw) {
                        assert_same_parse(line)?;
                        assert_same_parse(line.trim())?;
                    }
                }
            }
        }

        /// Spellings at the edges of what the scalar fields accept: signs,
        /// leading zeros, overflow, octet counts, a trailing dot, nothing.
        const SCALAR_EDGES: [&str; 29] = [
            "+7",
            "-0",
            "007",
            "",
            "+",
            "++1",
            "0",
            "1a",
            " 1",
            "\u{663}",
            "18446744073709551615",
            "18446744073709551616",
            "4294967295",
            "4294967296",
            "01.2.3.4",
            "001.2.3.4",
            "1.2.3.04",
            "256.0.0.1",
            "1.2.3",
            "1.2.3.4.5",
            "1.2.3.4.",
            "1.2.3.4 ",
            "1.2.3.4444",
            "0.0.0.0",
            "+1.2.3.4",
            "-1.2.3.4",
            "1..2.3",
            "255.255.255.255",
            "192.0.2.1",
        ];

        fn scalar() -> impl Strategy<Value = String> {
            prop_oneof![
                (0..SCALAR_EDGES.len()).prop_map(|i| SCALAR_EDGES[i].to_owned()),
                string_regex("[+0-9.-]{0,12}").unwrap(),
            ]
        }

        /// `line` with one scalar field replaced by `token`: the time (0),
        /// the client (1), the first record's TTL (2) or its rdata after
        /// `A:` (3). A line without that field is returned as it is.
        fn respell(line: &str, field: usize, token: &str) -> String {
            let mut fields: Vec<String> = line.split('\t').map(str::to_owned).collect();
            if fields.len() != 5 {
                return line.to_owned();
            }
            match field {
                0 | 1 => fields[field] = token.to_owned(),
                _ => {
                    let mut cols: Vec<String> =
                        fields[4].splitn(4, ',').map(str::to_owned).collect();
                    if cols.len() != 4 {
                        return line.to_owned();
                    }
                    match field {
                        2 => cols[2] = token.to_owned(),
                        _ => cols[3] = format!("A:{token}"),
                    }
                    fields[4] = cols.join(",");
                }
            }
            fields.join("\t")
        }

        #[test]
        fn scalar_field_edges_parse_as_the_parent_did() {
            for token in SCALAR_EDGES {
                for field in 0..4 {
                    let line =
                        respell("1\t2\tx.example\tA\tx.example,A,60,A:192.0.2.1", field, token);
                    assert_same_parse(&line).unwrap();
                }
            }
        }
    }
}
