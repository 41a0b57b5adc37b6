//! Fault-tolerant capture ingestion.
//!
//! This crate turns on-disk DNS captures — classic libpcap files and
//! dnstap-style Frame Streams — into the canonical [`QueryEvent`]s the
//! rest of the pipeline consumes, under the assumption that real captures
//! are *hostile*: truncated mid-frame, bit-flipped in bursts, spliced by
//! ring buffers, and interleaved with traffic that is not DNS at all.
//!
//! Ingestion is one serial pull pipeline, [`EventStream`]: scan → decode
//! → timestamp filter, one frame at a time. It reads the capture from any
//! [`std::io::Read`] through one [`WINDOW_LEN`]-byte window, or borrows a
//! capture already in memory whole. Each frame decodes into a reused
//! wire view ([`dnsnoise_dns::wire::MessageView`]) in the filter's ring
//! of three — the event being judged and its two-frame lookahead — so a
//! consumer holds that window and those views, never the capture, never
//! the day. The CLI renders each accepted frame's trace line straight
//! from its view ([`EventStream::write_lines`]) and builds no event: a
//! whole capture costs a fixed handful of allocations. The [`Iterator`]
//! hands out owned [`QueryEvent`]s built from the judged view, and
//! [`ingest_bytes`] is that stream over an in-memory capture collected
//! into a [`DayTrace`].
//!
//! The design is graceful degradation with receipts:
//!
//! 1. **Resync, never abort.** A serial scan delimits frame extents using
//!    header plausibility plus one-frame lookahead; on garbage it
//!    skip-scans to the next confirmed boundary instead of giving up on
//!    the file.
//! 2. **Quarantine ledger.** Every malformed record is counted under a
//!    typed class in the [`IngestReport`], with the first few samples
//!    retained, and the conservation invariant
//!    `bytes_total = bytes_parsed + bytes_quarantined + bytes_skipped`
//!    holds on every input.
//! 3. **Per-source error budget.** When the malformed fraction exceeds
//!    [`IngestConfig::max_error_rate`], [`EventStream::finish`] fails with
//!    a diagnostic carrying the full ledger. The verdict exists only at
//!    end of capture, so a consumer that must not emit a sliver of a
//!    ruined source withholds its output until then.
//! 4. **One thread, one order.** Each frame is decoded as the scanner
//!    delimits it and judged by the filter in capture order, so output is
//!    bit-identical across runs by construction (DESIGN, "Why replay and
//!    decode are serial").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrupt;
mod decode;
pub mod framestream;
pub mod pcap;
#[cfg(test)]
mod reference;
pub mod report;
mod scan;

use std::fmt;
use std::io::{self, Read, Write};

use dnsnoise_dns::wire::MessageView;
use dnsnoise_dns::{Rcode, StampWindow, SECS_PER_DAY, STAMP_NEIGHBORS};
use dnsnoise_workload::{trace_io, DayTrace, QueryEvent};

pub use report::{IngestReport, QuarantineClass, QuarantineSample};
pub use scan::{RawFrame, ScanError, Scanned, Step, View};

use report::QuarantineSample as Sample;

/// The capture container formats ingestion understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureFormat {
    /// Classic libpcap (any of the four magic variants when detected; the
    /// writer emits little-endian microsecond files).
    Pcap,
    /// Frame Streams carrying dnstap-lite data frames.
    Dnstap,
}

impl CaptureFormat {
    /// Stable lowercase identifier, matching the CLI's `--format` values.
    pub fn id(self) -> &'static str {
        match self {
            CaptureFormat::Pcap => "pcap",
            CaptureFormat::Dnstap => "dnstap",
        }
    }

    /// Parses a CLI `--format` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pcap" => Some(CaptureFormat::Pcap),
            "dnstap" => Some(CaptureFormat::Dnstap),
            _ => None,
        }
    }
}

impl fmt::Display for CaptureFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// A trace event that cannot be expressed in the target capture format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureWriteError(pub String);

impl fmt::Display for CaptureWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot serialize event: {}", self.0)
    }
}

impl std::error::Error for CaptureWriteError {}

/// Knobs for one ingestion run.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Capture format; `None` auto-detects from the leading bytes.
    pub format: Option<CaptureFormat>,
    /// Shim: ignored. Decoding is serial; the field survives only because
    /// `benchmark/src/layers.rs` sets it and no ordinary PR may edit that
    /// directory. Nothing reads it, and it goes once the next
    /// `[benchmark]` PR has dropped that caller (ROADMAP).
    #[doc(hidden)]
    pub threads: usize,
    /// Maximum tolerated error rate — the fraction of input bytes that
    /// were quarantined or skipped — before the source is rejected
    /// outright.
    pub max_error_rate: f64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { format: None, threads: 1, max_error_rate: 0.5 }
    }
}

/// Why an ingestion run produced no trace at all.
#[derive(Debug)]
pub enum IngestError {
    /// The capture could not be recognized or scanned in the first place.
    BadCapture(String),
    /// The source exceeded the configured error budget. The ledger for
    /// the full scan rides along for diagnosis.
    ErrorBudgetExceeded {
        /// Observed malformed fraction.
        rate: f64,
        /// The configured ceiling.
        limit: f64,
        /// The complete ledger up to the point of rejection.
        report: Box<IngestReport>,
    },
    /// Reading the capture failed before its end, so no verdict exists.
    Read {
        /// Bytes read before the failure.
        after: u64,
        /// The reader's error.
        error: io::Error,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::BadCapture(why) => write!(f, "unusable capture: {why}"),
            IngestError::ErrorBudgetExceeded { rate, limit, .. } => write!(
                f,
                "error rate {:.1}% exceeds the {:.1}% budget; refusing to emit a sliver of a ruined source",
                rate * 100.0,
                limit * 100.0
            ),
            IngestError::Read { after, error } => {
                write!(f, "read failed after {after} bytes: {error}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// A successful (possibly degraded) ingestion: the recovered trace plus
/// the ledger accounting for everything that did not make it.
#[derive(Debug)]
pub struct IngestOutput {
    /// Recovered events, in capture order, as a canonical day trace.
    pub trace: DayTrace,
    /// The quarantine ledger for the source.
    pub report: IngestReport,
}

/// Widest plausible deviation between an event's timestamp and the median
/// of its neighbors: one day. Wider excursions are quarantined as
/// out-of-order (a flipped timestamp byte in a surviving frame, not a
/// real gap).
const MAX_TS_DEVIATION_SECS: u64 = SECS_PER_DAY;

/// Bytes of the window [`EventStream::from_reader`] reads a capture
/// through. Both scanners decide on at most ≈ 256 KiB past the first
/// byte they have yet to consume (a pcap record header, a record of the
/// largest plausible length and the next header; each scanner asserts
/// its bound against this at compile time), so one window always holds
/// what they need.
pub const WINDOW_LEN: usize = 1 << 20;

/// Ingests one capture held in memory: collects an [`EventStream`], then
/// takes its verdict.
///
/// # Errors
///
/// Fails only when the capture is structurally unusable
/// ([`IngestError::BadCapture`]) or worse than the configured error
/// budget ([`IngestError::ErrorBudgetExceeded`]). Everything else is
/// degradation, reported in the returned ledger.
pub fn ingest_bytes(bytes: &[u8], config: &IngestConfig) -> Result<IngestOutput, IngestError> {
    let mut stream = EventStream::new(bytes, config)?;
    let events: Vec<QueryEvent> = stream.by_ref().collect();
    let report = stream.finish()?;
    let day = events.first().map_or(0, |e| e.time.day());
    Ok(IngestOutput { trace: DayTrace { day, events }, report })
}

/// Sniffs the container format from the leading bytes.
pub fn detect_format(bytes: &[u8]) -> Result<CaptureFormat, IngestError> {
    if pcap::looks_like_pcap(bytes) {
        Ok(CaptureFormat::Pcap)
    } else if framestream::looks_like_dnstap(bytes) {
        Ok(CaptureFormat::Dnstap)
    } else {
        Err(IngestError::BadCapture(
            "neither a pcap magic nor a Frame Streams control escape; pass --format to force"
                .into(),
        ))
    }
}

/// The frame-at-a-time scanner of whichever format the capture is in.
#[derive(Debug)]
enum Scanner {
    Pcap(pcap::PcapScanner),
    Dnstap(framestream::FrameScanner),
}

impl Scanner {
    fn next_frame(&mut self, view: View<'_>, report: &mut IngestReport) -> Step {
        match self {
            Scanner::Pcap(scanner) => scanner.next_frame(view, report),
            Scanner::Dnstap(scanner) => scanner.next_frame(view, report),
        }
    }

    fn offset(&self) -> usize {
        match self {
            Scanner::Pcap(scanner) => scanner.offset(),
            Scanner::Dnstap(scanner) => scanner.offset(),
        }
    }
}

/// Where an [`EventStream`]'s capture bytes come from.
#[derive(Debug)]
enum Source<'a> {
    /// A capture the caller holds whole: one view, at EOF from the start.
    Slice(&'a [u8]),
    /// A capture read through a fixed window.
    Reader(Window<'a>),
}

impl Source<'_> {
    fn view(&self) -> View<'_> {
        match self {
            Source::Slice(bytes) => View::whole(bytes),
            Source::Reader(window) => View::new(&window.buf[..window.len], window.base, window.eof),
        }
    }
}

/// [`WINDOW_LEN`] bytes of a capture: those from offset `base` on that
/// have been read and not yet dropped.
struct Window<'a> {
    reader: Box<dyn Read + 'a>,
    buf: Box<[u8]>,
    base: usize,
    len: usize,
    eof: bool,
}

impl Window<'_> {
    /// Drops the bytes before absolute offset `keep`, then reads once into
    /// the room that leaves: the number of bytes read, 0 at EOF.
    fn refill(&mut self, keep: usize) -> io::Result<usize> {
        let dropped = keep.saturating_sub(self.base).min(self.len);
        self.buf.copy_within(dropped..self.len, 0);
        self.base += dropped;
        self.len -= dropped;
        loop {
            match self.reader.read(&mut self.buf[self.len..]) {
                Ok(n) => {
                    self.len += n;
                    self.eof = n == 0;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

impl fmt::Debug for Window<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Window")
            .field("base", &self.base)
            .field("len", &self.len)
            .field("eof", &self.eof)
            .finish_non_exhaustive()
    }
}

/// A decoded frame the timestamp filter has yet to judge: its message,
/// held in a view the slot reuses from frame to frame, and the frame
/// accounting its verdict books.
#[derive(Debug, Default)]
struct Slot {
    view: MessageView,
    secs: u64,
    client: u64,
    frame_bytes: u64,
    index: u64,
    offset: u64,
}

impl Slot {
    /// Appends this slot's trace line, without the newline.
    fn append_line(&self, line: &mut Vec<u8>) {
        let view = &self.view;
        let answers = (view.rcode() != Rcode::NxDomain).then(|| view.answer_records());
        trace_io::append_line(self.secs, self.client, view.qname(), view.qtype(), answers, line);
    }
}

/// Slots in an [`EventStream`]'s ring: the event up for judgment and the
/// lookahead the filter judges it by.
const RING: usize = STAMP_NEIGHBORS + 1;

/// The recovered events of one capture, pulled in capture order: the
/// iterator form of [`ingest_bytes`], for consumers that render or replay
/// each event as it arrives instead of holding the day.
///
/// Each pull scans and decodes frames one at a time until the timestamp
/// filter has its lookahead. Opened with [`EventStream::from_reader`], the
/// stream holds one [`WINDOW_LEN`]-byte window of the capture and that
/// lookahead, whatever the capture's length; [`EventStream::new`] borrows
/// a capture already in memory and neither copies nor reads it. The
/// ledger and the error-budget verdict exist only once the capture is
/// exhausted: [`EventStream::finish`] returns them, and a consumer that
/// must not act on a ruined source holds its output back until then.
///
/// # Examples
///
/// ```
/// use dnsnoise_ingest::{pcap, EventStream, IngestConfig};
/// use dnsnoise_workload::{Scenario, ScenarioConfig};
///
/// let day = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.002), 7).generate_day(0);
/// let capture = pcap::write_pcap(&day).unwrap();
///
/// let mut stream = EventStream::new(&capture, &IngestConfig::default()).unwrap();
/// let recovered = stream.by_ref().count();
/// let report = stream.finish().unwrap();
/// assert_eq!(recovered, day.events.len());
/// assert_eq!(report.events, recovered as u64);
/// assert!(report.conserves());
/// ```
#[derive(Debug)]
pub struct EventStream<'a> {
    source: Source<'a>,
    format: CaptureFormat,
    max_error_rate: f64,
    scanner: Scanner,
    report: IngestReport,
    /// The read error that cut the capture short, if one did.
    failed: Option<io::Error>,
    /// The stamps of the last decoded events before the held ones,
    /// accepted or not: the window's left half.
    stamps: StampWindow,
    /// The event up for judgment and its successors (the window's right
    /// half): `held` slots from `head` on, wrapping.
    ring: Box<[Slot; RING]>,
    head: usize,
    held: usize,
}

impl<'a> EventStream<'a> {
    /// Opens a stream over `bytes`, detecting the format unless `config`
    /// forces one.
    ///
    /// # Errors
    ///
    /// [`IngestError::BadCapture`] when the capture is not recognizably of
    /// any (or of the forced) format.
    pub fn new(bytes: &'a [u8], config: &IngestConfig) -> Result<EventStream<'a>, IngestError> {
        EventStream::open(Source::Slice(bytes), config)
    }

    /// Opens a stream over the capture `reader` yields, which it reads
    /// through one [`WINDOW_LEN`]-byte window as the stream is pulled. The
    /// ledger's `bytes_total` counts the bytes read, so the reader needs
    /// no length (a pipe will do).
    ///
    /// ```
    /// use dnsnoise_ingest::{framestream, EventStream, IngestConfig};
    /// use dnsnoise_workload::{Scenario, ScenarioConfig};
    ///
    /// let day = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.002), 7).generate_day(0);
    /// let capture = framestream::write_dnstap(&day).unwrap();
    ///
    /// // Any `io::Read` will do: a file, a pipe, or here a byte slice.
    /// let mut stream = EventStream::from_reader(&capture[..], &IngestConfig::default()).unwrap();
    /// assert_eq!(stream.by_ref().count(), day.events.len());
    /// assert_eq!(stream.finish().unwrap().bytes_total, capture.len() as u64);
    /// ```
    ///
    /// # Errors
    ///
    /// [`IngestError::BadCapture`] as for [`EventStream::new`], and
    /// [`IngestError::Read`] when reading the capture's first bytes fails.
    pub fn from_reader(
        reader: impl Read + 'a,
        config: &IngestConfig,
    ) -> Result<EventStream<'a>, IngestError> {
        let mut window = Window {
            reader: Box::new(reader),
            buf: vec![0; WINDOW_LEN].into_boxed_slice(),
            base: 0,
            len: 0,
            eof: false,
        };
        // Format detection and the pcap global header look at the first
        // bytes only; everything later waits for `Step::More`.
        while window.len < pcap::GLOBAL_HEADER_LEN && !window.eof {
            window
                .refill(0)
                .map_err(|error| IngestError::Read { after: window.len as u64, error })?;
        }
        EventStream::open(Source::Reader(window), config)
    }

    fn open(source: Source<'a>, config: &IngestConfig) -> Result<EventStream<'a>, IngestError> {
        let view = source.view();
        let head = view.extent(0..view.end());
        let format = match config.format {
            Some(f) => f,
            None => detect_format(head)?,
        };
        let mut report = IngestReport { bytes_total: view.end() as u64, ..Default::default() };
        let scanner = match format {
            CaptureFormat::Pcap => pcap::PcapScanner::new(view, &mut report).map(Scanner::Pcap),
            CaptureFormat::Dnstap => framestream::FrameScanner::new(view).map(Scanner::Dnstap),
        }
        .map_err(|ScanError::BadCapture(why)| IngestError::BadCapture(why))?;
        Ok(EventStream {
            source,
            format,
            max_error_rate: config.max_error_rate,
            scanner,
            report,
            failed: None,
            stamps: StampWindow::default(),
            ring: Box::default(),
            head: 0,
            held: 0,
        })
    }

    /// Decodes frames into the first free slot until one passes, in
    /// capture order; everything else met on the way is booked in the
    /// ledger. `false` once the capture is exhausted or a read has failed,
    /// and on every call after that.
    fn decode_next(&mut self) -> bool {
        let slot = &mut self.ring[(self.head + self.held) % RING];
        loop {
            let view = self.source.view();
            let frame = match self.scanner.next_frame(view, &mut self.report) {
                Step::Frame(frame) => frame,
                Step::End => return false,
                Step::More => {
                    // Only a reader's window ends before its capture does.
                    let Source::Reader(window) = &mut self.source else { return false };
                    match window.refill(self.scanner.offset()) {
                        Ok(read) => self.report.bytes_total += read as u64,
                        // The capture ends here for the scanner; `finish`
                        // turns the error into the verdict.
                        Err(error) => {
                            window.eof = true;
                            self.failed = Some(error);
                        }
                    }
                    continue;
                }
            };
            let (frame_bytes, index, offset) =
                (frame.frame_bytes as u64, frame.index, frame.offset as u64);
            let payload = view.extent(frame.payload.clone());
            match decode::decode_frame(payload, &frame, self.format, &mut slot.view) {
                Ok(client) => {
                    (slot.secs, slot.client) = (frame.ts_secs, client);
                    (slot.frame_bytes, slot.index, slot.offset) = (frame_bytes, index, offset);
                    self.held += 1;
                    return true;
                }
                Err((class, reason)) => self.report.quarantine(
                    class,
                    frame_bytes,
                    Sample { frame_index: index, offset, reason },
                ),
            }
        }
    }

    /// The next recovered event, judged and booked, lent from its slot
    /// until the next pull.
    ///
    /// An event is judged once its successors have decoded or the capture
    /// has ended, by the timestamp plausibility filter: against the
    /// *median* stamp of its up-to-five nearest decoded neighbors (itself
    /// included), so a single flipped timestamp byte cannot shift the
    /// reference, and — unlike a high-water-mark ratchet — one
    /// corrupted-but-plausible forward jump cannot poison the acceptance
    /// of everything after it.
    fn next_slot(&mut self) -> Option<&Slot> {
        loop {
            while self.held < RING && self.decode_next() {}
            if self.held == 0 {
                return None;
            }
            let at = self.head;
            self.head = (self.head + 1) % RING;
            self.held -= 1;
            let ring = &self.ring;
            let after = (0..self.held).map(|k| ring[(self.head + k) % RING].secs);
            let slot = &ring[at];
            let ts = slot.secs;
            let median = self.stamps.median(ts, after);
            if ts + MAX_TS_DEVIATION_SECS < median || ts > median + MAX_TS_DEVIATION_SECS {
                self.report.quarantine(
                    QuarantineClass::OutOfOrderTimestamp,
                    slot.frame_bytes,
                    Sample {
                        frame_index: slot.index,
                        offset: slot.offset,
                        reason: format!("timestamp {ts}s deviates from the {median}s around it"),
                    },
                );
                continue;
            }
            self.report.bytes_parsed += slot.frame_bytes;
            self.report.events += 1;
            return Some(&self.ring[at]);
        }
    }

    /// Writes every event not yet pulled to `out` as trace lines, each
    /// rendered straight from its frame's decoded view through one reused
    /// line buffer, and flushes: the text [`trace_io::write_events`] would
    /// write for the same events, with no event built. The ledger and the
    /// verdict still wait for [`EventStream::finish`].
    ///
    /// ```
    /// use dnsnoise_ingest::{pcap, EventStream, IngestConfig};
    /// use dnsnoise_workload::{trace_io, Scenario, ScenarioConfig};
    ///
    /// let day = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.002), 7).generate_day(0);
    /// let capture = pcap::write_pcap(&day).unwrap();
    ///
    /// let mut text = Vec::new();
    /// let mut stream = EventStream::new(&capture, &IngestConfig::default()).unwrap();
    /// stream.write_lines(&mut text).unwrap();
    /// assert_eq!(stream.finish().unwrap().events, day.events.len() as u64);
    ///
    /// let mut owned = Vec::new();
    /// trace_io::write_trace(&day, &mut owned).unwrap();
    /// assert_eq!(text, owned);
    /// ```
    ///
    /// # Errors
    ///
    /// A write failure, as [`trace_io::write_events`] reports it.
    pub fn write_lines(&mut self, mut out: impl Write) -> Result<(), trace_io::TraceIoError> {
        let mut line = Vec::new();
        while let Some(slot) = self.next_slot() {
            line.clear();
            slot.append_line(&mut line);
            line.push(b'\n');
            out.write_all(&line)?;
        }
        Ok(out.flush()?)
    }

    /// Closes the stream: the full ledger, or the refusal that carries it.
    /// Events not yet pulled are scanned, booked and dropped first, so the
    /// ledger always covers the whole capture.
    ///
    /// # Errors
    ///
    /// [`IngestError::ErrorBudgetExceeded`] when the quarantined and
    /// skipped share of the capture's bytes is above
    /// [`IngestConfig::max_error_rate`]; [`IngestError::Read`] when reading
    /// the capture failed before its end.
    pub fn finish(mut self) -> Result<IngestReport, IngestError> {
        while self.next_slot().is_some() {}
        if let Some(error) = self.failed {
            return Err(IngestError::Read { after: self.report.bytes_total, error });
        }
        let report = self.report;
        debug_assert!(report.conserves(), "ledger must conserve: {report}");
        let rate = report.error_rate();
        if rate > self.max_error_rate {
            return Err(IngestError::ErrorBudgetExceeded {
                rate,
                limit: self.max_error_rate,
                report: Box::new(report),
            });
        }
        Ok(report)
    }
}

impl Iterator for EventStream<'_> {
    type Item = QueryEvent;

    fn next(&mut self) -> Option<QueryEvent> {
        let slot = self.next_slot()?;
        Some(decode::to_event(&slot.view, slot.secs, slot.client))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::{QType, RData, Record, Timestamp, Ttl};
    use dnsnoise_workload::{Outcome, QueryEvent};
    use std::net::Ipv4Addr;

    fn event(secs: u64, client: u64, name: &str) -> QueryEvent {
        QueryEvent {
            time: Timestamp::from_secs(secs),
            client,
            name: name.parse().unwrap(),
            qtype: QType::A,
            outcome: Outcome::Answer(vec![Record::new(
                name.parse().unwrap(),
                QType::A,
                Ttl::from_secs(300),
                RData::A(Ipv4Addr::new(203, 0, 113, 7)),
            )]),
            zone_tag: u32::MAX,
        }
    }

    fn sample_trace(n: u64) -> DayTrace {
        let events = (0..n).map(|i| event(1000 + i, i % 7, &format!("h{i}.example.com"))).collect();
        DayTrace { day: 0, events }
    }

    /// A writer that refuses every byte.
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_write_reads_as_the_event_writer_reports_it() {
        let trace = sample_trace(3);
        let capture = pcap::write_pcap(&trace).unwrap();
        let mut stream = EventStream::new(&capture, &IngestConfig::default()).unwrap();
        let got = stream.write_lines(Full).unwrap_err().to_string();
        assert_eq!(got, trace_io::write_events(&trace.events, Full).unwrap_err().to_string());
        assert_eq!(got, "trace i/o failed: disk full");
    }

    #[test]
    fn clean_pcap_roundtrips_fully() {
        let trace = sample_trace(50);
        let capture = pcap::write_pcap(&trace).unwrap();
        let out = ingest_bytes(&capture, &IngestConfig::default()).unwrap();
        assert_eq!(out.trace.events.len(), 50);
        assert_eq!(out.report.events, 50);
        assert_eq!(out.report.quarantined_frames(), 0);
        assert_eq!(out.report.resyncs, 0);
        assert!(out.report.conserves(), "{}", out.report);
        assert_eq!(out.report.bytes_parsed, out.report.bytes_total);
        for (got, want) in out.trace.events.iter().zip(&trace.events) {
            assert_eq!(got.time, want.time);
            assert_eq!(got.name, want.name);
            assert_eq!(got.outcome, want.outcome);
        }
    }

    #[test]
    fn clean_dnstap_roundtrips_fully_with_64bit_clients() {
        let mut trace = sample_trace(20);
        trace.events[3].client = u64::MAX - 5; // beyond pcap's IPv4 reach
        let capture = framestream::write_dnstap(&trace).unwrap();
        let out = ingest_bytes(&capture, &IngestConfig::default()).unwrap();
        assert_eq!(out.trace.events.len(), 20);
        assert_eq!(out.trace.events[3].client, u64::MAX - 5);
        assert!(out.report.conserves(), "{}", out.report);
    }

    #[test]
    fn detection_distinguishes_the_formats() {
        let trace = sample_trace(3);
        let pcap_bytes = pcap::write_pcap(&trace).unwrap();
        let tap_bytes = framestream::write_dnstap(&trace).unwrap();
        assert_eq!(detect_format(&pcap_bytes).unwrap(), CaptureFormat::Pcap);
        assert_eq!(detect_format(&tap_bytes).unwrap(), CaptureFormat::Dnstap);
        assert!(detect_format(b"plainly not a capture").is_err());
    }

    #[test]
    fn error_budget_rejects_ruined_sources() {
        let trace = sample_trace(40);
        let mut capture = pcap::write_pcap(&trace).unwrap();
        corrupt::flip_bursts(&mut capture[24..], 0.60, 11);
        let config = IngestConfig { max_error_rate: 0.10, ..Default::default() };
        match ingest_bytes(&capture, &config) {
            Err(IngestError::ErrorBudgetExceeded { rate, limit, report }) => {
                assert!(rate > limit, "rate {rate} limit {limit}");
                assert!(report.conserves(), "{report}");
            }
            other => panic!("expected budget rejection, got {other:?}"),
        }
    }

    #[test]
    fn timestamp_filter_survives_a_poisoned_first_timestamp() {
        let trace = sample_trace(10);
        let mut capture = framestream::write_dnstap(&trace).unwrap();
        // Corrupt the first data frame's timestamp field in place: it sits
        // after the START control frame (12 bytes), the 4-byte length and
        // the version byte.
        let ts_at = 12 + 4 + 1;
        capture[ts_at] = 0xff; // timestamp becomes astronomically large
        let out = ingest_bytes(&capture, &IngestConfig::default()).unwrap();
        assert_eq!(out.trace.events.len(), 9, "{}", out.report);
        assert_eq!(
            out.report.quarantine.get(QuarantineClass::OutOfOrderTimestamp).unwrap().count,
            1
        );
        assert!(out.report.conserves(), "{}", out.report);
    }

    /// Collects a stream and its ledger.
    fn ingest_streamed(capture: &[u8], config: &IngestConfig) -> (Vec<QueryEvent>, IngestReport) {
        let mut stream = EventStream::new(capture, config).unwrap();
        let events: Vec<QueryEvent> = stream.by_ref().collect();
        (events, stream.finish().unwrap())
    }

    /// Overwrites the top byte of dnstap data frame `frame`'s timestamp,
    /// in a capture whose frames are all `stride` bytes long.
    fn poison_dnstap_stamp(capture: &mut [u8], frame: usize, stride: usize) {
        // START control frame (12 bytes), then per frame a 4-byte length
        // and the version byte before the timestamp.
        capture[12 + frame * stride + 4 + 1] = 0xff;
    }

    /// A dnstap capture of `n` same-length frames and that length.
    fn uniform_dnstap(n: u64) -> (Vec<u8>, usize) {
        let events = (0..n).map(|i| event(1000 + i, i % 7, "host.example.com")).collect();
        let capture = framestream::write_dnstap(&DayTrace { day: 0, events }).unwrap();
        // START is 12 bytes and STOP 12 more; the rest is the frames.
        let stride = (capture.len() - 24) / n as usize;
        assert_eq!(12 + n as usize * stride + 12, capture.len());
        (capture, stride)
    }

    #[test]
    fn a_poisoned_timestamp_is_dropped_at_every_position() {
        // The filter's window is five decoded events wide; a filter that
        // forgot its two-stamp history, or judged before its lookahead had
        // filled, would see too few neighbors at some of these positions
        // to outvote the poisoned stamp.
        let n = 12;
        let (clean, stride) = uniform_dnstap(n);
        for poisoned in 0..n as usize {
            let mut capture = clean.clone();
            poison_dnstap_stamp(&mut capture, poisoned, stride);
            let (events, report) = ingest_streamed(&capture, &IngestConfig::default());
            let what = format!("poisoned={poisoned}: {report}");
            assert_eq!(events.len(), n as usize - 1, "{what}");
            assert!(events.iter().all(|e| e.time.as_secs() < 2000), "{what}");
            let dropped = report.quarantine.get(QuarantineClass::OutOfOrderTimestamp).unwrap();
            assert_eq!(dropped.count, 1, "{what}");
            assert_eq!(dropped.samples[0].frame_index, poisoned as u64, "{what}");
            assert!(report.conserves(), "{what}");
        }
    }

    #[test]
    fn captures_shorter_than_the_window_stream_whole() {
        for n in 1..=4 {
            let (capture, stride) = uniform_dnstap(n);
            let (events, report) = ingest_streamed(&capture, &IngestConfig::default());
            assert_eq!(events.len(), n as usize, "{report}");
            assert_eq!(report.events, n, "{report}");
            assert_eq!(report.bytes_parsed, report.bytes_total, "{report}");

            // With three or more events the median outvotes one poisoned
            // stamp at either end; with two it is the larger stamp, so the
            // sound event is the outlier; alone, an event is its own median.
            for poisoned in [0, n as usize - 1] {
                let mut capture = capture.clone();
                poison_dnstap_stamp(&mut capture, poisoned, stride);
                let (events, report) = ingest_streamed(&capture, &IngestConfig::default());
                let kept_poison = events.iter().filter(|e| e.time.as_secs() > 2000).count();
                let expected = if n <= 2 { (1, 1) } else { (n as usize - 1, 0) };
                assert_eq!((events.len(), kept_poison), expected, "n={n} at {poisoned}: {report}");
                assert!(report.conserves(), "{report}");
            }
        }
    }

    #[test]
    fn the_filter_is_the_windowed_median_over_decoded_stamps() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..40 {
            let n: usize = rng.gen_range(1..40);
            let stamps: Vec<u64> = (0..n as u64)
                .map(|i| if rng.gen_bool(0.3) { rng.gen_range(0..10_000_000) } else { 1000 + i })
                .collect();
            let events = stamps.iter().map(|&s| event(s, 1, "host.example.com")).collect();
            let capture = framestream::write_dnstap(&DayTrace { day: 0, events }).unwrap();

            // The whole-sequence form: event i against stamps[i-2..i+3].
            let plausible = |i: &usize| {
                let mut window = stamps[i.saturating_sub(2)..(i + 3).min(n)].to_vec();
                window.sort_unstable();
                let median = window[window.len() / 2];
                stamps[*i] + MAX_TS_DEVIATION_SECS >= median
                    && stamps[*i] <= median + MAX_TS_DEVIATION_SECS
            };
            let expected: Vec<u64> = (0..n).filter(plausible).map(|i| stamps[i]).collect();

            let config = IngestConfig { max_error_rate: 1.0, ..Default::default() };
            let (events, _) = ingest_streamed(&capture, &config);
            let kept: Vec<u64> = events.iter().map(|e| e.time.as_secs()).collect();
            assert_eq!(kept, expected, "stamps={stamps:?}");
        }
    }

    #[test]
    fn finish_accounts_for_events_never_pulled() {
        let capture = pcap::write_pcap(&sample_trace(30)).unwrap();
        let whole = ingest_bytes(&capture, &IngestConfig::default()).unwrap();
        let mut stream = EventStream::new(&capture, &IngestConfig::default()).unwrap();
        assert_eq!(stream.next().as_ref(), whole.trace.events.first());
        assert_eq!(stream.finish().unwrap(), whole.report);
    }
}
