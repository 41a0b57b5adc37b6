//! The headline robustness guarantees: never panic, recover ≥95% of
//! events at 1% corruption, conserve the ledger on every input, and emit
//! bit-identical output across thread counts and runs.

mod common;

use dnsnoise_dns::NameTable;
use dnsnoise_ingest::{corrupt, ingest_bytes, CaptureFormat, IngestConfig, IngestReport, Step};
use dnsnoise_workload::trace_io;

const FORMATS: [CaptureFormat; 2] = [CaptureFormat::Pcap, CaptureFormat::Dnstap];

/// ≥95% of events must survive 1% byte corruption, across several seeds,
/// in both formats, and the ledger must conserve every time.
#[test]
fn one_percent_corruption_recovers_95_percent() {
    const N: u64 = 2_000;
    for format in FORMATS {
        let trace = common::trace(N);
        let clean = common::capture(&trace, format);
        // Leave the pcap global header alone: format detection is not the
        // faculty under test.
        let skip = match format {
            CaptureFormat::Pcap => dnsnoise_ingest::pcap::GLOBAL_HEADER_LEN,
            CaptureFormat::Dnstap => 0,
        };
        for seed in 0..5u64 {
            let mut bytes = clean.clone();
            corrupt::flip_bursts(&mut bytes[skip..], 0.01, seed);
            let out = ingest_bytes(&bytes, &IngestConfig::default())
                .expect("1% corruption is far within the default budget");
            assert!(out.report.conserves(), "{format} seed {seed}: {}", out.report);
            let recovered = out.trace.events.len() as f64 / N as f64;
            assert!(
                recovered >= 0.95,
                "{format} seed {seed}: only {:.1}% recovered\n{}",
                recovered * 100.0,
                out.report
            );
        }
    }
}

/// A repeated run must not change a single output byte of a corrupt capture.
#[test]
fn output_is_bit_identical_across_runs() {
    for format in FORMATS {
        let trace = common::trace(500);
        let mut bytes = common::capture(&trace, format);
        corrupt::flip_bursts(&mut bytes, 0.02, 42);

        let render = || -> (String, dnsnoise_ingest::IngestReport) {
            let config = IngestConfig { format: Some(format), ..Default::default() };
            let out = ingest_bytes(&bytes, &config).unwrap();
            let mut buf = Vec::new();
            trace_io::write_trace(&out.trace, &mut buf).unwrap();
            (String::from_utf8(buf).unwrap(), out.report)
        };

        let (text, report) = render();
        assert!(report.quarantined_frames() > 0, "{format}: the corruption must bite\n{report}");
        let (again, report_again) = render();
        assert_eq!(again, text, "{format} repeat run");
        assert_eq!(report_again, report, "{format} repeat run");
    }
}

/// Whatever ingestion emits must survive the text trace format losslessly
/// — the contract that makes `ingest | simulate` a real pipeline.
#[test]
fn emitted_events_roundtrip_through_trace_text() {
    for format in FORMATS {
        let trace = common::trace(300);
        let mut bytes = common::capture(&trace, format);
        corrupt::flip_bursts(&mut bytes, 0.01, 3);
        let out = ingest_bytes(&bytes, &IngestConfig::default()).unwrap();

        let mut buf = Vec::new();
        trace_io::write_trace(&out.trace, &mut buf).unwrap();
        let reread = trace_io::read_trace(&buf[..]).unwrap();
        assert_eq!(reread.events, out.trace.events, "{format}");
    }
}

/// RFC 1035 caps a name at 255 octets on the wire, root octet included —
/// 253 presentation characters, which is what the trace reader enforces.
/// The decoder used to count without the root octet, so labels of
/// 63/63/63/62 bytes (254 characters) passed `ingest` and aborted the next
/// stage with `bad qname`. The frame must be quarantined as a decode
/// failure, and the longest legal name must survive the whole text path.
#[test]
fn names_over_the_wire_limit_are_quarantined_not_forwarded() {
    use dnsnoise_dns::{Label, Name};
    use dnsnoise_ingest::QuarantineClass;

    let name_of = |lens: [usize; 4]| {
        Name::from_labels(lens.map(|n| "x".repeat(n).parse::<Label>().expect("valid label")))
    };
    for format in FORMATS {
        for (lens, legal) in [([63, 63, 63, 62], false), ([63, 63, 63, 61], true)] {
            // Enough frames that one quarantined name stays within the budget.
            let mut trace = common::trace(40);
            trace.events[2].name = name_of(lens);
            let bytes = common::capture(&trace, format);
            let out = ingest_bytes(&bytes, &IngestConfig::default()).unwrap();
            assert!(out.report.conserves(), "{format} {lens:?}: {}", out.report);
            let bad_wire = out.report.quarantine.get(QuarantineClass::BadWireMessage).unwrap();
            if legal {
                assert_eq!(out.report.quarantined_frames(), 0, "{format}: {}", out.report);
                assert_eq!(out.trace.events[2].name.presentation_len(), 253);
            } else {
                assert_eq!(out.trace.events.len(), 39, "{format}: {}", out.report);
                assert_eq!(bad_wire.count, 1, "{format}: {}", out.report);
                assert_eq!(bad_wire.samples[0].frame_index, 2);
                assert!(bad_wire.samples[0].reason.contains("exceeds length limit"));
            }
            // Whatever was forwarded is a line the next stage accepts.
            let mut names = NameTable::new();
            for event in &out.trace.events {
                let mut line = Vec::new();
                trace_io::append_event(event, &mut line);
                let parsed = trace_io::parse_event(std::str::from_utf8(&line).unwrap(), &mut names);
                assert_eq!(&parsed.expect("forwarded line parses"), event);
            }
        }
    }
}

/// Splice and truncation damage must degrade, not destroy.
#[test]
fn splices_and_truncation_degrade_gracefully() {
    for format in FORMATS {
        let trace = common::trace(400);
        let clean = common::capture(&trace, format);

        for (what, mutate) in
            [("delete", corrupt::SpliceKind::Delete), ("duplicate", corrupt::SpliceKind::Duplicate)]
        {
            let mut bytes = clean.clone();
            corrupt::splice(&mut bytes, mutate, 200, 17);
            let out = ingest_bytes(&bytes, &IngestConfig::default())
                .unwrap_or_else(|e| panic!("{format} {what}: {e}"));
            assert!(out.report.conserves(), "{format} {what}: {}", out.report);
            assert!(
                out.trace.events.len() >= 395,
                "{format} {what}: lost {} events\n{}",
                400 - out.trace.events.len(),
                out.report
            );
        }

        let mut bytes = clean.clone();
        corrupt::truncate_tail(&mut bytes, 0.25);
        let out = ingest_bytes(&bytes, &IngestConfig::default()).unwrap();
        assert!(out.report.conserves(), "{format} truncate: {}", out.report);
        assert!(out.trace.events.len() >= 280, "{format} truncate: {}", out.report);
    }
}

/// One step of either format's resumable scanner.
trait Resumable {
    fn step(&mut self, view: dnsnoise_ingest::View<'_>, report: &mut IngestReport) -> Step;
    fn offset(&self) -> usize;
}

impl Resumable for dnsnoise_ingest::pcap::PcapScanner {
    fn step(&mut self, view: dnsnoise_ingest::View<'_>, report: &mut IngestReport) -> Step {
        self.next_frame(view, report)
    }
    fn offset(&self) -> usize {
        self.offset()
    }
}

impl Resumable for dnsnoise_ingest::framestream::FrameScanner {
    fn step(&mut self, view: dnsnoise_ingest::View<'_>, report: &mut IngestReport) -> Step {
        self.next_frame(view, report)
    }
    fn offset(&self) -> usize {
        self.offset()
    }
}

/// The resumable frame scanners must agree with the whole-buffer scan
/// frame for frame and ledger entry for ledger entry — on clean captures,
/// on burst-corrupted ones, and on chopped tails — when they see the
/// capture only through a view that starts at the first byte they have
/// yet to consume and grows by `chunk` bytes each time they ask for more.
/// `scan()` is the same scanner over one view of the whole capture, so
/// any divergence here means the windowed reading path sees different
/// data than batch ingestion.
#[test]
fn resumable_scanners_match_whole_buffer_scan() {
    use dnsnoise_ingest::framestream::FrameScanner;
    use dnsnoise_ingest::pcap::PcapScanner;
    use dnsnoise_ingest::View;

    for format in FORMATS {
        let trace = common::trace(300);
        let clean = common::capture(&trace, format);
        let mut variants = vec![("clean", clean.clone())];
        for seed in [3u64, 11, 29] {
            let mut bytes = clean.clone();
            corrupt::flip_bursts(&mut bytes, 0.02, seed);
            variants.push(("flipped", bytes));
        }
        let mut chopped = clean.clone();
        corrupt::truncate_tail(&mut chopped, 0.3);
        variants.push(("chopped", chopped));

        for (what, bytes) in &variants {
            let mut batch_report =
                IngestReport { bytes_total: bytes.len() as u64, ..Default::default() };
            let batch = match format {
                CaptureFormat::Pcap => dnsnoise_ingest::pcap::scan(bytes, &mut batch_report),
                CaptureFormat::Dnstap => {
                    dnsnoise_ingest::framestream::scan(bytes, &mut batch_report)
                }
            }
            .unwrap_or_else(|e| panic!("{format} {what}: {e}"));

            for chunk in [1, 7, 300] {
                let mut iter_report =
                    IngestReport { bytes_total: bytes.len() as u64, ..Default::default() };
                // The global header arrives whole, as `EventStream` reads it.
                let mut fed = dnsnoise_ingest::pcap::GLOBAL_HEADER_LEN.min(bytes.len());
                let head = View::new(&bytes[..fed], 0, fed == bytes.len());
                let mut scanner: Box<dyn Resumable> = match format {
                    CaptureFormat::Pcap => {
                        Box::new(PcapScanner::new(head, &mut iter_report).unwrap())
                    }
                    CaptureFormat::Dnstap => Box::new(FrameScanner::new(head).unwrap()),
                };
                let mut iter_frames = Vec::new();
                loop {
                    let base = scanner.offset();
                    let view = View::new(&bytes[base..fed], base, fed == bytes.len());
                    match scanner.step(view, &mut iter_report) {
                        Step::Frame(frame) => iter_frames.push(frame),
                        Step::More => {
                            assert!(fed < bytes.len(), "{format} {what}: More at EOF");
                            fed = (fed + chunk).min(bytes.len());
                        }
                        Step::End => break,
                    }
                }
                let what = format!("{format} {what} chunk={chunk}");
                assert_eq!(scanner.step(View::whole(bytes), &mut iter_report), Step::End);
                assert_eq!(iter_frames, batch.frames, "{what}: frames diverge");
                assert_eq!(iter_report, batch_report, "{what}: ledgers diverge");
            }
        }
    }
}

/// The resumable trace reader must agree with `read_trace` event for
/// event, and report the same line-numbered error on malformed input.
#[test]
fn event_reader_matches_read_trace() {
    use dnsnoise_workload::trace_io::EventReader;

    let trace = common::trace(200);
    let mut buf = Vec::new();
    trace_io::write_trace(&trace, &mut buf).unwrap();
    // Sprinkle comments and blanks through the text form.
    let text =
        format!("# leading comment\n\n{}# trailing comment\n", String::from_utf8(buf).unwrap());

    let batch = trace_io::read_trace(text.as_bytes()).unwrap();
    let streamed: Vec<_> = EventReader::new(text.as_bytes()).collect::<Result<_, _>>().unwrap();
    assert_eq!(streamed, batch.events);

    // A malformed line mid-stream: same error text, and the reader stops.
    let poisoned = format!("{text}garbage line\n10\t7\twww.example.com\tA\tNXDOMAIN\n");
    let batch_err = trace_io::read_trace(poisoned.as_bytes()).unwrap_err().to_string();
    let mut reader = EventReader::new(poisoned.as_bytes());
    let mut iter_err = None;
    for item in &mut reader {
        if let Err(e) = item {
            iter_err = Some(e.to_string());
            break;
        }
    }
    assert_eq!(iter_err.as_deref(), Some(batch_err.as_str()));
    assert!(reader.next().is_none(), "reader must not resume past an error");
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary bytes never panic the ingester, under any forced
        /// format or auto-detection, and any Ok ledger conserves.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            for format in [None, Some(CaptureFormat::Pcap), Some(CaptureFormat::Dnstap)] {
                let config = IngestConfig { format, ..Default::default() };
                if let Ok(out) = ingest_bytes(&bytes, &config) {
                    prop_assert!(out.report.conserves(), "{}", out.report);
                }
            }
        }

        /// Mutated real captures never panic, always conserve, and within
        /// the error budget always emit a re-readable trace.
        #[test]
        fn mutated_captures_never_panic(
            seed in any::<u64>(),
            fraction in 0.0f64..0.2,
            n in 1u64..80,
        ) {
            for format in super::FORMATS {
                let trace = common::trace(n);
                let mut bytes = common::capture(&trace, format);
                corrupt::flip_bursts(&mut bytes, fraction, seed);
                let config = IngestConfig { format: Some(format), ..Default::default() };
                match ingest_bytes(&bytes, &config) {
                    Ok(out) => {
                        prop_assert!(out.report.conserves(), "{}", out.report);
                        let mut buf = Vec::new();
                        trace_io::write_trace(&out.trace, &mut buf).unwrap();
                        let reread = trace_io::read_trace(&buf[..]).unwrap();
                        prop_assert_eq!(reread.events, out.trace.events);
                    }
                    Err(dnsnoise_ingest::IngestError::ErrorBudgetExceeded { report, .. }) => {
                        prop_assert!(report.conserves(), "{}", report);
                    }
                    Err(dnsnoise_ingest::IngestError::BadCapture(_)) => {}
                    Err(e @ dnsnoise_ingest::IngestError::Read { .. }) => {
                        prop_assert!(false, "an in-memory capture failed a read: {}", e);
                    }
                }
            }
        }

        /// Truncating a clean capture at any byte never panics and always
        /// conserves the ledger.
        #[test]
        fn truncation_at_any_point_conserves(cut in 0usize..2000, n in 1u64..30) {
            for format in super::FORMATS {
                let trace = common::trace(n);
                let bytes = common::capture(&trace, format);
                let cut = cut.min(bytes.len());
                let config = IngestConfig { format: Some(format), ..Default::default() };
                if let Ok(out) = ingest_bytes(&bytes[..cut], &config) {
                    prop_assert!(out.report.conserves(), "{}", out.report);
                }
            }
        }
    }
}
