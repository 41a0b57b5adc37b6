//! Parent-pinned ingestion fixtures.
//!
//! `golden/*.txt` hold what the batch ingester of the commit *before* the
//! pull pipeline produced for the CLI tests' day (`generate --scale 0.01
//! --seed 4`, as pcap and as dnstap, clean and with `--corrupt 0.01
//! --corrupt-seed 2`): the rendered [`IngestReport`] — byte and frame
//! ledgers, per-class counts with their first five samples, the resync
//! list — and a length plus FNV-1a of the text trace. They were written by
//! that commit's code and there is no rebless path: "unchanged" is pinned
//! against the parent, not against whatever `ingest_bytes` does today.
//!
//! [`IngestReport`]: dnsnoise_ingest::IngestReport

use dnsnoise_dns::fnv1a;
use dnsnoise_ingest::{
    corrupt, framestream, ingest_bytes, pcap, CaptureFormat, EventStream, IngestConfig,
    IngestReport,
};
use dnsnoise_workload::{trace_io, Scenario, ScenarioConfig};

/// What `dnsnoise generate --scale 0.01 --seed 4 --capture <format>
/// [--corrupt 0.01 --corrupt-seed 2]` writes.
fn capture(format: CaptureFormat, corrupted: bool) -> Vec<u8> {
    let trace = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.01), 4).generate_day(0);
    let (mut bytes, skip) = match format {
        CaptureFormat::Pcap => (pcap::write_pcap(&trace).unwrap(), pcap::GLOBAL_HEADER_LEN),
        CaptureFormat::Dnstap => (framestream::write_dnstap(&trace).unwrap(), 0),
    };
    if corrupted {
        corrupt::flip_bursts(&mut bytes[skip..], 0.01, 2);
    }
    bytes
}

/// The ledger as `dnsnoise ingest` prints it, then the trace's identity.
fn rendered(report: &IngestReport, text: &[u8]) -> String {
    format!("{report}trace: {} bytes, fnv1a {:016x}\n", text.len(), fnv1a(text.iter().copied()))
}

/// Through the owned events: `ingest_bytes`, then `write_trace`.
fn through_events(bytes: &[u8]) -> String {
    let out =
        ingest_bytes(bytes, &IngestConfig::default()).expect("within the default error budget");
    let mut text = Vec::new();
    trace_io::write_trace(&out.trace, &mut text).unwrap();
    rendered(&out.report, &text)
}

/// Through the CLI's path: each line rendered from its decoded frame,
/// the capture read through the window.
fn through_lines(bytes: &[u8]) -> String {
    let mut stream = EventStream::from_reader(bytes, &IngestConfig::default()).unwrap();
    let mut text = Vec::new();
    stream.write_lines(&mut text).unwrap();
    let report = stream.finish().expect("within the default error budget");
    rendered(&report, &text)
}

#[test]
fn ingest_matches_the_parent_pinned_fixtures() {
    let fixtures = [
        (CaptureFormat::Pcap, false, include_str!("golden/pcap_clean.txt")),
        (CaptureFormat::Pcap, true, include_str!("golden/pcap_corrupt.txt")),
        (CaptureFormat::Dnstap, false, include_str!("golden/dnstap_clean.txt")),
        (CaptureFormat::Dnstap, true, include_str!("golden/dnstap_corrupt.txt")),
    ];
    for (format, corrupted, golden) in fixtures {
        let bytes = capture(format, corrupted);
        assert_eq!(through_events(&bytes), golden, "{format} corrupted={corrupted}");
        assert_eq!(through_lines(&bytes), golden, "lines: {format} corrupted={corrupted}");
    }
}
