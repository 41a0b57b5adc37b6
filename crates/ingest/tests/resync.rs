//! Resync fixtures: a corrupt frame at the start, middle, and end of a
//! capture, and a back-to-back pair — each with exact quarantine-ledger
//! expectations, and each asserting that every clean event survives.

mod common;

use dnsnoise_ingest::{ingest_bytes, CaptureFormat, IngestConfig, QuarantineClass};

const FORMATS: [CaptureFormat; 2] = [CaptureFormat::Pcap, CaptureFormat::Dnstap];
const N: u64 = 40;

/// Ingests `bytes` and asserts the ledger conserves.
fn ingest(bytes: &[u8], format: CaptureFormat) -> dnsnoise_ingest::IngestOutput {
    let config = IngestConfig { format: Some(format), ..Default::default() };
    let out = ingest_bytes(bytes, &config).expect("within error budget");
    assert!(out.report.conserves(), "{}", out.report);
    out
}

/// Asserts that exactly the events at `lost` indices are missing and all
/// others survived intact.
fn assert_survivors(out: &dnsnoise_ingest::IngestOutput, lost: &[u64]) {
    let expected: Vec<_> = (0..N).filter(|i| !lost.contains(i)).map(common::event).collect();
    assert_eq!(out.trace.events.len(), expected.len(), "{}", out.report);
    for (got, want) in out.trace.events.iter().zip(&expected) {
        assert_eq!(got.time, want.time);
        assert_eq!(got.name, want.name);
        assert_eq!(got.outcome, want.outcome);
    }
}

#[test]
fn corrupt_frame_at_start() {
    for format in FORMATS {
        let trace = common::trace(N);
        let clean = common::capture(&trace, format);
        let extents = common::frame_extents(&clean, format);
        let mut bytes = clean.clone();
        common::smash_frame(&mut bytes, extents[0]);

        let out = ingest(&bytes, format);
        assert_eq!(out.report.resyncs, 1, "{format}: {}", out.report);
        assert_eq!(out.report.quarantined_frames(), 0, "{format}: {}", out.report);
        assert_survivors(&out, &[0]);
    }
}

#[test]
fn corrupt_frame_in_the_middle() {
    for format in FORMATS {
        let trace = common::trace(N);
        let clean = common::capture(&trace, format);
        let extents = common::frame_extents(&clean, format);
        let mut bytes = clean.clone();
        common::smash_frame(&mut bytes, extents[N as usize / 2]);

        let out = ingest(&bytes, format);
        assert_eq!(out.report.resyncs, 1, "{format}: {}", out.report);
        assert_survivors(&out, &[N / 2]);
    }
}

#[test]
fn corrupt_frame_at_the_end() {
    for format in FORMATS {
        let trace = common::trace(N);
        let clean = common::capture(&trace, format);
        let extents = common::frame_extents(&clean, format);
        let mut bytes = clean.clone();
        common::smash_frame(&mut bytes, extents[N as usize - 1]);

        let out = ingest(&bytes, format);
        assert_eq!(out.report.resyncs, 1, "{format}: {}", out.report);
        assert_survivors(&out, &[N - 1]);
    }
}

#[test]
fn back_to_back_corrupt_frames() {
    for format in FORMATS {
        let trace = common::trace(N);
        let clean = common::capture(&trace, format);
        let extents = common::frame_extents(&clean, format);
        let mut bytes = clean.clone();
        common::smash_frame(&mut bytes, extents[10]);
        common::smash_frame(&mut bytes, extents[11]);

        let out = ingest(&bytes, format);
        // One skip-scan clears the whole damaged region: the probe cannot
        // confirm a boundary inside it because frame 11's header is gone.
        assert_eq!(out.report.resyncs, 1, "{format}: {}", out.report);
        assert_survivors(&out, &[10, 11]);
    }
}

#[test]
fn truncated_tail_is_quarantined_not_fatal() {
    for format in FORMATS {
        let trace = common::trace(N);
        let clean = common::capture(&trace, format);
        let extents = common::frame_extents(&clean, format);
        // Cut the capture in the middle of the last frame's payload.
        let (last_off, last_len) = extents[N as usize - 1];
        let mut bytes = clean.clone();
        bytes.truncate(last_off + last_len / 2);

        let out = ingest(&bytes, format);
        let truncated = out.report.quarantine.get(QuarantineClass::TruncatedFrame).unwrap();
        assert_eq!(truncated.count, 1, "{format}: {}", out.report);
        assert_eq!(out.report.resyncs, 0, "{format}: {}", out.report);
        assert_survivors(&out, &[N - 1]);
    }
}

#[test]
fn ledger_samples_point_at_the_damage() {
    let trace = common::trace(N);
    let clean = common::capture(&trace, CaptureFormat::Pcap);
    let extents = common::frame_extents(&clean, CaptureFormat::Pcap);
    let mut bytes = clean.clone();
    common::smash_frame(&mut bytes, extents[7]);

    let out = ingest(&bytes, CaptureFormat::Pcap);
    let sample = &out.report.resync_samples[0];
    assert_eq!(sample.offset, extents[7].0 as u64, "{}", out.report);
}
