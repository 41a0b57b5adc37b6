//! The quarantine ledger: what ingestion did with every byte it read.
//!
//! Graceful degradation only earns trust when it is *accounted for*. The
//! [`IngestReport`] classifies every malformed record, keeps the first few
//! offending samples per class for diagnosis, and maintains the
//! conservation invariant
//!
//! ```text
//! bytes_total = bytes_parsed + bytes_quarantined + bytes_skipped
//! ```
//!
//! so no input byte can silently vanish: it was either turned into
//! structure (capture headers, control frames, frames that became events),
//! quarantined as a recognized-but-malformed record, or skipped while
//! resynchronizing over garbage.

use std::fmt;

use dnsnoise_dns::quarantine::{self, Class, Ledger};

/// The malformed-record classes ingestion distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuarantineClass {
    /// A frame whose header promised more bytes than the capture holds
    /// (including a trailing partial frame at EOF).
    TruncatedFrame,
    /// A frame with a sound envelope whose DNS payload did not decode to a
    /// usable response message.
    BadWireMessage,
    /// A well-formed frame that does not carry DNS over UDP/53 (wrong
    /// ethertype, non-UDP transport, foreign ports).
    NonDnsPayload,
    /// An event whose timestamp runs backwards — or jumps implausibly far
    /// forwards — relative to the stream around it.
    OutOfOrderTimestamp,
}

impl Class for QuarantineClass {
    const ALL: &'static [Self] = &[
        QuarantineClass::TruncatedFrame,
        QuarantineClass::BadWireMessage,
        QuarantineClass::NonDnsPayload,
        QuarantineClass::OutOfOrderTimestamp,
    ];

    fn id(self) -> &'static str {
        match self {
            QuarantineClass::TruncatedFrame => "truncated-frame",
            QuarantineClass::BadWireMessage => "bad-wire-message",
            QuarantineClass::NonDnsPayload => "non-dns-payload",
            QuarantineClass::OutOfOrderTimestamp => "out-of-order-timestamp",
        }
    }
}

/// One retained malformed-record example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineSample {
    /// Ordinal of the frame among all frames scanned from this source.
    pub frame_index: u64,
    /// Byte offset of the frame (or of the garbage region) in the capture.
    pub offset: u64,
    /// Human-readable description of what was wrong.
    pub reason: String,
}

/// The full ledger for one ingested source.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Total bytes read from the source.
    pub bytes_total: u64,
    /// Bytes that became structure: the capture's global header, control
    /// frames, and every frame that was emitted as an event.
    pub bytes_parsed: u64,
    /// Bytes held by quarantined records (the ledger's byte total).
    pub bytes_quarantined: u64,
    /// Bytes skip-scanned while resynchronizing, plus any unrecoverable
    /// tail.
    pub bytes_skipped: u64,
    /// Frames the scanner delimited (whether or not they became events).
    pub frames_scanned: u64,
    /// Events emitted into the output trace.
    pub events: u64,
    /// Times the scanner lost framing and had to skip-scan for the next
    /// plausible record boundary.
    pub resyncs: u64,
    /// Quarantined records: exact frames and bytes per class, plus the
    /// first [`quarantine::MAX_SAMPLES`] of each.
    pub quarantine: Ledger<QuarantineClass, QuarantineSample>,
    /// Up to [`quarantine::MAX_SAMPLES`] resync incidents, in stream order.
    pub resync_samples: Vec<QuarantineSample>,
}

impl IngestReport {
    /// Logs one resync incident that skipped `bytes` bytes starting at
    /// `offset`.
    pub(crate) fn record_resync(&mut self, offset: u64, bytes: u64, reason: String) {
        self.resyncs += 1;
        self.bytes_skipped += bytes;
        let sample = QuarantineSample { frame_index: self.frames_scanned, offset, reason };
        quarantine::keep_sample(&mut self.resync_samples, sample);
    }

    /// Quarantines one record under `class`.
    pub(crate) fn quarantine(
        &mut self,
        class: QuarantineClass,
        bytes: u64,
        sample: QuarantineSample,
    ) {
        self.bytes_quarantined += bytes;
        self.quarantine.record(class, bytes, sample);
    }

    /// Total records quarantined across all classes.
    pub fn quarantined_frames(&self) -> u64 {
        self.quarantine.count()
    }

    /// The error rate the per-source budget is checked against: the
    /// fraction of input bytes that did not become structure — quarantined
    /// or skipped. Byte-based on purpose: a single resync that destroys
    /// half the file must register as half the file, not as one incident.
    pub fn error_rate(&self) -> f64 {
        let lost = self.bytes_quarantined + self.bytes_skipped;
        if self.bytes_total == 0 {
            if lost == 0 {
                0.0
            } else {
                1.0
            }
        } else {
            lost as f64 / self.bytes_total as f64
        }
    }

    /// The conservation invariant: every input byte is parsed, quarantined
    /// or skipped, and the quarantined bytes are the ledger's. Checked by
    /// tests on every fixture and fuzz input.
    pub fn conserves(&self) -> bool {
        self.bytes_parsed + self.bytes_quarantined + self.bytes_skipped == self.bytes_total
            && self.bytes_quarantined == self.quarantine.bytes()
    }
}

impl fmt::Display for IngestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "bytes: {} total = {} parsed + {} quarantined + {} skipped ({})",
            self.bytes_total,
            self.bytes_parsed,
            self.bytes_quarantined,
            self.bytes_skipped,
            if self.conserves() { "conserved" } else { "NOT CONSERVED" },
        )?;
        writeln!(
            f,
            "frames: {} scanned, {} events, {} quarantined, {} resyncs",
            self.frames_scanned,
            self.events,
            self.quarantined_frames(),
            self.resyncs,
        )?;
        for (class, tally) in self.quarantine.iter() {
            if tally.count == 0 {
                continue;
            }
            writeln!(f, "  {}: {} frames / {} bytes", class.id(), tally.count, tally.bytes)?;
            for s in &tally.samples {
                writeln!(f, "    frame {} @ byte {}: {}", s.frame_index, s.offset, s.reason)?;
            }
        }
        for s in &self.resync_samples {
            writeln!(f, "  resync @ byte {}: {}", s.offset, s.reason)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_capped_but_counts_are_exact() {
        let mut report = IngestReport::default();
        for i in 0..20 {
            report.quarantine(
                QuarantineClass::BadWireMessage,
                10,
                QuarantineSample { frame_index: i, offset: i * 10, reason: format!("bad {i}") },
            );
        }
        let bad_wire = report.quarantine.get(QuarantineClass::BadWireMessage).unwrap();
        assert_eq!((bad_wire.count, bad_wire.bytes), (20, 200));
        assert_eq!(bad_wire.samples.len(), quarantine::MAX_SAMPLES);
        assert_eq!(bad_wire.samples[0].reason, "bad 0");
        assert_eq!(report.quarantined_frames(), 20);
    }

    #[test]
    fn conservation_flags_leaks() {
        let mut report = IngestReport { bytes_total: 100, bytes_parsed: 60, ..Default::default() };
        assert!(!report.conserves());
        let sample = QuarantineSample { frame_index: 0, offset: 60, reason: "short".into() };
        report.quarantine(QuarantineClass::TruncatedFrame, 30, sample);
        report.bytes_skipped = 10;
        assert!(report.conserves());
        // Quarantined bytes the class ledger never booked are a leak too.
        report.bytes_quarantined += 5;
        report.bytes_parsed -= 5;
        assert!(!report.conserves());
    }

    #[test]
    fn error_rate_handles_empty_sources() {
        let report = IngestReport::default();
        assert_eq!(report.error_rate(), 0.0);
        let mut bad = IngestReport::default();
        bad.record_resync(0, 5, "nothing plausible".into());
        assert_eq!(bad.error_rate(), 1.0);
        let mut half = IngestReport { bytes_total: 100, ..Default::default() };
        half.record_resync(0, 50, "garbage".into());
        assert_eq!(half.error_rate(), 0.5);
    }
}
