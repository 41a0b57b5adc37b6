//! Dnstap-style captures in a Frame Streams envelope.
//!
//! Frame Streams (the transport under real `dnstap`) is a sequence of
//! big-endian length-prefixed frames; a zero length escapes a control
//! frame (START/STOP + its own length-prefixed payload). Real dnstap
//! wraps protobuf inside the data frames; this repo has no protobuf
//! dependency, so data frames carry a fixed "dnstap-lite" header instead:
//!
//! ```text
//! [ver: u8 = 1][ts_secs: u64 BE][client: u64 BE][dns_len: u16 BE][dns wire bytes]
//! ```
//!
//! which preserves exactly the fields the canonical trace needs — the
//! full 64-bit client identity (richer than what pcap's IPv4 addresses
//! can carry) plus a second-granularity timestamp — while keeping the
//! incremental frame-at-a-time reading shape of the real thing.
//!
//! Resync mirrors the pcap scanner: a frame boundary is only trusted when
//! its length is in range and the payload header is self-consistent, and
//! a lookahead confirms the *next* boundary (or EOF). On failure the
//! scanner skip-scans, accounting every byte.

use crate::report::{IngestReport, QuarantineClass, QuarantineSample};
use crate::scan::{self, More, RawFrame, ScanError, Scanned, Step, View};

/// Data-frame header length: version + timestamp + client + dns length.
pub const DATA_HEADER_LEN: usize = 1 + 8 + 8 + 2;
/// The dnstap-lite version byte.
pub const VERSION: u8 = 1;
/// Control frame types (the subset Frame Streams defines that we emit).
const CONTROL_START: u32 = 0x02;
const CONTROL_STOP: u32 = 0x03;
/// Largest accepted control frame payload.
const MAX_CONTROL_LEN: usize = 512;
/// Largest accepted data frame: header + a maximal UDP DNS message.
const MAX_DATA_LEN: usize = DATA_HEADER_LEN + 65_535;

// A confirmed boundary looks two frames past its start; the read window
// must hold that.
const _: () = assert!(2 * (4 + MAX_DATA_LEN) <= crate::WINDOW_LEN);

/// `true` when the capture starts with a Frame Streams control escape.
pub fn looks_like_dnstap(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[0..4] == [0, 0, 0, 0]
}

fn be_u32(view: View<'_>, pos: usize) -> Result<Option<u32>, More> {
    Ok(view.span(pos, 4)?.and_then(|b| Some(u32::from_be_bytes(b.try_into().ok()?))))
}

/// Classification of the bytes at one position.
enum Boundary {
    /// A control frame of this many total bytes (escape + length + body).
    Control(usize),
    /// A data frame: total bytes, timestamp, client, dns payload extent
    /// relative to the frame start.
    Data { total: usize, ts_secs: u64, client: u64 },
    /// Nothing trustworthy here.
    No,
}

/// Parses the frame at `pos` without trusting it further than the bytes
/// in range. Self-consistency required: control type known and length
/// bounded; data length bounded, version byte correct, and the inner DNS
/// length agreeing with the outer frame length. It looks at most
/// `4 + MAX_DATA_LEN` bytes past `pos`.
fn boundary_at(view: View<'_>, pos: usize) -> Result<Boundary, More> {
    let Some(flen) = be_u32(view, pos)? else { return Ok(Boundary::No) };
    if flen == 0 {
        // Control escape: [0][ctrl_len][ctrl_type ...].
        let Some(ctrl_len) = be_u32(view, pos + 4)? else { return Ok(Boundary::No) };
        let ctrl_len = ctrl_len as usize;
        if !(4..=MAX_CONTROL_LEN).contains(&ctrl_len) || !view.holds(pos + 8 + ctrl_len)? {
            return Ok(Boundary::No);
        }
        let Some(ctrl_type) = be_u32(view, pos + 8)? else { return Ok(Boundary::No) };
        if ctrl_type != CONTROL_START && ctrl_type != CONTROL_STOP {
            return Ok(Boundary::No);
        }
        Ok(Boundary::Control(8 + ctrl_len))
    } else {
        let flen = flen as usize;
        if !(DATA_HEADER_LEN..=MAX_DATA_LEN).contains(&flen) {
            return Ok(Boundary::No);
        }
        let Some(body) = view.span(pos + 4, flen)? else { return Ok(Boundary::No) };
        if body[0] != VERSION {
            return Ok(Boundary::No);
        }
        let be_u64 =
            |at: usize| u64::from_be_bytes(body[at..at + 8].try_into().unwrap_or_default());
        let (ts_secs, client) = (be_u64(1), be_u64(9));
        let dns_len = usize::from(u16::from_be_bytes([body[17], body[18]]));
        if DATA_HEADER_LEN + dns_len != flen {
            return Ok(Boundary::No);
        }
        Ok(Boundary::Data { total: 4 + flen, ts_secs, client })
    }
}

/// A boundary whose successor is EOF, a trailing stub, or another
/// boundary — the lookahead confirmation used during resync. It looks at
/// most `2 * (4 + MAX_DATA_LEN)` bytes past `pos`.
fn confirmed_boundary(view: View<'_>, pos: usize) -> Result<bool, More> {
    let total = match boundary_at(view, pos)? {
        Boundary::Control(total) => total,
        Boundary::Data { total, .. } => total,
        Boundary::No => return Ok(false),
    };
    let end = pos + total;
    if !view.holds(end + 4)? {
        // EOF or a trailing stub shorter than a length word.
        return Ok(true);
    }
    Ok(!matches!(boundary_at(view, end)?, Boundary::No))
}

/// A resumable frame-at-a-time scanner over a Frame Streams capture: the
/// iterator form of [`scan`], for consumers (like
/// [`EventStream`](crate::EventStream)) that want one frame per call
/// instead of a materialised extent list. Like
/// [`PcapScanner`](crate::pcap::PcapScanner) it holds no bytes and reads
/// the capture through the [`View`] each call passes. [`scan`] is
/// implemented on top of it, so the two agree exactly — same frames, same
/// ledger accounting.
#[derive(Debug)]
pub struct FrameScanner {
    pos: usize,
    /// The offset a resync skip-scan that began at `pos` has reached.
    probe: Option<usize>,
    done: bool,
}

impl FrameScanner {
    /// Positions a scanner at the start of the capture `view` begins.
    ///
    /// # Errors
    ///
    /// Fails on an empty capture — the one condition with no degraded
    /// reading.
    pub fn new(view: View<'_>) -> Result<FrameScanner, ScanError> {
        if view.ends_at(0).unwrap_or(false) {
            return Err(ScanError::BadCapture("empty capture".into()));
        }
        Ok(FrameScanner { pos: 0, probe: None, done: false })
    }

    /// The first byte offset the scanner has yet to consume: a view passed
    /// to [`FrameScanner::next_frame`] must start at or before it.
    pub fn offset(&self) -> usize {
        self.probe.unwrap_or(self.pos)
    }

    /// Whether the scanner has reached the end of the capture (cleanly or
    /// via a terminal quarantine).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Advances to and returns the next data frame, accounting control
    /// frames, resyncs, and tail quarantines in `report` along the way.
    /// [`Step::End`] at end of capture, and on every call after that
    /// without touching the report again; [`Step::More`] when `view` ends
    /// before the capture and before the bytes the next decision needs.
    pub fn next_frame(&mut self, view: View<'_>, report: &mut IngestReport) -> Step {
        if self.done {
            return Step::End;
        }
        loop {
            if let Some(probe) = self.probe {
                let confirmed = |at| confirmed_boundary(view, at);
                let landing = match scan::skip_scan(view, probe, 4, confirmed) {
                    Ok(landing) => landing,
                    Err(probe) => {
                        self.probe = Some(probe);
                        return Step::More;
                    }
                };
                report.record_resync(
                    self.pos as u64,
                    (landing - self.pos) as u64,
                    format!("implausible frame, skipped {} bytes", landing - self.pos),
                );
                self.pos = landing;
                self.probe = None;
            }
            let flen = match be_u32(view, self.pos) {
                Ok(Some(flen)) => flen as usize,
                Ok(None) => {
                    let remaining = view.end() - self.pos;
                    if remaining > 0 {
                        report.quarantine(
                            QuarantineClass::TruncatedFrame,
                            remaining as u64,
                            QuarantineSample {
                                frame_index: report.frames_scanned,
                                offset: self.pos as u64,
                                reason: format!(
                                    "{remaining} trailing bytes, shorter than a frame length"
                                ),
                            },
                        );
                    }
                    self.done = true;
                    return Step::End;
                }
                Err(More) => return Step::More,
            };
            match boundary_at(view, self.pos) {
                Err(More) => return Step::More,
                Ok(Boundary::Control(total)) => {
                    report.bytes_parsed += total as u64;
                    self.pos += total;
                }
                Ok(Boundary::Data { total, ts_secs, client }) => {
                    let payload_start = self.pos + 4 + DATA_HEADER_LEN;
                    let frame = RawFrame {
                        index: report.frames_scanned,
                        offset: self.pos,
                        frame_bytes: total,
                        ts_secs,
                        client: Some(client),
                        payload: payload_start..self.pos + total,
                    };
                    report.frames_scanned += 1;
                    self.pos += total;
                    return Step::Frame(frame);
                }
                // A frame that promises more bytes than remain is a
                // truncated tail; anything else untrustworthy is garbage
                // to resync over.
                Ok(Boundary::No)
                    if (DATA_HEADER_LEN..=MAX_DATA_LEN).contains(&flen)
                        && matches!(view.holds(self.pos + 4 + flen), Ok(false)) =>
                {
                    let remaining = view.end() - self.pos;
                    report.quarantine(
                        QuarantineClass::TruncatedFrame,
                        remaining as u64,
                        QuarantineSample {
                            frame_index: report.frames_scanned,
                            offset: self.pos as u64,
                            reason: format!(
                                "frame promises {flen} bytes but only {} remain",
                                remaining - 4
                            ),
                        },
                    );
                    report.frames_scanned += 1;
                    self.done = true;
                    return Step::End;
                }
                Ok(Boundary::No) => self.probe = Some(self.pos + 1),
            }
        }
    }
}

/// Scans a whole Frame Streams capture into data-frame extents. For
/// tools that want the extent list itself; ingestion pulls from
/// [`FrameScanner`] one frame at a time instead.
pub fn scan(bytes: &[u8], report: &mut IngestReport) -> Result<Scanned, ScanError> {
    let view = View::whole(bytes);
    let mut scanner = FrameScanner::new(view)?;
    let mut frames = Vec::new();
    while let Step::Frame(frame) = scanner.next_frame(view, report) {
        frames.push(frame);
    }
    Ok(Scanned { frames })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

use dnsnoise_workload::DayTrace;

use crate::decode::event_to_message;
use crate::CaptureWriteError;

fn push_control(out: &mut Vec<u8>, ctrl_type: u32) {
    out.extend_from_slice(&0u32.to_be_bytes()); // escape
    out.extend_from_slice(&4u32.to_be_bytes()); // control length
    out.extend_from_slice(&ctrl_type.to_be_bytes());
}

/// Serializes a trace as a Frame Streams capture of dnstap-lite frames,
/// bracketed by START/STOP control frames.
///
/// # Errors
///
/// Fails when an event cannot be expressed on the wire.
pub fn write_dnstap(trace: &DayTrace) -> Result<Vec<u8>, CaptureWriteError> {
    let mut out = Vec::with_capacity(trace.events.len() * 112 + 24);
    push_control(&mut out, CONTROL_START);
    for (index, event) in trace.events.iter().enumerate() {
        let msg = event_to_message(event, index as u16);
        let dns = dnsnoise_dns::wire::encode(&msg)
            .map_err(|e| CaptureWriteError(format!("event {index}: {e}")))?;
        let dns_len = u16::try_from(dns.len())
            .map_err(|_| CaptureWriteError(format!("event {index}: oversized message")))?;
        let flen = (DATA_HEADER_LEN + dns.len()) as u32;
        out.extend_from_slice(&flen.to_be_bytes());
        out.push(VERSION);
        out.extend_from_slice(&event.time.as_secs().to_be_bytes());
        out.extend_from_slice(&event.client.to_be_bytes());
        out.extend_from_slice(&dns_len.to_be_bytes());
        out.extend_from_slice(&dns);
    }
    push_control(&mut out, CONTROL_STOP);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_frames_are_structural() {
        let mut out = Vec::new();
        push_control(&mut out, CONTROL_START);
        push_control(&mut out, CONTROL_STOP);
        let mut report = IngestReport { bytes_total: out.len() as u64, ..Default::default() };
        let scanned = scan(&out, &mut report).unwrap();
        assert!(scanned.frames.is_empty());
        assert_eq!(report.bytes_parsed, out.len() as u64);
        assert!(report.conserves());
    }

    #[test]
    fn detection_requires_control_escape() {
        assert!(looks_like_dnstap(&[0, 0, 0, 0, 1]));
        assert!(!looks_like_dnstap(&[0, 0, 0, 9]));
        assert!(!looks_like_dnstap(&[]));
    }
}
