//! Classic libpcap captures: a 24-byte global header, then per-packet
//! records of `[ts_sec, ts_frac, incl_len, orig_len]` + link-layer frame.
//!
//! The scanner is built for dirty files. A record header is only trusted
//! when it is *plausible* (sane lengths and sub-second field) **and** the
//! frame it delimits ends at EOF or at another plausible header — the
//! one-frame lookahead that pcap repair tools use. When trust fails, the
//! scanner enters a resync skip-scan: slide one byte at a time until a
//! confirmed boundary appears, accounting every skipped byte, and carry
//! on. A corrupt region therefore costs the frames it physically overlaps
//! — never the rest of the file.

use crate::report::{IngestReport, QuarantineClass, QuarantineSample};
use crate::scan::{self, More, RawFrame, ScanError, Scanned, Step, View};

/// Magic numbers of the classic (non-ng) format, microsecond and
/// nanosecond flavours, in both byte orders.
const MAGIC_USEC: u32 = 0xa1b2_c3d4;
const MAGIC_NSEC: u32 = 0xa1b2_3c4d;

/// Global header length.
pub const GLOBAL_HEADER_LEN: usize = 24;
/// Per-record header length.
pub const RECORD_HEADER_LEN: usize = 16;

/// Largest `orig_len` accepted as plausible: jumbo-frame territory, far
/// above anything a DNS capture produces but small enough to reject most
/// random garbage.
const MAX_ORIG_LEN: u32 = 1 << 18;

// A confirmed boundary looks one header, one record and one more header
// past its start; the read window must hold that.
const _: () = assert!(2 * RECORD_HEADER_LEN + MAX_ORIG_LEN as usize <= crate::WINDOW_LEN);

/// Snap length used by [`write_pcap`] and as the fallback bound when the
/// capture's own header is corrupt.
pub const WRITER_SNAPLEN: u32 = 65_535;

/// Byte order + timestamp unit resolved from the magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    big_endian: bool,
    nanos: bool,
}

impl Layout {
    fn from_magic(bytes: &[u8]) -> Option<Layout> {
        let le = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?);
        let be = u32::from_be_bytes(bytes.get(0..4)?.try_into().ok()?);
        match (le, be) {
            (MAGIC_USEC, _) => Some(Layout { big_endian: false, nanos: false }),
            (MAGIC_NSEC, _) => Some(Layout { big_endian: false, nanos: true }),
            (_, MAGIC_USEC) => Some(Layout { big_endian: true, nanos: false }),
            (_, MAGIC_NSEC) => Some(Layout { big_endian: true, nanos: true }),
            _ => None,
        }
    }

    /// Decodes the first four bytes in the capture's byte order; shorter
    /// input (a caller contract violation) decodes as zero rather than
    /// panicking.
    fn u32(&self, bytes: &[u8]) -> u32 {
        let arr: [u8; 4] = match bytes.get(..4).and_then(|b| b.try_into().ok()) {
            Some(arr) => arr,
            None => return 0,
        };
        if self.big_endian {
            u32::from_be_bytes(arr)
        } else {
            u32::from_le_bytes(arr)
        }
    }

    fn frac_limit(&self) -> u32 {
        if self.nanos {
            1_000_000_000
        } else {
            1_000_000
        }
    }
}

/// `true` when the capture starts with a classic pcap magic.
pub fn looks_like_pcap(bytes: &[u8]) -> bool {
    Layout::from_magic(bytes).is_some()
}

struct Header {
    ts_sec: u32,
    ts_frac: u32,
    incl_len: u32,
    orig_len: u32,
}

fn header_at(view: View<'_>, pos: usize, layout: Layout) -> Result<Option<Header>, More> {
    Ok(view.span(pos, RECORD_HEADER_LEN)?.map(|hdr| Header {
        ts_sec: layout.u32(&hdr[0..4]),
        ts_frac: layout.u32(&hdr[4..8]),
        incl_len: layout.u32(&hdr[8..12]),
        orig_len: layout.u32(&hdr[12..16]),
    }))
}

/// Syntactic plausibility of a record header: lengths and sub-second
/// field in range. Deliberately ignores the timestamp seconds — flipped
/// time bytes must not desync framing (the timestamp filter handles them
/// at event level).
fn plausible_header(h: &Header, snaplen: u32, layout: Layout) -> bool {
    h.incl_len >= 1
        && h.incl_len <= snaplen
        && h.orig_len >= h.incl_len
        && h.orig_len <= MAX_ORIG_LEN
        && h.ts_frac < layout.frac_limit()
}

/// A header is a *confirmed* boundary when it is plausible, its frame fits
/// the capture, and the next position is EOF or plausible again. It looks
/// at most `2 * RECORD_HEADER_LEN + MAX_ORIG_LEN` bytes past `pos`.
fn confirmed_boundary(
    view: View<'_>,
    pos: usize,
    snaplen: u32,
    layout: Layout,
) -> Result<bool, More> {
    let Some(h) = header_at(view, pos, layout)? else { return Ok(false) };
    if !plausible_header(&h, snaplen, layout) {
        return Ok(false);
    }
    let end = pos + RECORD_HEADER_LEN + h.incl_len as usize;
    if !view.holds(end)? {
        return Ok(false);
    }
    if view.ends_at(end)? {
        return Ok(true);
    }
    Ok(match header_at(view, end, layout)? {
        Some(next) => plausible_header(&next, snaplen, layout),
        // A trailing partial header: plausible as a truncated capture.
        None => true,
    })
}

/// A resumable record-at-a-time scanner over a pcap capture: the
/// iterator form of [`scan`]. Construction consumes the global header
/// (accounting it in the report); each [`PcapScanner::next_frame`] call
/// yields one record extent, resyncing over garbage as it goes. The
/// capture arrives as [`View`]s, so the scanner itself holds no bytes:
/// [`scan`] hands it the whole capture, [`EventStream`](crate::EventStream)
/// a window it slides forward on [`Step::More`].
#[derive(Debug)]
pub struct PcapScanner {
    pos: usize,
    /// The offset a resync skip-scan that began at `pos` has reached.
    probe: Option<usize>,
    layout: Layout,
    snaplen: u32,
    done: bool,
}

impl PcapScanner {
    /// Reads the global header and positions the scanner at the first
    /// record. The header's bytes are accounted in `report` immediately,
    /// exactly as the batch scan does. `view` starts at offset 0 and holds
    /// [`GLOBAL_HEADER_LEN`] bytes unless the capture is shorter.
    ///
    /// # Errors
    ///
    /// Fails when the capture is shorter than a global header — with a
    /// recognizable magic ("truncated") or without one ("not a pcap").
    pub fn new(view: View<'_>, report: &mut IngestReport) -> Result<PcapScanner, ScanError> {
        let bytes = view.extent(0..view.end());
        let pos;
        let layout = match Layout::from_magic(bytes) {
            Some(layout) => {
                if bytes.len() < GLOBAL_HEADER_LEN {
                    return Err(ScanError::BadCapture(format!(
                        "pcap global header truncated at {} bytes",
                        bytes.len()
                    )));
                }
                report.bytes_parsed += GLOBAL_HEADER_LEN as u64;
                pos = GLOBAL_HEADER_LEN;
                layout
            }
            None if bytes.len() < GLOBAL_HEADER_LEN => {
                return Err(ScanError::BadCapture(format!(
                    "not a pcap capture ({} bytes, no magic)",
                    bytes.len()
                )));
            }
            None => {
                // Forced-format path: the global header itself is corrupt.
                // Assume the writer's layout and resync from the top; the
                // mangled header bytes are accounted as skipped.
                pos = 0;
                Layout { big_endian: false, nanos: false }
            }
        };
        // Trust the capture's own snap length when it is sane; a corrupt
        // header must not let one field disable resync entirely.
        let snaplen = if pos == 0 {
            WRITER_SNAPLEN
        } else {
            let snap = layout.u32(&bytes[16..20]);
            if (64..=MAX_ORIG_LEN).contains(&snap) {
                snap
            } else {
                WRITER_SNAPLEN
            }
        };
        Ok(PcapScanner { pos, probe: None, layout, snaplen, done: false })
    }

    /// The first byte offset the scanner has yet to consume: a view passed
    /// to [`PcapScanner::next_frame`] must start at or before it.
    pub fn offset(&self) -> usize {
        self.probe.unwrap_or(self.pos)
    }

    /// Whether the scanner has reached the end of the capture.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Advances to and returns the next record extent, accounting resyncs
    /// and tail quarantines in `report` along the way. [`Step::End`] at end
    /// of capture, and on every call after that without touching the
    /// report again; [`Step::More`] when `view` ends before the capture
    /// and before the bytes the next decision needs.
    pub fn next_frame(&mut self, view: View<'_>, report: &mut IngestReport) -> Step {
        if self.done {
            return Step::End;
        }
        let (snaplen, layout) = (self.snaplen, self.layout);
        loop {
            if let Some(probe) = self.probe {
                // Lost framing: skip-scan for the next confirmed boundary.
                let confirmed = |at| confirmed_boundary(view, at, snaplen, layout);
                let landing = match scan::skip_scan(view, probe, RECORD_HEADER_LEN, confirmed) {
                    Ok(landing) => landing,
                    Err(probe) => {
                        self.probe = Some(probe);
                        return Step::More;
                    }
                };
                report.record_resync(
                    self.pos as u64,
                    (landing - self.pos) as u64,
                    format!("implausible record header, skipped {} bytes", landing - self.pos),
                );
                self.pos = landing;
                self.probe = None;
            }
            let h = match header_at(view, self.pos, layout) {
                Ok(Some(h)) => h,
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
                                    "{remaining} trailing bytes, shorter than a record header"
                                ),
                            },
                        );
                    }
                    self.done = true;
                    return Step::End;
                }
                Err(More) => return Step::More,
            };
            if !plausible_header(&h, snaplen, layout) {
                self.probe = Some(self.pos + 1);
                continue;
            }
            let body = h.incl_len as usize;
            let payload_start = self.pos + RECORD_HEADER_LEN;
            match view.holds(payload_start + body) {
                Ok(true) => {}
                Ok(false) => {
                    // Plausible header, absent bytes: the classic chopped tail.
                    let remaining = view.end() - self.pos;
                    report.quarantine(
                        QuarantineClass::TruncatedFrame,
                        remaining as u64,
                        QuarantineSample {
                            frame_index: report.frames_scanned,
                            offset: self.pos as u64,
                            reason: format!(
                                "record promises {body} bytes but only {} remain",
                                remaining - RECORD_HEADER_LEN
                            ),
                        },
                    );
                    report.frames_scanned += 1;
                    self.done = true;
                    return Step::End;
                }
                Err(More) => return Step::More,
            }
            let frame = RawFrame {
                index: report.frames_scanned,
                offset: self.pos,
                frame_bytes: RECORD_HEADER_LEN + body,
                ts_secs: u64::from(h.ts_sec),
                client: None,
                payload: payload_start..payload_start + body,
            };
            report.frames_scanned += 1;
            self.pos = payload_start + body;
            return Step::Frame(frame);
        }
    }
}

/// Scans a whole pcap capture into frame extents, performing resync
/// skip-scans over corrupt regions. Serial and cheap: it reads only
/// record headers. For tools that want the extent list itself; ingestion
/// pulls from [`PcapScanner`] one frame at a time instead.
pub fn scan(bytes: &[u8], report: &mut IngestReport) -> Result<Scanned, ScanError> {
    let view = View::whole(bytes);
    let mut scanner = PcapScanner::new(view, report)?;
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

/// Linktype 1: Ethernet.
const LINKTYPE_EN10MB: u32 = 1;
/// Fixed addresses for synthesized frames. The server owns UDP/53; the
/// client address encodes the trace's 64-bit client id truncated to 32
/// bits (the dnstap-style format carries the full id).
const SERVER_IP: [u8; 4] = [198, 51, 100, 53];

/// Serializes a trace as a little-endian microsecond pcap of synthesized
/// server→client UDP/53 response packets.
///
/// # Errors
///
/// Fails when an event cannot be expressed on the wire (e.g. a TXT record
/// beyond 255 bytes or a timestamp past the u32 range).
pub fn write_pcap(trace: &DayTrace) -> Result<Vec<u8>, CaptureWriteError> {
    let mut out = Vec::with_capacity(GLOBAL_HEADER_LEN + trace.events.len() * 128);
    out.extend_from_slice(&MAGIC_USEC.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes()); // version major
    out.extend_from_slice(&4u16.to_le_bytes()); // version minor
    out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    out.extend_from_slice(&WRITER_SNAPLEN.to_le_bytes());
    out.extend_from_slice(&LINKTYPE_EN10MB.to_le_bytes());

    for (index, event) in trace.events.iter().enumerate() {
        let msg = event_to_message(event, index as u16);
        let dns = dnsnoise_dns::wire::encode(&msg)
            .map_err(|e| CaptureWriteError(format!("event {index}: {e}")))?;
        if dns.len() > 65_507 {
            return Err(CaptureWriteError(format!(
                "event {index}: {}-byte message exceeds a UDP datagram",
                dns.len()
            )));
        }
        let ts = u32::try_from(event.time.as_secs()).map_err(|_| {
            CaptureWriteError(format!("event {index}: timestamp beyond pcap range"))
        })?;
        let udp_len = 8 + dns.len() as u16;
        let ip_len = 20 + udp_len;
        let frame_len = 14 + ip_len as usize;

        out.extend_from_slice(&ts.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // ts_usec
        out.extend_from_slice(&(frame_len as u32).to_le_bytes()); // incl_len
        out.extend_from_slice(&(frame_len as u32).to_le_bytes()); // orig_len

        // Ethernet: locally-administered unicast MACs, IPv4 ethertype.
        out.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x01]);
        out.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x02]);
        out.extend_from_slice(&[0x08, 0x00]);

        // IPv4 header, server → client, proper checksum.
        let client_ip = (event.client as u32).to_be_bytes();
        let mut ip = [0u8; 20];
        ip[0] = 0x45;
        ip[2..4].copy_from_slice(&ip_len.to_be_bytes());
        ip[4..6].copy_from_slice(&(index as u16).to_be_bytes());
        ip[8] = 64; // TTL
        ip[9] = 17; // UDP
        ip[12..16].copy_from_slice(&SERVER_IP);
        ip[16..20].copy_from_slice(&client_ip);
        let csum = ipv4_checksum(&ip);
        ip[10..12].copy_from_slice(&csum.to_be_bytes());
        out.extend_from_slice(&ip);

        // UDP: 53 → ephemeral, checksum 0 ("not computed", legal on v4).
        out.extend_from_slice(&53u16.to_be_bytes());
        out.extend_from_slice(&(0xc000 | (index as u16 & 0x3fff)).to_be_bytes());
        out.extend_from_slice(&udp_len.to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes());
        out.extend_from_slice(&dns);
    }
    Ok(out)
}

fn ipv4_checksum(header: &[u8; 20]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks_exact(2) {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_detection_covers_all_magics() {
        assert_eq!(
            Layout::from_magic(&MAGIC_USEC.to_le_bytes()),
            Some(Layout { big_endian: false, nanos: false })
        );
        assert_eq!(
            Layout::from_magic(&MAGIC_NSEC.to_le_bytes()),
            Some(Layout { big_endian: false, nanos: true })
        );
        assert_eq!(
            Layout::from_magic(&MAGIC_USEC.to_be_bytes()),
            Some(Layout { big_endian: true, nanos: false })
        );
        assert_eq!(
            Layout::from_magic(&MAGIC_NSEC.to_be_bytes()),
            Some(Layout { big_endian: true, nanos: true })
        );
        assert_eq!(Layout::from_magic(&[1, 2, 3, 4]), None);
        assert!(!looks_like_pcap(&[]));
    }

    #[test]
    fn ipv4_checksum_matches_reference() {
        // RFC 1071 example adapted: checksum of a header containing its
        // own checksum field must verify to zero.
        let mut ip = [0u8; 20];
        ip[0] = 0x45;
        ip[2..4].copy_from_slice(&40u16.to_be_bytes());
        ip[8] = 64;
        ip[9] = 17;
        ip[12..16].copy_from_slice(&[192, 0, 2, 1]);
        ip[16..20].copy_from_slice(&[203, 0, 113, 9]);
        let csum = ipv4_checksum(&ip);
        ip[10..12].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(ipv4_checksum(&ip), 0);
    }
}
