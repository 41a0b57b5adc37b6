//! Shared vocabulary of the scan phase.
//!
//! Both capture formats are scanned the same way: a cheap pass delimits
//! one frame extent at a time (reading only headers, resyncing over
//! garbage), and the expensive payload decoding runs on each extent as it
//! is delimited.
//!
//! A scanner sees the capture through a [`View`]: the bytes from some
//! absolute offset on, and whether they run to the capture's end. Every
//! decision that depends on where the bytes end waits for more of them
//! ([`Step::More`]) unless the view is at EOF, so a scan through a
//! sliding window books exactly what a scan of the whole capture books.

use std::fmt;
use std::ops::Range;

/// One frame extent delimited by the scanner. Payload bytes are *not*
/// interpreted yet; `payload` indexes into the capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Ordinal among all scanned frames (quarantine samples key on it).
    pub index: u64,
    /// Byte offset of the frame header in the capture.
    pub offset: usize,
    /// Total bytes the frame occupies (header + stored payload).
    pub frame_bytes: usize,
    /// Capture-format timestamp, in whole seconds.
    pub ts_secs: u64,
    /// Client identity when the envelope carries one (dnstap-style frames
    /// do; pcap frames recover it from the IP header during decode).
    pub client: Option<u64>,
    /// The undecoded payload extent, as absolute capture offsets.
    pub payload: Range<usize>,
}

/// The scanner's output: frame extents in capture order.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Delimited frames, in capture order.
    pub frames: Vec<RawFrame>,
}

/// Fatal scan errors — conditions under which no degraded output exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanError {
    /// The source is not recognizably a capture of the requested format.
    BadCapture(String),
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::BadCapture(why) => write!(f, "unusable capture: {why}"),
        }
    }
}

impl std::error::Error for ScanError {}

/// What a scanner found next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// The next frame extent, wholly inside the view.
    Frame(RawFrame),
    /// The view ends before the bytes the next decision needs, and the
    /// capture does not: extend the view, keeping every byte from the
    /// scanner's `offset()` on, and ask again.
    More,
    /// The capture is exhausted.
    End,
}

/// The view ran out before the capture did.
#[derive(Debug)]
pub(crate) struct More;

/// Part of a capture: its bytes from absolute offset `base` on, and
/// whether they run to its end.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    bytes: &'a [u8],
    base: usize,
    eof: bool,
}

impl<'a> View<'a> {
    /// A whole capture: offset 0 to EOF.
    pub fn whole(bytes: &'a [u8]) -> View<'a> {
        View { bytes, base: 0, eof: true }
    }

    /// `bytes` of a capture starting at offset `base`; `eof` when they run
    /// to its end.
    pub fn new(bytes: &'a [u8], base: usize, eof: bool) -> View<'a> {
        View { bytes, base, eof }
    }

    /// The absolute offset just past the view.
    pub fn end(&self) -> usize {
        self.base + self.bytes.len()
    }

    /// Whether the capture holds every byte before absolute offset `end`.
    pub(crate) fn holds(&self, end: usize) -> Result<bool, More> {
        if end <= self.end() {
            Ok(true)
        } else if self.eof {
            Ok(false)
        } else {
            Err(More)
        }
    }

    /// Whether the capture ends exactly at `at`, an offset it holds.
    pub(crate) fn ends_at(&self, at: usize) -> Result<bool, More> {
        if at < self.end() {
            Ok(false)
        } else if self.eof {
            Ok(at == self.end())
        } else {
            Err(More)
        }
    }

    /// The `n` bytes at absolute offset `at`, or `None` when the capture
    /// ends before them.
    pub(crate) fn span(&self, at: usize, n: usize) -> Result<Option<&'a [u8]>, More> {
        Ok(if self.holds(at + n)? { Some(self.extent(at..at + n)) } else { None })
    }

    /// The bytes of an absolute extent inside the view; empty for one that
    /// is not.
    pub(crate) fn extent(&self, range: Range<usize>) -> &'a [u8] {
        let start = range.start.wrapping_sub(self.base);
        self.bytes.get(start..start.wrapping_add(range.len())).unwrap_or_default()
    }
}

/// Skip-scans from `probe` for the first offset that is followed by at
/// least `header` capture bytes and that `confirmed` accepts: that offset,
/// or the capture's end when there is none. `Err` carries the probe at
/// which the view ran out before the capture did, so the scan resumes
/// there once it has more bytes.
pub(crate) fn skip_scan(
    view: View<'_>,
    mut probe: usize,
    header: usize,
    confirmed: impl Fn(usize) -> Result<bool, More>,
) -> Result<usize, usize> {
    loop {
        match view.holds(probe + header) {
            Ok(true) => {}
            Ok(false) => return Ok(view.end()),
            Err(More) => return Err(probe),
        }
        match confirmed(probe) {
            Ok(true) => return Ok(probe),
            Ok(false) => probe += 1,
            Err(More) => return Err(probe),
        }
    }
}
