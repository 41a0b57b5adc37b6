//! Shared vocabulary of the scan phase.
//!
//! Both capture formats are scanned the same way: a cheap pass delimits
//! one frame extent at a time (reading only headers, resyncing over
//! garbage), and the expensive payload decoding runs on each extent as it
//! is delimited.

use std::fmt;
use std::ops::Range;

/// One frame extent delimited by the scanner. Payload bytes are *not*
/// interpreted yet; `payload` indexes into the capture buffer.
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
    /// The undecoded payload extent within the capture buffer.
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
