//! Shared vocabulary of the serial scan phase.
//!
//! Both capture formats are scanned the same way: a cheap serial pass
//! delimits frame extents (reading only headers, resyncing over garbage)
//! a batch at a time, and the expensive per-frame payload decoding then
//! runs sharded over contiguous chunks of the batch's extent list. Because
//! that list is fixed before any thread starts, the merged decode output
//! is bit-identical to the serial one for every thread count.

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

/// Splits `n` items into `threads` contiguous chunks (the last chunks may
/// be one shorter). Chunk boundaries depend only on `n` and `threads`,
/// never on content — the cornerstone of the sharded parse's determinism.
pub fn chunk_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let threads = threads.max(1).min(n.max(1));
    let base = n / threads;
    let extra = n % threads;
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0;
    for i in 0..threads {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly_once_in_order() {
        for n in [0usize, 1, 7, 100, 101] {
            for threads in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(n, threads);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "n={n} threads={threads}");
                    next = r.end;
                }
                assert_eq!(next, n, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn chunking_is_balanced() {
        let ranges = chunk_ranges(10, 3);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }
}
