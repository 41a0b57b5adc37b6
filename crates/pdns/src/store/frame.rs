//! The one envelope every durable artifact shares: run files, the
//! `MANIFEST` and stream checkpoints are all
//!
//! ```text
//! magic (8 bytes: letter tag + version digits + '\n') | body | CRC-32 (big-endian)
//! ```
//!
//! with the footer checksumming everything before it. [`seal`] writes
//! the frame (a run image writes its own into one buffer, its footer
//! combined from its sections' CRCs) and [`Reader::open`] (or
//! [`Reader::open_summed`], given that CRC) is the only code that takes
//! one apart, handing back a [`Reader`] whose every access is
//! bounds-checked; the format modules are field encoders and decoders
//! over it and the `put_*` writers. [`load`] is the matching read path
//! from a directory; publishing is
//! [`io::atomic_write`](super::io::atomic_write).
//!
//! The accessors are `#[inline]`: the checkpoint codec in `crates/stream`
//! calls them across the crate boundary, and the release profile has no
//! LTO.

use std::fmt;
use std::path::Path;

use super::crc::{crc32, crc32_combine};
use super::error::StoreError;

/// Why a durable image was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than magic + footer: not a frame at all.
    Short,
    /// A stored CRC-32 does not match the bytes it covers (the frame
    /// footer, or a checksum the body carries itself).
    Checksum,
    /// The CRC-32 of the whole image differs from the one the store's
    /// `MANIFEST` lists for it.
    FileChecksum,
    /// The checksum holds but the magic names a different artifact.
    Magic,
    /// The right artifact in a format version this build does not read.
    Version,
    /// Framed correctly, but a body field is truncated, out of range or
    /// inconsistent; the message names the field.
    Malformed(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FrameError::Short => "image shorter than magic + footer",
            FrameError::Checksum => "checksum mismatch",
            FrameError::FileChecksum => "file CRC != manifest CRC",
            FrameError::Magic => "bad magic",
            FrameError::Version => "unsupported version",
            FrameError::Malformed(detail) => detail,
        })
    }
}

/// The [`FrameError::Malformed`] a field decoder reports.
pub fn malformed(detail: impl Into<String>) -> FrameError {
    FrameError::Malformed(detail.into())
}

/// Frames `body`: `magic`, the body, and a CRC-32 footer over both.
// lint:certify(no-panic)
pub fn seal(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len().saturating_add(12));
    out.extend_from_slice(magic);
    out.extend_from_slice(body);
    let footer = crc32(&out);
    put_u32(&mut out, footer);
    out
}

/// The CRC-32 of a whole [`seal`]ed image, read off its footer instead
/// of the body: the footer is the CRC of everything before it, so the
/// file's CRC is that value carried past the footer's own four bytes.
/// Only for an image this process sealed; a damaged footer gives a wrong
/// value, not an error.
// lint:certify(no-panic)
pub fn sealed_crc(image: &[u8]) -> u32 {
    match image.split_last_chunk::<4>() {
        Some((_, footer)) => crc32_combine(u32::from_be_bytes(*footer), crc32(footer), 4),
        None => crc32(image),
    }
}

/// Whether `found` is `magic`'s artifact in another version: the same
/// leading letters, then nothing but digits up to the closing newline.
/// The rule is read off the constant, so `dnrun02\n` (5 letters, 2
/// digits) and `dnckpt1\n` (6 and 1) need no per-format table.
// lint:certify(no-panic)
fn other_version(magic: &[u8; 8], found: &[u8; 8]) -> bool {
    let tag = magic.iter().take_while(|b| b.is_ascii_alphabetic()).count();
    let Some([digits @ .., b'\n']) = found.get(tag..) else {
        return false;
    };
    found.get(..tag) == magic.get(..tag) && digits.iter().all(u8::is_ascii_digit)
}

/// Reads `dir/name` and parses it. `Ok(None)` when the file does not
/// exist; any other read failure is an IO error and a parse failure is
/// [`StoreError::Corrupt`] naming the path — corruption is reported,
/// never mistaken for a fresh start.
pub fn load<T>(
    dir: &Path,
    name: &str,
    parse: impl FnOnce(&[u8]) -> Result<T, FrameError>,
) -> Result<Option<T>, StoreError> {
    let path = dir.join(name);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io("read", &path, &e)),
    };
    parse(&bytes).map(Some).map_err(|e| StoreError::corrupt(&path, e.to_string()))
}

fn truncated() -> FrameError {
    malformed("field runs past the end of the body")
}

/// A bounds-checked reader over a frame's body: a truncated or forged
/// body surfaces as [`FrameError::Malformed`], never as a slice panic.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Opens a [`seal`]ed image: length gate, footer CRC, tag, version —
    /// in that order, so nothing in the image is interpreted before the
    /// checksum has vouched for it.
    // lint:certify(no-panic)
    pub fn open(magic: &[u8; 8], bytes: &'a [u8]) -> Result<Reader<'a>, FrameError> {
        // An image without a footer is refused before its CRC is read.
        let framed = bytes.split_last_chunk::<4>().map_or(bytes, |(framed, _)| framed);
        Reader::open_summed(magic, bytes, crc32(framed))
    }

    /// [`Reader::open`] given `framed_crc`, the CRC-32 of everything
    /// before the footer, from a caller that checksummed the image's
    /// parts in one pass and combined them. The checks and their order
    /// are `open`'s.
    // lint:certify(no-panic)
    pub fn open_summed(
        magic: &[u8; 8],
        bytes: &'a [u8],
        framed_crc: u32,
    ) -> Result<Reader<'a>, FrameError> {
        let (framed, footer) = bytes.split_last_chunk::<4>().ok_or(FrameError::Short)?;
        let (found, body) = framed.split_first_chunk::<8>().ok_or(FrameError::Short)?;
        if framed_crc != u32::from_be_bytes(*footer) {
            Err(FrameError::Checksum)
        } else if found == magic {
            Ok(Reader { rest: body })
        } else if other_version(magic, found) {
            Err(FrameError::Version)
        } else {
            Err(FrameError::Magic)
        }
    }

    /// Bytes not yet consumed.
    // lint:certify(no-panic)
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `len` bytes.
    // lint:certify(no-panic)
    #[inline]
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], FrameError> {
        let (head, tail) = self.rest.split_at_checked(len).ok_or_else(truncated)?;
        self.rest = tail;
        Ok(head)
    }

    // lint:certify(no-panic)
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let (head, tail) = self.rest.split_first_chunk::<N>().ok_or_else(truncated)?;
        self.rest = tail;
        Ok(*head)
    }

    /// One byte.
    // lint:certify(no-panic)
    #[inline]
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        self.array().map(u8::from_be_bytes)
    }

    /// One byte that must be 0 or 1.
    // lint:certify(no-panic)
    #[inline]
    pub fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("bad boolean byte {other}"))),
        }
    }

    /// A big-endian `u16`.
    // lint:certify(no-panic)
    #[inline]
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    // lint:certify(no-panic)
    #[inline]
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    // lint:certify(no-panic)
    #[inline]
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        self.array().map(u64::from_be_bytes)
    }

    /// A `u64` field that must fit this platform's `usize`.
    // lint:certify(no-panic)
    #[inline]
    pub fn usize(&mut self) -> Result<usize, FrameError> {
        usize::try_from(self.u64()?).map_err(|_| malformed("value out of range"))
    }

    /// A `u64` element count, bounded by the bytes actually remaining so
    /// a forged count cannot drive a huge up-front allocation.
    // lint:certify(no-panic)
    #[inline]
    pub fn count(&mut self) -> Result<usize, FrameError> {
        let n = self.usize()?;
        if n > self.rest.len() {
            return Err(malformed("count exceeds remaining bytes"));
        }
        Ok(n)
    }

    /// The next `n` elements, each read by `item`.
    // lint:certify(no-panic)
    #[inline]
    pub fn seq<T>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, FrameError>,
    ) -> Result<Vec<T>, FrameError> {
        let mut out = Vec::with_capacity(n.min(self.rest.len()));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A `u16`-length-prefixed blob (see [`put_blob16`]).
    // lint:certify(no-panic)
    #[inline]
    pub fn blob16(&mut self) -> Result<&'a [u8], FrameError> {
        let len = usize::from(self.u16()?);
        self.take(len)
    }

    /// Ends the parse: the body must be fully consumed.
    // lint:certify(no-panic)
    pub fn end(self) -> Result<(), FrameError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(malformed(format!("{} trailing bytes", self.rest.len())))
        }
    }
}

/// Appends a big-endian `u16`.
// lint:certify(no-panic)
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u32`.
// lint:certify(no-panic)
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u64`.
// lint:certify(no-panic)
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a `u16`-length-prefixed short blob (names, keys, rdata, file
/// names — all bounded well below 64 KiB by the DNS wire format). A
/// longer blob is cut at the prefix's range, so the image stays
/// self-consistent rather than carrying a wrapped length.
// lint:certify(no-panic)
#[inline]
pub fn put_blob16(out: &mut Vec<u8>, bytes: &[u8]) {
    let len = u16::try_from(bytes.len()).unwrap_or(u16::MAX);
    put_u16(out, len);
    out.extend_from_slice(bytes.get(..usize::from(len)).unwrap_or(bytes));
}

/// Decodes a whitespace-separated hex fixture (the `tests/golden/*.hex`
/// images pinned against the on-disk formats).
#[cfg(test)]
pub(crate) fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
    digits
        .chunks_exact(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"dntest3\n";

    #[test]
    fn seal_then_open_reads_every_field_back() {
        let mut body = Vec::new();
        body.push(1);
        put_u16(&mut body, 0xbeef);
        put_u32(&mut body, 0xdead_beef);
        put_u64(&mut body, 2);
        put_blob16(&mut body, b"blob");
        body.extend_from_slice(b"xy");
        let image = seal(MAGIC, &body);
        assert_eq!(image.len(), 8 + body.len() + 4);
        let mut r = Reader::open(MAGIC, &image).unwrap();
        assert_eq!(r.remaining(), body.len());
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u16(), Ok(0xbeef));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.count(), Ok(2));
        assert_eq!(r.blob16(), Ok(&b"blob"[..]));
        assert!(r.clone().end().unwrap_err().to_string().contains("2 trailing bytes"));
        assert_eq!(r.take(2), Ok(&b"xy"[..]));
        assert!(r.u8().is_err(), "reads past the end are errors");
        assert_eq!(r.end(), Ok(()));
    }

    #[test]
    fn open_checks_length_then_crc_then_tag_then_version() {
        let image = seal(MAGIC, b"body");
        assert_eq!(Reader::open(MAGIC, &image[..11]).unwrap_err(), FrameError::Short);
        let mut flipped = image.clone();
        flipped[0] ^= 1; // a bad magic under a bad CRC is a CRC failure
        assert_eq!(Reader::open(MAGIC, &flipped).unwrap_err(), FrameError::Checksum);
        assert_eq!(Reader::open(b"dntest2\n", &image).unwrap_err(), FrameError::Version);
        assert_eq!(Reader::open(b"dntext3\n", &image).unwrap_err(), FrameError::Magic);
        // A shorter tag that prefixes the stored one is another artifact.
        assert_eq!(Reader::open(b"dntes03\n", &image).unwrap_err(), FrameError::Magic);
        assert_eq!(Reader::open(b"dntests\n", &image).unwrap_err(), FrameError::Magic);
    }

    #[test]
    fn forged_counts_and_flags_are_malformed_not_panics() {
        let mut body = Vec::new();
        put_u64(&mut body, u64::MAX);
        body.push(2);
        let image = seal(MAGIC, &body);
        let mut r = Reader::open(MAGIC, &image).unwrap();
        assert!(matches!(r.clone().count(), Err(FrameError::Malformed(_))));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert!(r.bool().unwrap_err().to_string().contains("bad boolean byte 2"));
    }

    #[test]
    fn oversized_blobs_are_cut_to_a_consistent_image() {
        let mut body = Vec::new();
        put_blob16(&mut body, &vec![7u8; 70_000]);
        let image = seal(MAGIC, &body);
        let mut r = Reader::open(MAGIC, &image).unwrap();
        assert_eq!(r.blob16().map(<[u8]>::len), Ok(usize::from(u16::MAX)));
        assert_eq!(r.end(), Ok(()));
    }
}
