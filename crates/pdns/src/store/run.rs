//! Immutable sorted runs in a columnar byte-buffer layout.
//!
//! A run holds `n` deduplicated records sorted by composite key, split
//! into four columns: the name byte-buffer (reverse-label encodings,
//! offset-indexed), the qtype column, the rdata byte-buffer
//! (offset-indexed) and the first-seen-day column. Runs are built once —
//! from a flushed memtable or a compaction merge — and never mutated.
//! Point lookups go through the run's hash index (`HashIndex`), built on
//! the run's first probe; range scans, merges and images read the sorted
//! columns, which stay the only source of truth.
//!
//! [`Run::to_bytes`]/[`Run::from_bytes`] define the on-disk image the
//! disk backend spills (format v2): inside the shared [`frame`], a fixed
//! header, a CRC-32 per section (names, qtypes, rdata, days) and the raw
//! columns. `from_bytes` is *total*: on
//! arbitrary, truncated, or bit-flipped input it returns an error — it
//! never panics and never trusts a forged header (all size arithmetic is
//! checked). The index is *not* serialised — it is a pure function of
//! the sorted keys, built lazily by the first lookup, so a run file can
//! never carry a stale or corrupt index, and loading or verifying a run
//! (open, fsck, checkpoint load) builds none.

use std::cmp::Ordering;
use std::sync::OnceLock;

use super::crc::{crc32, crc32_combine};
use super::frame::{self, malformed, FrameError, Reader};
use super::index::{key_hash, HashIndex, Probe};
use super::keys::{self, CompositeKey, KeyRef};

/// Magic + version tag leading every serialised run (format v2: the
/// checksummed layout; v1 `dnrun01` images predate the durability layer
/// and are refused with [`FrameError::Version`]).
const RUN_MAGIC: &[u8; 8] = b"dnrun02\n";

/// One immutable sorted run. Two runs are equal when their columns are:
/// whether either has built its index yet does not matter.
#[derive(Debug, Clone)]
pub struct Run {
    /// `n + 1` offsets into `name_bytes`.
    name_offsets: Vec<u32>,
    /// Concatenated reverse-label name encodings.
    name_bytes: Vec<u8>,
    /// RR type codes, one per entry.
    qtypes: Vec<u16>,
    /// `n + 1` offsets into `rdata_bytes`.
    rdata_offsets: Vec<u32>,
    /// Concatenated rdata encodings.
    rdata_bytes: Vec<u8>,
    /// First-seen day, one per entry.
    days: Vec<u64>,
    /// The hash index over the composite keys, built on first probe.
    index: OnceLock<HashIndex>,
}

impl PartialEq for Run {
    fn eq(&self, other: &Run) -> bool {
        self.name_offsets == other.name_offsets
            && self.name_bytes == other.name_bytes
            && self.qtypes == other.qtypes
            && self.rdata_offsets == other.rdata_offsets
            && self.rdata_bytes == other.rdata_bytes
            && self.days == other.days
    }
}

impl Run {
    /// Builds a run from entries already in composite-key order with no
    /// duplicate keys.
    pub fn build(entries: &[(CompositeKey, u64)]) -> Run {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries sorted and distinct");
        let (name_len, rdata_len) = entries
            .iter()
            .fold((0, 0), |(n, r), ((name, _, rdata), _)| (n + name.len(), r + rdata.len()));
        let mut out = RunWriter::with_capacity(entries.len(), name_len, rdata_len);
        for (key, day) in entries {
            out.push(KeyRef::of(key), *day);
        }
        out.finish()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.qtypes.len()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.qtypes.is_empty()
    }

    /// Bytes in the name column's buffer.
    pub(crate) fn name_bytes_len(&self) -> usize {
        self.name_bytes.len()
    }

    /// Bytes in the rdata column's buffer.
    pub(crate) fn rdata_bytes_len(&self) -> usize {
        self.rdata_bytes.len()
    }

    /// The encoded name of entry `i` (empty when `i` is out of range —
    /// offsets are construction-validated, so in-contract callers never
    /// hit the fallback).
    // lint:certify(no-panic)
    pub fn name_at(&self, i: usize) -> &[u8] {
        column_at(&self.name_bytes, &self.name_offsets, i)
    }

    /// The RR type code of entry `i` (0 when `i` is out of range).
    // lint:certify(no-panic)
    pub fn qtype_at(&self, i: usize) -> u16 {
        self.qtypes.get(i).copied().unwrap_or(0)
    }

    /// The encoded rdata of entry `i` (empty when `i` is out of range).
    // lint:certify(no-panic)
    pub fn rdata_at(&self, i: usize) -> &[u8] {
        column_at(&self.rdata_bytes, &self.rdata_offsets, i)
    }

    /// The first-seen day of entry `i` (0 when `i` is out of range).
    // lint:certify(no-panic)
    pub fn day_at(&self, i: usize) -> u64 {
        self.days.get(i).copied().unwrap_or(0)
    }

    /// Entry `i`'s borrowed key columns (empty columns when `i` is out
    /// of range, as for the single-column accessors).
    // lint:certify(no-panic)
    pub(crate) fn key_ref_at(&self, i: usize) -> KeyRef<'_> {
        KeyRef { name: self.name_at(i), qtype: self.qtype_at(i), rdata: self.rdata_at(i) }
    }

    /// Entry `i` against `key`, column by column: the qtype and rdata
    /// columns are read only when the names tie.
    fn cmp_at(&self, i: usize, key: KeyRef<'_>) -> Ordering {
        self.name_at(i)
            .cmp(key.name)
            .then_with(|| self.qtype_at(i).cmp(&key.qtype))
            .then_with(|| self.rdata_at(i).cmp(key.rdata))
    }

    /// Point lookup: the first-seen day of `key`, whose [`key_hash`] is
    /// `hash`, if stored. The first lookup builds the run's hash index;
    /// every lookup then reads a few table slots and makes one exact
    /// compare per fingerprint match. Only when the table spilled an
    /// entry and the probe's window is full does it binary-search the
    /// sorted columns. `key` is borrowed: after the build, a probe
    /// allocates nothing.
    pub(crate) fn get(&self, key: KeyRef<'_>, hash: u64) -> Option<u64> {
        let index = self
            .index
            .get_or_init(|| HashIndex::build(self.len(), |i| key_hash(self.key_ref_at(i))));
        let pos = match index.find(hash, |i| self.cmp_at(i, key).is_eq()) {
            Probe::Found(pos) => pos,
            Probe::Absent => return None,
            Probe::Unsure => {
                let pos = partition_point_idx(self.len(), |i| self.cmp_at(i, key).is_lt());
                if pos == self.len() || self.cmp_at(pos, key).is_ne() {
                    return None;
                }
                pos
            }
        };
        Some(self.day_at(pos))
    }

    /// The contiguous entry range `[lo, hi)` of names starting with
    /// `prefix` (a zone's subtree).
    pub fn prefix_range(&self, prefix: &[u8]) -> (usize, usize) {
        let n = self.len();
        let lo = partition_point_idx(n, |i| self.name_at(i) < prefix);
        let hi = match keys::prefix_upper_bound(prefix) {
            Some(upper) => partition_point_idx(n, |i| self.name_at(i) < upper.as_slice()),
            None => n,
        };
        (lo, hi)
    }

    /// Serialises the run into its on-disk image (format v2): the
    /// `n`/`name_len`/`rdata_len` header, one CRC-32 per section and the
    /// four sections, in the shared frame.
    ///
    /// The image is written into one buffer and each byte is checksummed
    /// once: every section's CRC is taken where it lands, and the footer,
    /// the CRC of everything before it, is combined from the header's CRC
    /// and the sections'.
    // lint:certify(no-panic)
    pub fn to_bytes(&self) -> Vec<u8> {
        let body_len = (self.name_offsets.len().saturating_mul(4))
            .saturating_add(self.name_bytes.len())
            .saturating_add(self.qtypes.len().saturating_mul(2))
            .saturating_add(self.rdata_offsets.len().saturating_mul(4))
            .saturating_add(self.rdata_bytes.len())
            .saturating_add(self.days.len().saturating_mul(8));
        let mut out = Vec::with_capacity(body_len.saturating_add(HEADER_LEN + 4));
        out.extend_from_slice(RUN_MAGIC);
        frame::put_u64(&mut out, self.len() as u64);
        frame::put_u64(&mut out, self.name_bytes.len() as u64);
        frame::put_u64(&mut out, self.rdata_bytes.len() as u64);
        // The section CRCs go here once the sections are written.
        out.extend_from_slice(&[0; 16]);

        let start = out.len();
        for &off in &self.name_offsets {
            frame::put_u32(&mut out, off);
        }
        out.extend_from_slice(&self.name_bytes);
        let names = section_sum(&out, start);
        let start = out.len();
        for &qtype in &self.qtypes {
            frame::put_u16(&mut out, qtype);
        }
        let qtypes = section_sum(&out, start);
        let start = out.len();
        for &off in &self.rdata_offsets {
            frame::put_u32(&mut out, off);
        }
        out.extend_from_slice(&self.rdata_bytes);
        let rdata = section_sum(&out, start);
        let start = out.len();
        for &day in &self.days {
            frame::put_u64(&mut out, day);
        }
        let days = section_sum(&out, start);

        let sections = [names, qtypes, rdata, days];
        if let Some(slots) = out.get_mut(CRCS_AT..HEADER_LEN) {
            for (slot, (crc, _)) in slots.chunks_exact_mut(4).zip(sections) {
                for (dst, src) in slot.iter_mut().zip(crc.to_be_bytes()) {
                    *dst = src;
                }
            }
        }
        let mut footer = crc32(out.get(..HEADER_LEN).unwrap_or(&[]));
        for (crc, len) in sections {
            footer = crc32_combine(footer, crc, len);
        }
        frame::put_u32(&mut out, footer);
        out
    }

    /// Deserialises a [`Run::to_bytes`] image. `listed_crc` is the CRC-32
    /// of the whole file as the store's `MANIFEST` lists it; a mismatch
    /// is [`FrameError::FileChecksum`], checked before anything else.
    ///
    /// Total on arbitrary input: the footer checksum is verified before
    /// any header field is trusted, every size computation is checked
    /// (a forged header cannot wrap the expected-length arithmetic), and
    /// section checksums, offset monotonicity, and strict composite-key
    /// ordering are all validated — so corruption is reported, never
    /// propagated into the panicking key decoders.
    ///
    /// Every byte is checksummed once: the file, footer and section CRCs
    /// are all derived from one pass over the header and the sections,
    /// and the checks then run in their usual order.
    ///
    /// # Errors
    ///
    /// [`FrameError`] when the image is not a byte-exact, internally
    /// consistent v2 run; a failed section CRC is
    /// [`FrameError::Checksum`], like a failed footer.
    // lint:certify(no-panic)
    pub fn from_bytes(bytes: &[u8], listed_crc: u32) -> Result<Run, FrameError> {
        let sums = ImageSums::of(bytes);
        if listed_crc != sums.file {
            return Err(FrameError::FileChecksum);
        }
        let mut r = Reader::open_summed(RUN_MAGIC, bytes, sums.framed)?;
        let n64 = r.u64()?;
        let name_len64 = r.u64()?;
        let rdata_len64 = r.u64()?;
        let section_crcs = [r.u32()?, r.u32()?, r.u32()?, r.u32()?];
        let Some((_, expect)) = section_sizes(n64, name_len64, rdata_len64) else {
            return Err(malformed("run header sizes overflow"));
        };
        // The sizes partition the image exactly when the length gate
        // passes, and then the pass summed each section.
        let have = r.remaining();
        let sections = match sums.sections {
            Some(sections) if have as u64 == expect => sections,
            _ => return Err(malformed(format!("run body is {have} bytes, expected {expect}"))),
        };
        if sections != section_crcs {
            return Err(FrameError::Checksum);
        }
        // The length gate passed, so every count fits comfortably in
        // memory-backed usize range.
        let n = n64 as usize;
        let name_len = name_len64 as usize;
        let rdata_len = rdata_len64 as usize;
        let name_offsets = r.seq(n + 1, Reader::u32)?;
        let name_bytes = r.take(name_len)?.to_vec();
        let qtypes = r.seq(n, Reader::u16)?;
        let rdata_offsets = r.seq(n + 1, Reader::u32)?;
        let rdata_bytes = r.take(rdata_len)?.to_vec();
        let days = r.seq(n, Reader::u64)?;
        if name_offsets.first() != Some(&0)
            || name_offsets.last().copied() != u32::try_from(name_len).ok()
            || rdata_offsets.first() != Some(&0)
            || rdata_offsets.last().copied() != u32::try_from(rdata_len).ok()
            || !offsets_monotonic(&name_offsets)
            || !offsets_monotonic(&rdata_offsets)
        {
            return Err(malformed("inconsistent run offsets"));
        }
        let index = OnceLock::new();
        let run = Run { name_offsets, name_bytes, qtypes, rdata_offsets, rdata_bytes, days, index };
        if (0..n.saturating_sub(1)).any(|i| run.key_ref_at(i) >= run.key_ref_at(i + 1)) {
            return Err(malformed("run entries out of composite-key order"));
        }
        Ok(run)
    }
}

/// Where a run image's four section CRCs start: after the magic and the
/// three `u64` header fields.
const CRCS_AT: usize = 8 + 3 * 8;

/// Bytes before a run image's first section: the magic, the header
/// fields and the section CRCs.
const HEADER_LEN: usize = CRCS_AT + 4 * 4;

/// The CRC-32 and the length of `out[start..]`, the section just written.
// lint:certify(no-panic)
fn section_sum(out: &[u8], start: usize) -> (u32, u64) {
    let section = out.get(start..).unwrap_or(&[]);
    (crc32(section), section.len() as u64)
}

/// The byte sizes of the four sections of a run with `n` entries and
/// `name_len`/`rdata_len` column bytes, and their total; `None` when a
/// forged header would wrap the arithmetic.
// lint:certify(no-panic)
fn section_sizes(n: u64, name_len: u64, rdata_len: u64) -> Option<([u64; 4], u64)> {
    let offsets = n.checked_add(1)?.checked_mul(4)?;
    let names = offsets.checked_add(name_len)?;
    let qtypes = n.checked_mul(2)?;
    let rdata = offsets.checked_add(rdata_len)?;
    let days = n.checked_mul(8)?;
    let total = names.checked_add(qtypes)?.checked_add(rdata)?.checked_add(days)?;
    Some(([names, qtypes, rdata, days], total))
}

/// The CRC-32s a run image's checks need, from one pass over its bytes.
///
/// When the header's sizes partition the image, the pass checksums the
/// header and each section and derives the rest by [`crc32_combine`]:
/// the framed CRC (what the footer covers) is the header's combined with
/// the sections', and the file CRC (what the `MANIFEST` lists) is that
/// combined with the footer's four bytes. The identity holds for any
/// split, so the footer and file checks stay exact even when a damaged
/// header names wrong sizes that happen to partition the image. When the
/// sizes do not partition it, the framed part is checksummed whole and
/// no section CRC exists; the parse then fails its length gate.
struct ImageSums {
    /// The CRC-32 of the whole image.
    file: u32,
    /// The CRC-32 of everything before the footer.
    framed: u32,
    /// Each section's CRC-32, when the header's sizes partition the image.
    sections: Option<[u32; 4]>,
}

impl ImageSums {
    /// One pass over `bytes`.
    // lint:certify(no-panic)
    fn of(bytes: &[u8]) -> ImageSums {
        let Some((framed, footer)) = bytes.split_last_chunk::<4>() else {
            // Shorter than a footer: the frame refuses it before the
            // framed CRC is looked at.
            return ImageSums { file: crc32(bytes), framed: 0, sections: None };
        };
        let (framed_crc, sections) = match partition(framed) {
            Some((header, parts)) => {
                let sections = parts.map(crc32);
                let mut crc = crc32(header);
                for (part, sum) in parts.iter().zip(sections) {
                    crc = crc32_combine(crc, sum, part.len() as u64);
                }
                (crc, Some(sections))
            }
            None => (crc32(framed), None),
        };
        let file = crc32_combine(framed_crc, crc32(footer), 4);
        ImageSums { file, framed: framed_crc, sections }
    }
}

/// Splits the framed part of a run image (everything before the footer)
/// into its header and its four sections, by the sizes the header names
/// and only when they cover the rest exactly. Nothing is verified yet:
/// the split only decides where the one checksum pass cuts.
// lint:certify(no-panic)
fn partition(framed: &[u8]) -> Option<(&[u8], [&[u8]; 4])> {
    let (header, body) = framed.split_at_checked(HEADER_LEN)?;
    let (_magic, fields) = header.split_first_chunk::<8>()?;
    let (n, fields) = fields.split_first_chunk::<8>()?;
    let (name_len, fields) = fields.split_first_chunk::<8>()?;
    let (rdata_len, _crcs) = fields.split_first_chunk::<8>()?;
    let ([names, qtypes, rdata, _days], total) = section_sizes(
        u64::from_be_bytes(*n),
        u64::from_be_bytes(*name_len),
        u64::from_be_bytes(*rdata_len),
    )?;
    if body.len() as u64 != total {
        return None;
    }
    // Every size is at most the body's length, so each fits `usize`.
    let (names, rest) = body.split_at_checked(usize::try_from(names).ok()?)?;
    let (qtypes, rest) = rest.split_at_checked(usize::try_from(qtypes).ok()?)?;
    let (rdata, days) = rest.split_at_checked(usize::try_from(rdata).ok()?)?;
    Some((header, [names, qtypes, rdata, days]))
}

/// The column buffers of a run being written in key order: [`Run::build`]
/// fills one from owned entries, compaction's merge straight from other
/// runs' borrowed columns.
#[derive(Debug)]
pub(crate) struct RunWriter {
    name_offsets: Vec<u32>,
    name_bytes: Vec<u8>,
    qtypes: Vec<u16>,
    rdata_offsets: Vec<u32>,
    rdata_bytes: Vec<u8>,
    days: Vec<u64>,
}

impl RunWriter {
    /// An empty run sized for `n` entries and the given column bytes.
    pub(crate) fn with_capacity(n: usize, name_len: usize, rdata_len: usize) -> RunWriter {
        let mut name_offsets = Vec::with_capacity(n + 1);
        let mut rdata_offsets = Vec::with_capacity(n + 1);
        name_offsets.push(0);
        rdata_offsets.push(0);
        RunWriter {
            name_offsets,
            name_bytes: Vec::with_capacity(name_len),
            qtypes: Vec::with_capacity(n),
            rdata_offsets,
            rdata_bytes: Vec::with_capacity(rdata_len),
            days: Vec::with_capacity(n),
        }
    }

    /// Appends `key`, which must not sort before the last key written. A
    /// key equal to the last one is not written twice: that entry keeps
    /// the earlier of the two days.
    pub(crate) fn push(&mut self, key: KeyRef<'_>, day: u64) {
        let n = self.qtypes.len();
        if let Some(last) = n.checked_sub(1) {
            let prev = KeyRef {
                name: column_at(&self.name_bytes, &self.name_offsets, last),
                qtype: self.qtypes[last],
                rdata: column_at(&self.rdata_bytes, &self.rdata_offsets, last),
            };
            debug_assert!(prev <= key, "run entries written in key order");
            if prev == key {
                self.days[last] = self.days[last].min(day);
                return;
            }
        }
        self.name_bytes.extend_from_slice(key.name);
        self.name_offsets.push(u32::try_from(self.name_bytes.len()).expect("name column < 4 GiB"));
        self.qtypes.push(key.qtype);
        self.rdata_bytes.extend_from_slice(key.rdata);
        self.rdata_offsets
            .push(u32::try_from(self.rdata_bytes.len()).expect("rdata column < 4 GiB"));
        self.days.push(day);
    }

    /// The finished run; its index is built by its first lookup.
    pub(crate) fn finish(self) -> Run {
        let RunWriter { name_offsets, name_bytes, qtypes, rdata_offsets, rdata_bytes, days } = self;
        let index = OnceLock::new();
        Run { name_offsets, name_bytes, qtypes, rdata_offsets, rdata_bytes, days, index }
    }
}

/// The `i`th variable-width column entry: `buf[offsets[i]..offsets[i+1]]`,
/// or the empty slice when `i` or the offsets are out of range (offsets
/// are construction-validated, so in-contract callers never hit the
/// fallback).
// lint:certify(no-panic)
fn column_at<'b>(buf: &'b [u8], offsets: &[u32], i: usize) -> &'b [u8] {
    let lo = offsets.get(i).map_or(0, |&o| o as usize);
    let hi = offsets.get(i.saturating_add(1)).map_or(0, |&o| o as usize);
    buf.get(lo..hi).unwrap_or(&[])
}

/// Whether `offsets` never runs backwards (each column stays within the
/// byte buffer once the final offset is checked against its length).
fn offsets_monotonic(offsets: &[u32]) -> bool {
    offsets.iter().zip(offsets.iter().skip(1)).all(|(a, b)| a <= b)
}

/// `partition_point` over `0..n` by index predicate (the columns are not
/// slices of one element type, so the stdlib slice helper does not
/// apply).
fn partition_point_idx(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::keys::encode_key;
    use super::*;
    use dnsnoise_dns::{Name, QType, RData};
    use std::net::Ipv4Addr;

    pub(crate) fn entries(n: u32) -> Vec<(CompositeKey, u64)> {
        let mut out: Vec<(CompositeKey, u64)> = (0..n)
            .map(|i| {
                let name: Name = format!("d{i:06}.zone{}.example", i % 7).parse().unwrap();
                let rdata = RData::A(Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8));
                (encode_key(&name, QType::A, &rdata), u64::from(i % 13))
            })
            .collect();
        out.sort();
        out
    }

    /// Parses `bytes` against their own file CRC, the one a `MANIFEST`
    /// would list for them, so the parser's own checks decide.
    pub(crate) fn parse(bytes: &[u8]) -> Result<Run, FrameError> {
        Run::from_bytes(bytes, crc32(bytes))
    }

    /// The encoder `to_bytes` replaced, kept as its oracle: each section
    /// in a `Vec` of its own, checksummed there, copied into a body, and
    /// the body copied again by [`frame::seal`], which checksums it whole.
    pub(crate) fn to_bytes_sealed(run: &Run) -> Vec<u8> {
        let mut names = Vec::new();
        for off in &run.name_offsets {
            names.extend_from_slice(&off.to_be_bytes());
        }
        names.extend_from_slice(&run.name_bytes);
        let qtypes: Vec<u8> = run.qtypes.iter().flat_map(|qt| qt.to_be_bytes()).collect();
        let mut rdata = Vec::new();
        for off in &run.rdata_offsets {
            rdata.extend_from_slice(&off.to_be_bytes());
        }
        rdata.extend_from_slice(&run.rdata_bytes);
        let days: Vec<u8> = run.days.iter().flat_map(|day| day.to_be_bytes()).collect();
        let sections = [names, qtypes, rdata, days];
        let mut body = Vec::new();
        frame::put_u64(&mut body, run.len() as u64);
        frame::put_u64(&mut body, run.name_bytes.len() as u64);
        frame::put_u64(&mut body, run.rdata_bytes.len() as u64);
        for section in &sections {
            frame::put_u32(&mut body, crc32(section));
        }
        for section in sections {
            body.extend_from_slice(&section);
        }
        frame::seal(RUN_MAGIC, &body)
    }

    /// The parser `from_bytes` replaced, kept as its oracle: the footer
    /// checksummed whole by [`Reader::open`], then each section again.
    pub(crate) fn from_bytes_three_pass(bytes: &[u8]) -> Result<Run, FrameError> {
        let mut r = Reader::open(RUN_MAGIC, bytes)?;
        let n64 = r.u64()?;
        let name_len64 = r.u64()?;
        let rdata_len64 = r.u64()?;
        let section_crcs = [r.u32()?, r.u32()?, r.u32()?, r.u32()?];
        let Some((section_sizes, expect)) = section_sizes(n64, name_len64, rdata_len64) else {
            return Err(malformed("run header sizes overflow"));
        };
        let have = r.remaining();
        if have as u64 != expect {
            return Err(malformed(format!("run body is {have} bytes, expected {expect}")));
        }
        let (n, name_len, rdata_len) = (n64 as usize, name_len64 as usize, rdata_len64 as usize);
        let mut sections = r.clone();
        for (stored, size) in section_crcs.into_iter().zip(section_sizes) {
            let size = usize::try_from(size).map_err(|_| malformed("run section too large"))?;
            if crc32(sections.take(size)?) != stored {
                return Err(FrameError::Checksum);
            }
        }
        let name_offsets = r.seq(n + 1, Reader::u32)?;
        let name_bytes = r.take(name_len)?.to_vec();
        let qtypes = r.seq(n, Reader::u16)?;
        let rdata_offsets = r.seq(n + 1, Reader::u32)?;
        let rdata_bytes = r.take(rdata_len)?.to_vec();
        let days = r.seq(n, Reader::u64)?;
        if name_offsets.first() != Some(&0)
            || name_offsets.last().copied() != u32::try_from(name_len).ok()
            || rdata_offsets.first() != Some(&0)
            || rdata_offsets.last().copied() != u32::try_from(rdata_len).ok()
            || !offsets_monotonic(&name_offsets)
            || !offsets_monotonic(&rdata_offsets)
        {
            return Err(malformed("inconsistent run offsets"));
        }
        let index = OnceLock::new();
        let run = Run { name_offsets, name_bytes, qtypes, rdata_offsets, rdata_bytes, days, index };
        if (0..n.saturating_sub(1)).any(|i| run.key_ref_at(i) >= run.key_ref_at(i + 1)) {
            return Err(malformed("run entries out of composite-key order"));
        }
        Ok(run)
    }

    /// `run.get` with the store's own hash of `key`.
    fn lookup(run: &Run, key: &CompositeKey) -> Option<u64> {
        run.get(KeyRef::of(key), key_hash(KeyRef::of(key)))
    }

    #[test]
    fn get_finds_every_stored_key_and_rejects_absent_ones() {
        let e = entries(3000);
        let run = Run::build(&e);
        assert!(run.index.get().is_none(), "a built run has no index before its first probe");
        for (key, day) in &e {
            assert_eq!(lookup(&run, key), Some(*day));
        }
        let absent = encode_key(
            &"nope.zone9.example".parse().unwrap(),
            QType::A,
            &RData::A(Ipv4Addr::LOCALHOST),
        );
        assert_eq!(lookup(&run, &absent), None);
    }

    #[test]
    fn get_rejects_keys_outside_the_common_prefix() {
        // Every stored name encodes as `example\0zone…`; these probes do
        // not. They sort wholly before or after the run and must come back
        // absent, not mislocated.
        let run = Run::build(&entries(3000));
        for name in ["d000001.zone1.aaa", "d000001.zone1.zzz", "example", "zone1.examplf"] {
            let probe =
                encode_key(&name.parse().unwrap(), QType::A, &RData::A(Ipv4Addr::new(10, 0, 0, 1)));
            assert_eq!(lookup(&run, &probe), None, "{name}");
        }
    }

    /// Hostile keys: a hash that sends every key of a run to one home slot
    /// with one fingerprint (or to one of three) fills the probe window
    /// and spills the rest of the run. Lookups must still find every
    /// stored key and refuse absent ones, through the sorted-column
    /// fallback, and the probe of a spilled table stays exact.
    #[test]
    fn colliding_hashes_fall_back_to_the_sorted_columns() {
        let e = entries(500);
        let absent: Vec<CompositeKey> = (0..50)
            .map(|i| {
                let name = format!("x{i}.zone{}.example", i % 7);
                encode_key(&name.parse().unwrap(), QType::A, &RData::A(Ipv4Addr::new(10, 9, 9, i)))
            })
            .collect();
        let hostile: [fn(KeyRef<'_>) -> u64; 2] = [
            |_| 0x5eed_0000_0000_0001,
            |k| 0x5eed_0000_0000_0000 | u64::from(k.name.len() % 3 == 0),
        ];
        for hash in hostile {
            let run = Run::build(&e);
            let index = HashIndex::build(run.len(), |i| hash(run.key_ref_at(i)));
            assert_eq!(index.find(hash(KeyRef::of(&e[499].0)), |_| false), Probe::Unsure);
            run.index.set(index).expect("index not built yet");
            for (key, day) in &e {
                assert_eq!(run.get(KeyRef::of(key), hash(KeyRef::of(key))), Some(*day));
            }
            for key in &absent {
                assert_eq!(run.get(KeyRef::of(key), hash(KeyRef::of(key))), None);
            }
        }
    }

    #[test]
    fn a_one_entry_run_finds_its_key_and_nothing_else() {
        let e = entries(1);
        let run = Run::build(&e);
        assert_eq!(lookup(&run, &e[0].0), Some(e[0].1));
        assert_eq!(lookup(&run, &entries(2)[1].0), None);
    }

    #[test]
    fn loading_an_image_builds_no_index() {
        let e = entries(100);
        let run = Run::build(&e);
        assert_eq!(lookup(&run, &e[5].0), Some(e[5].1));
        assert!(run.index.get().is_some(), "the first probe builds the index");
        let back = parse(&run.to_bytes()).unwrap();
        assert!(back.index.get().is_none(), "from_bytes builds nothing");
        assert_eq!(back, run, "equality ignores the index");
    }

    #[test]
    fn prefix_range_is_exactly_the_subtree() {
        let e = entries(500);
        let run = Run::build(&e);
        let zone: Name = "zone3.example".parse().unwrap();
        let prefix = super::super::keys::encode_name(&zone);
        let (lo, hi) = run.prefix_range(&prefix);
        assert!(lo < hi);
        for i in 0..run.len() {
            let inside = lo <= i && i < hi;
            let rr_key = super::super::keys::decode_key_parts(
                run.name_at(i),
                run.qtype_at(i),
                run.rdata_at(i),
            )
            .expect("stored keys decode");
            assert_eq!(rr_key.name.is_subdomain_of(&zone), inside, "entry {i}");
        }
    }

    #[test]
    fn serialisation_roundtrips_bit_exactly() {
        let run = Run::build(&entries(700));
        let bytes = run.to_bytes();
        let back = parse(&bytes).expect("well-formed image");
        assert_eq!(back, run, "columns and rebuilt index match");
        assert_eq!(back.to_bytes(), bytes, "re-serialisation is bit-identical");
        assert!(parse(&bytes[..40]).is_err());
        assert!(parse(b"junk").is_err());
    }

    proptest::proptest! {
        /// The one-buffer encoder writes the sealed oracle's bytes.
        #[test]
        fn to_bytes_matches_the_sealed_oracle(n in 0u32..600, stride in 1u64..50) {
            let e: Vec<_> = entries(n).into_iter().map(|(key, day)| (key, day * stride)).collect();
            let run = Run::build(&e);
            let bytes = run.to_bytes();
            proptest::prop_assert_eq!(&bytes, &to_bytes_sealed(&run));
            proptest::prop_assert_eq!(parse(&bytes), Ok(run));
        }
    }

    #[test]
    fn v1_images_are_rejected_as_unsupported() {
        let v2 = Run::build(&entries(5)).to_bytes();
        let v1 = frame::seal(b"dnrun01\n", &v2[RUN_MAGIC.len()..v2.len() - 4]);
        let err = parse(&v1).unwrap_err();
        assert_eq!(err, FrameError::Version);
        assert!(err.to_string().contains("unsupported version"), "{err}");
    }

    /// The on-disk bytes, pinned: the fixture was generated by the last
    /// build with per-format framing (PR 13), so a spill directory that
    /// build wrote opens under this one.
    #[test]
    fn image_matches_the_golden_fixture() {
        let golden = frame::unhex(include_str!("../../tests/golden/run_v2.hex"));
        let run = Run::build(&entries(40));
        assert_eq!(run.to_bytes(), golden);
        assert_eq!(parse(&golden).expect("golden image parses"), run);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let run = Run::build(&entries(40));
        let bytes = run.to_bytes();
        for byte in (0..bytes.len()).step_by(7) {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x04;
            assert!(parse(&flipped).is_err(), "flip at byte {byte} accepted");
        }
    }

    /// A hand-built image whose frame and sections checksum correctly
    /// but whose entries violate the composite-key sort order: two
    /// entries swapped, assembled through the private fields.
    pub(crate) fn out_of_order_image() -> Vec<u8> {
        let mut e = entries(10);
        e.swap(2, 7);
        let mut name_offsets = vec![0u32];
        let mut name_bytes = Vec::new();
        let mut qtypes = Vec::new();
        let mut rdata_offsets = vec![0u32];
        let mut rdata_bytes = Vec::new();
        let mut days = Vec::new();
        for ((name, qtype, rdata), day) in e {
            name_bytes.extend_from_slice(&name);
            name_offsets.push(name_bytes.len() as u32);
            qtypes.push(qtype);
            rdata_bytes.extend_from_slice(&rdata);
            rdata_offsets.push(rdata_bytes.len() as u32);
            days.push(day);
        }
        let index = OnceLock::new();
        Run { name_offsets, name_bytes, qtypes, rdata_offsets, rdata_bytes, days, index }.to_bytes()
    }

    #[test]
    fn out_of_order_entries_are_rejected_even_with_valid_checksums() {
        let err = parse(&out_of_order_image()).unwrap_err();
        assert!(err.to_string().contains("order"), "{err}");
    }

    #[test]
    fn empty_run_is_well_behaved() {
        let run = Run::build(&[]);
        assert!(run.is_empty());
        let probe =
            encode_key(&"x.example".parse().unwrap(), QType::A, &RData::A(Ipv4Addr::LOCALHOST));
        assert_eq!(lookup(&run, &probe), None);
        assert_eq!(run.prefix_range(b"\0"), (0, 0));
        let back = parse(&run.to_bytes()).unwrap();
        assert!(back.is_empty());
    }
}
