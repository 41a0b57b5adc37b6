//! The store manifest: the single source of truth for the live run set.
//!
//! Every mutation of the on-disk run set ends by atomically swapping a
//! new `MANIFEST` into place (see [`super::io::atomic_write`]). The
//! manifest is checksummed, monotonically numbered, and records the
//! exact live runs (file name, length, CRC-32) together with the
//! aggregate counters that make the recovered store a consistent prefix
//! of the observation sequence: a crash mid-flush or mid-compaction
//! recovers to the state of the last published manifest, and any run
//! file the manifest does not name is garbage to collect.
//!
//! Deletions are ordered *after* the manifest swap: a compaction's
//! merged-away inputs stay on disk until the manifest naming their
//! replacement is durable, so no crash window loses data.

use std::path::Path;

use super::crc::crc32;
use super::error::StoreError;
use super::io;
use crate::rpdns::DailyNewRrs;

/// Magic + format version leading every serialised manifest (format
/// v2; v1 `dnman01` images carry one more fixed field and are rejected
/// as unsupported).
const MANIFEST_MAGIC: &[u8; 8] = b"dnman02\n";

/// The manifest's file name inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// One live run file as the manifest records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFileMeta {
    /// File name within the store directory (`run-XXXXXXXX.bin`).
    pub name: String,
    /// Exact file length in bytes.
    pub len: u64,
    /// CRC-32 of the whole file.
    pub crc: u32,
}

/// The durable store state: config echo, aggregate counters, and the
/// exact live run set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Monotonic manifest number (strictly increases with every swap).
    pub seq: u64,
    /// Config echo: memtable flush threshold.
    pub memtable_cap: u64,
    /// Config echo: size-tier fanout.
    pub fanout: u64,
    /// Next spill-file ordinal.
    pub next_run_id: u64,
    /// Observe calls folded in when this manifest was published — the
    /// durable prefix length a recovered store resumes from.
    pub observed: u64,
    /// Modelled storage footprint.
    pub storage_bytes: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compaction merges performed.
    pub compactions: u64,
    /// Per-day new/repeated counters.
    pub per_day: Vec<DailyNewRrs>,
    /// The live run files, in engine order (oldest first).
    pub runs: Vec<RunFileMeta>,
}

impl Manifest {
    /// Serialises the manifest: magic, fixed fields, per-day counters,
    /// run entries, CRC-32 footer over everything before the footer.
    // lint:certify(no-panic)
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        for v in [
            self.seq,
            self.memtable_cap,
            self.fanout,
            self.next_run_id,
            self.observed,
            self.storage_bytes,
            self.flushes,
            self.compactions,
            self.per_day.len() as u64,
            self.runs.len() as u64,
        ] {
            out.extend_from_slice(&v.to_be_bytes());
        }
        for day in &self.per_day {
            out.extend_from_slice(&day.new_records.to_be_bytes());
            out.extend_from_slice(&day.repeated_records.to_be_bytes());
        }
        for run in &self.runs {
            let name = run.name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_be_bytes());
            out.extend_from_slice(name);
            out.extend_from_slice(&run.len.to_be_bytes());
            out.extend_from_slice(&run.crc.to_be_bytes());
        }
        let footer = crc32(&out);
        out.extend_from_slice(&footer.to_be_bytes());
        out
    }

    /// Deserialises a manifest image. Total on arbitrary input: any
    /// truncation, bit flip, or forged length is an error, never a
    /// panic — the footer CRC is checked before any field is trusted.
    // lint:certify(no-panic)
    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, String> {
        let Some((body, footer)) = bytes
            .len()
            .checked_sub(4)
            .filter(|&split| split >= MANIFEST_MAGIC.len())
            .and_then(|split| bytes.split_at_checked(split))
        else {
            return Err("manifest shorter than magic + footer".to_string());
        };
        let footer: [u8; 4] =
            footer.try_into().map_err(|_| "manifest footer is not 4 bytes".to_string())?;
        let stored = u32::from_be_bytes(footer);
        if crc32(body) != stored {
            return Err("manifest checksum mismatch".to_string());
        }
        if body.starts_with(b"dnman01\n") {
            return Err("unsupported version: dnman01 manifest".to_string());
        }
        let rest = body.strip_prefix(MANIFEST_MAGIC.as_slice()).ok_or("bad manifest magic")?;
        let mut cur = Cursor { bytes: rest, at: 0 };
        let seq = cur.u64()?;
        let memtable_cap = cur.u64()?;
        let fanout = cur.u64()?;
        let next_run_id = cur.u64()?;
        let observed = cur.u64()?;
        let storage_bytes = cur.u64()?;
        let flushes = cur.u64()?;
        let compactions = cur.u64()?;
        let days = cur.len_prefixed_count()?;
        let run_count = cur.len_prefixed_count()?;
        let mut per_day = Vec::with_capacity(days);
        for _ in 0..days {
            let new_records = cur.u64()?;
            let repeated_records = cur.u64()?;
            per_day.push(DailyNewRrs { new_records, repeated_records });
        }
        let mut runs = Vec::with_capacity(run_count);
        for _ in 0..run_count {
            let name_len = usize::from(cur.u16()?);
            let name = std::str::from_utf8(cur.take(name_len)?)
                .map_err(|_| "run file name is not UTF-8".to_string())?
                .to_string();
            let len = cur.u64()?;
            let crc = cur.u32()?;
            runs.push(RunFileMeta { name, len, crc });
        }
        if cur.at != cur.bytes.len() {
            return Err(format!(
                "{} trailing manifest bytes",
                cur.bytes.len().saturating_sub(cur.at)
            ));
        }
        Ok(Manifest {
            seq,
            memtable_cap,
            fanout,
            next_run_id,
            observed,
            storage_bytes,
            flushes,
            compactions,
            per_day,
            runs,
        })
    }

    /// Atomically publishes this manifest as `dir/MANIFEST`.
    pub fn publish(&self, dir: &Path) -> Result<(), StoreError> {
        io::atomic_write(dir, MANIFEST_NAME, &self.to_bytes())
    }

    /// Loads `dir/MANIFEST`. `Ok(None)` when the file does not exist (a
    /// fresh store); corruption is an error, not a silent reset.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, StoreError> {
        let path = dir.join(MANIFEST_NAME);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::io("read", &path, &e)),
        };
        Manifest::from_bytes(&bytes).map(Some).map_err(|detail| StoreError::corrupt(&path, detail))
    }
}

/// A bounds-checked reader over the manifest body — every `take` is
/// validated, so malformed input surfaces as `Err`, never as a slice
/// panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    // lint:certify(no-panic)
    fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(len).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err("truncated manifest".to_string());
        };
        let s = self.bytes.get(self.at..end).ok_or_else(|| "truncated manifest".to_string())?;
        self.at = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let chunk: [u8; 8] =
            self.take(8)?.try_into().map_err(|_| "truncated manifest".to_string())?;
        Ok(u64::from_be_bytes(chunk))
    }

    fn u32(&mut self) -> Result<u32, String> {
        let chunk: [u8; 4] =
            self.take(4)?.try_into().map_err(|_| "truncated manifest".to_string())?;
        Ok(u32::from_be_bytes(chunk))
    }

    fn u16(&mut self) -> Result<u16, String> {
        let chunk: [u8; 2] =
            self.take(2)?.try_into().map_err(|_| "truncated manifest".to_string())?;
        Ok(u16::from_be_bytes(chunk))
    }

    /// A count field, sanity-bounded by the bytes actually remaining so
    /// a forged count cannot drive a huge up-front allocation.
    fn len_prefixed_count(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| "count out of range".to_string())?;
        if n > self.bytes.len().saturating_sub(self.at) {
            return Err("count exceeds remaining bytes".to_string());
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            seq: 12,
            memtable_cap: 4096,
            fanout: 4,
            next_run_id: 9,
            observed: 123_456,
            storage_bytes: 987_654,
            flushes: 8,
            compactions: 3,
            per_day: vec![
                DailyNewRrs { new_records: 10, repeated_records: 2 },
                DailyNewRrs { new_records: 7, repeated_records: 9 },
            ],
            runs: vec![
                RunFileMeta { name: "run-00000004.bin".to_string(), len: 4096, crc: 0xdead_beef },
                RunFileMeta { name: "run-00000008.bin".to_string(), len: 128, crc: 7 },
            ],
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let m = sample();
        let bytes = m.to_bytes();
        let back = Manifest::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn v1_images_are_rejected_as_unsupported() {
        // A well-formed v1 image: the old magic, one extra u64 after
        // `fanout`, and a footer that checksums. It must be refused by
        // version, not parsed with every later field shifted by eight.
        let v2 = sample().to_bytes();
        let fixed = MANIFEST_MAGIC.len() + 3 * 8;
        let mut v1 = b"dnman01\n".to_vec();
        v1.extend_from_slice(&v2[MANIFEST_MAGIC.len()..fixed]);
        v1.extend_from_slice(&32u64.to_be_bytes());
        v1.extend_from_slice(&v2[fixed..v2.len() - 4]);
        let footer = crc32(&v1);
        v1.extend_from_slice(&footer.to_be_bytes());
        let err = Manifest::from_bytes(&v1).unwrap_err();
        assert!(err.contains("unsupported version"), "{err}");
    }

    #[test]
    fn every_truncation_and_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Manifest::from_bytes(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x10;
            assert!(Manifest::from_bytes(&flipped).is_err(), "flip at {byte} accepted");
        }
    }

    #[test]
    fn publish_and_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dnsnoise-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), None, "fresh dir has no manifest");
        let m = sample();
        m.publish(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m));
        std::fs::write(dir.join(MANIFEST_NAME), b"garbage").unwrap();
        assert!(matches!(Manifest::load(&dir), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
