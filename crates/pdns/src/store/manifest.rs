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

use super::error::StoreError;
use super::frame::{self, malformed, FrameError, Reader};
use super::io;
use crate::rpdns::DailyNewRrs;

/// Magic + format version leading every serialised manifest (format
/// v2; v1 `dnman01` images carry one more fixed field and are refused
/// with [`FrameError::Version`]).
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
    /// Serialises the manifest: fixed fields, per-day counters and run
    /// entries, sealed in the shared frame.
    // lint:certify(no-panic)
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
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
            frame::put_u64(&mut body, v);
        }
        for day in &self.per_day {
            frame::put_u64(&mut body, day.new_records);
            frame::put_u64(&mut body, day.repeated_records);
        }
        for run in &self.runs {
            frame::put_blob16(&mut body, run.name.as_bytes());
            frame::put_u64(&mut body, run.len);
            frame::put_u32(&mut body, run.crc);
        }
        frame::seal(MANIFEST_MAGIC, &body)
    }

    /// Deserialises a manifest image. Total on arbitrary input: any
    /// truncation, bit flip, or forged length is an error, never a
    /// panic — the frame's footer CRC is checked before any field is
    /// trusted.
    // lint:certify(no-panic)
    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, FrameError> {
        let mut r = Reader::open(MANIFEST_MAGIC, bytes)?;
        let mut m = Manifest {
            seq: r.u64()?,
            memtable_cap: r.u64()?,
            fanout: r.u64()?,
            next_run_id: r.u64()?,
            observed: r.u64()?,
            storage_bytes: r.u64()?,
            flushes: r.u64()?,
            compactions: r.u64()?,
            per_day: Vec::new(),
            runs: Vec::new(),
        };
        let days = r.count()?;
        let run_count = r.count()?;
        m.per_day =
            r.seq(days, |r| Ok(DailyNewRrs { new_records: r.u64()?, repeated_records: r.u64()? }))?;
        m.runs = r.seq(run_count, |r| {
            let name = std::str::from_utf8(r.blob16()?)
                .map_err(|_| malformed("run file name is not UTF-8"))?
                .to_string();
            Ok(RunFileMeta { name, len: r.u64()?, crc: r.u32()? })
        })?;
        r.end()?;
        Ok(m)
    }

    /// Atomically publishes this manifest as `dir/MANIFEST`; returns the
    /// image's length in bytes.
    pub fn publish(&self, dir: &Path) -> Result<u64, StoreError> {
        let bytes = self.to_bytes();
        io::atomic_write(dir, MANIFEST_NAME, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Loads `dir/MANIFEST`. `Ok(None)` when the file does not exist (a
    /// fresh store); corruption is an error, not a silent reset.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, StoreError> {
        frame::load(dir, MANIFEST_NAME, Manifest::from_bytes)
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
        let mut body = v2[MANIFEST_MAGIC.len()..fixed].to_vec();
        body.extend_from_slice(&32u64.to_be_bytes());
        body.extend_from_slice(&v2[fixed..v2.len() - 4]);
        let err = Manifest::from_bytes(&frame::seal(b"dnman01\n", &body)).unwrap_err();
        assert_eq!(err, FrameError::Version);
        assert!(err.to_string().contains("unsupported version"), "{err}");
    }

    /// The on-disk bytes, pinned: the fixture was generated by the last
    /// build with per-format framing (PR 13), so a `MANIFEST` that
    /// build wrote opens under this one.
    #[test]
    fn image_matches_the_golden_fixture() {
        let golden = frame::unhex(include_str!("../../tests/golden/manifest_v2.hex"));
        assert_eq!(sample().to_bytes(), golden);
        assert_eq!(Manifest::from_bytes(&golden), Ok(sample()));
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
