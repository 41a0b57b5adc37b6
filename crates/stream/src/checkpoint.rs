//! Process-level stream checkpointing: record, at epoch boundaries, what
//! a killed-and-restarted process needs to resume mid-day and produce a
//! report byte-identical to an uninterrupted run.
//!
//! A [`Checkpoint`] holds only what replaying the event prefix cannot
//! recompute cheaply: the configuration echo, the stream position (`day`,
//! `pushed`, the open epoch) and the epochs closed so far, each of which
//! cost a tree build and an Algorithm 1 pass. Everything else is a pure
//! function of the first [`Checkpoint::pushed`] events, so
//! [`StreamMiner::resume`](crate::StreamMiner::resume) rebuilds it by
//! replaying them through the live observer: the resolver session (its
//! caches and per-record table), the client set, the pDNS
//! counters, the served-class tallies and the rpDNS store. A store with a
//! spill directory is not copied either: resume reopens the directory,
//! whose `MANIFEST` records how many observations it holds, and the
//! replay feeds it only the records after those (DESIGN.md §9.1).
//!
//! The on-disk format is the store's shared frame (DESIGN.md §9.1,
//! `dnsnoise_pdns::store::frame`) around big-endian fixed-width fields
//! and length-prefixed sequences, written via the same atomic
//! staged-rename writer the run store uses; this module is only the
//! field encoders and decoders. Parsing is total on arbitrary bytes —
//! truncation, bit flips, and forged lengths surface as errors, never
//! panics — with the footer checksum verified before any field is
//! trusted.

use std::path::Path;

use dnsnoise_core::Finding;
use dnsnoise_dns::Name;
use dnsnoise_pdns::store::frame::{self, malformed, put_blob16, put_u64, FrameError, Reader};
use dnsnoise_pdns::store::io;
use dnsnoise_pdns::StoreError;

use crate::engine::{EpochSummary, StreamConfig};

/// Magic + format version leading every serialised checkpoint. Versions
/// 1 and 2 (which carried per-record counters in the body: sketch tables,
/// then registry rows), 3 (a name HyperLogLog and a whole fpDNS log), 4
/// (the observer's state and a copy of the rpDNS store) and 5 (a client
/// HyperLogLog's precision and seed in the echo) are refused as
/// `FrameError::Version`.
const CHECKPOINT_MAGIC: &[u8; 8] = b"dnckpt6\n";

/// The checkpoint's file name inside a checkpoint directory.
pub const CHECKPOINT_NAME: &str = "checkpoint.bin";

/// A serialisable snapshot of a [`StreamMiner`](crate::StreamMiner)'s
/// position at one point of the event stream (normally an epoch
/// boundary). See the module docs for what it contains and the resume
/// contract.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    // -- configuration echo, verified on resume --
    pub(crate) epoch_secs: u64,
    // -- stream position --
    /// The simulated day being streamed.
    pub day: u64,
    /// Events consumed when the checkpoint was written: a resumed miner
    /// replays exactly this prefix of the trace as warmup and re-pushes
    /// the rest.
    pub pushed: u64,
    pub(crate) current_epoch: Option<u64>,
    pub(crate) epochs: Vec<EpochSummary>,
}

impl Checkpoint {
    /// Snapshots the miner's position. Pure observation: nothing is
    /// mutated, nothing touches disk.
    pub(crate) fn capture(
        config: &StreamConfig,
        day: u64,
        pushed: u64,
        current_epoch: Option<u64>,
        epochs: &[EpochSummary],
    ) -> Checkpoint {
        Checkpoint {
            epoch_secs: config.epoch_secs,
            day,
            pushed,
            current_epoch,
            epochs: epochs.to_vec(),
        }
    }

    /// Checks the checkpoint's configuration echo against the resuming
    /// miner's configuration.
    ///
    /// # Errors
    ///
    /// [`StoreError::ConfigMismatch`] naming the epoch length when it
    /// disagrees.
    pub fn verify(&self, config: &StreamConfig) -> Result<(), StoreError> {
        if self.epoch_secs == config.epoch_secs {
            Ok(())
        } else {
            Err(StoreError::ConfigMismatch {
                detail: format!(
                    "epoch_secs: checkpoint={} config={}",
                    self.epoch_secs, config.epoch_secs
                ),
            })
        }
    }

    /// Serialises the checkpoint: every field, sealed in the shared
    /// frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.epoch_secs);
        put_u64(&mut out, self.day);
        put_u64(&mut out, self.pushed);
        out.push(u8::from(self.current_epoch.is_some()));
        put_u64(&mut out, self.current_epoch.unwrap_or(0));
        put_u64(&mut out, self.epochs.len() as u64);
        for e in &self.epochs {
            put_u64(&mut out, e.epoch);
            put_u64(&mut out, e.end_secs);
            put_u64(&mut out, e.events);
            put_u64(&mut out, e.distinct_names);
            put_u64(&mut out, e.distinct_clients);
            put_u64(&mut out, e.state_bytes as u64);
            put_u64(&mut out, e.findings.len() as u64);
            for f in &e.findings {
                put_finding(&mut out, f);
            }
        }
        frame::seal(CHECKPOINT_MAGIC, &out)
    }

    /// Deserialises a checkpoint image. Total on arbitrary input: any
    /// truncation, bit flip, or forged length is an error, never a
    /// panic — the footer CRC is checked before any field is trusted.
    // lint:certify(no-panic)
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, FrameError> {
        let mut cur = Reader::open(CHECKPOINT_MAGIC, bytes)?;
        let epoch_secs = cur.u64()?;
        let day = cur.u64()?;
        let pushed = cur.u64()?;
        let has_current = cur.bool()?;
        let current_raw = cur.u64()?;
        let current_epoch = has_current.then_some(current_raw);
        let n = cur.count()?;
        let epochs = cur.seq(n, |r| {
            Ok(EpochSummary {
                epoch: r.u64()?,
                end_secs: r.u64()?,
                events: r.u64()?,
                distinct_names: r.u64()?,
                distinct_clients: r.u64()?,
                state_bytes: r.usize()?,
                findings: {
                    let n = r.count()?;
                    r.seq(n, read_finding)?
                },
            })
        })?;
        cur.end()?;
        Ok(Checkpoint { epoch_secs, day, pushed, current_epoch, epochs })
    }

    /// Atomically publishes this checkpoint as `dir/checkpoint.bin`
    /// (staged `.tmp`, fsync, rename, directory fsync — a crash leaves
    /// either the previous checkpoint or this one, never a torn mix).
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        io::atomic_write(dir, CHECKPOINT_NAME, &self.to_bytes())
    }

    /// Loads `dir/checkpoint.bin`. `Ok(None)` when the file does not
    /// exist (a fresh start); corruption is an error, not a silent
    /// restart from zero.
    pub fn load(dir: &Path) -> Result<Option<Checkpoint>, StoreError> {
        frame::load(dir, CHECKPOINT_NAME, Checkpoint::from_bytes)
    }
}

fn put_name(out: &mut Vec<u8>, name: &Name) {
    put_blob16(out, name.as_str().as_bytes());
}

fn put_finding(out: &mut Vec<u8>, f: &Finding) {
    put_name(out, &f.zone);
    put_u64(out, f.depth as u64);
    put_u64(out, f.confidence.to_bits());
    put_u64(out, f.members as u64);
}

// lint:certify(no-panic)
fn read_name(r: &mut Reader<'_>) -> Result<Name, FrameError> {
    let text = std::str::from_utf8(r.blob16()?).map_err(|_| malformed("name is not UTF-8"))?;
    text.parse::<Name>().map_err(|e| malformed(format!("bad name `{text}`: {e}")))
}

// lint:certify(no-panic)
fn read_finding(r: &mut Reader<'_>) -> Result<Finding, FrameError> {
    let zone = read_name(r)?;
    let depth = r.usize()?;
    let confidence = f64::from_bits(r.u64()?);
    let members = r.usize()?;
    if !confidence.is_finite() {
        return Err(malformed("finding confidence is not finite"));
    }
    Ok(Finding { zone, depth, confidence, members })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            epoch_secs: 21_600,
            day: 3,
            pushed: 1234,
            current_epoch: Some(2),
            epochs: vec![EpochSummary {
                epoch: 0,
                end_secs: 21_600,
                events: 600,
                findings: vec![Finding {
                    zone: "dyn.example.com".parse().unwrap(),
                    depth: 1,
                    confidence: 0.9375,
                    members: 40,
                }],
                distinct_names: 17,
                distinct_clients: 9,
                state_bytes: 2048,
            }],
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
    }

    fn unhex(text: &str) -> Vec<u8> {
        let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks_exact(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// The on-disk bytes, pinned.
    #[test]
    fn image_matches_the_golden_fixture() {
        let golden = unhex(include_str!("../tests/golden/checkpoint_v6.hex"));
        assert_eq!(sample().to_bytes(), golden);
        let back = Checkpoint::from_bytes(&golden).expect("golden image parses");
        assert_eq!(back.to_bytes(), golden);
    }

    /// A `checkpoint.bin` written while the body still carried per-record
    /// counters (v1: two sketch tables, v2: registry rows), a name
    /// HyperLogLog and a whole fpDNS log (v3), the observer's state and a
    /// copy of the store (v4) or a client HyperLogLog's precision and seed
    /// (v5) is intact but unreadable: resume must refuse it by name, not
    /// restart from zero.
    #[test]
    fn older_versions_are_rejected_as_unsupported_version() {
        for (magic, hex) in [
            (b"dnckpt1\n", include_str!("../tests/golden/checkpoint_v1.hex")),
            (b"dnckpt2\n", include_str!("../tests/golden/checkpoint_v2.hex")),
            (b"dnckpt3\n", include_str!("../tests/golden/checkpoint_v3.hex")),
            (b"dnckpt4\n", include_str!("../tests/golden/checkpoint_v4.hex")),
            (b"dnckpt5\n", include_str!("../tests/golden/checkpoint_v5.hex")),
        ] {
            let image = unhex(hex);
            assert!(image.starts_with(magic));
            let err = Checkpoint::from_bytes(&image).unwrap_err();
            assert_eq!(err, FrameError::Version);
            assert!(err.to_string().contains("unsupported version"), "{err}");
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        for byte in (0..bytes.len()).step_by(3) {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x20;
            assert!(Checkpoint::from_bytes(&flipped).is_err(), "flip at {byte} accepted");
        }
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dnsnoise-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Checkpoint::load(&dir).unwrap().is_none(), "fresh dir has no checkpoint");
        let ckpt = sample();
        ckpt.save(&dir).unwrap();
        let back = Checkpoint::load(&dir).unwrap().expect("checkpoint exists");
        assert_eq!(back.to_bytes(), ckpt.to_bytes());
        std::fs::write(dir.join(CHECKPOINT_NAME), b"garbage").unwrap();
        assert!(matches!(Checkpoint::load(&dir), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_rejects_mismatched_tuning() {
        sample().verify(&StreamConfig { epoch_secs: 21_600 }).unwrap();
        // The epoch length is all a checkpoint echoes: no sketch geometry,
        // hash seed or store backend is among it.
        let text = sample().verify(&StreamConfig { epoch_secs: 3600 }).unwrap_err().to_string();
        assert!(text.contains("epoch_secs: checkpoint=21600 config=3600"), "{text}");
        assert_eq!(text.matches("checkpoint=").count(), 1, "{text}");
        for gone in ["hll_precision", "seed", "cm_", "backend"] {
            assert!(!text.contains(gone), "{text}");
        }
    }
}
