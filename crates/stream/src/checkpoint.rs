//! Process-level stream checkpointing: serialise the complete
//! [`StreamMiner`](crate::StreamMiner) state at epoch boundaries so a
//! killed-and-restarted process resumes mid-day and produces a report
//! byte-identical to an uninterrupted run.
//!
//! A [`Checkpoint`] captures everything the miner's observer owns — the
//! client HyperLogLog, the four fpDNS counters, the rpDNS dataset
//! (including the disk backend's exact memtable and run layout, so its
//! subsequent compaction decisions are identical), the epoch summaries
//! closed so far, and the served-class tallies. What it deliberately does *not* capture is the
//! resolver session: its caches *and* its per-record query/miss table
//! (the miner's input) are a pure function of the event prefix, so
//! [`StreamMiner::resume`](crate::StreamMiner::resume) rebuilds them by
//! replaying the first [`Checkpoint::pushed`] trace events through a
//! fresh session with a unit observer.
//!
//! The on-disk format is the store's shared frame (DESIGN.md §9.1,
//! `dnsnoise_pdns::store::frame`) around big-endian fixed-width fields
//! and length-prefixed sequences, written via the same atomic
//! staged-rename writer the run store uses; this module is only the
//! field encoders and decoders. Parsing is total on arbitrary bytes —
//! truncation, bit flips, and forged lengths surface as errors, never
//! panics — with the footer checksum verified before any field is
//! trusted; decoded keys behind a valid checksum are trusted, as in the
//! run format.

use std::path::Path;

use dnsnoise_core::Finding;
use dnsnoise_dns::Name;
use dnsnoise_pdns::store::frame::{
    self, malformed, put_blob16, put_u16, put_u64, FrameError, Reader,
};
use dnsnoise_pdns::store::keys::{self, CompositeKey};
use dnsnoise_pdns::store::{io, PdnsStore};
use dnsnoise_pdns::{BackendKind, DailyNewRrs, PdnsBackend, RpDns, Run, RunStore, StoreError};

use crate::engine::{EpochSummary, PdnsSummary, StreamConfig, StreamState, HLL_PRECISION};
use crate::sketch::HyperLogLog;

/// Magic + format version leading every serialised checkpoint. Versions
/// 1 and 2 (which carried per-record counters in the body: sketch tables,
/// then registry rows) and 3 (a name HyperLogLog and a whole fpDNS log)
/// are refused as `FrameError::Version`.
const CHECKPOINT_MAGIC: &[u8; 8] = b"dnckpt4\n";

/// The checkpoint's file name inside a checkpoint directory.
pub const CHECKPOINT_NAME: &str = "checkpoint.bin";

/// A serialisable snapshot of a [`StreamMiner`](crate::StreamMiner) at
/// one point of the event stream (normally an epoch boundary). See the
/// module docs for what it contains and the resume contract.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    // -- configuration echo, verified on resume --
    pub(crate) epoch_secs: u64,
    pub(crate) hll_precision: u8,
    pub(crate) seed: u64,
    pub(crate) backend: BackendKind,
    // -- stream position --
    /// The simulated day being streamed.
    pub day: u64,
    /// Events consumed when the checkpoint was written: a resumed miner
    /// replays exactly this prefix of the trace as warmup and re-pushes
    /// the rest.
    pub pushed: u64,
    pub(crate) current_epoch: Option<u64>,
    pub(crate) epochs: Vec<EpochSummary>,
    // -- cardinality estimator --
    pub(crate) hll_clients_regs: Vec<u8>,
    // -- pDNS datasets --
    pub(crate) pdns: PdnsSummary,
    pub(crate) rpdns_per_day: Vec<DailyNewRrs>,
    pub(crate) rpdns_storage_bytes: u64,
    /// Memory backend: every `(composite key, first-seen day)`, sorted
    /// by key so serialisation is deterministic.
    pub(crate) rpdns_memory: Vec<(CompositeKey, u64)>,
    /// Disk backend: the exact memtable, in key order.
    pub(crate) rpdns_memtable: Vec<(CompositeKey, u64)>,
    /// Disk backend: the exact live runs, oldest first, as serialised
    /// run images.
    pub(crate) rpdns_runs: Vec<Vec<u8>>,
    pub(crate) rpdns_flushes: u64,
    pub(crate) rpdns_compactions: u64,
    // -- served-class tallies --
    pub(crate) answered: u64,
    pub(crate) nxdomain: u64,
    pub(crate) failed: u64,
    pub(crate) shed: u64,
}

impl Checkpoint {
    /// Snapshots the miner's state. Pure observation: nothing is
    /// mutated, nothing touches disk.
    pub(crate) fn capture(
        config: &StreamConfig,
        pushed: u64,
        current_epoch: Option<u64>,
        epochs: &[EpochSummary],
        state: &StreamState,
    ) -> Checkpoint {
        let (rpdns_memory, rpdns_memtable, rpdns_runs, rpdns_flushes, rpdns_compactions) =
            match &state.rpdns {
                PdnsBackend::Memory(s) => {
                    let mut records: Vec<(CompositeKey, u64)> = s
                        .iter()
                        .map(|(key, d)| (keys::encode_key(&key.name, key.qtype, &key.rdata), d))
                        .collect();
                    records.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                    (records, Vec::new(), Vec::new(), 0, 0)
                }
                PdnsBackend::Disk(s) => {
                    let memtable = s.memtable_entries().map(|(k, d)| (k.clone(), d)).collect();
                    let runs = s.runs().iter().map(Run::to_bytes).collect();
                    let stats = s.stats();
                    (Vec::new(), memtable, runs, stats.flushes, stats.compactions)
                }
            };
        Checkpoint {
            epoch_secs: config.epoch_secs,
            hll_precision: HLL_PRECISION,
            seed: config.seed,
            backend: state.rpdns.kind(),
            day: state.day,
            pushed,
            current_epoch,
            epochs: epochs.to_vec(),
            hll_clients_regs: state.hll_clients.registers().to_vec(),
            pdns: state.pdns,
            rpdns_per_day: state.rpdns.daily_stats().to_vec(),
            rpdns_storage_bytes: PdnsStore::storage_bytes(&state.rpdns),
            rpdns_memory,
            rpdns_memtable,
            rpdns_runs,
            rpdns_flushes,
            rpdns_compactions,
            answered: state.answered,
            nxdomain: state.nxdomain,
            failed: state.failed,
            shed: state.shed,
        }
    }

    /// Checks the checkpoint's configuration echo against the resuming
    /// miner's configuration and store backend.
    ///
    /// # Errors
    ///
    /// [`StoreError::ConfigMismatch`] naming every disagreeing field.
    pub fn verify(&self, config: &StreamConfig, backend: BackendKind) -> Result<(), StoreError> {
        let echo = [
            ("epoch_secs", self.epoch_secs, config.epoch_secs),
            ("hll_precision", u64::from(self.hll_precision), u64::from(HLL_PRECISION)),
            ("seed", self.seed, config.seed),
        ];
        let mut diffs: Vec<String> = echo
            .iter()
            .filter(|(_, ckpt, ours)| ckpt != ours)
            .map(|(field, ckpt, ours)| format!("{field}: checkpoint={ckpt} config={ours}"))
            .collect();
        if self.backend != backend {
            diffs.push(format!("store backend: checkpoint={} config={}", self.backend, backend));
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(StoreError::ConfigMismatch { detail: diffs.join(", ") })
        }
    }

    /// Rebuilds the online state this checkpoint captured. `backend` is
    /// the resuming miner's (still empty) store, consulted for the disk
    /// engine's tuning and spill directory; the restored store replaces
    /// it wholesale.
    pub(crate) fn restore_state(
        &self,
        config: &StreamConfig,
        backend: &PdnsBackend,
    ) -> Result<StreamState, StoreError> {
        let corrupt = |detail: String| StoreError::corrupt(Path::new(CHECKPOINT_NAME), detail);
        let hll_clients =
            HyperLogLog::from_parts(HLL_PRECISION, config.seed, self.hll_clients_regs.clone())
                .ok_or_else(|| {
                    corrupt("client-HLL register count does not match precision".to_string())
                })?;
        let rpdns = match backend {
            PdnsBackend::Memory(_) => {
                let records = self
                    .rpdns_memory
                    .iter()
                    .map(|(key, d)| keys::decode_key(key).map(|k| (k, *d)))
                    .collect::<Result<_, _>>()
                    .map_err(corrupt)?;
                PdnsBackend::Memory(RpDns::from_parts(
                    records,
                    self.rpdns_per_day.clone(),
                    self.rpdns_storage_bytes,
                ))
            }
            PdnsBackend::Disk(s) => {
                let mut runs = Vec::with_capacity(self.rpdns_runs.len());
                for image in &self.rpdns_runs {
                    runs.push(
                        Run::from_bytes(image)
                            .map_err(|detail| corrupt(format!("checkpointed run: {detail}")))?,
                    );
                }
                PdnsBackend::Disk(RunStore::from_parts(
                    s.config().clone(),
                    self.rpdns_memtable.clone(),
                    runs,
                    self.rpdns_per_day.clone(),
                    self.rpdns_storage_bytes,
                    self.rpdns_flushes,
                    self.rpdns_compactions,
                ))
            }
        };
        Ok(StreamState {
            hll_clients,
            pdns: self.pdns,
            rpdns,
            day: self.day,
            answered: self.answered,
            nxdomain: self.nxdomain,
            failed: self.failed,
            shed: self.shed,
        })
    }

    /// Serialises the checkpoint: every field, sealed in the shared
    /// frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.epoch_secs);
        out.push(self.hll_precision);
        put_u64(&mut out, self.seed);
        out.push(match self.backend {
            BackendKind::Memory => 0,
            BackendKind::Disk => 1,
        });
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
            put_u64(&mut out, e.distinct_clients_est);
            put_u64(&mut out, e.state_bytes as u64);
            put_u64(&mut out, e.findings.len() as u64);
            for f in &e.findings {
                put_finding(&mut out, f);
            }
        }
        put_u64(&mut out, self.hll_clients_regs.len() as u64);
        out.extend_from_slice(&self.hll_clients_regs);
        put_u64(&mut out, self.pdns.total_records);
        put_u64(&mut out, self.pdns.total_responses);
        put_u64(&mut out, self.pdns.nx_responses);
        put_u64(&mut out, self.pdns.storage_bytes);
        put_u64(&mut out, self.rpdns_per_day.len() as u64);
        for day in &self.rpdns_per_day {
            put_u64(&mut out, day.new_records);
            put_u64(&mut out, day.repeated_records);
        }
        put_u64(&mut out, self.rpdns_storage_bytes);
        put_u64(&mut out, self.rpdns_flushes);
        put_u64(&mut out, self.rpdns_compactions);
        for entries in [&self.rpdns_memory, &self.rpdns_memtable] {
            put_u64(&mut out, entries.len() as u64);
            for ((name, qtype, rdata), day) in entries {
                put_blob16(&mut out, name);
                put_u16(&mut out, *qtype);
                put_blob16(&mut out, rdata);
                put_u64(&mut out, *day);
            }
        }
        put_u64(&mut out, self.rpdns_runs.len() as u64);
        for image in &self.rpdns_runs {
            put_u64(&mut out, image.len() as u64);
            out.extend_from_slice(image);
        }
        put_u64(&mut out, self.answered);
        put_u64(&mut out, self.nxdomain);
        put_u64(&mut out, self.failed);
        put_u64(&mut out, self.shed);
        frame::seal(CHECKPOINT_MAGIC, &out)
    }

    /// Deserialises a checkpoint image. Total on arbitrary input: any
    /// truncation, bit flip, or forged length is an error, never a
    /// panic — the footer CRC is checked before any field is trusted.
    // lint:certify(no-panic)
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, FrameError> {
        let mut cur = Reader::open(CHECKPOINT_MAGIC, bytes)?;
        let epoch_secs = cur.u64()?;
        let hll_precision = cur.u8()?;
        let seed = cur.u64()?;
        let backend = match cur.u8()? {
            0 => BackendKind::Memory,
            1 => BackendKind::Disk,
            other => return Err(malformed(format!("unknown store backend tag {other}"))),
        };
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
                distinct_clients_est: r.u64()?,
                state_bytes: r.usize()?,
                findings: {
                    let n = r.count()?;
                    r.seq(n, read_finding)?
                },
            })
        })?;
        let regs = cur.count()?;
        let hll_clients_regs = cur.take(regs)?.to_vec();
        let pdns = PdnsSummary {
            total_records: cur.u64()?,
            total_responses: cur.u64()?,
            nx_responses: cur.u64()?,
            storage_bytes: cur.u64()?,
        };
        let n = cur.count()?;
        let rpdns_per_day =
            cur.seq(n, |r| Ok(DailyNewRrs { new_records: r.u64()?, repeated_records: r.u64()? }))?;
        let rpdns_storage_bytes = cur.u64()?;
        let rpdns_flushes = cur.u64()?;
        let rpdns_compactions = cur.u64()?;
        let keyed = |r: &mut Reader<'_>| -> Result<(CompositeKey, u64), FrameError> {
            Ok(((r.blob16()?.to_vec(), r.u16()?, r.blob16()?.to_vec()), r.u64()?))
        };
        let n = cur.count()?;
        let rpdns_memory = cur.seq(n, keyed)?;
        let n = cur.count()?;
        let rpdns_memtable = cur.seq(n, keyed)?;
        let n = cur.count()?;
        let rpdns_runs = cur.seq(n, |r| {
            let len = r.count()?;
            Ok(r.take(len)?.to_vec())
        })?;
        let answered = cur.u64()?;
        let nxdomain = cur.u64()?;
        let failed = cur.u64()?;
        let shed = cur.u64()?;
        cur.end()?;
        Ok(Checkpoint {
            epoch_secs,
            hll_precision,
            seed,
            backend,
            day,
            pushed,
            current_epoch,
            epochs,
            hll_clients_regs,
            pdns,
            rpdns_per_day,
            rpdns_storage_bytes,
            rpdns_memory,
            rpdns_memtable,
            rpdns_runs,
            rpdns_flushes,
            rpdns_compactions,
            answered,
            nxdomain,
            failed,
            shed,
        })
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
            hll_precision: 4,
            seed: 7,
            backend: BackendKind::Memory,
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
                distinct_clients_est: 9,
                state_bytes: 2048,
            }],
            hll_clients_regs: vec![1; 16],
            pdns: PdnsSummary {
                total_responses: 8,
                total_records: 9,
                nx_responses: 1,
                storage_bytes: 512,
            },
            rpdns_per_day: vec![DailyNewRrs { new_records: 5, repeated_records: 2 }],
            rpdns_storage_bytes: 640,
            rpdns_memory: vec![((vec![1, 2, 0], 1, vec![9, 9]), 0)],
            rpdns_memtable: Vec::new(),
            rpdns_runs: Vec::new(),
            rpdns_flushes: 0,
            rpdns_compactions: 0,
            answered: 500,
            nxdomain: 80,
            failed: 20,
            shed: 0,
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
        let golden = unhex(include_str!("../tests/golden/checkpoint_v4.hex"));
        assert_eq!(sample().to_bytes(), golden);
        let back = Checkpoint::from_bytes(&golden).expect("golden image parses");
        assert_eq!(back.to_bytes(), golden);
    }

    /// A `checkpoint.bin` written while the body still carried per-record
    /// counters (v1: two sketch tables, v2: registry rows) or a name
    /// HyperLogLog and a whole fpDNS log (v3) is intact but unreadable:
    /// resume must refuse it by name, not restart from zero.
    #[test]
    fn older_versions_are_rejected_as_unsupported_version() {
        for (magic, hex) in [
            (b"dnckpt1\n", include_str!("../tests/golden/checkpoint_v1.hex")),
            (b"dnckpt2\n", include_str!("../tests/golden/checkpoint_v2.hex")),
            (b"dnckpt3\n", include_str!("../tests/golden/checkpoint_v3.hex")),
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
    fn verify_rejects_mismatched_tuning_and_backend() {
        let ckpt = Checkpoint { hll_precision: HLL_PRECISION, ..sample() };
        let good = StreamConfig { epoch_secs: 21_600, seed: 7 };
        ckpt.verify(&good, BackendKind::Memory).unwrap();
        let err = ckpt.verify(&StreamConfig { seed: 8, ..good }, BackendKind::Disk).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("seed"), "{text}");
        assert!(text.contains("store backend"), "{text}");
        assert!(ckpt.verify(&good, BackendKind::Disk).is_err());
        // Every echoed field disagrees (the sample image was written at
        // precision 4, which is not the constant): the three values are
        // all a checkpoint can name, and no sketch geometry is among them.
        let all = StreamConfig { epoch_secs: 3600, seed: 8 };
        let text = sample().verify(&all, BackendKind::Memory).unwrap_err().to_string();
        for field in ["epoch_secs", "hll_precision", "seed"] {
            assert!(text.contains(field), "{text}");
        }
        assert_eq!(text.matches("checkpoint=").count(), 3, "{text}");
        assert!(!text.contains("cm_"), "{text}");
        // The precision alone is enough to refuse an image.
        let text = sample().verify(&good, BackendKind::Memory).unwrap_err().to_string();
        assert_eq!(text.matches("checkpoint=").count(), 1, "{text}");
        assert!(text.contains("hll_precision: checkpoint=4 config=12"), "{text}");
    }
}
