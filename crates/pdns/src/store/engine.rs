//! The run-store engine: an append-friendly memtable over immutable
//! sorted runs with deterministic size-tiered compaction.
//!
//! Writes land in a hash memtable (`memtable::Memtable`): entries in
//! insertion order under an open-addressing table keyed by `key_hash`,
//! the hash every run's index uses, so a probe hashes its key once for
//! the memtable and every run. At `memtable_cap` keys the memtable sorts
//! its entries and flushes them to an immutable columnar [`Run`]; its
//! buffer and table are reused by the next fill. Runs are grouped into size
//! tiers (`tier t` holds runs of at least `memtable_cap · fanoutᵗ`
//! entries); whenever a tier accumulates `fanout` runs, *all* runs in
//! that tier merge into one — a rule driven purely by entry counts, so
//! the run layout after any observation sequence is a deterministic
//! function of that sequence.
//!
//! The engine keeps the rpDNS dataset's aggregate accounting — per-day
//! new/repeated counters and modelled storage bytes — and a spill
//! directory changes none of it: with or without one, every answer is the
//! same.
//!
//! # Durability
//!
//! With a spill directory configured, every published live run is
//! mirrored to a checksummed `run-<id>.bin` image via the atomic writer
//! ([`super::io::atomic_write`]): staged as `.tmp`, fsynced, renamed,
//! directory fsynced. The in-memory byte buffers remain the serving
//! copy; the spill is the on-disk image of exactly the live run set.
//!
//! The crash protocol is *manifest-before-delete*: every flush and
//! compaction ends by atomically swapping a new checksummed
//! [`Manifest`] naming the live run set, and only **after** that swap
//! succeeds are superseded run files unlinked (they queue in
//! `pending_deletes` until then). A run is written when a manifest
//! first names it: a new run only reserves its file name, and each
//! publish first writes the image of every live run still unwritten. A
//! run that compaction consumes within the flush that made it is never
//! written, fsynced or unlinked, and no published byte differs from
//! spilling every run as it is made. A crash at any IO point therefore
//! leaves the last published manifest and every file it names intact;
//! [`RunStore::open`] recovers exactly that state, quarantines anything
//! corrupt into a typed ledger, and garbage-collects orphans.
//!
//! The engine never panics on IO failure: the first spill or manifest
//! error latches into [`RunStore::io_error`] and the store degrades to
//! memory-only (no further writes, no deletions of still-referenced
//! files) while every counter and query keeps its exact semantics —
//! callers inspect the latched error at the end and surface it as an
//! exit code.

use std::path::{Path, PathBuf};

use dnsnoise_dns::{Name, QType, RData, Record, RrKey};

use super::error::StoreError;
use super::frame;
use super::index;
use super::io;
use super::keys::{self, KeyRef};
use super::manifest::{Manifest, RunFileMeta};
use super::memtable::Memtable;
use super::recovery::{self, RecoveryReport};
use super::run::{Run, RunWriter};
use crate::rpdns::DailyNewRrs;

/// Tuning and placement knobs for a [`RunStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoreConfig {
    /// Memtable flush threshold, in keys.
    pub memtable_cap: usize,
    /// Size-tier growth factor and per-tier run budget.
    pub fanout: usize,
    /// Directory to mirror run files into (`None` = memory only).
    pub spill: Option<PathBuf>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { memtable_cap: 4096, fanout: 4, spill: None }
    }
}

impl StoreConfig {
    /// This configuration with runs mirrored under `dir`.
    pub fn with_spill(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill = Some(dir.into());
        self
    }
}

/// Counters describing the engine's internal shape, for benchmarks and
/// diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live sorted runs.
    pub runs: usize,
    /// Keys currently buffered in the memtable.
    pub memtable_keys: usize,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compaction merges performed.
    pub compactions: u64,
    /// Always 0; kept only because `benchmark/src/storebench.rs` reads it.
    pub learned_runs: usize,
    /// Run-image and manifest bytes this store has published through
    /// [`io::atomic_write`] since it was built or opened — the numerator
    /// of write amplification.
    pub bytes_written: u64,
}

/// A live run's spill file.
#[derive(Debug)]
enum RunFile {
    /// The file name reserved when the run was made; no manifest has
    /// named the run yet, so its image is not written.
    Reserved(String),
    /// The written image, as the manifest records it.
    Written(RunFileMeta),
}

/// The run store. See the module docs for the design.
#[derive(Debug)]
pub struct RunStore {
    config: StoreConfig,
    memtable: Memtable,
    runs: Vec<Run>,
    /// The spill file of each run in `runs`, when mirroring is on.
    run_files: Vec<Option<RunFile>>,
    /// Superseded run files awaiting deletion; unlinked only after a
    /// manifest that no longer names them has been published.
    pending_deletes: Vec<PathBuf>,
    next_run_id: u64,
    /// Sequence of the last published manifest.
    manifest_seq: u64,
    /// Total `observe` calls folded in — the durable-prefix marker the
    /// manifest records for crash replay.
    observed: u64,
    per_day: Vec<DailyNewRrs>,
    storage_bytes: u64,
    flushes: u64,
    compactions: u64,
    /// Bytes this store has published through the atomic writer.
    bytes_written: u64,
    /// First IO failure, latched; the store is memory-only from then on.
    io_error: Option<StoreError>,
    /// What [`RunStore::open`] found, for diagnostics.
    recovery: Option<RecoveryReport>,
}

impl RunStore {
    /// An empty store with no spill directory. With nowhere to spill
    /// to, it never flushes: its memtable holds every record until
    /// [`optimize`](RunStore::optimize) seals them into one run.
    pub fn new() -> RunStore {
        RunStore::with_config(StoreConfig { memtable_cap: usize::MAX, ..StoreConfig::default() })
    }

    /// An empty store with explicit tuning. Creates the spill directory
    /// eagerly; a failure there latches as the store's IO error (the
    /// store still works, memory-only) rather than panicking.
    pub fn with_config(config: StoreConfig) -> RunStore {
        let mut store = RunStore {
            config,
            memtable: Memtable::default(),
            runs: Vec::new(),
            run_files: Vec::new(),
            pending_deletes: Vec::new(),
            next_run_id: 0,
            manifest_seq: 0,
            observed: 0,
            per_day: Vec::new(),
            storage_bytes: 0,
            flushes: 0,
            compactions: 0,
            bytes_written: 0,
            io_error: None,
            recovery: None,
        };
        if let Some(dir) = store.config.spill.clone() {
            if let Err(e) = io::create_dir_all(&dir) {
                store.io_error = Some(e);
            }
        }
        store
    }

    /// Opens (or creates) the store persisted under `dir`, recovering
    /// the state of the last published manifest.
    ///
    /// Recovery verifies every manifest-listed run end to end (length,
    /// whole-file CRC, section checksums, layout, key order); corrupt
    /// runs are renamed to `*.quarantined`, recorded in the typed
    /// ledger ([`RunStore::recovery`]) and appended to `quarantine.log`,
    /// and the store continues without them. Files the manifest does not
    /// name — `.tmp` staging leftovers, runs superseded just before a
    /// crash — are garbage-collected. `config.spill` is overridden to
    /// `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the manifest itself fails its
    /// checksum (run `fsck` for diagnosis), [`StoreError::ConfigMismatch`]
    /// when `config` tuning contradicts the manifest's echo, or an IO
    /// error reading the directory.
    pub fn open(dir: impl Into<PathBuf>, config: StoreConfig) -> Result<RunStore, StoreError> {
        let dir = dir.into();
        io::create_dir_all(&dir)?;
        let scan = recovery::scan(&dir, false)?;
        let config = StoreConfig { spill: Some(dir.clone()), ..config };
        let mut store = RunStore::with_config(config);
        if let Some(e) = store.io_error.clone() {
            return Err(e);
        }
        if let Some(m) = &scan.manifest {
            let echo = [
                ("memtable_cap", m.memtable_cap, store.config.memtable_cap as u64),
                ("fanout", m.fanout, store.config.fanout as u64),
            ];
            let diffs: Vec<String> = echo
                .iter()
                .filter(|(_, disk, ours)| disk != ours)
                .map(|(field, disk, ours)| format!("{field}: manifest={disk} config={ours}"))
                .collect();
            if !diffs.is_empty() {
                return Err(StoreError::ConfigMismatch { detail: diffs.join(", ") });
            }
            store.next_run_id = m.next_run_id;
            store.manifest_seq = m.seq;
            store.observed = m.observed;
            store.storage_bytes = m.storage_bytes;
            store.flushes = m.flushes;
            store.compactions = m.compactions;
            store.per_day = m.per_day.clone();
        }
        for scanned in scan.live {
            store.runs.push(scanned.run);
            store.run_files.push(Some(RunFile::Written(scanned.meta)));
        }
        // Corrupt runs keep their bytes under a quarantine name for
        // diagnosis; orphans were never durable and are deleted. Both
        // are best-effort — a failure just leaves work for the next
        // open or fsck.
        for path in &scan.corrupt_paths {
            let _ = io::quarantine_file(path);
        }
        for path in &scan.orphan_paths {
            let _ = io::remove_file(path);
        }
        if !scan.report.is_clean() {
            recovery::append_ledger(&dir, &scan.log);
        }
        store.recovery = Some(scan.report);
        Ok(store)
    }

    /// A store spilling under `path` when one is given, else
    /// [`RunStore::new`]; `kind` is ignored. Kept only because the
    /// benchmark harness still calls it; it goes when the benchmark stops
    /// doing so.
    #[doc(hidden)]
    pub fn create(_kind: super::BackendKind, path: Option<&Path>) -> RunStore {
        match path {
            Some(dir) => RunStore::with_config(StoreConfig::default().with_spill(dir)),
            None => RunStore::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Internal-shape counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            runs: self.runs.len(),
            memtable_keys: self.memtable.len(),
            flushes: self.flushes,
            compactions: self.compactions,
            learned_runs: 0,
            bytes_written: self.bytes_written,
        }
    }

    /// The first IO failure this store hit, if any. Once set, the store
    /// has stopped writing (memory-only degradation); in-memory results
    /// remain exact.
    pub fn io_error(&self) -> Option<&StoreError> {
        self.io_error.as_ref()
    }

    /// Total [`observe`](RunStore::observe) calls folded into this
    /// store. After [`open`](RunStore::open), the durable prefix length:
    /// replaying an event log from this offset reproduces the
    /// pre-crash store.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// What recovery found when this store was [`open`](RunStore::open)ed
    /// (`None` for stores built fresh).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Number of distinct records stored.
    pub fn len(&self) -> usize {
        self.memtable.len() + self.runs.iter().map(Run::len).sum::<usize>()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The daily new/repeated counters (index = day).
    pub fn per_day(&self) -> &[DailyNewRrs] {
        &self.per_day
    }

    /// Modelled storage footprint in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.storage_bytes
    }

    fn ensure_day(&mut self, day: u64) {
        let needed = day as usize + 1;
        if self.per_day.len() < needed {
            self.per_day.resize(needed, DailyNewRrs::default());
        }
    }

    /// The day `key`, whose [`index::key_hash`] is `hash`, was first
    /// seen. Every key lives in exactly one place (observe dedups before
    /// inserting), so probe order is immaterial; memtable first is
    /// simply cheapest.
    fn get_encoded(&self, key: KeyRef<'_>, hash: u64) -> Option<u64> {
        self.memtable.get(key, hash).or_else(|| self.runs.iter().find_map(|run| run.get(key, hash)))
    }

    /// Records one observation of `record` on `day`. Returns `true` when
    /// the record is new to the store.
    pub fn observe(&mut self, record: &Record, day: u64) -> bool {
        self.observe_parts(&record.name, record.qtype, &record.rdata, day)
    }

    /// [`RunStore::observe`] by the record's key: the first-sighting feed.
    pub fn observe_key(&mut self, key: &RrKey, day: u64) -> bool {
        self.observe_parts(&key.name, key.qtype, &key.rdata, day)
    }

    /// [`RunStore::observe`] of the record `(name, qtype, rdata)`.
    fn observe_parts(&mut self, name: &Name, qtype: QType, rdata: &RData, day: u64) -> bool {
        self.observed += 1;
        self.ensure_day(day);
        // The probe borrows the thread's key buffers; only a record the
        // store has never seen gets an owned key.
        let fresh = keys::with_probe(name, qtype, rdata, |key| {
            let hash = index::key_hash(key);
            self.get_encoded(key, hash).is_none().then(|| (key.to_owned_key(), hash))
        });
        let Some((key, hash)) = fresh else {
            self.per_day[day as usize].repeated_records += 1;
            return false;
        };
        self.storage_bytes += RrKey::storage_bytes_of(name, rdata) as u64;
        self.per_day[day as usize].new_records += 1;
        self.memtable.insert(key, hash, day);
        if self.memtable.len() >= self.config.memtable_cap {
            self.flush();
        }
        true
    }

    /// The day `key` was first seen, if stored.
    pub fn first_seen(&self, key: &RrKey) -> Option<u64> {
        keys::with_probe(&key.name, key.qtype, &key.rdata, |key| {
            self.get_encoded(key, index::key_hash(key))
        })
    }

    /// Flushes the memtable into a new immutable run, compacts, and
    /// publishes the resulting live set.
    fn flush(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let run = self.memtable.drain_sorted(Run::build);
        self.flushes += 1;
        self.push_run(run);
        self.compact();
        self.persist();
    }

    /// Adds `run` to the live set. With mirroring on, the run reserves
    /// the next file name; [`persist`](RunStore::persist) writes it if
    /// the run is still live when the next manifest is published.
    fn push_run(&mut self, run: Run) {
        let file = (self.config.spill.is_some() && self.io_error.is_none()).then(|| {
            let name = format!("run-{:08}.bin", self.next_run_id);
            self.next_run_id += 1;
            RunFile::Reserved(name)
        });
        self.runs.push(run);
        self.run_files.push(file);
    }

    /// Durably writes the image of every live run no manifest has named
    /// yet, then atomically publishes the manifest naming the live run
    /// set, then — and only then — unlinks superseded files queued in
    /// `pending_deletes`. A failure latches; the queued files are still
    /// named by the last durable manifest and must survive.
    fn persist(&mut self) {
        if self.io_error.is_some() {
            return;
        }
        let Some(dir) = self.config.spill.clone() else { return };
        for (run, file) in self.runs.iter().zip(&mut self.run_files) {
            let Some(RunFile::Reserved(name)) = file else { continue };
            let bytes = run.to_bytes();
            let crc = frame::sealed_crc(&bytes);
            let meta = RunFileMeta { name: name.clone(), len: bytes.len() as u64, crc };
            if let Err(e) = io::atomic_write(&dir, &meta.name, &bytes) {
                self.io_error = Some(e);
                return;
            }
            self.bytes_written += meta.len;
            *file = Some(RunFile::Written(meta));
        }
        let manifest = Manifest {
            seq: self.manifest_seq + 1,
            memtable_cap: self.config.memtable_cap as u64,
            fanout: self.config.fanout as u64,
            next_run_id: self.next_run_id,
            observed: self.observed,
            storage_bytes: self.storage_bytes,
            flushes: self.flushes,
            compactions: self.compactions,
            per_day: self.per_day.clone(),
            runs: self
                .run_files
                .iter()
                .filter_map(|file| match file {
                    Some(RunFile::Written(meta)) => Some(meta.clone()),
                    _ => None,
                })
                .collect(),
        };
        match manifest.publish(&dir) {
            Ok(len) => {
                self.bytes_written += len;
                self.manifest_seq += 1;
                // Deletion is best-effort: a failure here strands the
                // file as an orphan the next open garbage-collects.
                for path in std::mem::take(&mut self.pending_deletes) {
                    let _ = io::remove_file(&path);
                }
            }
            Err(e) => self.io_error = Some(e),
        }
    }

    fn remove_runs(&mut self, indices: &[usize]) -> Vec<Run> {
        // Indices arrive ascending; remove back-to-front to keep them
        // valid, then restore first-added-first order. Files are not
        // unlinked here — they stay until a manifest without them is
        // durable (see `persist`). A run never written has no file.
        let mut removed = Vec::with_capacity(indices.len());
        for &i in indices.iter().rev() {
            removed.push(self.runs.remove(i));
            if let Some(RunFile::Written(meta)) = self.run_files.remove(i) {
                if let Some(dir) = &self.config.spill {
                    self.pending_deletes.push(dir.join(&meta.name));
                }
            }
        }
        removed.reverse();
        removed
    }

    /// The size tier of a run: the largest `t` with
    /// `len ≥ memtable_cap · fanoutᵗ`.
    fn tier_of(&self, len: usize) -> u32 {
        let cap = self.config.memtable_cap.max(1);
        let fanout = self.config.fanout.max(2);
        let mut t = 0u32;
        let mut bound = cap.saturating_mul(fanout);
        while len >= bound {
            t += 1;
            bound = bound.saturating_mul(fanout);
        }
        t
    }

    /// Deterministic size-tiered compaction: while any tier holds at
    /// least `fanout` runs, merge the lowest such tier entirely.
    fn compact(&mut self) {
        let fanout = self.config.fanout.max(2);
        loop {
            let tiers: Vec<u32> = self.runs.iter().map(|r| self.tier_of(r.len())).collect();
            let Some(&lowest) = tiers
                .iter()
                .filter(|&&t| tiers.iter().filter(|&&u| u == t).count() >= fanout)
                .min()
            else {
                return;
            };
            let victims: Vec<usize> = (0..tiers.len()).filter(|&i| tiers[i] == lowest).collect();
            let runs = self.remove_runs(&victims);
            let merged = merge_runs(&runs);
            self.compactions += 1;
            self.push_run(merged);
        }
    }

    /// Flushes pending writes and merges every run into a single one —
    /// the read-optimised shape used before sustained lookup phases.
    pub fn optimize(&mut self) {
        self.flush();
        if self.runs.len() > 1 {
            let all: Vec<usize> = (0..self.runs.len()).collect();
            let runs = self.remove_runs(&all);
            let merged = merge_runs(&runs);
            self.compactions += 1;
            self.push_run(merged);
            self.persist();
        }
    }

    /// Every stored `(key, first-seen day)` with `name` in `zone`'s
    /// subtree (the zone itself included), in canonical composite-key
    /// order.
    pub fn scan_prefix(&self, zone: &Name) -> Vec<(RrKey, u64)> {
        let prefix = keys::encode_name(zone);
        // Borrowed columns only: hits reference the memtable's keys and
        // the runs' byte buffers, so a scan clones nothing until the
        // final decode.
        let mut hits: Vec<(&[u8], u16, &[u8], u64)> = Vec::new();
        for ((name, qtype, rdata), day) in self.memtable.entries() {
            if name.starts_with(&prefix) {
                hits.push((name, *qtype, rdata, *day));
            }
        }
        for run in &self.runs {
            let (lo, hi) = run.prefix_range(&prefix);
            for i in lo..hi {
                hits.push((run.name_at(i), run.qtype_at(i), run.rdata_at(i), run.day_at(i)));
            }
        }
        // Sources are mutually disjoint (the runs individually sorted,
        // the memtable in insertion order); one sort yields the
        // canonical global order.
        hits.sort_unstable();
        hits.iter()
            .map(|&(name, qtype, rdata, day)| {
                // Scan sources are encoder output (memtable) or
                // checksum-validated runs; a decode failure here is a
                // logic bug, not reachable from stored bytes.
                (keys::decode_key_parts(name, qtype, rdata).expect("validated key decodes"), day)
            })
            .collect()
    }
}

impl Default for RunStore {
    fn default() -> Self {
        RunStore::new()
    }
}

/// K-way merge of runs into one, column to column: each step writes the
/// smallest head key among the runs straight into the new run's buffers,
/// so no entry is decoded into an owned key and nothing is sorted. A
/// single store's runs hold disjoint keys (observe dedups against the
/// whole store before inserting); should two runs share one, the merged
/// run keeps it once, with the earlier day.
fn merge_runs(runs: &[Run]) -> Run {
    let mut out = RunWriter::with_capacity(
        runs.iter().map(Run::len).sum(),
        runs.iter().map(Run::name_bytes_len).sum(),
        runs.iter().map(Run::rdata_bytes_len).sum(),
    );
    // `(head key, run, position)` of every run not yet drained.
    let mut heads: Vec<(KeyRef<'_>, &Run, usize)> =
        runs.iter().filter(|run| !run.is_empty()).map(|run| (run.key_ref_at(0), run, 0)).collect();
    while let Some(min) = (0..heads.len()).min_by(|&a, &b| heads[a].0.cmp(&heads[b].0)) {
        let (key, run, pos) = heads[min];
        out.push(key, run.day_at(pos));
        if pos + 1 < run.len() {
            heads[min] = (run.key_ref_at(pos + 1), run, pos + 1);
        } else {
            heads.swap_remove(min);
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::super::keys::tests::merge_key;
    use super::super::keys::CompositeKey;
    use super::super::manifest::MANIFEST_NAME;
    use super::super::recovery::{QuarantineClass, QUARANTINE_LEDGER};
    use super::super::run::tests::parse;
    use super::*;
    use dnsnoise_dns::{QType, RData, Ttl};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    fn rr(name: &str, ip: u8) -> Record {
        Record::new(
            name.parse().unwrap(),
            QType::A,
            Ttl::from_secs(60),
            RData::A(Ipv4Addr::new(192, 0, 2, ip)),
        )
    }

    fn tiny_config() -> StoreConfig {
        StoreConfig { memtable_cap: 8, fanout: 2, ..StoreConfig::default() }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dnsnoise-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn run_files(dir: &std::path::Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy();
                name.starts_with("run-") && name.ends_with(".bin")
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn observe_dedups_across_memtable_and_runs() {
        let mut store = RunStore::with_config(tiny_config());
        for i in 0..100u8 {
            assert!(store.observe(&rr(&format!("h{i}.example"), i), 0));
        }
        assert!(store.stats().runs > 0, "tiny cap must have flushed");
        for i in 0..100u8 {
            assert!(!store.observe(&rr(&format!("h{i}.example"), i), 1), "repeat {i}");
        }
        assert_eq!(store.len(), 100);
        assert_eq!(store.observed(), 200);
        assert_eq!(store.per_day()[0].new_records, 100);
        assert_eq!(store.per_day()[1].repeated_records, 100);
    }

    #[test]
    fn compaction_is_driven_by_counts_alone() {
        let mut a = RunStore::with_config(tiny_config());
        let mut b = RunStore::with_config(tiny_config());
        for i in 0..300u16 {
            let r = rr(&format!("c{i}.example"), (i % 251) as u8);
            a.observe(&r, 0);
            b.observe(&r, 0);
        }
        assert_eq!(a.stats(), b.stats(), "same inputs, same shape");
        assert!(a.stats().compactions > 0, "tiny tiers must have compacted");
        // Tiered layout: strictly fewer runs than flushes.
        assert!(a.stats().runs < a.stats().flushes as usize);
    }

    #[test]
    fn optimize_collapses_to_one_run_and_keeps_answers() {
        let mut store = RunStore::with_config(tiny_config());
        for i in 0..200u8 {
            store.observe(&rr(&format!("o{i}.example"), i), u64::from(i % 5));
        }
        let before: Vec<_> = store.scan_prefix(&Name::root());
        store.optimize();
        assert_eq!(store.stats().runs, 1);
        assert_eq!(store.stats().memtable_keys, 0);
        assert_eq!(store.scan_prefix(&Name::root()), before);
    }

    proptest! {
        /// Disjoint runs — with few entries over six runs, many are empty
        /// or hold one entry — merge to exactly the run built from their
        /// sorted union.
        #[test]
        fn merge_equals_building_the_sorted_union(
            raw in proptest::collection::vec((0u32..400, 0u8..3, 0u64..20, 0usize..6), 0..80),
        ) {
            let mut owner: BTreeMap<CompositeKey, (u64, usize)> = BTreeMap::new();
            for (id, shape, day, run) in raw {
                owner.entry(merge_key(id, shape)).or_insert((day, run));
            }
            let mut parts: Vec<Vec<(CompositeKey, u64)>> = vec![Vec::new(); 6];
            for (key, &(day, run)) in &owner {
                parts[run].push((key.clone(), day));
            }
            let runs: Vec<Run> = parts.iter().map(|part| Run::build(part)).collect();
            let union: Vec<(CompositeKey, u64)> =
                owner.into_iter().map(|(key, (day, _))| (key, day)).collect();
            prop_assert_eq!(merge_runs(&runs).to_bytes(), Run::build(&union).to_bytes());
        }
    }

    #[test]
    fn merge_keeps_a_shared_key_once_with_its_earliest_day() {
        let (a, b, c) = (merge_key(1, 0), merge_key(2, 0), merge_key(3, 0));
        let runs = [
            Run::build(&[(a.clone(), 4), (b.clone(), 9)]),
            Run::build(&[(b.clone(), 2), (c.clone(), 1)]),
            Run::build(&[(b.clone(), 5)]),
        ];
        let merged = merge_runs(&runs);
        assert_eq!(merged.to_bytes(), Run::build(&[(a, 4), (b, 2), (c, 1)]).to_bytes());
    }

    #[test]
    fn bytes_written_counts_every_published_image() {
        let dir = tmp_dir("written");
        let mut store = RunStore::with_config(tiny_config().with_spill(&dir));
        assert_eq!(store.stats().bytes_written, 0);
        for i in 0..100u8 {
            store.observe(&rr(&format!("w{i}.example"), i), 0);
        }
        store.optimize();
        let live: u64 =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).sum();
        // Every flush and compaction rewrote runs and the manifest, so
        // more was written than survives.
        assert!(store.stats().bytes_written > live, "{} <= {live}", store.stats().bytes_written);
        assert_eq!(RunStore::with_config(tiny_config()).stats().bytes_written, 0, "memory only");
        let reopened = RunStore::open(&dir, tiny_config()).unwrap();
        assert_eq!(reopened.stats().bytes_written, 0, "counted per process");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_mirrors_exactly_the_live_runs() {
        let dir = tmp_dir("spill");
        let mut store = RunStore::with_config(tiny_config().with_spill(&dir));
        for i in 0..200u8 {
            store.observe(&rr(&format!("s{i}.example"), i), 0);
        }
        store.optimize();
        assert_eq!(store.io_error(), None);
        let files = run_files(&dir);
        assert_eq!(files.len(), store.stats().runs, "one run file per live run");
        assert!(dir.join(MANIFEST_NAME).exists(), "manifest published");
        // The spilled image round-trips into the identical run.
        let bytes = std::fs::read(&files[0]).unwrap();
        let reloaded = parse(&bytes).unwrap();
        assert_eq!(reloaded.len(), store.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_recovers_exactly_what_was_published() {
        let dir = tmp_dir("reopen");
        let mut store = RunStore::with_config(tiny_config().with_spill(&dir));
        for i in 0..150u8 {
            store.observe(&rr(&format!("p{i}.example"), i), u64::from(i % 3));
        }
        // No explicit optimize: reopen mid-shape, memtable remainder
        // (not yet flushed, so not durable) excluded from expectations.
        let durable = store.len() - store.stats().memtable_keys;
        let stats = store.stats();
        drop(store);

        let back = RunStore::open(&dir, tiny_config()).expect("clean open");
        assert!(back.recovery().expect("recovery report ran").is_clean());
        assert_eq!(back.len(), durable);
        assert_eq!(back.stats().runs, stats.runs);
        assert_eq!(back.stats().flushes, stats.flushes);
        assert_eq!(back.stats().compactions, stats.compactions);
        assert!(back.observed() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_quarantines_a_corrupt_run_and_continues() {
        let dir = tmp_dir("quarantine");
        let mut store = RunStore::with_config(tiny_config().with_spill(&dir));
        for i in 0..100u8 {
            store.observe(&rr(&format!("q{i}.example"), i), 0);
        }
        store.optimize();
        drop(store);
        let files = run_files(&dir);
        let victim = files[0].clone();
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();

        let back = RunStore::open(&dir, tiny_config()).expect("lossy open succeeds");
        let report = back.recovery().unwrap();
        assert_eq!(report.problems(), 1);
        assert_eq!(report.quarantine.get(QuarantineClass::BadRunChecksum).unwrap().count, 1);
        assert!(report.conserves(), "{}", report.conservation_line());
        assert_eq!(back.len(), 0, "the only run was quarantined");
        assert!(!victim.exists(), "corrupt file renamed away");
        let quarantined = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".quarantined"))
            .count();
        assert_eq!(quarantined, 1, "bytes preserved under a quarantine name");
        assert!(dir.join(QUARANTINE_LEDGER).exists(), "ledger written");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_mismatched_tuning() {
        let dir = tmp_dir("mismatch");
        let mut store = RunStore::with_config(tiny_config().with_spill(&dir));
        for i in 0..50u8 {
            store.observe(&rr(&format!("m{i}.example"), i), 0);
        }
        drop(store);
        let other = StoreConfig { memtable_cap: 16, fanout: 2, ..StoreConfig::default() };
        assert!(matches!(RunStore::open(&dir, other), Err(StoreError::ConfigMismatch { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
