//! Recovery scan, typed quarantine ledger, and `fsck`.
//!
//! Opening a store directory and checking one (`dnsnoise fsck`) share a
//! single scan: load the manifest, verify every run it names (existence,
//! exact length, whole-file CRC, and a full parse — which itself checks
//! the section checksums and composite-key ordering), and account for
//! every other file in the directory. Nothing is silently dropped: each
//! rejected file lands in a typed quarantine class of the shared
//! [`Ledger`] (exact counts, a bounded set of samples) and gets one line
//! in `quarantine.log` when it is dropped, and the byte totals obey a
//! conservation invariant —
//!
//! ```text
//! bytes_scanned = bytes_live + bytes_quarantined + bytes_orphaned
//! ```
//!
//! — mirroring the capture-ingestion quarantine ledger, so "how much did
//! recovery discard" is always an exact number, never a guess.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use dnsnoise_dns::quarantine::{Class, Ledger};

use super::error::StoreError;
use super::frame::{self, FrameError};
use super::io;
use super::manifest::{Manifest, RunFileMeta, MANIFEST_NAME};
use super::run::Run;

/// Advisory plain-text ledger of quarantine events, appended on lossy
/// opens and repairs. Diagnostics only — never recovery input.
pub const QUARANTINE_LEDGER: &str = "quarantine.log";

/// Why a file was quarantined or flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineClass {
    /// The manifest names a run file that does not exist on disk.
    MissingRun,
    /// A manifest-listed run file fails a length or checksum gate
    /// (whole-file CRC, footer CRC, or a section CRC).
    BadRunChecksum,
    /// A manifest-listed run file checksums correctly but its decoded
    /// layout is invalid (bad magic, inconsistent offsets, entries out
    /// of composite-key order).
    BadRunLayout,
    /// A file in the store directory that the manifest does not account
    /// for (`*.tmp` staging leftovers, runs superseded before a crash).
    OrphanFile,
    /// A `*.quarantined` file preserved by an earlier lossy open.
    PriorQuarantine,
}

impl Class for QuarantineClass {
    const ALL: &'static [Self] = &[
        QuarantineClass::MissingRun,
        QuarantineClass::BadRunChecksum,
        QuarantineClass::BadRunLayout,
        QuarantineClass::OrphanFile,
        QuarantineClass::PriorQuarantine,
    ];

    fn id(self) -> &'static str {
        match self {
            QuarantineClass::MissingRun => "missing-run",
            QuarantineClass::BadRunChecksum => "bad-run-checksum",
            QuarantineClass::BadRunLayout => "bad-run-layout",
            QuarantineClass::OrphanFile => "orphan-file",
            QuarantineClass::PriorQuarantine => "prior-quarantine",
        }
    }
}

/// What a recovery scan found: manifest health, live-set size, and the
/// typed quarantine ledger with byte conservation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A `MANIFEST` file exists in the directory.
    pub manifest_present: bool,
    /// The manifest parsed and checksummed correctly (vacuously true
    /// when absent — a fresh store).
    pub manifest_ok: bool,
    /// Sequence number of the loaded manifest (0 when absent/corrupt).
    pub manifest_seq: u64,
    /// Runs verified end to end and admitted to the live set.
    pub runs_live: u64,
    /// Total bytes of every scanned file (manifest and ledger excluded).
    pub bytes_scanned: u64,
    /// Bytes in verified live runs.
    pub bytes_live: u64,
    /// Flagged files: exact files and bytes per class (a missing run
    /// holds zero bytes), with up to five `file: reason` samples each.
    pub quarantine: Ledger<QuarantineClass, String>,
}

impl RecoveryReport {
    /// Manifest-listed runs the scan could not admit: missing, or failing
    /// a checksum or layout gate. An open loses their records.
    pub fn runs_lost(&self) -> u64 {
        let listed = [
            QuarantineClass::MissingRun,
            QuarantineClass::BadRunChecksum,
            QuarantineClass::BadRunLayout,
        ];
        listed.iter().filter_map(|&class| self.quarantine.get(class)).map(|t| t.count).sum()
    }

    /// Total problems found: flagged files plus a corrupt manifest.
    pub fn problems(&self) -> u64 {
        self.quarantine.count() + u64::from(self.manifest_present && !self.manifest_ok)
    }

    /// No problems at all.
    pub fn is_clean(&self) -> bool {
        self.problems() == 0
    }

    /// The byte-conservation invariant: every scanned byte is accounted
    /// live, quarantined, or orphaned.
    pub fn conserves(&self) -> bool {
        self.bytes_scanned == self.bytes_live + self.quarantine.bytes()
    }

    /// The conservation line, mirroring the ingest ledger's shape:
    /// quarantined bytes are those of every class but `orphan-file`.
    pub fn conservation_line(&self) -> String {
        let orphaned = self.quarantine.get(QuarantineClass::OrphanFile).map_or(0, |t| t.bytes);
        format!(
            "bytes {} scanned = {} live + {} quarantined + {} orphaned ({})",
            self.bytes_scanned,
            self.bytes_live,
            self.quarantine.bytes() - orphaned,
            orphaned,
            if self.conserves() { "conserved" } else { "VIOLATED" },
        )
    }

    /// Multi-line human-readable report (the `fsck` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let manifest_state = match (self.manifest_present, self.manifest_ok) {
            (false, _) => "absent (fresh store)".to_string(),
            (true, false) => "CORRUPT".to_string(),
            (true, true) => format!("seq={} (ok)", self.manifest_seq),
        };
        out.push_str(&format!("manifest: {manifest_state}\n"));
        out.push_str(&format!("live: {} runs / {} bytes\n", self.runs_live, self.bytes_live));
        for (class, tally) in self.quarantine.iter() {
            if tally.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "quarantine[{}]: {} files / {} bytes\n",
                class.id(),
                tally.count,
                tally.bytes
            ));
            for sample in &tally.samples {
                out.push_str(&format!("  sample {sample}\n"));
            }
        }
        out.push_str(&self.conservation_line());
        out.push('\n');
        if self.is_clean() {
            out.push_str("status: clean\n");
        } else {
            out.push_str(&format!("status: {} problems\n", self.problems()));
        }
        out
    }
}

/// A manifest-listed run that survived every verification gate.
pub(super) struct ScannedRun {
    /// Its manifest entry.
    pub meta: RunFileMeta,
    /// The decoded run.
    pub run: Run,
}

/// Everything a directory scan learns, for `open` and `fsck` to act on.
#[derive(Default)]
pub(super) struct Scan {
    /// The loaded manifest, when present and valid.
    pub manifest: Option<Manifest>,
    /// Verified live runs, in manifest (engine) order.
    pub live: Vec<ScannedRun>,
    /// Manifest-listed files that exist but failed verification.
    pub corrupt_paths: Vec<PathBuf>,
    /// Files the manifest does not account for.
    pub orphan_paths: Vec<PathBuf>,
    /// The typed ledger.
    pub report: RecoveryReport,
    /// One `quarantine.log` line per flagged file, in scan order.
    pub log: Vec<String>,
}

impl Scan {
    /// Books one flagged file of `bytes` bytes: a ledger entry and a
    /// `class: file: N bytes: reason` log line.
    fn flag(&mut self, class: QuarantineClass, file: &str, bytes: u64, reason: &str) {
        self.report.quarantine.record(class, bytes, format!("{file}: {reason}"));
        self.log.push(format!("{}: {file}: {bytes} bytes: {reason}", class.id()));
    }
}

/// Scans `dir`: loads the manifest, verifies every listed run, and
/// classifies every other file. Read-only. With `tolerate_bad_manifest`
/// (the `fsck` mode) a corrupt manifest is reported instead of returned
/// as an error; files are then left unclassified-as-orphans since the
/// live set is unknowable.
pub(super) fn scan(dir: &Path, tolerate_bad_manifest: bool) -> Result<Scan, StoreError> {
    let mut scan = Scan::default();
    scan.report.manifest_ok = true;
    scan.report.manifest_present = dir.join(MANIFEST_NAME).exists();
    let manifest = match Manifest::load(dir) {
        Ok(m) => m,
        Err(e) => {
            if !tolerate_bad_manifest {
                return Err(e);
            }
            scan.report.manifest_ok = false;
            None
        }
    };

    let mut listed = BTreeSet::new();
    if let Some(m) = &manifest {
        scan.report.manifest_seq = m.seq;
        for meta in &m.runs {
            listed.insert(meta.name.clone());
            // The parse closure cannot fail: a run that does not verify
            // is a quarantine verdict, not a load error.
            let read = frame::load(dir, &meta.name, |bytes| {
                Ok((bytes.len() as u64, verify_run(meta, bytes)))
            })?;
            let Some((len, verdict)) = read else {
                scan.flag(
                    QuarantineClass::MissingRun,
                    &meta.name,
                    0,
                    "listed in manifest, not on disk",
                );
                continue;
            };
            scan.report.bytes_scanned += len;
            match verdict {
                Ok(run) => {
                    scan.report.runs_live += 1;
                    scan.report.bytes_live += len;
                    scan.live.push(ScannedRun { meta: meta.clone(), run });
                }
                Err((class, reason)) => {
                    scan.flag(class, &meta.name, len, &reason);
                    scan.corrupt_paths.push(dir.join(&meta.name));
                }
            }
        }
    }

    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io("read_dir", dir, &e))?;
    let mut names: Vec<(String, u64)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read_dir", dir, &e))?;
        let meta = entry.metadata().map_err(|e| StoreError::io("stat", &entry.path(), &e))?;
        if !meta.is_file() {
            continue;
        }
        names.push((entry.file_name().to_string_lossy().into_owned(), meta.len()));
    }
    names.sort();
    for (name, len) in names {
        if name == MANIFEST_NAME || name == QUARANTINE_LEDGER || listed.contains(&name) {
            continue;
        }
        scan.report.bytes_scanned += len;
        if name.ends_with(".quarantined") {
            scan.flag(
                QuarantineClass::PriorQuarantine,
                &name,
                len,
                "preserved by an earlier lossy open",
            );
        } else {
            scan.flag(QuarantineClass::OrphanFile, &name, len, "not in manifest");
            scan.orphan_paths.push(dir.join(name));
        }
    }

    scan.manifest = manifest;
    Ok(scan)
}

/// Verifies one manifest-listed run image: exact length, then a full
/// parse against the manifest's CRC, which checks the whole-file CRC,
/// the footer and section CRCs, the layout and composite-key order, in
/// that order, from one checksum pass.
// lint:certify(no-panic)
fn verify_run(meta: &RunFileMeta, bytes: &[u8]) -> Result<Run, (QuarantineClass, String)> {
    if bytes.len() as u64 != meta.len {
        return Err((
            QuarantineClass::BadRunChecksum,
            format!("length {} != manifest length {}", bytes.len(), meta.len),
        ));
    }
    Run::from_bytes(bytes, meta.crc).map_err(|e| {
        let class = match e {
            FrameError::Checksum | FrameError::FileChecksum => QuarantineClass::BadRunChecksum,
            FrameError::Short
            | FrameError::Magic
            | FrameError::Version
            | FrameError::Malformed(_) => QuarantineClass::BadRunLayout,
        };
        (class, e.to_string())
    })
}

/// Appends a scan's log lines, one per flagged file, to `quarantine.log`.
/// Best-effort: the ledger is advisory, so append failures are ignored.
pub(super) fn append_ledger(dir: &Path, log: &[String]) {
    let path = dir.join(QUARANTINE_LEDGER);
    for line in log {
        let _ = io::append_line(&path, line);
    }
}

/// Checks a store directory and returns the typed report. With `repair`,
/// additionally drops every flagged file and republishes the manifest so
/// a subsequent check is clean: corrupt manifest-listed runs and
/// `*.quarantined` leftovers are deleted, orphans are deleted, and a new
/// manifest (sequence + 1) naming only the verified live runs is
/// atomically swapped in. Repair is lossy by design — the ledger records
/// exactly what was dropped — and refuses to run when the manifest
/// itself is corrupt, since the live set is then unknowable.
///
/// # Errors
///
/// IO failures, and `repair` on a corrupt manifest.
pub fn fsck(dir: &Path, repair: bool) -> Result<RecoveryReport, StoreError> {
    if !dir.is_dir() {
        let e = std::io::Error::new(std::io::ErrorKind::NotFound, "no such store directory");
        return Err(StoreError::io("open", dir, &e));
    }
    let scan = scan(dir, true)?;
    if !repair || scan.report.is_clean() {
        return Ok(scan.report);
    }
    if !scan.report.manifest_ok {
        return Err(StoreError::corrupt(
            &dir.join(MANIFEST_NAME),
            "manifest corrupt; repair cannot determine the live set",
        ));
    }
    append_ledger(dir, &scan.log);
    for path in scan.corrupt_paths.iter().chain(&scan.orphan_paths) {
        io::remove_file(path)?;
    }
    // Prior-quarantine leftovers are not in corrupt/orphan path lists;
    // sweep them directly.
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io("read_dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read_dir", dir, &e))?;
        if entry.file_name().to_string_lossy().ends_with(".quarantined") {
            io::remove_file(&entry.path())?;
        }
    }
    if let Some(m) = scan.manifest {
        if m.runs.len() != scan.live.len() {
            let mut next = m;
            next.seq += 1;
            next.runs = scan.live.iter().map(|r| r.meta.clone()).collect();
            next.publish(dir)?;
        }
    }
    Ok(scan.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_clean_and_conserves() {
        let report = RecoveryReport { manifest_ok: true, ..RecoveryReport::default() };
        assert!(report.is_clean());
        assert!(report.conserves());
        assert!(report.render().contains("status: clean"));
        assert!(report.conservation_line().contains("(conserved)"));
    }

    #[test]
    fn orphans_cap_samples_but_count_exactly() {
        let mut report = RecoveryReport { manifest_ok: true, ..RecoveryReport::default() };
        for i in 0..9 {
            report.bytes_scanned += 10;
            report.quarantine.record(QuarantineClass::OrphanFile, 10, format!("f{i}: orphan"));
        }
        let orphans = report.quarantine.get(QuarantineClass::OrphanFile).unwrap();
        assert_eq!((orphans.count, orphans.bytes), (9, 90));
        assert_eq!(orphans.samples.len(), dnsnoise_dns::quarantine::MAX_SAMPLES);
        assert!(report.conservation_line().contains(" 0 quarantined + 90 orphaned"));
        assert_eq!((report.problems(), report.runs_lost()), (9, 0));
        assert!(report.conserves());
        assert!(report.render().contains("quarantine[orphan-file]: 9 files / 90 bytes"));
    }

    #[test]
    fn verify_run_classifies_by_error_type() {
        use super::super::crc::crc32;
        use super::super::run::tests::{entries, out_of_order_image};

        // Every image matches its manifest entry in length and whole-file
        // CRC, so the verdict comes from the parse alone.
        let class_of = |image: &[u8]| {
            let meta = RunFileMeta {
                name: "run-00000001.bin".to_string(),
                len: image.len() as u64,
                crc: crc32(image),
            };
            verify_run(&meta, image).map(|_| ()).map_err(|(class, _)| class)
        };
        let clean = Run::build(&entries(40)).to_bytes();
        assert_eq!(class_of(&clean), Ok(()));

        let mut bad_footer = clean.clone();
        *bad_footer.last_mut().unwrap() ^= 0x01;
        assert_eq!(class_of(&bad_footer), Err(QuarantineClass::BadRunChecksum));

        // A flipped day-column byte under a recomputed footer: only the
        // run's own section CRC can catch it.
        let (magic, rest) = clean.split_first_chunk::<8>().unwrap();
        let mut body = rest[..rest.len() - 4].to_vec();
        *body.last_mut().unwrap() ^= 0x01;
        assert_eq!(class_of(&frame::seal(magic, &body)), Err(QuarantineClass::BadRunChecksum));

        assert_eq!(class_of(&out_of_order_image()), Err(QuarantineClass::BadRunLayout));
    }

    /// The three-pass verify `verify_run` replaced, kept as its oracle:
    /// the whole file checksummed against the manifest, then the parse
    /// that checksums the framed part and each section again.
    fn verify_run_three_pass(
        meta: &RunFileMeta,
        bytes: &[u8],
    ) -> Result<Run, (QuarantineClass, String)> {
        use super::super::crc::crc32;
        use super::super::run::tests::from_bytes_three_pass;

        if bytes.len() as u64 != meta.len {
            return Err((
                QuarantineClass::BadRunChecksum,
                format!("length {} != manifest length {}", bytes.len(), meta.len),
            ));
        }
        if crc32(bytes) != meta.crc {
            return Err((QuarantineClass::BadRunChecksum, "file CRC != manifest CRC".to_string()));
        }
        from_bytes_three_pass(bytes).map_err(|e| {
            let class = match e {
                FrameError::Checksum => QuarantineClass::BadRunChecksum,
                _ => QuarantineClass::BadRunLayout,
            };
            (class, e.to_string())
        })
    }

    /// Damaged copies of the run image `clean`, each named: one bit
    /// flipped in the header, in each section and in the footer; cuts;
    /// and size-field edits that keep the header's sizes summing to the
    /// image (so they partition it) or not. Positions come from `seed`.
    fn damaged(clean: &[u8], seed: u64) -> Vec<(String, Vec<u8>)> {
        let mut x = seed | 1;
        let mut pick = |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound.max(1) as u64) as usize
        };
        let field = |at: usize| u64::from_be_bytes(clean[at..at + 8].try_into().unwrap());
        let (n, name_len, rdata_len) = (field(8), field(16), field(24));
        let sizes = [(n + 1) * 4 + name_len, n * 2, (n + 1) * 4 + rdata_len, n * 8];
        let mut out = Vec::new();
        let mut flip = |what: String, at: usize, bit: usize| {
            let mut image = clean.to_vec();
            image[at] ^= 1 << bit;
            out.push((what, image));
        };
        for at in [pick(8), 8 + pick(24), 32 + pick(16)] {
            flip(format!("header byte {at}"), at, pick(8));
        }
        let mut start = 48;
        for (k, size) in sizes.into_iter().enumerate() {
            if size > 0 {
                let at = start + pick(size as usize);
                flip(format!("section {k} byte {at}"), at, pick(8));
            }
            start += size as usize;
        }
        let at = clean.len() - 1 - pick(4);
        flip(format!("footer byte {at}"), at, pick(8));
        for cut in [0, 3, 11, 47, 51, pick(clean.len()), clean.len() - 1] {
            out.push((format!("cut to {cut}"), clean[..cut.min(clean.len())].to_vec()));
        }
        let k = 1 + pick(8) as u64;
        let edits = [
            ("name_len +k, rdata_len -k (partitions)", name_len + k, rdata_len.wrapping_sub(k)),
            ("name_len -k, rdata_len +k (partitions)", name_len.wrapping_sub(k), rdata_len + k),
            ("name_len +1 (does not partition)", name_len + 1, rdata_len),
            ("rdata_len = MAX (overflows)", name_len, u64::MAX),
        ];
        for (what, name_len, rdata_len) in edits {
            let mut image = clean.to_vec();
            image[16..24].copy_from_slice(&name_len.to_be_bytes());
            image[24..32].copy_from_slice(&rdata_len.to_be_bytes());
            out.push((what.to_string(), image));
        }
        out
    }

    /// The one-pass verify against the three-pass oracle: the same
    /// encoder bytes, and the same verdict and message on every damaged
    /// image, with the manifest listing the damaged file's or the clean
    /// file's length and CRC, and with the footer left stale or
    /// recomputed so the deeper checks are reached.
    #[test]
    fn one_pass_verify_matches_the_three_pass_oracle() {
        use super::super::crc::crc32;
        use super::super::run::tests::{entries, from_bytes_three_pass, parse, to_bytes_sealed};

        for (case, n) in [0u32, 1, 2, 7, 40, 333, 2000].into_iter().enumerate() {
            let e: Vec<_> =
                entries(n).into_iter().map(|(key, day)| (key, day * (case as u64 + 3))).collect();
            let run = Run::build(&e);
            let clean = run.to_bytes();
            assert_eq!(clean, to_bytes_sealed(&run), "{n} entries");
            let clean_meta = |image: &[u8]| RunFileMeta {
                name: "run-00000001.bin".to_string(),
                len: image.len() as u64,
                crc: crc32(image),
            };
            let listed = clean_meta(&clean);
            for seed in 1..6u64 {
                for (what, image) in damaged(&clean, seed * 7919 + u64::from(n)) {
                    let resealed = match image.split_first_chunk::<8>() {
                        Some((magic, rest)) if rest.len() >= 4 => {
                            frame::seal(magic, &rest[..rest.len() - 4])
                        }
                        _ => image.clone(),
                    };
                    for (how, image) in [("stale footer", &image), ("resealed", &resealed)] {
                        for meta in [clean_meta(image), listed.clone()] {
                            let got = verify_run(&meta, image);
                            let want = verify_run_three_pass(&meta, image);
                            assert_eq!(got, want, "{n} entries, {what}, {how}, {meta:?}");
                        }
                        assert_eq!(
                            parse(image),
                            from_bytes_three_pass(image),
                            "{n} entries, {what}, {how}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fsck_on_a_missing_directory_is_an_io_error() {
        let dir = std::path::Path::new("/nonexistent/dnsnoise-fsck-test");
        assert!(matches!(fsck(dir, false), Err(StoreError::Io { .. })));
    }
}
