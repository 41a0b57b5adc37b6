//! The run-store engine and the run-time choice of rpDNS backend.
//!
//! Every rpDNS backend takes the same feed: each distinct record once,
//! by key, with the day it was first seen, answering whether it was new.
//! Two backends take it:
//!
//! * [`RpDns`] — the original hash-map store (`memory`);
//! * [`RunStore`] — a hash memtable + immutable columnar sorted runs
//!   with size-tiered compaction and a per-run hash index built on each
//!   run's first probe (`disk`), optionally mirroring runs to files. A
//!   probe hashes its key once (`index::key_hash`) and reads a few slots
//!   of the memtable's table and of each run's. Mirroring follows
//!   manifest-before-delete, and a run is written when a manifest first
//!   names it, so a run compacted away in the flush that made it never
//!   reaches the disk.
//!
//! The two are bit-identical in every counter, lookup, and scan — pinned
//! by the backend-equivalence property tests — so pipelines select a
//! backend at run time via [`PdnsBackend`] without touching results.

pub mod crc;
pub mod engine;
pub mod error;
pub mod frame;
pub mod index;
pub mod io;
pub mod keys;
pub mod manifest;
mod memtable;
pub mod recovery;
pub mod run;

use std::path::Path;

use dnsnoise_dns::RrKey;

pub use engine::{RunStore, StoreConfig, StoreStats};
pub use error::StoreError;
pub use recovery::{fsck, RecoveryReport};
pub use run::Run;

use crate::rpdns::RpDns;

/// Which [`PdnsBackend`] variant to build — the value of the CLI's
/// `--store` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The in-memory hash-map store ([`RpDns`]); the default, keeping
    /// existing invocations byte-identical.
    #[default]
    Memory,
    /// The run store ([`RunStore`]).
    Disk,
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "memory" => Ok(BackendKind::Memory),
            "disk" => Ok(BackendKind::Disk),
            other => Err(format!("unknown store backend `{other}` (expected memory|disk)")),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Memory => "memory",
            BackendKind::Disk => "disk",
        })
    }
}

/// A run-time-selected rpDNS backend. Both variants answer bit-identically;
/// pipelines hold this enum so `--store` can pick the engine without
/// generics leaking into every layer.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one long-lived value per pipeline; boxing would cost a deref on the hot observe path
pub enum PdnsBackend {
    /// The in-memory hash-map store.
    Memory(RpDns),
    /// The run store.
    Disk(RunStore),
}

impl PdnsBackend {
    /// Builds a backend of `kind`; `path` mirrors the disk backend's
    /// runs under the given directory (ignored for `memory`).
    pub fn create(kind: BackendKind, path: Option<&Path>) -> PdnsBackend {
        match kind {
            BackendKind::Memory => PdnsBackend::Memory(RpDns::new()),
            BackendKind::Disk => {
                let mut config = StoreConfig::default();
                if let Some(dir) = path {
                    config = config.with_spill(dir);
                }
                PdnsBackend::Disk(RunStore::with_config(config))
            }
        }
    }

    /// The backend kind in force.
    pub fn kind(&self) -> BackendKind {
        match self {
            PdnsBackend::Memory(_) => BackendKind::Memory,
            PdnsBackend::Disk(_) => BackendKind::Disk,
        }
    }

    /// The first persistence failure the backend latched, if any (always
    /// `None` for the memory backend). A latched store has degraded to
    /// memory-only: results stay exact, the on-disk mirror is stale —
    /// callers surface this as a non-zero exit.
    pub fn io_error(&self) -> Option<&StoreError> {
        match self {
            PdnsBackend::Memory(_) => None,
            PdnsBackend::Disk(s) => s.io_error(),
        }
    }

    /// Records one observation of the record `key` on `day`; returns
    /// `true` when the record is new to the store.
    pub fn observe_key(&mut self, key: &RrKey, day: u64) -> bool {
        match self {
            PdnsBackend::Memory(s) => s.observe_key(key, day),
            PdnsBackend::Disk(s) => s.observe_parts(&key.name, key.qtype, &key.rdata, day),
        }
    }

    /// Number of distinct records stored.
    pub fn len(&self) -> usize {
        match self {
            PdnsBackend::Memory(s) => s.len(),
            PdnsBackend::Disk(s) => s.len(),
        }
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Modelled storage footprint in bytes.
    pub fn storage_bytes(&self) -> u64 {
        match self {
            PdnsBackend::Memory(s) => s.storage_bytes(),
            PdnsBackend::Disk(s) => s.storage_bytes(),
        }
    }
}

impl Default for PdnsBackend {
    fn default() -> Self {
        PdnsBackend::Memory(RpDns::new())
    }
}

/// Whether `dir` already holds a store: a `MANIFEST` or a `run-*.bin`.
/// A missing or unreadable directory holds none. A store built fresh
/// numbers its runs and its `MANIFEST` from zero, so it must not be
/// pointed at a directory this returns `true` for: it would rename new
/// images over files the old `MANIFEST` still lists.
pub fn holds_store(dir: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else { return false };
    entries.flatten().any(|entry| {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        name == manifest::MANIFEST_NAME || (name.starts_with("run-") && name.ends_with(".bin"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::{QType, RData};
    use std::net::Ipv4Addr;

    fn key(name: &str, ip: u8) -> RrKey {
        RrKey {
            name: name.parse().unwrap(),
            qtype: QType::A,
            rdata: RData::A(Ipv4Addr::new(192, 0, 2, ip)),
        }
    }

    #[test]
    fn backend_kind_parses_and_prints() {
        assert_eq!("memory".parse::<BackendKind>().unwrap(), BackendKind::Memory);
        assert_eq!("disk".parse::<BackendKind>().unwrap(), BackendKind::Disk);
        assert!("floppy".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Disk.to_string(), "disk");
    }

    #[test]
    fn both_backends_agree_by_key() {
        let keys: Vec<RrKey> =
            (0..50u8).map(|i| key(&format!("r{i}.zone{}.example", i % 3), i)).collect();
        let mut summaries = Vec::new();
        for kind in [BackendKind::Memory, BackendKind::Disk] {
            let mut store = PdnsBackend::create(kind, None);
            let verdicts: Vec<(bool, bool)> = (keys.iter().enumerate())
                .map(|(i, k)| (store.observe_key(k, (i % 4) as u64), store.observe_key(k, 3)))
                .collect();
            summaries.push((store.len(), store.storage_bytes(), verdicts));
        }
        assert_eq!(summaries[0], summaries[1], "memory and disk disagree");
        assert_eq!(summaries[0].0, keys.len());
        assert!(summaries[0].2.iter().all(|&(first, again)| first && !again));
    }
}
