//! The rpDNS store: a hash memtable over immutable columnar sorted runs.
//!
//! [`RunStore`] is the one store every rpDNS feed fills: each distinct
//! record once, by key, with the day it was first seen, answering whether
//! it was new. It keeps size-tiered compaction and a per-run hash index
//! built on each run's first probe. A probe hashes its key once
//! (`index::key_hash`) and reads a few slots of the memtable's table and
//! of each run's. Given a spill directory it mirrors its runs to files,
//! manifest-before-delete; a run is written when a manifest first names
//! it, so a run compacted away in the flush that made it never reaches
//! the disk. Without one it is the same engine, memory-only.
//!
//! The property tests hold it bit-identical to the crate's hash-map
//! reference store in every counter, lookup and scan.

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

pub use engine::{RunStore, StoreConfig, StoreStats};
pub use error::StoreError;
pub use recovery::{fsck, RecoveryReport};
pub use run::Run;

/// The value of the CLI's `--store` flag, echoed in its store summary. It
/// picks no engine: every store is a [`RunStore`], and a `--store-path`
/// makes it durable whether or not `disk` is named.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// No spill directory (the default); refuses a `--store-path`.
    #[default]
    Memory,
    /// With or without a spill directory; what a `--store-path` alone means.
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

/// The run store under its old name. Kept only because the benchmark
/// harness still names it; it goes when the benchmark stops doing so.
#[doc(hidden)]
pub type PdnsBackend = RunStore;

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
    use dnsnoise_dns::{QType, RData, RrKey};
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
    fn the_store_agrees_by_key_with_and_without_a_spill_directory() {
        let dir =
            std::env::temp_dir().join(format!("dnsnoise-store-by-key-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let keys: Vec<RrKey> =
            (0..50u8).map(|i| key(&format!("r{i}.zone{}.example", i % 3), i)).collect();
        let mut summaries = Vec::new();
        for spill in [None, Some(&dir)] {
            // A small memtable, so the feed flushes and compacts.
            let config = StoreConfig { memtable_cap: 8, fanout: 2, spill: spill.cloned() };
            let mut store = RunStore::with_config(config);
            let verdicts: Vec<(bool, bool)> = (keys.iter().enumerate())
                .map(|(i, k)| (store.observe_key(k, (i % 4) as u64), store.observe_key(k, 3)))
                .collect();
            store.optimize();
            assert!(store.io_error().is_none());
            let first_seen: Vec<Option<u64>> = keys.iter().map(|k| store.first_seen(k)).collect();
            summaries.push((
                store.len(),
                store.storage_bytes(),
                store.per_day().to_vec(),
                verdicts,
                first_seen,
            ));
        }
        assert_eq!(summaries[0], summaries[1], "the spill directory moved an answer");
        assert_eq!(summaries[0].0, keys.len());
        assert!(summaries[0].3.iter().all(|&(first, again)| first && !again));
        assert!(holds_store(&dir));
        let reopened =
            RunStore::open(&dir, StoreConfig { memtable_cap: 8, fanout: 2, spill: None });
        assert_eq!(reopened.unwrap().len(), keys.len(), "the directory lost records");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
