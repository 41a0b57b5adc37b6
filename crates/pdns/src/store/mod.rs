//! The unified pDNS storage API and the run-store engine.
//!
//! [`PdnsStore`] is the contract every rpDNS backend honours: observe
//! deduplicated records with first-seen days, answer point lookups and
//! zone-subtree scans, and expose the daily new/repeated counters and
//! the modelled storage footprint. Two backends implement it:
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
//! The two are interchangeable and bit-identical in every counter,
//! lookup, and scan — pinned by the backend-equivalence property tests —
//! so pipelines select a backend at run time via [`PdnsBackend`] without
//! touching results.

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

use dnsnoise_dns::{Name, Record, RrKey};

pub use engine::{RunStore, StoreConfig, StoreStats};
pub use error::StoreError;
pub use recovery::{fsck, RecoveryReport};
pub use run::Run;

use crate::rpdns::{DailyNewRrs, RpDns};
use keys::CompositeKey;

/// The storage contract shared by every rpDNS backend.
pub trait PdnsStore {
    /// Records one observation of `record` on `day`; returns `true` when
    /// the record is new to the store.
    fn observe(&mut self, record: &Record, day: u64) -> bool;

    /// [`PdnsStore::observe`] by the record's key, for a caller that holds
    /// keys rather than records (the streaming miner feeds the store its
    /// per-record table's first sightings).
    fn observe_key(&mut self, key: &RrKey, day: u64) -> bool;

    /// The day `key` was first seen, if stored.
    fn first_seen(&self, key: &RrKey) -> Option<u64>;

    /// Number of distinct records stored.
    fn len(&self) -> usize;

    /// Whether the store holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The daily new/repeated counters (index = day).
    fn daily_stats(&self) -> &[DailyNewRrs];

    /// Modelled storage footprint in bytes.
    fn storage_bytes(&self) -> u64;

    /// Every stored `(key, first-seen day)` whose name lies in `zone`'s
    /// subtree (the zone apex included), in canonical reverse-label key
    /// order — identical across backends. `Name::root()` scans the whole
    /// store.
    fn scan_prefix(&self, zone: &Name) -> Vec<(RrKey, u64)>;
}

impl PdnsStore for RpDns {
    fn observe(&mut self, record: &Record, day: u64) -> bool {
        RpDns::observe(self, record, day)
    }

    fn observe_key(&mut self, key: &RrKey, day: u64) -> bool {
        RpDns::observe_key(self, key, day)
    }

    fn first_seen(&self, key: &RrKey) -> Option<u64> {
        RpDns::first_seen(self, key)
    }

    fn len(&self) -> usize {
        RpDns::len(self)
    }

    fn daily_stats(&self) -> &[DailyNewRrs] {
        self.per_day()
    }

    fn storage_bytes(&self) -> u64 {
        RpDns::storage_bytes(self)
    }

    fn scan_prefix(&self, zone: &Name) -> Vec<(RrKey, u64)> {
        let mut hits: Vec<(CompositeKey, RrKey, u64)> = self
            .iter()
            .filter(|(key, _)| key.name.is_subdomain_of(zone))
            .map(|(key, day)| {
                (keys::encode_key(&key.name, key.qtype, &key.rdata), key.clone(), day)
            })
            .collect();
        hits.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        hits.into_iter().map(|(_, key, day)| (key, day)).collect()
    }
}

impl PdnsStore for RunStore {
    fn observe(&mut self, record: &Record, day: u64) -> bool {
        RunStore::observe(self, record, day)
    }

    fn observe_key(&mut self, key: &RrKey, day: u64) -> bool {
        RunStore::observe_parts(self, &key.name, key.qtype, &key.rdata, day)
    }

    fn first_seen(&self, key: &RrKey) -> Option<u64> {
        RunStore::first_seen(self, key)
    }

    fn len(&self) -> usize {
        RunStore::len(self)
    }

    fn daily_stats(&self) -> &[DailyNewRrs] {
        self.per_day()
    }

    fn storage_bytes(&self) -> u64 {
        RunStore::storage_bytes(self)
    }

    fn scan_prefix(&self, zone: &Name) -> Vec<(RrKey, u64)> {
        RunStore::scan_prefix(self, zone)
    }
}

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

/// A run-time-selected rpDNS backend. Both variants honour
/// [`PdnsStore`] bit-identically; pipelines hold this enum so `--store`
/// can pick the engine without generics leaking into every layer.
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
}

impl Default for PdnsBackend {
    fn default() -> Self {
        PdnsBackend::Memory(RpDns::new())
    }
}

impl PdnsStore for PdnsBackend {
    fn observe(&mut self, record: &Record, day: u64) -> bool {
        match self {
            PdnsBackend::Memory(s) => s.observe(record, day),
            PdnsBackend::Disk(s) => s.observe(record, day),
        }
    }

    fn observe_key(&mut self, key: &RrKey, day: u64) -> bool {
        match self {
            PdnsBackend::Memory(s) => PdnsStore::observe_key(s, key, day),
            PdnsBackend::Disk(s) => PdnsStore::observe_key(s, key, day),
        }
    }

    fn first_seen(&self, key: &RrKey) -> Option<u64> {
        match self {
            PdnsBackend::Memory(s) => s.first_seen(key),
            PdnsBackend::Disk(s) => s.first_seen(key),
        }
    }

    fn len(&self) -> usize {
        match self {
            PdnsBackend::Memory(s) => s.len(),
            PdnsBackend::Disk(s) => s.len(),
        }
    }

    fn daily_stats(&self) -> &[DailyNewRrs] {
        match self {
            PdnsBackend::Memory(s) => s.per_day(),
            PdnsBackend::Disk(s) => s.per_day(),
        }
    }

    fn storage_bytes(&self) -> u64 {
        match self {
            PdnsBackend::Memory(s) => s.storage_bytes(),
            PdnsBackend::Disk(s) => s.storage_bytes(),
        }
    }

    fn scan_prefix(&self, zone: &Name) -> Vec<(RrKey, u64)> {
        match self {
            PdnsBackend::Memory(s) => PdnsStore::scan_prefix(s, zone),
            PdnsBackend::Disk(s) => s.scan_prefix(zone),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::{QType, RData, Ttl};
    use std::net::Ipv4Addr;

    fn rr(name: &str, ip: u8) -> Record {
        Record::new(
            name.parse().unwrap(),
            QType::A,
            Ttl::from_secs(60),
            RData::A(Ipv4Addr::new(192, 0, 2, ip)),
        )
    }

    fn backends() -> Vec<PdnsBackend> {
        vec![
            PdnsBackend::create(BackendKind::Memory, None),
            PdnsBackend::create(BackendKind::Disk, None),
        ]
    }

    #[test]
    fn backend_kind_parses_and_prints() {
        assert_eq!("memory".parse::<BackendKind>().unwrap(), BackendKind::Memory);
        assert_eq!("disk".parse::<BackendKind>().unwrap(), BackendKind::Disk);
        assert!("floppy".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Disk.to_string(), "disk");
    }

    #[test]
    fn both_backends_agree_through_the_trait() {
        let records: Vec<Record> =
            (0..50u8).map(|i| rr(&format!("r{i}.zone{}.example", i % 3), i)).collect();
        let mut summaries = Vec::new();
        for mut store in backends() {
            for (i, r) in records.iter().enumerate() {
                store.observe(r, (i % 4) as u64);
                store.observe(r, 3);
            }
            let zone: Name = "zone1.example".parse().unwrap();
            summaries.push((
                store.len(),
                store.storage_bytes(),
                store.daily_stats().to_vec(),
                store.scan_prefix(&zone),
                store.first_seen(&records[7].key()),
            ));
        }
        assert_eq!(summaries[0], summaries[1], "memory and disk disagree");
        assert!(!summaries[0].3.is_empty(), "zone scan found nothing");
    }
}
