//! The spill directory a fixed observe sequence leaves behind, file by
//! file: every name, length and CRC-32 after 300 observes at tiny tiers,
//! and again after `optimize`, against `golden/store_dir.txt`. The
//! fixture was written by the engine that still spilled every run image
//! at push time, so it pins that the write path may skip images no
//! manifest names but never moves a published byte. There is no rebless
//! path: a failing diff means the on-disk store changed.

use std::fmt::Write as _;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::path::{Path, PathBuf};

use dnsnoise_dns::{Name, QType, RData, Record, Ttl};
use dnsnoise_pdns::store::crc::crc32;
use dnsnoise_pdns::store::io::failpoints;
use dnsnoise_pdns::{RunStore, StoreConfig};

const GOLDEN: &str = include_str!("golden/store_dir.txt");

fn tiny_config() -> StoreConfig {
    StoreConfig { memtable_cap: 8, fanout: 2, ..StoreConfig::default() }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dnsnoise-store-dir-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Record `id` in one of three rdata shapes, in one of seven zones.
fn record(id: u32) -> Record {
    let name: Name = format!("h{id}.z{}.example", id % 7).parse().unwrap();
    let (qtype, rdata) = match id % 3 {
        0 => (QType::A, RData::A(Ipv4Addr::from(0x0a00_0000 + id))),
        1 => (QType::Aaaa, RData::Aaaa(Ipv6Addr::from(u128::from(id)))),
        _ => (QType::Cname, RData::Cname(format!("e{id}.cdn.example").parse().unwrap())),
    };
    Record::new(name, qtype, Ttl::from_secs(300), rdata)
}

/// 300 observes over 180 records across three days: a xorshift picks
/// each record, so about a third of the observes repeat one.
fn workload() -> Vec<(Record, u64)> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..300u64)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (record((state % 180) as u32), i / 100)
        })
        .collect()
}

/// The store's run counters, then `name len crc` for every file in `dir`.
fn census(store: &RunStore, dir: &Path) -> String {
    let stats = store.stats();
    let mut out = format!(
        "runs={} flushes={} compactions={}\n",
        stats.runs, stats.flushes, stats.compactions
    );
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    for (name, bytes) in files {
        writeln!(out, "{name} {} {:08x}", bytes.len(), crc32(&bytes)).unwrap();
    }
    out
}

#[test]
fn the_spill_directory_matches_the_golden_census() {
    let dir = temp_dir("golden");
    let mut store = RunStore::with_config(tiny_config().with_spill(&dir));
    for (record, day) in workload() {
        store.observe(&record, day);
    }
    let mut got = format!("# after 300 observes\n{}", census(&store, &dir));
    store.optimize();
    got.push_str(&format!("# after optimize\n{}", census(&store, &dir)));
    assert_eq!(store.io_error(), None);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(got, GOLDEN, "the spill directory moved; got:\n{got}");

    // Sixteen new records at cap 8 / fanout 2: the first flush publishes
    // run 0; the second flushes run 1, which the same flush merges with
    // run 0 into run 2. Run 1 is never written, so the IO is two run
    // images and two manifests (four sites each: write, fsync, rename,
    // directory fsync) and the unlink of run 0 after the second manifest.
    let dir = temp_dir("sites");
    let mut store = RunStore::with_config(tiny_config().with_spill(&dir));
    failpoints::arm(u64::MAX, false);
    for id in 0..16 {
        assert!(store.observe(&record(id), 0));
    }
    let sites = failpoints::disarm();
    let stats = store.stats();
    assert_eq!((stats.runs, stats.flushes, stats.compactions), (1, 2, 1));
    assert_eq!(sites, 2 * 4 + 2 * 4 + 1, "IO sites of 16 observes");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["MANIFEST", "run-00000002.bin"]);
    std::fs::remove_dir_all(&dir).ok();
}
