//! pDNS storage-engine throughput versus classic map baselines, written
//! to `BENCH_pdns.json`.
//!
//! Usage:
//!
//! ```text
//! bench_pdns [--records <n>] [--lookups <n>] [--out <file>]
//! ```
//!
//! The workload is a synthetic passive-DNS day in the paper's disposable
//! shape: `--records` unique one-shot subdomains spread over a fixed set
//! of vendor zones, observed across a 30-day window. Three stores answer
//! the same two questions — "when was this exact RR first seen?" (point
//! lookup) and "what lives under this zone?" (ordered prefix scan):
//!
//! * the [`RunStore`] engine behind `--store disk`, compacted to one
//!   sorted run whose sparse index narrows a key to a bounded window;
//! * a `BTreeMap` over the same reverse-label composite keys — the
//!   classic ordered baseline the engine must beat;
//! * a `HashMap<RrKey, day>` — the point-lookup speed ceiling, which
//!   cannot scan a zone without filtering and sorting the whole table.
//!
//! Correctness is gated before the stopwatch: the engine must agree with
//! an `RpDns` reference on every sampled lookup (hits and misses) and
//! must return byte-identical scans to the `BTreeMap` on every zone.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::process::ExitCode;

use dnsnoise_bench::util::{make_records, measure, zone_name, DAYS, RUNS, ZONES};
use dnsnoise_dns::{Name, QType, RData, RrKey};
use dnsnoise_pdns::store::keys::{self, CompositeKey};
use dnsnoise_pdns::{RpDns, RunStore};

/// The composite-key range bounds covering `zone`'s subtree.
fn zone_bounds(zone: &Name) -> (CompositeKey, Option<CompositeKey>) {
    let prefix = keys::encode_name(zone);
    let upper = keys::prefix_upper_bound(&prefix).map(|hi| (hi, 0u16, Vec::new()));
    ((prefix, 0u16, Vec::new()), upper)
}

fn btree_scan(map: &BTreeMap<CompositeKey, u64>, zone: &Name) -> Vec<(RrKey, u64)> {
    let (lo, hi) = zone_bounds(zone);
    let upper = match &hi {
        Some(hi) => Excluded(hi),
        None => Unbounded,
    };
    map.range((Included(&lo), upper))
        .map(|(key, &day)| (keys::decode_key(key).expect("bench keys decode"), day))
        .collect()
}

fn hashmap_scan(map: &HashMap<RrKey, u64>, zone: &Name) -> Vec<(RrKey, u64)> {
    let mut hits: Vec<(CompositeKey, u64)> = map
        .iter()
        .filter(|(key, _)| key.name.is_subdomain_of(zone))
        .map(|(key, &day)| (keys::encode_key(&key.name, key.qtype, &key.rdata), day))
        .collect();
    hits.sort_unstable();
    hits.iter()
        .map(|(key, day)| (keys::decode_key(key).expect("bench keys decode"), *day))
        .collect()
}

fn main() -> ExitCode {
    let mut records_n = 1_200_000usize;
    let mut lookups_n = 200_000usize;
    let mut out_path = String::from("BENCH_pdns.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--records" => records_n = value("--records").parse().expect("numeric --records"),
            "--lookups" => lookups_n = value("--lookups").parse().expect("numeric --lookups"),
            "--out" => out_path = value("--out"),
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("usage: bench_pdns [--records <n>] [--lookups <n>] [--out <file>]");
                return ExitCode::FAILURE;
            }
        }
    }

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("synthesizing {records_n} disposable records over {ZONES} zones ({cpus} cpu(s)) ...");
    let records = make_records(records_n);

    eprintln!("building the run store (observe + compact + optimize) ...");
    let mut store = RunStore::new();
    for (record, day) in &records {
        store.observe(record, *day);
    }
    let build_stats = store.stats();
    store.optimize();
    let stats = store.stats();
    eprintln!(
        "  {} flushes, {} compactions; optimized to {} run(s)",
        build_stats.flushes, build_stats.compactions, stats.runs
    );

    eprintln!("building the RpDns reference and the BTree/HashMap baselines ...");
    let mut reference = RpDns::new();
    let mut btree: BTreeMap<CompositeKey, u64> = BTreeMap::new();
    let mut hashmap: HashMap<RrKey, u64> = HashMap::with_capacity(records_n);
    for (record, day) in &records {
        reference.observe(record, *day);
        let key = record.key();
        btree.entry(keys::encode_key(&key.name, key.qtype, &key.rdata)).or_insert(*day);
        hashmap.entry(key).or_insert(*day);
    }
    assert_eq!(store.len(), reference.len(), "engine and reference disagree on distinct RRs");
    assert_eq!(store.len(), btree.len(), "baseline key encoding collides");
    assert_eq!(stats.runs, 1, "optimize() must leave a single run");

    // The sampled point-lookup workload: every (n/lookups)-th stored key,
    // plus one guaranteed miss per eight hits.
    let step = (records_n / lookups_n).max(1);
    let mut probes: Vec<RrKey> = records.iter().step_by(step).map(|(r, _)| r.key()).collect();
    let misses = probes.len() / 8;
    for i in 0..misses {
        probes.push(RrKey {
            name: format!("zz{i:06}-zz.{}", zone_name(i % ZONES)).parse().expect("miss name"),
            qtype: QType::A,
            rdata: RData::A(std::net::Ipv4Addr::new(192, 0, 2, 1)),
        });
    }
    let zones: Vec<Name> = (0..ZONES).map(zone_name).collect();

    // Correctness gates before the stopwatch: the engine agrees with the
    // RpDns reference on every probe, and scans byte-identically to the
    // ordered baseline on every zone (which together cover every record).
    for probe in &probes {
        assert_eq!(store.first_seen(probe), reference.first_seen(probe), "lookup mismatch");
    }
    let mut scanned_total = 0usize;
    for zone in &zones {
        let engine = store.scan_prefix(zone);
        assert_eq!(engine, btree_scan(&btree, zone), "scan mismatch under {zone}");
        scanned_total += engine.len();
    }
    assert_eq!(scanned_total, records_n, "the {ZONES} zones must partition the dataset");

    eprintln!("measuring point lookups ({} probes incl. {misses} misses) ...", probes.len());
    let (point_store, check_a) =
        measure(probes.len(), || probes.iter().filter_map(|k| store.first_seen(k)).sum::<u64>());
    let (point_btree, check_b) = measure(probes.len(), || {
        probes
            .iter()
            .filter_map(|k| btree.get(&keys::encode_key(&k.name, k.qtype, &k.rdata)))
            .sum::<u64>()
    });
    let (point_hash, check_c) =
        measure(probes.len(), || probes.iter().filter_map(|k| hashmap.get(k)).sum::<u64>());
    assert_eq!(check_a, check_b);
    assert_eq!(check_b, check_c);
    eprintln!("  run-store {:>12.0} lookups/s", point_store.per_sec);
    eprintln!("  btree     {:>12.0} lookups/s", point_btree.per_sec);
    eprintln!("  hashmap   {:>12.0} lookups/s", point_hash.per_sec);

    eprintln!("measuring zone-prefix scans ({ZONES} zones, {scanned_total} entries/sweep) ...");
    let (scan_store, hits_a) = measure(scanned_total, || {
        zones.iter().map(|z| black_box(store.scan_prefix(z)).len() as u64).sum::<u64>()
    });
    let (scan_btree, hits_b) = measure(scanned_total, || {
        zones.iter().map(|z| black_box(btree_scan(&btree, z)).len() as u64).sum::<u64>()
    });
    let (scan_hash, hits_c) = measure(scanned_total, || {
        zones.iter().map(|z| black_box(hashmap_scan(&hashmap, z)).len() as u64).sum::<u64>()
    });
    assert_eq!(hits_a, scanned_total as u64);
    assert_eq!(hits_b, hits_a);
    assert_eq!(hits_c, hits_a);
    eprintln!("  run-store {:>12.0} entries/s", scan_store.per_sec);
    eprintln!("  btree     {:>12.0} entries/s", scan_btree.per_sec);
    eprintln!("  hashmap   {:>12.0} entries/s", scan_hash.per_sec);

    // The acceptance bar: the run-store engine beats the ordered
    // baseline on both access paths at this scale.
    assert!(
        point_store.secs < point_btree.secs,
        "run-store point lookups ({:.4}s) must beat the BTree baseline ({:.4}s)",
        point_store.secs,
        point_btree.secs
    );
    assert!(
        scan_store.secs < scan_btree.secs,
        "run-store scans ({:.4}s) must beat the BTree baseline ({:.4}s)",
        scan_store.secs,
        scan_btree.secs
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"pdns\",");
    let _ = writeln!(json, "  \"records\": {records_n},");
    let _ = writeln!(json, "  \"zones\": {ZONES},");
    let _ = writeln!(json, "  \"days\": {DAYS},");
    let _ = writeln!(json, "  \"probes\": {},", probes.len());
    let _ = writeln!(json, "  \"probe_misses\": {misses},");
    let _ = writeln!(json, "  \"runs_per_measurement\": {RUNS},");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(
        json,
        "  \"store\": {{\"memtable_cap\": {}, \"fanout\": {}}},",
        store.config().memtable_cap,
        store.config().fanout
    );
    let _ = writeln!(
        json,
        "  \"build\": {{\"flushes\": {}, \"compactions\": {}, \"runs_before_optimize\": {}}},",
        build_stats.flushes, build_stats.compactions, build_stats.runs
    );
    let _ = writeln!(json, "  \"optimized\": {{\"runs\": {}}},", stats.runs);
    let _ = writeln!(json, "  \"storage_bytes\": {},", store.storage_bytes());
    let _ = writeln!(
        json,
        "  \"point_lookup\": {{\"run_store\": {{\"secs\": {:.4}, \"lookups_per_sec\": {:.0}}}, \
         \"btree\": {{\"secs\": {:.4}, \"lookups_per_sec\": {:.0}}}, \
         \"hashmap\": {{\"secs\": {:.4}, \"lookups_per_sec\": {:.0}}}}},",
        point_store.secs,
        point_store.per_sec,
        point_btree.secs,
        point_btree.per_sec,
        point_hash.secs,
        point_hash.per_sec
    );
    let _ = writeln!(
        json,
        "  \"point_speedup_over_btree\": {:.2},",
        point_btree.secs / point_store.secs
    );
    let _ = writeln!(
        json,
        "  \"zone_scan\": {{\"run_store\": {{\"secs\": {:.4}, \"entries_per_sec\": {:.0}}}, \
         \"btree\": {{\"secs\": {:.4}, \"entries_per_sec\": {:.0}}}, \
         \"hashmap\": {{\"secs\": {:.4}, \"entries_per_sec\": {:.0}}}}},",
        scan_store.secs,
        scan_store.per_sec,
        scan_btree.secs,
        scan_btree.per_sec,
        scan_hash.secs,
        scan_hash.per_sec
    );
    let _ =
        writeln!(json, "  \"scan_speedup_over_btree\": {:.2}", scan_btree.secs / scan_store.secs);
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write BENCH_pdns.json");
    eprintln!("wrote {out_path}");
    ExitCode::SUCCESS
}
