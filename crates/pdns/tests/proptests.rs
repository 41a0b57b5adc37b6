//! Property-based tests for passive-DNS invariants.

use dnsnoise_dns::{Name, QType, RData, Record, RrKey, Ttl};
use dnsnoise_pdns::store::keys::{encode_key, CompositeKey};
use dnsnoise_pdns::{FpDnsSummary, RpDns, RunStore, StoreConfig, WildcardAggregator};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_record() -> impl Strategy<Value = Record> {
    (
        proptest::string::string_regex("[a-z0-9]{1,8}(\\.[a-z0-9]{1,8}){1,4}").unwrap(),
        any::<[u8; 4]>(),
        0u32..10_000,
    )
        .prop_map(|(name, ip, ttl)| {
            Record::new(
                name.parse::<Name>().unwrap(),
                QType::A,
                Ttl::from_secs(ttl),
                RData::A(Ipv4Addr::from(ip)),
            )
        })
}

/// A tiny engine configuration so even small proptest inputs exercise
/// memtable flushes and size-tiered compactions, not just the memtable.
fn tiny_config() -> StoreConfig {
    StoreConfig { memtable_cap: 8, fanout: 2, ..StoreConfig::default() }
}

/// The reference scan of `zone`: every distinct key of `records` in its
/// subtree with `RpDns`'s first-seen day, in composite-key order.
fn reference_scan(mem: &RpDns, records: &[Record], zone: &Name) -> Vec<(RrKey, u64)> {
    let mut hits: Vec<(CompositeKey, RrKey, u64)> = (records.iter().map(Record::key))
        .filter(|key| key.name.is_subdomain_of(zone))
        .map(|key| {
            let day = mem.first_seen(&key).expect("every record was observed");
            (encode_key(&key.name, key.qtype, &key.rdata), key, day)
        })
        .collect();
    hits.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    hits.dedup_by(|a, b| a.0 == b.0);
    hits.into_iter().map(|(_, key, day)| (key, day)).collect()
}

/// Asserts the run store is observationally identical to the `RpDns`
/// reference through every read surface: length, storage bytes, per-day
/// counters, `first_seen`, and scans in canonical order.
fn assert_stores_agree(mem: &RpDns, disk: &RunStore, records: &[Record]) {
    assert_eq!(mem.len(), disk.len(), "len diverged");
    assert_eq!(mem.storage_bytes(), disk.storage_bytes(), "storage_bytes diverged");
    assert_eq!(mem.per_day(), disk.per_day(), "per-day new/repeated counters diverged");
    let root = Name::root();
    let everything = reference_scan(mem, records, &root);
    assert_eq!(everything.len(), mem.len(), "the reference scan missed a stored record");
    assert_eq!(everything, disk.scan_prefix(&root), "full scan order diverged");
    for record in records {
        let key = record.key();
        assert_eq!(mem.first_seen(&key), disk.first_seen(&key), "first_seen diverged for {key}");
        if let Some(zone) = key.name.parent() {
            assert_eq!(
                reference_scan(mem, records, &zone),
                disk.scan_prefix(&zone),
                "zone scan diverged under {zone}"
            );
        }
    }
}

proptest! {
    /// The run store is observationally identical to the in-memory
    /// `RpDns` under random observation streams with duplicate keys
    /// across days (out of order, so a later sighting can carry an
    /// earlier day): identical novelty verdicts, `first_seen`, per-day
    /// new/repeated counters, storage bytes, and `scan_prefix` order. So
    /// is `RunStore::new()`, which never flushes, before and after
    /// `optimize` seals its memtable.
    #[test]
    fn backends_equivalent_under_observe_and_scan(
        records in proptest::collection::vec(arb_record(), 1..48),
        repeats in proptest::collection::vec(0usize..48, 0..48),
        days in proptest::collection::vec(0u64..5, 1..48),
    ) {
        let mut mem = RpDns::new();
        let mut disk = RunStore::with_config(tiny_config());
        let mut unflushed = RunStore::new();
        let stream = records.iter().chain(repeats.iter().map(|&r| &records[r % records.len()]));
        for (i, record) in stream.enumerate() {
            let day = days[i % days.len()];
            let mem_new = mem.observe(record, day);
            let disk_new = disk.observe(record, day);
            prop_assert_eq!(mem_new, disk_new, "observe novelty diverged at event {}", i);
            prop_assert_eq!(mem_new, unflushed.observe(record, day), "unflushed, event {}", i);
        }
        assert_stores_agree(&mem, &disk, &records);
        assert_stores_agree(&mem, &unflushed, &records);
        prop_assert_eq!(unflushed.stats().flushes, 0);
        // Replaying every record on a later day only reclassifies: counts
        // and storage stay fixed, repeated counters still match.
        for record in &records {
            mem.observe(record, 6);
            disk.observe(record, 6);
            unflushed.observe(record, 6);
        }
        assert_stores_agree(&mem, &disk, &records);
        unflushed.optimize();
        prop_assert_eq!(unflushed.stats().runs, 1);
        assert_stores_agree(&mem, &unflushed, &records);
    }

    /// Exact per-run lookups: whatever the key distribution — clumped,
    /// adversarial, or degenerate — every stored key is found in the live
    /// runs and again after `optimize` merges them, and every lookup
    /// agrees with the reference store. This pins that a run's hash index
    /// never reports a stored key absent, and that a key stored nowhere
    /// (probed against every live run, each with its own table) stays
    /// absent.
    #[test]
    fn sparse_index_lookups_never_miss(
        records in proptest::collection::vec(arb_record(), 1..64),
    ) {
        let config = StoreConfig { memtable_cap: 4, fanout: 2, ..StoreConfig::default() };
        let mut mem = RpDns::new();
        let mut disk = RunStore::with_config(config);
        for (i, record) in records.iter().enumerate() {
            mem.observe(record, (i % 3) as u64);
            disk.observe(record, (i % 3) as u64);
        }
        // A name observed under no record must stay absent.
        let absent: Name = "definitely.not.observed.invalid".parse().unwrap();
        let absent_key = RrKey {
            name: absent,
            qtype: QType::A,
            rdata: RData::A(Ipv4Addr::new(203, 0, 113, 7)),
        };
        for optimized in [false, true] {
            if optimized {
                disk.optimize();
            }
            for record in &records {
                let key = record.key();
                let expected = mem.first_seen(&key);
                prop_assert!(expected.is_some());
                prop_assert_eq!(disk.first_seen(&key), expected, "lookup missed {}", key);
            }
            prop_assert_eq!(disk.first_seen(&absent_key), None, "optimized: {}", optimized);
        }
    }

    /// rpDNS dedup is idempotent: replaying the same records never grows
    /// the store, and per-day counters conserve total observations.
    #[test]
    fn rpdns_dedup_idempotent(records in proptest::collection::vec(arb_record(), 1..60), days in 1u64..5) {
        let mut store = RpDns::new();
        for day in 0..days {
            for r in &records {
                store.observe(r, day);
            }
        }
        let distinct: std::collections::HashSet<RrKey> = records.iter().map(Record::key).collect();
        prop_assert_eq!(store.len(), distinct.len());
        let total: u64 = store.per_day().iter().map(|d| d.new_records + d.repeated_records).sum();
        prop_assert_eq!(total, days * records.len() as u64);
        let new_total: u64 = store.per_day().iter().map(|d| d.new_records).sum();
        prop_assert_eq!(new_total as usize, distinct.len());
        // First-seen is day 0 for everything (all appeared on day 0).
        for r in &records {
            prop_assert_eq!(store.first_seen(&r.key()), Some(0), "{} first seen later", r.key());
        }
    }

    /// Wildcard aggregation never increases the stored-entry count and
    /// conserves the record partition.
    #[test]
    fn aggregation_never_grows(records in proptest::collection::vec(arb_record(), 1..60)) {
        let mut agg = WildcardAggregator::new();
        // Rule over a zone built from the first record (if deep enough).
        if let Some(zone) = records[0].name.parent() {
            if zone.depth() >= 1 {
                agg.add_rule(zone, records[0].name.depth());
            }
        }
        let keys: Vec<RrKey> = records.iter().map(Record::key).collect();
        let distinct: std::collections::HashSet<&RrKey> = keys.iter().collect();
        let outcome = agg.aggregate(distinct.iter().copied());
        prop_assert_eq!(
            outcome.aggregated_records + outcome.passthrough_records,
            distinct.len() as u64
        );
        prop_assert!(outcome.stored_entries() <= distinct.len() as u64);
        prop_assert!(outcome.wildcard_entries <= outcome.aggregated_records);
    }

    /// The fpDNS counters always reconcile: records are the answers
    /// collected, NXDOMAINs the empty answer sections, and every record
    /// grows the storage by its shared rpDNS footprint plus the 16
    /// fpDNS-only bytes.
    #[test]
    fn fpdns_counters_reconcile(batches in proptest::collection::vec(proptest::collection::vec(arb_record(), 0..4), 1..30)) {
        let mut fpdns = FpDnsSummary::default();
        let mut expected_records = 0u64;
        let mut expected_nx = 0u64;
        for answers in &batches {
            let before = fpdns.storage_bytes;
            fpdns.collect(answers);
            expected_records += answers.len() as u64;
            if answers.is_empty() {
                expected_nx += 1;
            }
            let added: u64 = answers.iter().map(|rr| rr.storage_bytes() as u64 + 16).sum();
            prop_assert_eq!(fpdns.storage_bytes - before, added);
        }
        prop_assert_eq!(fpdns.total_records, expected_records);
        prop_assert_eq!(fpdns.total_responses, batches.len() as u64);
        prop_assert_eq!(fpdns.nx_responses, expected_nx);
    }
}
