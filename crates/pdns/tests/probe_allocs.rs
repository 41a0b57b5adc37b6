//! A store probe is allocation-free: `observe` of a record the store
//! already holds and `first_seen` — hit or miss, memtable or run — encode
//! their key into reused buffers, read each run's hash table and compare
//! borrowed columns. The tables themselves are built lazily: a run's
//! first probe allocates its table, once. Only a new record is given an
//! owned key, and once the memtable has flushed, that key is all a new
//! record allocates: the memtable's entry buffer and hash table keep
//! their capacity across flushes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use dnsnoise_dns::{QType, RData, Record, Ttl};
use dnsnoise_pdns::{RunStore, StoreConfig};

thread_local! {
    /// Allocations made by this thread (the test harness has others).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter, which neither allocates nor
// has a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

fn rr(i: u32) -> Record {
    Record::new(
        format!("h{i}.zone{}.example", i % 3).parse().unwrap(),
        QType::A,
        Ttl::from_secs(60),
        RData::A(Ipv4Addr::from(0x0a00_0000 + i)),
    )
}

#[test]
fn repeated_observes_and_first_seen_probes_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("dnsnoise-probe-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig { memtable_cap: 8, ..StoreConfig::default() }.with_spill(&dir);
    let mut built = RunStore::with_config(config.clone());
    for i in 0..20 {
        assert!(built.observe(&rr(i), 0));
    }
    drop(built);
    // The same store as a crashed process leaves it: every run reloaded
    // from its spilled image, so no run has built its table yet, and the
    // unflushed memtable is gone.
    let mut store = RunStore::open(&dir, config).expect("clean open");
    let stats = store.stats();
    assert!(stats.runs >= 2 && stats.memtable_keys == 0, "{stats:?}");

    // The first miss probes every run, allocating each run's table once
    // (the key buffers were sized on this thread while building).
    let absent = rr(99);
    let (got, n) = allocations(|| store.first_seen(&absent.key()));
    assert_eq!((got, n), (None, stats.runs as u64), "one allocation per run's table");
    // Replaying from the durable prefix refills the memtable.
    for i in store.observed()..20 {
        assert!(store.observe(&rr(i as u32), 0));
    }
    assert!(store.stats().memtable_keys > 0);

    // Entry 0 sits in the oldest run, entry 19 in the memtable; entry 99
    // is nowhere.
    let (in_run, in_memtable) = (rr(0), rr(19));
    let keys = [in_run.key(), in_memtable.key(), absent.key()];
    for record in [&in_run, &in_memtable] {
        let (fresh, n) = allocations(|| store.observe(record, 0));
        assert_eq!((fresh, n), (false, 0), "repeat observe of {}", record.name);
    }
    for (key, want) in keys.iter().zip([Some(0), Some(0), None]) {
        let (got, n) = allocations(|| store.first_seen(key));
        assert_eq!((got, n), (want, 0), "first_seen {}", key.name);
    }

    // A new record is the one probe that builds an owned key.
    let (fresh, n) = allocations(|| store.observe(&absent, 0));
    assert!(fresh && n > 0, "a new record must be stored ({n} allocations)");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_new_record_after_the_first_flush_allocates_only_its_key() {
    let mut store =
        RunStore::with_config(StoreConfig { memtable_cap: 8, ..StoreConfig::default() });
    // Every name below has the same length, so the probe buffers this
    // thread sizes on the first observe never grow.
    for i in 10..18 {
        assert!(store.observe(&rr(i), 0));
    }
    assert_eq!((store.stats().flushes, store.stats().memtable_keys), (1, 0));
    // The first probe of the flushed run builds its table.
    assert_eq!(store.first_seen(&rr(99).key()), None);

    // The next seven records fill the memtable up to one below its cap:
    // each allocates its name and rdata columns and nothing else.
    for i in 18..25 {
        let record = rr(i);
        let (fresh, n) = allocations(|| store.observe(&record, 0));
        assert_eq!((fresh, n), (true, 2), "new record {i}");
    }
    assert_eq!((store.stats().flushes, store.stats().memtable_keys), (1, 7));
}
