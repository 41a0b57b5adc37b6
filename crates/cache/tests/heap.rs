//! A cache's capacity bounds its entries and reserves nothing: the heap a
//! `TtlLru` holds follows the entries it holds. Alone in its test binary
//! because it installs a global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;

use dnsnoise_cache::{CacheKey, InsertPriority, TtlLru};
use dnsnoise_dns::{QType, RData, Record, Timestamp, Ttl};

thread_local! {
    /// Live heap bytes allocated by this thread (the harness has others).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter, which neither allocates nor
// has a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|n| n.set(n.get() + layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` leaves allocated on this thread, in bytes.
fn heap_of<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let value = f();
    (value, LIVE.with(Cell::get) - before)
}

/// The default member capacity of a simulated cluster
/// (`SimConfig::default().capacity_each`).
const CAPACITY: usize = 50_000;

#[test]
fn a_cache_holds_heap_in_proportion_to_its_entries() {
    let (empty, reserved) = heap_of(|| TtlLru::new(CAPACITY));
    drop(empty);
    assert!(reserved < 1024, "an empty cache reserves {reserved} B");

    // Keys and answers are made first, so only the cache's own tables
    // (slab, recency links, index) are weighed; the cache stores clones
    // of the shared blocks.
    const ENTRIES: usize = 1_000;
    let entries: Vec<(CacheKey, Arc<[Record]>)> = (0..ENTRIES)
        .map(|i| {
            let name: dnsnoise_dns::Name = format!("h{i}.example.com").parse().unwrap();
            let answer = Record::new(
                name.clone(),
                QType::A,
                Ttl::from_secs(300),
                RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            );
            (CacheKey::new(name, QType::A), Arc::from(vec![answer]))
        })
        .collect();
    let (cache, held) = heap_of(|| {
        let mut cache = TtlLru::new(CAPACITY);
        for (key, answers) in &entries {
            let evicted = cache.insert(
                key.clone(),
                Arc::clone(answers),
                Timestamp::from_secs(0),
                InsertPriority::Normal,
            );
            assert!(evicted.is_empty());
        }
        cache
    });
    assert_eq!(cache.len(), ENTRIES);
    // About 130 B an entry (a 64-byte slot, a 32-byte index bucket, each
    // table at most twice its entries); a 50,000-entry index reserved up
    // front was ≈ 2 MiB on its own.
    let per_entry = held / ENTRIES as i64;
    assert!(per_entry <= 256, "{ENTRIES} entries hold {held} B ({per_entry} B each)");
}
