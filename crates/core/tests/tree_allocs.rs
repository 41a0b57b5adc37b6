//! The all-day tree's allocation budget: a fold that finds no new row
//! allocates nothing, and a fold of new names allocates at most two
//! blocks per node it adds, amortised. Alone in its test binary, because
//! it installs a global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use dnsnoise_core::DomainTree;
use dnsnoise_dns::{Name, QType, RData};
use dnsnoise_resolver::RrDayStats;

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

/// Books records `range` of a day: a few wide zones of hash-like hosts
/// under a handful of registered domains, two records per host.
fn book(stats: &mut RrDayStats, range: std::ops::Range<u32>) {
    for i in range {
        let name: Name =
            format!("h{:x}.z{}.site{}.com", i.wrapping_mul(2_654_435_761), i % 40, i % 7)
                .parse()
                .unwrap();
        for k in 0..2 {
            stats.record(&name, QType::A, &RData::A(Ipv4Addr::from(i * 2 + k)), i % 3 == 0);
        }
    }
}

#[test]
fn a_fold_with_no_new_rows_allocates_nothing() {
    let mut stats = RrDayStats::new();
    book(&mut stats, 0..2_000);
    let mut tree = DomainTree::from_day_stats(&stats);
    // Repeats move counters, not rows; decolouring is what a close's
    // Algorithm 1 leaves behind.
    book(&mut stats, 0..500);
    for id in (0..tree.node_count()).step_by(3) {
        tree.decolor(id);
    }
    let ((), n) = allocations(|| tree.fold(&stats));
    assert_eq!(n, 0, "a fold without new rows allocated {n} times");
    assert_eq!(tree.black_count(), 2_000, "every owner is black again");
}

#[test]
fn folding_new_names_allocates_at_most_two_blocks_per_new_node() {
    let mut stats = RrDayStats::new();
    book(&mut stats, 0..1_000);
    let mut tree = DomainTree::from_day_stats(&stats);
    book(&mut stats, 1_000..9_000);
    let before = tree.node_count();
    let ((), n) = allocations(|| tree.fold(&stats));
    let added = (tree.node_count() - before) as u64;
    assert!(added >= 8_000, "the fold added {added} nodes");
    assert!(n <= 2 * added, "{n} allocations for {added} new nodes");
}
