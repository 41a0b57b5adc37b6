//! What a replayed day leaves in the simulator is its cached answer sets,
//! and one of those costs what it holds: a slab slot, an index cell of
//! four bytes and its records, none of them paying for a key copy or for
//! the largest record data. Disposable names are one-shot, so by a day's
//! end most of these entries are never read again. Alone in its test
//! binary because it installs a global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dnsnoise_resolver::{ResolverSim, SimConfig};
use dnsnoise_workload::{Scenario, ScenarioConfig};

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

#[test]
fn a_replayed_day_holds_at_most_224_bytes_per_cached_answer_set() {
    let s = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.05), 7);
    let trace = s.generate_day(1);
    let mut sim = ResolverSim::new(SimConfig::default());
    // The report and the trace stay alive: only what the simulator alone
    // holds is freed with it.
    let report = sim.day(&trace).ground_truth(s.ground_truth()).run();
    let entries = sim.cluster().len();
    assert!(entries > 4_000, "a scale-0.05 day caches {entries} answer sets");
    let before = LIVE.with(Cell::get);
    drop(sim);
    let freed = before - LIVE.with(Cell::get);
    let per_entry = freed / entries as i64;
    // 206 B measured: a 64-byte slot, an index cell and an answer block
    // of 48-byte records each. A key copied into a 32-byte index bucket
    // made it 253 B, 80-byte records 244 B, and both 290 B.
    assert!(
        per_entry <= 224,
        "dropping the simulator freed {freed} B over {entries} entries ({per_entry} B each)"
    );
    assert!(report.rr_stats.len() > entries / 2, "the report outlives the simulator");
}
