//! Closing a streamed day never raises the live heap: `finish` drops the
//! simulator, whose caches are the largest block the stream holds by the
//! day's end, before the store's final merge and the last Algorithm 1
//! walk allocate. Alone in its test binary because it installs a global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use dnsnoise_core::{DailyPipeline, Miner, MinerConfig};
use dnsnoise_pdns::{RunStore, StoreConfig};
use dnsnoise_stream::{StreamConfig, StreamMiner};
use dnsnoise_workload::{Scenario, ScenarioConfig};

thread_local! {
    /// Live heap bytes allocated by this thread (the harness has others).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has read since the last [`peak_of`] began.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is two thread-local counters, which neither allocate nor
// have a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.with(|n| {
            n.set(n.get() + layout.size() as i64);
            n.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
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

/// What `f` returns, and how far this thread's live heap rose above its
/// level at the call while `f` ran, in bytes (0 if it never rose).
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let value = f();
    (value, PEAK.with(Cell::get) - start)
}

fn trained_miner(scenario: &Scenario) -> Miner {
    let mut pipeline = DailyPipeline::new(MinerConfig::default());
    let _ = pipeline.run_day(scenario, 0);
    pipeline.into_miner().expect("day 0 trains the model")
}

/// The live-heap rise during `finish` of a scale-0.05 Dec day streamed
/// into a store that spills under `spill`, if given.
fn finish_rise(spill: Option<PathBuf>) -> i64 {
    let s = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.05), 7);
    let miner = trained_miner(&s);
    let trace = s.generate_day(1);
    let store = RunStore::with_config(StoreConfig { spill, ..StoreConfig::default() });
    let mut stream = StreamMiner::new(StreamConfig::default(), &miner)
        .ground_truth(s.ground_truth())
        .with_store(store);
    for event in &trace.events {
        stream.push(event);
    }
    let ((report, store), rise) = peak_of(|| stream.finish());
    assert!(report.conserves(), "{}", report.conservation_line());
    assert_eq!(report.rpdns_store_error, None);
    assert!(store.len() > 1000, "a scale-0.05 day stores {} records", store.len());
    rise
}

#[test]
fn finish_never_raises_the_live_heap_without_a_spill_directory() {
    let rise = finish_rise(None);
    assert!(rise <= 0, "finish raised the live heap {rise} B above its start");
}

#[test]
fn finish_never_raises_the_live_heap_with_a_spill_directory() {
    let dir = std::env::temp_dir().join(format!("dnsnoise-finish-heap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rise = finish_rise(Some(dir.clone()));
    std::fs::remove_dir_all(&dir).expect("the spill directory exists");
    assert!(rise <= 0, "finish raised the live heap {rise} B above its start");
}
