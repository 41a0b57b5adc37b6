//! Ingest's line path allocates nothing per event: each frame decodes
//! into a reused view in the stream's ring and its trace line renders from
//! that view into one reused buffer, so a whole capture costs a fixed
//! handful of allocations (the window, the ring's buffers growing to the
//! day's largest message, the ledger), however many events it holds.
//! Alone in its test binary, because it installs a global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dnsnoise_ingest::{framestream, pcap, EventStream, IngestConfig};
use dnsnoise_workload::{Scenario, ScenarioConfig};

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

/// The most allocations a whole capture may cost on the line path.
/// Measured 30 for each capture of the scale-0.05 Dec day below (seed 7,
/// 60,578 events).
const MAX_ALLOCATIONS: u64 = 64;

#[test]
fn a_capture_ingests_to_lines_in_a_fixed_number_of_allocations() {
    let day = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.05), 7).generate_day(0);
    let captures = [
        ("pcap", pcap::write_pcap(&day).unwrap()),
        ("dnstap", framestream::write_dnstap(&day).unwrap()),
    ];
    for (format, capture) in captures {
        let (events, n) = allocations(|| {
            let mut stream =
                EventStream::from_reader(&capture[..], &IngestConfig::default()).unwrap();
            stream.write_lines(std::io::sink()).unwrap();
            stream.finish().unwrap().events
        });
        assert_eq!(events, day.events.len() as u64, "{format}");
        assert!(n < MAX_ALLOCATIONS, "{format}: {n} allocations for {events} events");
    }
}
