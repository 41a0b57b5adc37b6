//! Ingesting a capture from a reader holds a fixed window, not the
//! capture: the live heap's high-water mark stays under a bound that does
//! not depend on the capture's length. The capture here is tens of MiB of
//! repeated frames produced as they are read, so the test itself never
//! holds it either.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read};

use dnsnoise_ingest::{pcap, CaptureFormat, EventStream, IngestConfig};

thread_local! {
    /// Bytes this thread holds on the heap (the test harness has others).
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last reset.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct PeakCounting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is two thread-local counters, which neither allocate nor
// have destructors.
unsafe impl GlobalAlloc for PeakCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.with(|n| {
            n.set(n.get() + layout.size());
            n.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get().saturating_sub(layout.size())));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakCounting = PeakCounting;

/// The most heap `f` holds at once beyond what was live when it began.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let value = f();
    (value, PEAK.with(Cell::get) - before)
}

/// A pcap capture of `len` bytes: a global header, then one block of
/// records over and over (the last one cut short), made as it is read.
struct Repeating {
    header: Vec<u8>,
    block: Vec<u8>,
    at: usize,
    len: usize,
}

impl Repeating {
    fn new(len: usize) -> Repeating {
        let capture = common::capture(&common::trace(500), CaptureFormat::Pcap);
        let (header, block) = capture.split_at(pcap::GLOBAL_HEADER_LEN);
        Repeating { header: header.to_vec(), block: block.to_vec(), at: 0, len }
    }
}

impl Read for Repeating {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let (source, at) = match self.at.checked_sub(self.header.len()) {
            None => (&self.header, self.at),
            Some(past) => (&self.block, past % self.block.len()),
        };
        let n = buf.len().min(source.len() - at).min(self.len - self.at);
        buf[..n].copy_from_slice(&source[at..at + n]);
        self.at += n;
        Ok(n)
    }
}

const MIB: usize = 1 << 20;
/// The live-heap ceiling a windowed ingest must stay under: its window is
/// a quarter of it.
const BOUND: usize = 4 * MIB;

/// Ingests a `len`-byte repeating capture, reading it through the stream's
/// window or (`whole`) first into memory, as `std::fs::read` would; the
/// events recovered and the peak live heap.
fn ingest(len: usize, whole: bool) -> (u64, usize) {
    let config = IngestConfig::default();
    let (events, peak) = peak_heap(|| {
        let mut source = Repeating::new(len);
        let held;
        let stream = if whole {
            let mut bytes = Vec::new();
            source.read_to_end(&mut bytes).unwrap();
            held = bytes;
            EventStream::new(&held, &config)
        } else {
            EventStream::from_reader(source, &config)
        };
        let mut stream = stream.unwrap();
        let events = stream.by_ref().count() as u64;
        let report = stream.finish().unwrap();
        assert_eq!((report.bytes_total, report.events), (len as u64, events));
        events
    });
    (events, peak)
}

#[test]
fn the_window_bounds_the_heap_whatever_the_capture_length() {
    let (events, peak) = ingest(32 * MIB, false);
    assert!(events > 250_000, "{events} events");
    assert!(peak < BOUND, "32 MiB through the window peaked at {peak} B");

    let (more, doubled) = ingest(64 * MIB, false);
    assert!(more > 2 * events - 1000, "{more} events");
    assert!(doubled <= peak + peak / 16, "doubling the capture grew the peak {peak} → {doubled} B");

    // The same measurement of the read-everything path fails the bound:
    // it holds the capture.
    let (whole_events, whole_peak) = ingest(32 * MIB, true);
    assert_eq!(whole_events, events);
    assert!(whole_peak > 32 * MIB, "reading the capture whole peaked at only {whole_peak} B");
}
