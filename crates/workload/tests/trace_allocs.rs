//! The text trace at its byte cost: parsing a line allocates the names
//! its name table does not hold and the answer `Vec`, nothing else, and
//! rendering into a warmed line buffer allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dnsnoise_dns::NameTable;
use dnsnoise_workload::trace_io::{append_event, parse_event, write_events, EventReader};
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

/// An answer owned by the qname, the shape of most answer records.
const ONE_RECORD: &str = "1322697600\t41\tp2.a22a43lt5rwfg.i1.ds.ipv6-exp.l.google.com\tA\t\
     p2.a22a43lt5rwfg.i1.ds.ipv6-exp.l.google.com,A,300,A:74.125.0.1";

/// A CNAME into a CDN: the alias target is parsed once, for the CNAME,
/// and shared by the record it owns.
const CNAME_CHAIN: &str = "1322697601\t42\twww.shop.example\tA\t\
     www.shop.example,CNAME,300,CNAME:shop.cdn.example;\
     shop.cdn.example,A,20,A:203.0.113.7";

const NXDOMAIN: &str = "1322697602\t43\t0a1b2c3d.avqs.mcafee.com\tA\tNXDOMAIN";

/// The rdata kinds generated days do not carry.
const EVERY_KIND: &str = "18446744073709551615\t18446744073709551615\tx.example\tAAAA\t\
     x.example,AAAA,2147483647,AAAA:::ffff:192.0.2.128;x.example,TXT,0,TXT:a%3bb%20;\
     x.example,MX,1,MX:65535:mx.example;\
     x.example,SOA,2,SOA:ns.example:root.example:4294967295:0:1:2:3;\
     x.example,DS,3,OPAQUE:00ff";

#[test]
fn a_line_allocates_its_names_and_its_answer_once() {
    for (line, cold, warm, what) in [
        (ONE_RECORD, 2, 1, "one record owned by the qname: the name block and the answer Vec"),
        (CNAME_CHAIN, 3, 1, "a CNAME chain: qname, alias target and the answer Vec"),
        (NXDOMAIN, 1, 0, "an NXDOMAIN: the name block"),
    ] {
        let mut names = NameTable::new();
        let (event, n) = allocations(|| parse_event(line, &mut names).unwrap());
        assert_eq!(n, cold, "cold table, {what}");
        // The shared names are the parsed ones, not lookalikes.
        if let [first, rest @ ..] = event.outcome.records() {
            assert_eq!(first.name, event.name);
            for r in rest {
                assert_eq!(r.name.as_str(), "shop.cdn.example");
            }
        }
        // Once the table holds the line's names, only the answer `Vec`
        // is new.
        let (again, n) = allocations(|| parse_event(line, &mut names).unwrap());
        assert_eq!(n, warm, "warm table, {what}");
        assert_eq!(again, event);
    }
}

/// A whole generated day through one reader, its table included: the
/// skew of the traffic makes most name fields hits.
#[test]
fn a_day_read_through_one_reader_allocates_little_more_than_its_answers() {
    let config = ScenarioConfig::paper_epoch(1.0).with_scale(0.05);
    let trace = Scenario::new(config, 7).generate_day(0);
    let mut text = Vec::new();
    write_events(&trace.events, &mut text).unwrap();
    let (read, n) = allocations(|| EventReader::new(text.as_slice()).map(Result::unwrap).count());
    assert_eq!(read, trace.events.len());
    let per_line = n as f64 / read as f64;
    // Measured 1.058 on this day (seed 7).
    assert!(per_line < 1.1, "{n} allocations over {read} lines: {per_line:.3} per line");
}

#[test]
fn rendering_into_a_warmed_buffer_allocates_nothing() {
    let mut names = NameTable::new();
    let events = [EVERY_KIND, ONE_RECORD, CNAME_CHAIN, NXDOMAIN]
        .map(|l| parse_event(l, &mut names).unwrap());
    let mut line = Vec::with_capacity(512);
    for event in &events {
        line.clear();
        let ((), n) = allocations(|| append_event(event, &mut line));
        let text = std::str::from_utf8(&line).unwrap();
        assert_eq!(n, 0, "{text}");
        assert_eq!(parse_event(text, &mut names).as_ref(), Ok(event));
    }
}
