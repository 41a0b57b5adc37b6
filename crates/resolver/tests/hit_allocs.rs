//! A cache hit is served from the cache's shared answer block: replaying
//! an event that hits allocates nothing, whatever the observer does with
//! the answers it is handed. Neither does one that refreshes an expired
//! entry with unchanged answers: the refresh rewrites the entry's slot and
//! keeps its block. Booking a record the day's table already holds
//! allocates nothing either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use dnsnoise_dns::{QType, RData, Record, Timestamp, Ttl};
use dnsnoise_resolver::{EventSession, Observer, ResolverSim, RrDayStats, Served, SimConfig};
use dnsnoise_workload::{Outcome, QueryEvent};

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

/// Remembers what it was last served and counts the answers it saw.
#[derive(Default)]
struct Tally {
    last: Option<Served>,
    answers: usize,
}

impl Observer for Tally {
    fn observe(&mut self, _event: &QueryEvent, served: Served, answers: &[Record]) {
        self.last = Some(served);
        self.answers += answers.len();
    }
}

fn event(secs: u64, client: u64) -> QueryEvent {
    let name = "www.example.com".parse().unwrap();
    let answer = Record::new(
        "www.example.com".parse().unwrap(),
        QType::A,
        Ttl::from_secs(300),
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    );
    QueryEvent {
        time: Timestamp::from_secs(secs),
        client,
        name,
        qtype: QType::A,
        outcome: Outcome::Answer(vec![answer]),
        zone_tag: 0,
    }
}

#[test]
fn an_event_that_hits_the_cache_allocates_nothing() {
    let mut session = EventSession::new(ResolverSim::new(SimConfig::default()), 0);
    let mut tally = Tally::default();
    let (first, again) = (event(100, 7), event(160, 7));

    session.push(&first, None, &mut tally);
    assert_eq!(tally.last, Some(Served::CacheMiss));

    let ((), n) = allocations(|| session.push(&again, None, &mut tally));
    assert_eq!((tally.last, tally.answers), (Some(Served::CacheHit), 2));
    assert_eq!(n, 0, "a cache hit allocated {n} times");
}

#[test]
fn refreshing_an_expired_entry_with_unchanged_answers_allocates_nothing() {
    let mut session = EventSession::new(ResolverSim::new(SimConfig::default()), 0);
    let mut tally = Tally::default();
    // The answer's TTL is 300 s: the second event finds the entry expired.
    let (first, later) = (event(100, 7), event(400, 7));

    session.push(&first, None, &mut tally);
    assert_eq!(tally.last, Some(Served::CacheMiss));

    let ((), n) = allocations(|| session.push(&later, None, &mut tally));
    assert_eq!((tally.last, tally.answers), (Some(Served::CacheMiss), 2));
    assert_eq!(n, 0, "a refresh with unchanged answers allocated {n} times");
}

/// The table finds a row by the record's borrowed parts: a repeat builds
/// no owned key, so even a TXT record, whose key would copy its text,
/// books without allocating.
#[test]
fn recording_a_repeated_record_allocates_nothing() {
    let name: dnsnoise_dns::Name = "www.example.com".parse().unwrap();
    let records = [
        Record::new(name.clone(), QType::A, Ttl::from_secs(60), RData::A(Ipv4Addr::LOCALHOST)),
        Record::new(name.clone(), QType::Txt, Ttl::from_secs(60), RData::Txt("v=spf1".into())),
        Record::new(name.clone(), QType::Cname, Ttl::from_secs(60), RData::Cname(name.clone())),
    ];
    let mut stats = RrDayStats::new();
    for rr in &records {
        assert!(stats.record(&rr.name, rr.qtype, &rr.rdata, true), "{rr} is new");
    }
    let (fresh, n) = allocations(|| {
        records.iter().filter(|rr| stats.record(&rr.name, rr.qtype, &rr.rdata, false)).count()
    });
    assert_eq!(fresh, 0, "every record was a repeat");
    assert_eq!(n, 0, "booking three repeats allocated {n} times");
}
