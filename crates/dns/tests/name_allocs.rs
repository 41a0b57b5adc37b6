//! A name is one heap block: parsing or wire-decoding one allocates once,
//! whatever its depth, and cloning allocates nothing. A decoded message
//! builds one block per distinct name: a record name that is a pointer to
//! a name the message already decoded shares that name's block.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::net::Ipv4Addr;

use dnsnoise_dns::{wire, Message, Name, QType, Question, RData, Rcode, Record, Ttl};

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

/// `msg` on the wire, from a fresh encoder.
fn encode(msg: &Message) -> Vec<u8> {
    let (mut out, q) = (Vec::new(), &msg.question);
    wire::Encoder::new()
        .append(&mut out, msg.into(), &q.name, q.qtype, &msg.answers, &msg.authority)
        .unwrap();
    out
}

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_seven_label_name_costs_one_allocation() {
    let text = "P2.a22a43lt5rwfg.i1.ds.IPv6-exp.l.google";
    let (name, n) = allocations(|| text.parse::<Name>().unwrap());
    assert_eq!((name.depth(), n), (7, 1), "parse");

    // A question-only message holds no heap block but its name.
    let bytes = encode(&Message::query(7, Question::new(name.clone(), QType::A)));
    let (decoded, n) = allocations(|| wire::decode(&bytes).unwrap());
    assert_eq!((decoded.question.name.clone(), n), (name.clone(), 1), "wire decode");

    let (copy, n) = allocations(|| name.clone());
    assert_eq!((copy, n), (name, 0), "clone");
}

fn a_record(owner: &Name) -> Record {
    Record::new(owner.clone(), QType::A, Ttl::from_secs(60), RData::A(Ipv4Addr::new(192, 0, 2, 7)))
}

/// Decodes `msg`'s encoding and returns the name blocks it built: every
/// allocation but the answer section's one vector.
fn name_blocks(msg: &Message) -> u64 {
    let bytes = encode(msg);
    let (decoded, n) = allocations(|| wire::decode(&bytes).unwrap());
    assert_eq!(&decoded, msg);
    assert!(!decoded.answers.is_empty() && decoded.authority.is_empty());
    n - 1
}

#[test]
fn an_answer_owned_by_the_question_shares_its_block() {
    let qname: Name = "x7f3k.telemetry.example.com".parse().unwrap();
    let msg = Message::response(
        1,
        Question::new(qname.clone(), QType::A),
        Rcode::NoError,
        vec![a_record(&qname)],
    );
    assert_eq!(name_blocks(&msg), 1);
}

#[test]
fn a_cname_then_a_costs_two_blocks() {
    let qname: Name = "www.example.com".parse().unwrap();
    let target: Name = "edge.cdn.example.net".parse().unwrap();
    let cname =
        Record::new(qname.clone(), QType::Cname, Ttl::from_secs(60), RData::Cname(target.clone()));
    let msg = Message::response(
        2,
        Question::new(qname, QType::A),
        Rcode::NoError,
        vec![cname, a_record(&target)],
    );
    assert_eq!(name_blocks(&msg), 2);
}
