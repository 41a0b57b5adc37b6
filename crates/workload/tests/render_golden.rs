//! A parent-pinned render of the text trace.
//!
//! `golden/render.txt` holds what the `core::fmt`-based writer, the one
//! before the hand-rolled integer and address renderers, wrote for
//! [`events`]: every `RData` variant (AAAA compressed with `::` and in
//! v4-mapped form, hostile TXT, MX, SOA, empty and non-empty OPAQUE), the
//! largest stamp, client and TTL, the root name, a CNAME chain and an
//! NXDOMAIN. It was written by that code and there is no rebless path: a
//! renderer change must reproduce it byte for byte.

use std::net::{Ipv4Addr, Ipv6Addr};

use dnsnoise_dns::{Name, QType, RData, Record, Soa, Timestamp, Ttl};
use dnsnoise_workload::trace_io::{read_trace, write_events};
use dnsnoise_workload::{Outcome, QueryEvent};

fn name(text: &str) -> Name {
    text.parse().unwrap()
}

fn record(owner: &str, qtype: QType, ttl: u32, rdata: RData) -> Record {
    Record::new(name(owner), qtype, Ttl::from_secs(ttl), rdata)
}

fn event(secs: u64, client: u64, qname: &str, qtype: QType, outcome: Outcome) -> QueryEvent {
    QueryEvent {
        time: Timestamp::from_secs(secs),
        client,
        name: name(qname),
        qtype,
        outcome,
        zone_tag: u32::MAX,
    }
}

fn answer(records: Vec<Record>) -> Outcome {
    Outcome::Answer(records)
}

/// The hand-built day the golden renders.
fn events() -> Vec<QueryEvent> {
    let v6 = |s: &str| RData::Aaaa(s.parse::<Ipv6Addr>().unwrap());
    vec![
        event(
            0,
            0,
            "zero.example",
            QType::A,
            answer(vec![record("zero.example", QType::A, 0, RData::A(Ipv4Addr::UNSPECIFIED))]),
        ),
        event(
            u64::MAX,
            u64::MAX,
            "max.example.com",
            QType::A,
            answer(vec![record(
                "max.example.com",
                QType::A,
                u32::MAX,
                RData::A(Ipv4Addr::BROADCAST),
            )]),
        ),
        event(
            86_399,
            4_294_967_296,
            "v6.example.net",
            QType::Aaaa,
            answer(vec![
                record("v6.example.net", QType::Aaaa, 300, v6("2001:db8::1")),
                record("v6.example.net", QType::Aaaa, 300, v6("::")),
                record("v6.example.net", QType::Aaaa, 300, v6("::ffff:192.0.2.128")),
                record("v6.example.net", QType::Aaaa, 300, v6("fe80:0:0:1:0:0:0:ab")),
                record("v6.example.net", QType::Aaaa, 300, v6("2001:db8:1:2:3:4:5:6")),
            ]),
        ),
        event(
            86_400,
            17,
            "txt.example.org",
            QType::Txt,
            answer(vec![
                record(
                    "txt.example.org",
                    QType::Txt,
                    60,
                    RData::Txt("tab\there;semi,comma%25pct\nnl\r\u{1f}\u{7f}x".into()),
                ),
                record("txt.example.org", QType::Txt, 60, RData::Txt(" lead é 中 mid".into())),
                record("txt.example.org", QType::Txt, 60, RData::Txt("".into())),
            ]),
        ),
        event(
            90_000,
            18,
            "mail.example.org",
            QType::Mx,
            answer(vec![
                record(
                    "mail.example.org",
                    QType::Mx,
                    3600,
                    RData::Mx { preference: 0, exchange: name("mx0.example.org") },
                ),
                record(
                    "mail.example.org",
                    QType::Mx,
                    3600,
                    RData::Mx { preference: u16::MAX, exchange: name("mx1.example.org") },
                ),
            ]),
        ),
        event(
            90_001,
            19,
            "example.org",
            QType::Soa,
            answer(vec![
                record(
                    "example.org",
                    QType::Soa,
                    900,
                    RData::Soa(Box::new(Soa {
                        mname: name("ns1.example.org"),
                        rname: name("hostmaster.example.org"),
                        serial: 2_011_113_001,
                        refresh: 7200,
                        retry: 900,
                        expire: 1_209_600,
                        minimum: 900,
                    })),
                ),
                record(
                    "example.org",
                    QType::Soa,
                    900,
                    RData::Soa(Box::new(Soa {
                        mname: name("ns2.example.org"),
                        rname: name("root.example.org"),
                        serial: u32::MAX,
                        refresh: 0,
                        retry: u32::MAX,
                        expire: 0,
                        minimum: u32::MAX,
                    })),
                ),
            ]),
        ),
        event(
            90_002,
            20,
            "signed.example",
            QType::Dnskey,
            answer(vec![
                record(
                    "signed.example",
                    QType::Dnskey,
                    86_400,
                    RData::Opaque(Box::new([0x00, 0x0f, 0xa5, 0xff, 0x10])),
                ),
                record("signed.example", QType::Rrsig, 86_400, RData::Opaque(Box::new([]))),
                record("signed.example", QType::Ds, 86_400, RData::Opaque(Box::new([0xde, 0xad]))),
            ]),
        ),
        event(
            90_003,
            21,
            ".",
            QType::Ns,
            answer(vec![
                record(".", QType::Ns, 518_400, RData::Ns(name("a.root-servers.net"))),
                record(".", QType::Ns, 518_400, RData::Ns(name("b.root-servers.net"))),
            ]),
        ),
        event(
            90_004,
            22,
            "1.2.0.192.in-addr.arpa",
            QType::Ptr,
            answer(vec![record(
                "1.2.0.192.in-addr.arpa",
                QType::Ptr,
                3600,
                RData::Ptr(name("host.example.com")),
            )]),
        ),
        event(
            90_005,
            23,
            "www.shop.example",
            QType::A,
            answer(vec![
                record(
                    "www.shop.example",
                    QType::Cname,
                    300,
                    RData::Cname(name("shop.cdn.example")),
                ),
                record("shop.cdn.example", QType::Cname, 60, RData::Cname(name("e7.edge.example"))),
                record("e7.edge.example", QType::A, 20, RData::A(Ipv4Addr::new(203, 0, 113, 7))),
                record("e7.edge.example", QType::A, 20, RData::A(Ipv4Addr::new(10, 255, 0, 99))),
            ]),
        ),
        event(90_006, 24, "gone.example", QType::Aaaa, Outcome::NxDomain),
        event(
            90_007,
            25,
            "mixed.example",
            QType::A,
            answer(vec![
                record("other.example", QType::A, 1, RData::A(Ipv4Addr::new(1, 2, 3, 4))),
                record("mixed.example", QType::Txt, 2, RData::Txt("Mixed.Example".into())),
            ]),
        ),
    ]
}

#[test]
fn the_writer_reproduces_the_parent_render() {
    let mut text = Vec::new();
    write_events(events(), &mut text).unwrap();
    assert_eq!(String::from_utf8(text).unwrap(), include_str!("golden/render.txt"));
}

#[test]
fn the_reader_recovers_the_golden_events() {
    let back = read_trace(include_str!("golden/render.txt").as_bytes()).unwrap();
    let events = events();
    assert_eq!(back.events.len(), events.len());
    for (i, (got, want)) in back.events.iter().zip(&events).enumerate() {
        assert_eq!(got, want, "line {}", i + 1);
    }
}
