//! The capture writers as they were before they encoded in place: each
//! event cloned into a [`Message`], encoded into a fresh buffer through a
//! fresh `HashMap` suffix table, then copied into the capture. Kept as the
//! oracle the differential tests hold [`wire::Encoder`],
//! [`crate::pcap::write_pcap`] and [`crate::framestream::write_dnstap`] to
//! (the way `pdns::store::crc` keeps its bytewise loop and `trace_io` its
//! `core::fmt` codec).

use std::collections::HashMap;

use dnsnoise_dns::wire::WireError;
use dnsnoise_dns::{Message, Name, Question, RData, Rcode, Record};
use dnsnoise_workload::{DayTrace, Outcome, QueryEvent};

use crate::framestream::{DATA_HEADER_LEN, VERSION};
use crate::pcap::{GLOBAL_HEADER_LEN, WRITER_SNAPLEN};
use crate::CaptureWriteError;

const CLASS_IN: u16 = 1;

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// The old `wire::encode`.
pub(crate) fn encode(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(128);
    let mut compressor = Compressor { offsets: HashMap::new() };

    put_u16(&mut buf, msg.id);
    let mut flags: u16 = 0;
    if msg.is_response {
        flags |= 0x8000;
    }
    flags |= u16::from(msg.opcode.code()) << 11;
    if msg.authoritative {
        flags |= 0x0400;
    }
    if msg.recursion_desired {
        flags |= 0x0100;
    }
    if msg.recursion_available {
        flags |= 0x0080;
    }
    flags |= u16::from(msg.rcode.code());
    put_u16(&mut buf, flags);
    put_u16(&mut buf, 1); // QDCOUNT
    put_u16(&mut buf, u16::try_from(msg.answers.len()).map_err(|_| WireError::UnsupportedCounts)?);
    put_u16(
        &mut buf,
        u16::try_from(msg.authority.len()).map_err(|_| WireError::UnsupportedCounts)?,
    );
    put_u16(&mut buf, 0); // ARCOUNT

    compressor.encode_name(&mut buf, &msg.question.name);
    put_u16(&mut buf, msg.question.qtype.code());
    put_u16(&mut buf, CLASS_IN);

    for rr in msg.answers.iter().chain(&msg.authority) {
        encode_record(&mut buf, &mut compressor, rr)?;
    }
    Ok(buf)
}

fn encode_record<'m>(
    buf: &mut Vec<u8>,
    compressor: &mut Compressor<'m>,
    rr: &'m Record,
) -> Result<(), WireError> {
    compressor.encode_name(buf, &rr.name);
    put_u16(buf, rr.qtype.code());
    put_u16(buf, CLASS_IN);
    put_u32(buf, rr.ttl.as_secs());
    let len_pos = buf.len();
    put_u16(buf, 0);
    let start = buf.len();
    match &rr.rdata {
        RData::A(a) => buf.extend_from_slice(&a.octets()),
        RData::Aaaa(a) => buf.extend_from_slice(&a.octets()),
        RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => compressor.encode_name(buf, n),
        RData::Txt(s) => {
            if s.len() > 255 {
                return Err(WireError::TxtTooLong(s.len()));
            }
            buf.push(s.len() as u8);
            buf.extend_from_slice(s.as_bytes());
        }
        RData::Mx { preference, exchange } => {
            put_u16(buf, *preference);
            compressor.encode_name(buf, exchange);
        }
        RData::Soa { mname, rname, serial, refresh, retry, expire, minimum } => {
            compressor.encode_name(buf, mname);
            compressor.encode_name(buf, rname);
            put_u32(buf, *serial);
            put_u32(buf, *refresh);
            put_u32(buf, *retry);
            put_u32(buf, *expire);
            put_u32(buf, *minimum);
        }
        RData::Opaque(b) => buf.extend_from_slice(b),
    }
    let rdlen = u16::try_from(buf.len() - start).map_err(|_| WireError::BadRdata)?;
    buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
    Ok(())
}

struct Compressor<'m> {
    offsets: HashMap<&'m str, u16>,
}

impl<'m> Compressor<'m> {
    fn encode_name(&mut self, buf: &mut Vec<u8>, name: &'m Name) {
        let mut suffix = if name.is_root() { "" } else { name.as_str() };
        while !suffix.is_empty() {
            if let Some(&off) = self.offsets.get(suffix) {
                put_u16(buf, 0xc000 | off);
                return;
            }
            if buf.len() <= 0x3fff {
                self.offsets.insert(suffix, buf.len() as u16);
            }
            let (label, rest) = suffix.split_once('.').unwrap_or((suffix, ""));
            buf.push(label.len() as u8);
            buf.extend_from_slice(label.as_bytes());
            suffix = rest;
        }
        buf.push(0);
    }
}

fn event_to_message(event: &QueryEvent, id: u16) -> Message {
    let question = Question::new(event.name.clone(), event.qtype);
    match &event.outcome {
        Outcome::NxDomain => Message::response(id, question, Rcode::NxDomain, Vec::new()),
        Outcome::Answer(records) => {
            Message::response(id, question, Rcode::NoError, records.clone())
        }
    }
}

fn ipv4_checksum(header: &[u8; 20]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks_exact(2) {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// The old `pcap::write_pcap`.
pub(crate) fn write_pcap(trace: &DayTrace) -> Result<Vec<u8>, CaptureWriteError> {
    let mut out = Vec::with_capacity(GLOBAL_HEADER_LEN + trace.events.len() * 128);
    out.extend_from_slice(&0xa1b2_c3d4_u32.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes());
    out.extend_from_slice(&4u16.to_le_bytes());
    out.extend_from_slice(&0i32.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&WRITER_SNAPLEN.to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes());

    for (index, event) in trace.events.iter().enumerate() {
        let msg = event_to_message(event, index as u16);
        let dns = encode(&msg).map_err(|e| CaptureWriteError(format!("event {index}: {e}")))?;
        if dns.len() > 65_507 {
            return Err(CaptureWriteError(format!(
                "event {index}: {}-byte message exceeds a UDP datagram",
                dns.len()
            )));
        }
        let ts = u32::try_from(event.time.as_secs()).map_err(|_| {
            CaptureWriteError(format!("event {index}: timestamp beyond pcap range"))
        })?;
        let udp_len = 8 + dns.len() as u16;
        let ip_len = 20 + udp_len;
        let frame_len = 14 + ip_len as usize;

        out.extend_from_slice(&ts.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(frame_len as u32).to_le_bytes());
        out.extend_from_slice(&(frame_len as u32).to_le_bytes());

        out.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x01]);
        out.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x02]);
        out.extend_from_slice(&[0x08, 0x00]);

        let client_ip = (event.client as u32).to_be_bytes();
        let mut ip = [0u8; 20];
        ip[0] = 0x45;
        ip[2..4].copy_from_slice(&ip_len.to_be_bytes());
        ip[4..6].copy_from_slice(&(index as u16).to_be_bytes());
        ip[8] = 64;
        ip[9] = 17;
        ip[12..16].copy_from_slice(&[198, 51, 100, 53]);
        ip[16..20].copy_from_slice(&client_ip);
        let csum = ipv4_checksum(&ip);
        ip[10..12].copy_from_slice(&csum.to_be_bytes());
        out.extend_from_slice(&ip);

        out.extend_from_slice(&53u16.to_be_bytes());
        out.extend_from_slice(&(0xc000 | (index as u16 & 0x3fff)).to_be_bytes());
        out.extend_from_slice(&udp_len.to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes());
        out.extend_from_slice(&dns);
    }
    Ok(out)
}

fn push_control(out: &mut Vec<u8>, ctrl_type: u32) {
    out.extend_from_slice(&0u32.to_be_bytes());
    out.extend_from_slice(&4u32.to_be_bytes());
    out.extend_from_slice(&ctrl_type.to_be_bytes());
}

/// The old `framestream::write_dnstap`.
pub(crate) fn write_dnstap(trace: &DayTrace) -> Result<Vec<u8>, CaptureWriteError> {
    let mut out = Vec::with_capacity(trace.events.len() * 112 + 24);
    push_control(&mut out, 0x02);
    for (index, event) in trace.events.iter().enumerate() {
        let msg = event_to_message(event, index as u16);
        let dns = encode(&msg).map_err(|e| CaptureWriteError(format!("event {index}: {e}")))?;
        let dns_len = u16::try_from(dns.len())
            .map_err(|_| CaptureWriteError(format!("event {index}: oversized message")))?;
        let flen = (DATA_HEADER_LEN + dns.len()) as u32;
        out.extend_from_slice(&flen.to_be_bytes());
        out.push(VERSION);
        out.extend_from_slice(&event.time.as_secs().to_be_bytes());
        out.extend_from_slice(&event.client.to_be_bytes());
        out.extend_from_slice(&dns_len.to_be_bytes());
        out.extend_from_slice(&dns);
    }
    push_control(&mut out, 0x03);
    Ok(out)
}

/// Differential tests: the in-place encoder and writers against the
/// ones above.
mod tests {
    use std::net::{Ipv4Addr, Ipv6Addr};

    use dnsnoise_dns::wire::{self, Encoder, Header};
    use dnsnoise_dns::{Label, Opcode, QType, Timestamp, Ttl};
    use proptest::prelude::*;

    use super::*;
    use crate::{framestream, pcap};

    /// `msg` through the in-place encoder, appended after a few bytes of
    /// its own so the pointers must count from the message's first byte.
    fn encode_in_place(msg: &Message) -> Result<Vec<u8>, WireError> {
        let mut out = b"pre".to_vec();
        let q = &msg.question;
        Encoder::new().append(
            &mut out,
            msg.into(),
            &q.name,
            q.qtype,
            &msg.answers,
            &msg.authority,
        )?;
        Ok(out.split_off(3))
    }

    /// Labels from a small pool, so names share suffixes often, plus a
    /// 60-byte one so that 64 records of long names pass 16 KiB.
    fn arb_label() -> impl Strategy<Value = Label> {
        const POOL: [&str; 9] = ["a", "b", "www", "cdn", "example", "com", "net", "x7f3k", ""];
        (0..POOL.len()).prop_map(|i| match POOL[i] {
            "" => Label::new(&"l".repeat(60)).unwrap(),
            text => Label::new(text).unwrap(),
        })
    }

    fn arb_name() -> impl Strategy<Value = Name> {
        (0u8..12, proptest::collection::vec(arb_label(), 1..5)).prop_map(|(root, labels)| {
            if root == 0 {
                Name::root()
            } else {
                Name::from_labels(labels)
            }
        })
    }

    /// Short payloads, and ones at and past the 255-byte limit.
    fn arb_txt() -> impl Strategy<Value = String> {
        prop_oneof![
            proptest::string::string_regex("[ -~]{0,40}").unwrap(),
            proptest::string::string_regex("[ -~]{0,40}").unwrap(),
            (0usize..4).prop_map(|i| "t".repeat([254, 255, 256, 300][i])),
        ]
    }

    fn arb_rdata() -> impl Strategy<Value = (QType, RData)> {
        prop_oneof![
            any::<[u8; 4]>().prop_map(|o| (QType::A, RData::A(Ipv4Addr::from(o)))),
            any::<[u8; 16]>().prop_map(|o| (QType::Aaaa, RData::Aaaa(Ipv6Addr::from(o)))),
            arb_name().prop_map(|n| (QType::Cname, RData::Cname(n))),
            arb_name().prop_map(|n| (QType::Ns, RData::Ns(n))),
            arb_name().prop_map(|n| (QType::Ptr, RData::Ptr(n))),
            arb_txt().prop_map(|s| (QType::Txt, RData::Txt(s))),
            (any::<u16>(), arb_name())
                .prop_map(|(p, n)| (QType::Mx, RData::Mx { preference: p, exchange: n })),
            (arb_name(), arb_name(), any::<u32>(), any::<[u8; 16]>()).prop_map(
                |(mname, rname, serial, more)| {
                    let field =
                        |i: usize| u32::from_be_bytes([0, 1, 2, 3].map(|k| more[4 * i + k]));
                    let soa = RData::Soa {
                        mname,
                        rname,
                        serial,
                        refresh: field(0),
                        retry: field(1),
                        expire: field(2),
                        minimum: field(3),
                    };
                    (QType::Soa, soa)
                }
            ),
            proptest::collection::vec(any::<u8>(), 0..64)
                .prop_map(|b| (QType::Rrsig, RData::Opaque(b))),
        ]
    }

    fn arb_record() -> impl Strategy<Value = Record> {
        (arb_name(), arb_rdata(), any::<u32>()).prop_map(|(name, (qtype, rdata), ttl)| {
            Record::new(name, qtype, Ttl::from_secs(ttl), rdata)
        })
    }

    /// An opaque record of `len` bytes: placed first, it moves every later
    /// name across the 16 KiB pointer window; past 65,535 bytes it is
    /// refused; and a big one makes a datagram past 65,507 bytes.
    fn padding(len: usize) -> Record {
        Record::new(Name::root(), QType::Dnskey, Ttl::from_secs(1), RData::Opaque(vec![7; len]))
    }

    /// Answers: up to 64 records (a CNAME chain when `chain`, each target
    /// the next owner), after optional padding.
    fn arb_answers() -> impl Strategy<Value = Vec<Record>> {
        let pad = prop_oneof![
            Just(None),
            Just(None),
            (0usize..20_000).prop_map(Some),
            (0usize..20_000).prop_map(Some),
            (0usize..3).prop_map(|i| Some([32_000, 65_535, 65_536][i])),
        ];
        (pad, proptest::collection::vec(arb_record(), 0..65), any::<bool>()).prop_map(
            |(pad, mut records, chain)| {
                if chain {
                    for i in 1..records.len() {
                        let target = records[i].name.clone();
                        records[i - 1].qtype = QType::Cname;
                        records[i - 1].rdata = RData::Cname(target);
                    }
                }
                pad.map(padding).into_iter().chain(records).collect()
            },
        )
    }

    fn arb_message() -> impl Strategy<Value = Message> {
        let header = (any::<u16>(), any::<bool>(), 0u8..16, any::<[u8; 3]>(), 0u8..16);
        let authority = proptest::collection::vec(arb_record(), 0..3);
        (header, arb_name(), arb_answers(), authority).prop_map(
            |((id, qr, opcode, [aa, rd, ra], rcode), qname, answers, authority)| Message {
                id,
                is_response: qr,
                opcode: Opcode::from_code(opcode),
                authoritative: aa & 1 == 1,
                recursion_desired: rd & 1 == 1,
                recursion_available: ra & 1 == 1,
                rcode: Rcode::from_code(rcode),
                question: Question::new(qname, QType::A),
                answers,
                authority,
            },
        )
    }

    /// Stamps and clients mostly inside `u32`, some past it.
    fn arb_u64_over_u32() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..=u64::from(u32::MAX),
            0u64..=u64::from(u32::MAX),
            0u64..=u64::from(u32::MAX),
            u64::from(u32::MAX) + 1..=u64::MAX,
        ]
    }

    fn arb_event() -> impl Strategy<Value = QueryEvent> {
        let outcome = prop_oneof![
            Just(Outcome::NxDomain),
            arb_answers().prop_map(Outcome::Answer),
            arb_answers().prop_map(Outcome::Answer),
        ];
        (arb_u64_over_u32(), arb_u64_over_u32(), arb_name(), outcome).prop_map(
            |(time, client, name, outcome)| QueryEvent {
                time: Timestamp::from_secs(time),
                client,
                name,
                qtype: QType::A,
                outcome,
                zone_tag: 0,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The same bytes, or the same error.
        #[test]
        fn the_encoder_writes_the_old_encoders_bytes(msg in arb_message()) {
            prop_assert_eq!(encode_in_place(&msg), encode(&msg));
        }

        /// One encoder over a run of messages, its tables reused: each
        /// message as a fresh old encoder writes it.
        #[test]
        fn a_reused_encoder_keeps_nothing_between_messages(
            msgs in proptest::collection::vec(arb_message(), 1..6),
        ) {
            let mut encoder = Encoder::new();
            let mut out = Vec::new();
            let mut expected = Vec::new();
            for msg in &msgs {
                let q = &msg.question;
                let got =
                    encoder.append(&mut out, msg.into(), &q.name, q.qtype, &msg.answers, &msg.authority);
                match encode(msg) {
                    Ok(bytes) => {
                        prop_assert_eq!(got, Ok(()));
                        expected.extend_from_slice(&bytes);
                    }
                    Err(e) => prop_assert_eq!(got, Err(e)),
                }
                prop_assert_eq!(&out, &expected);
            }
        }

        /// Both writers: the same capture, or the same error text.
        #[test]
        fn the_writers_write_the_old_writers_bytes(
            events in proptest::collection::vec(arb_event(), 0..6),
        ) {
            let trace = DayTrace { day: 0, events };
            prop_assert_eq!(pcap::write_pcap(&trace), write_pcap(&trace));
            prop_assert_eq!(framestream::write_dnstap(&trace), write_dnstap(&trace));
        }
    }

    #[test]
    fn names_at_every_offset_around_the_pointer_window_compress_alike() {
        let owners: Vec<Name> = ["www.example.com", "a.b.example.com", "example.com", "cdn.net"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for pad in 16_300..16_420 {
            let mut answers = vec![padding(pad)];
            for owner in owners.iter().chain(&owners) {
                answers.push(Record::new(
                    owner.clone(),
                    QType::Cname,
                    Ttl::from_secs(60),
                    RData::Cname(owners[pad % owners.len()].clone()),
                ));
            }
            let msg = Message::response(
                1,
                Question::new("example.com".parse().unwrap(), QType::A),
                Rcode::NoError,
                answers,
            );
            assert_eq!(encode_in_place(&msg), encode(&msg), "padding {pad}");
        }
    }

    #[test]
    fn the_datagram_and_frame_limits_fall_where_they_did() {
        // A root question and one root-owned opaque answer: 28 bytes
        // around its RDATA.
        let trace = |dns_len: usize| DayTrace {
            day: 0,
            events: vec![QueryEvent {
                time: Timestamp::from_secs(1),
                client: 2,
                name: Name::root(),
                qtype: QType::A,
                outcome: Outcome::Answer(vec![padding(dns_len - 28)]),
                zone_tag: 0,
            }],
        };
        for (dns_len, pcap_ok, dnstap_ok) in [
            (65_507, true, true),
            (65_508, false, true),
            (65_535, false, true),
            (65_536, false, false),
        ] {
            let trace = trace(dns_len);
            assert_eq!(pcap::write_pcap(&trace), write_pcap(&trace), "{dns_len} bytes");
            assert_eq!(pcap::write_pcap(&trace).is_ok(), pcap_ok, "{dns_len} bytes");
            assert_eq!(framestream::write_dnstap(&trace), write_dnstap(&trace), "{dns_len} bytes");
            assert_eq!(framestream::write_dnstap(&trace).is_ok(), dnstap_ok, "{dns_len} bytes");
        }
    }

    #[test]
    fn more_than_65535_records_in_a_section_is_refused_alike() {
        let a =
            Record::new(Name::root(), QType::A, Ttl::from_secs(1), RData::A(Ipv4Addr::LOCALHOST));
        let q = Question::new(Name::root(), QType::A);
        for (answers, authority) in [(65_536, 0), (0, 65_536)] {
            let msg = Message {
                authority: vec![a.clone(); authority],
                ..Message::response(1, q.clone(), Rcode::NoError, vec![a.clone(); answers])
            };
            assert_eq!(encode_in_place(&msg), Err(WireError::UnsupportedCounts));
            assert_eq!(encode(&msg), Err(WireError::UnsupportedCounts));
        }
    }

    #[test]
    fn a_response_header_is_the_one_message_response_sets() {
        let msg =
            Message::response(9, Question::new(Name::root(), QType::A), Rcode::NxDomain, vec![]);
        assert_eq!(Header::response(9, Rcode::NxDomain), Header::from(&msg));
        let capture = wire::decode(&encode_in_place(&msg).unwrap()).unwrap();
        assert_eq!(capture, msg);
    }
}
