//! Per-frame payload decoding — the expensive phase of ingestion.
//!
//! A frame decodes into a caller's reused [`MessageView`], never into an
//! owned event: the envelope peel borrows the frame, the wire decoder
//! writes the view's buffers, and [`check_payload`] holds the view to
//! everything the trace format can represent. Ingest renders the line
//! from the view and builds an owned [`QueryEvent`] only for a consumer
//! that asks for one.

use dnsnoise_dns::wire::{Encoder, Header, MessageView};
use dnsnoise_dns::{RDataRef, Rcode};
use dnsnoise_workload::trace_io::MAX_ANSWER_RECORDS;
use dnsnoise_workload::{Outcome, QueryEvent};

use crate::report::QuarantineClass;
use crate::scan::RawFrame;
use crate::{CaptureFormat, CaptureWriteError};

/// Why a frame did not decode to an event: its quarantine class and a
/// description for the ledger's samples.
pub(crate) type DecodeFailure = (QuarantineClass, String);

/// Decodes the frame `frame` delimits, whose payload bytes are `payload`,
/// into `view`; returns the event's client.
// lint:certify(no-panic)
pub(crate) fn decode_frame(
    payload: &[u8],
    frame: &RawFrame,
    format: CaptureFormat,
    view: &mut MessageView,
) -> Result<u64, DecodeFailure> {
    let (dns, client) = match format {
        CaptureFormat::Pcap => peel_pcap_frame(payload)?,
        CaptureFormat::Dnstap => (payload, frame.client.unwrap_or(0)),
    };
    decode_dns_payload(dns, view)?;
    Ok(client)
}

/// The `N` bytes of `bytes` from `at`, if it holds them.
fn bytes_at<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..at.checked_add(N)?)?.try_into().ok()
}

/// Peels Ethernet → IPv4 → UDP/53 off a pcap frame: the DNS payload and
/// the client. Every rejection is typed: envelope problems are
/// `NonDnsPayload`, a UDP length below its header `BadWireMessage`.
// lint:certify(no-panic)
fn peel_pcap_frame(frame_bytes: &[u8]) -> Result<(&[u8], u64), DecodeFailure> {
    let non_dns = |reason: String| (QuarantineClass::NonDnsPayload, reason);
    let (Some(ethertype), Some(ip)) = (bytes_at::<2>(frame_bytes, 12), frame_bytes.get(14..))
    else {
        return Err(non_dns(format!("{}-byte frame, too short for ethernet", frame_bytes.len())));
    };
    let ethertype = u16::from_be_bytes(ethertype);
    if ethertype != 0x0800 {
        return Err(non_dns(format!("non-IPv4 ethertype {ethertype:#06x}")));
    }
    let Some(header) = bytes_at::<20>(ip, 0) else {
        return Err(non_dns("IPv4 header truncated".into()));
    };
    let [version_ihl, _, _, _, _, _, _, _, _, protocol, _, _, s0, s1, s2, s3, d0, d1, d2, d3] =
        header;
    if version_ihl >> 4 != 4 {
        return Err(non_dns(format!("IP version {} is not 4", version_ihl >> 4)));
    }
    let ihl = usize::from(version_ihl & 0x0f) * 4;
    let udp = match ip.get(ihl..) {
        Some(udp) if (20..=60).contains(&ihl) => udp,
        _ => return Err(non_dns(format!("bad IPv4 header length {ihl}"))),
    };
    if protocol != 17 {
        return Err(non_dns(format!("non-UDP protocol {protocol}")));
    }
    let Some([p0, p1, p2, p3, l0, l1, _, _]) = bytes_at::<8>(udp, 0) else {
        return Err(non_dns("UDP header truncated".into()));
    };
    let (sport, dport) = (u16::from_be_bytes([p0, p1]), u16::from_be_bytes([p2, p3]));
    if sport != 53 && dport != 53 {
        return Err(non_dns(format!("ports {sport}→{dport}, neither is 53")));
    }
    // The client is whoever is on the non-53 side; for the responses this
    // pipeline consumes that is the IPv4 destination.
    let client_octets = if sport == 53 { [d0, d1, d2, d3] } else { [s0, s1, s2, s3] };
    let client = u64::from(u32::from_be_bytes(client_octets));
    let udp_len = usize::from(u16::from_be_bytes([l0, l1]));
    if udp_len < 8 {
        return Err((QuarantineClass::BadWireMessage, format!("UDP length {udp_len} below 8")));
    }
    // Take what the datagram claims, bounded by what was captured.
    let dns = udp.get(8..udp_len.min(udp.len())).unwrap_or(&[]);
    Ok((dns, client))
}

/// Decodes a DNS wire message into `view` and checks it.
// lint:certify(no-panic)
fn decode_dns_payload(dns: &[u8], view: &mut MessageView) -> Result<(), DecodeFailure> {
    let bad = |reason: String| (QuarantineClass::BadWireMessage, reason);
    view.decode_message(dns).map_err(|e| bad(e.to_string()))?;
    check_payload(view).map_err(bad)
}

/// Holds a decoded message to everything the line format can represent,
/// so the output trace is always re-readable: a response, NXDOMAIN or a
/// NOERROR answer of 1 to [`MAX_ANSWER_RECORDS`] records, and no root
/// name in the question or in an answer record. The one check both the
/// rendered line and the owned event pass.
// lint:certify(no-panic)
fn check_payload(view: &MessageView) -> Result<(), String> {
    if !view.is_response() {
        return Err("not a response message".into());
    }
    let records = view.answer_records();
    let answers = match view.rcode() {
        Rcode::NxDomain => 0,
        Rcode::NoError if records.len() == 0 => {
            return Err("NOERROR response with an empty answer section".into());
        }
        Rcode::NoError if records.len() > MAX_ANSWER_RECORDS => {
            return Err(format!(
                "{} answers exceed the trace format's {MAX_ANSWER_RECORDS}-record cap",
                records.len()
            ));
        }
        Rcode::NoError => records.len(),
        other => return Err(format!("rcode {other} has no trace representation")),
    };
    if view.qname() == ROOT {
        return Err("root query name has no trace representation".into());
    }
    for rr in records.take(answers) {
        let rdata_root = match rr.rdata {
            RDataRef::Cname(n) | RDataRef::Ns(n) | RDataRef::Ptr(n) => n == ROOT,
            RDataRef::Mx { exchange, .. } => exchange == ROOT,
            RDataRef::Soa { mname, rname, .. } => mname == ROOT || rname == ROOT,
            RDataRef::A(_) | RDataRef::Aaaa(_) | RDataRef::Txt(_) | RDataRef::Opaque(_) => false,
        };
        if rr.name == ROOT || rdata_root {
            return Err("root record name has no trace representation".into());
        }
    }
    Ok(())
}

/// The root's presentation text, as a view's names give it.
const ROOT: &str = ".";

/// The owned event a view that passed [`check_payload`] holds.
pub(crate) fn to_event(view: &MessageView, secs: u64, client: u64) -> QueryEvent {
    let msg = view.to_message();
    QueryEvent {
        time: dnsnoise_dns::Timestamp::from_secs(secs),
        client,
        name: msg.question.name,
        qtype: msg.question.qtype,
        outcome: match msg.rcode {
            Rcode::NxDomain => Outcome::NxDomain,
            _ => Outcome::Answer(msg.answers),
        },
        // Ingested captures carry no scenario bookkeeping, exactly like
        // replayed text traces.
        zone_tag: u32::MAX,
    }
}

/// Appends to `out` the response message a capture writer serializes for
/// trace event `index` (the inverse of [`decode_dns_payload`]), its id the
/// low 16 bits of the index.
pub(crate) fn encode_response(
    encoder: &mut Encoder,
    out: &mut Vec<u8>,
    event: &QueryEvent,
    index: usize,
) -> Result<(), CaptureWriteError> {
    let (rcode, answers) = match &event.outcome {
        Outcome::NxDomain => (Rcode::NxDomain, &[][..]),
        Outcome::Answer(records) => (Rcode::NoError, &records[..]),
    };
    let header = Header::response(index as u16, rcode);
    encoder
        .append(out, header, &event.name, event.qtype, answers, &[])
        .map_err(|e| CaptureWriteError(format!("event {index}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::{Message, Name, QType, Question, RData, Record, Timestamp, Ttl};
    use std::net::Ipv4Addr;

    fn event(secs: u64) -> QueryEvent {
        QueryEvent {
            time: Timestamp::from_secs(secs),
            client: 9,
            name: "www.example.com".parse().unwrap(),
            qtype: QType::A,
            outcome: Outcome::Answer(vec![Record::new(
                "www.example.com".parse().unwrap(),
                QType::A,
                Ttl::from_secs(60),
                RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            )]),
            zone_tag: u32::MAX,
        }
    }

    /// `msg` on the wire, from a fresh encoder.
    fn encode(msg: &Message) -> Vec<u8> {
        let (mut out, q) = (Vec::new(), &msg.question);
        Encoder::new()
            .append(&mut out, msg.into(), &q.name, q.qtype, &msg.answers, &msg.authority)
            .unwrap();
        out
    }

    /// The payload's event, or its rejection.
    fn decode(dns: &[u8], secs: u64, client: u64) -> Result<QueryEvent, DecodeFailure> {
        let mut view = MessageView::new();
        decode_dns_payload(dns, &mut view)?;
        Ok(to_event(&view, secs, client))
    }

    #[test]
    fn message_roundtrips_through_decode() {
        let original = event(100);
        let mut dns = Vec::new();
        encode_response(&mut Encoder::new(), &mut dns, &original, 7).unwrap();
        let back = decode(&dns, 100, 9).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn queries_and_odd_rcodes_are_rejected() {
        let q = Message::query(1, Question::new("x.example".parse().unwrap(), QType::A));
        let err = decode(&encode(&q), 0, 0).unwrap_err();
        assert_eq!(err.0, QuarantineClass::BadWireMessage);
        assert!(err.1.contains("not a response"), "{}", err.1);

        let servfail = Message::response(
            2,
            Question::new("x.example".parse().unwrap(), QType::A),
            Rcode::ServFail,
            vec![],
        );
        let err = decode(&encode(&servfail), 0, 0).unwrap_err();
        assert!(err.1.contains("SERVFAIL"), "{}", err.1);
    }

    #[test]
    fn root_names_are_rejected_not_emitted() {
        let msg =
            Message::response(3, Question::new(Name::root(), QType::A), Rcode::NxDomain, vec![]);
        let err = decode(&encode(&msg), 0, 0).unwrap_err();
        assert!(err.1.contains("root query name"), "{}", err.1);
    }

    #[test]
    fn short_envelopes_are_typed_not_panics() {
        let frame = pcap_frame(&encode(&Message::query(
            1,
            Question::new("x.example".parse().unwrap(), QType::A),
        )));
        for cut in 0..frame.len() {
            let _ = peel_pcap_frame(&frame[..cut]);
        }
        assert!(peel_pcap_frame(&frame).is_ok());
        assert_eq!(peel_pcap_frame(&frame[..13]).unwrap_err().0, QuarantineClass::NonDnsPayload);
    }

    /// `dns` in an Ethernet/IPv4/UDP frame from port 53 to 10.0.0.9.
    fn pcap_frame(dns: &[u8]) -> Vec<u8> {
        let mut frame = vec![0u8; 12];
        frame.extend_from_slice(&[0x08, 0x00]);
        let mut ip = [0u8; 20];
        ip[0] = 0x45;
        ip[9] = 17;
        ip[16..20].copy_from_slice(&[10, 0, 0, 9]);
        frame.extend_from_slice(&ip);
        let udp_len = u16::try_from(8 + dns.len()).unwrap();
        frame.extend_from_slice(&[0, 53, 0x30, 0x39]);
        frame.extend_from_slice(&udp_len.to_be_bytes());
        frame.extend_from_slice(&[0, 0]);
        frame.extend_from_slice(dns);
        frame
    }

    mod lines {
        use super::*;
        use dnsnoise_dns::Soa;
        use dnsnoise_workload::trace_io;
        use proptest::prelude::*;
        use proptest::string::string_regex;
        use std::net::Ipv6Addr;

        fn arb_name() -> impl Strategy<Value = Name> {
            string_regex("[a-cA-C]{1,3}(\\.[a-c]{1,3}){0,3}")
                .unwrap()
                .prop_map(|s| s.parse().unwrap())
        }

        fn arb_rdata() -> impl Strategy<Value = (QType, RData)> {
            // Zeroed groups exercise AAAA's `::` compression.
            let v6 = (any::<[u8; 16]>(), any::<u8>()).prop_map(|(mut bytes, zeros)| {
                for group in 0..8 {
                    if zeros & (1 << group) != 0 {
                        bytes[2 * group..2 * group + 2].copy_from_slice(&[0, 0]);
                    }
                }
                (QType::Aaaa, RData::Aaaa(Ipv6Addr::from(bytes)))
            });
            let txt = "[ -~\t\n\r\u{1}\u{7f}\u{a0}\u{3000}%;,]{0,10}";
            prop_oneof![
                any::<[u8; 4]>().prop_map(|o| (QType::A, RData::A(Ipv4Addr::from(o)))),
                v6,
                any::<[u8; 4]>().prop_map(|o| {
                    (QType::Aaaa, RData::Aaaa(Ipv4Addr::from(o).to_ipv6_mapped()))
                }),
                arb_name().prop_map(|n| (QType::Cname, RData::Cname(n))),
                arb_name().prop_map(|n| (QType::Ns, RData::Ns(n))),
                arb_name().prop_map(|n| (QType::Ptr, RData::Ptr(n))),
                string_regex(txt).unwrap().prop_map(|s| (QType::Txt, RData::Txt(s.into()))),
                (any::<u16>(), arb_name())
                    .prop_map(|(p, n)| (QType::Mx, RData::Mx { preference: p, exchange: n })),
                (arb_name(), arb_name(), any::<[u8; 20]>()).prop_map(|(mname, rname, c)| {
                    let counter = |k: usize| u32::from_be_bytes([0, 1, 2, 3].map(|j| c[4 * k + j]));
                    let [serial, refresh, retry, expire, minimum] = [0, 1, 2, 3, 4].map(counter);
                    let soa = Soa { mname, rname, serial, refresh, retry, expire, minimum };
                    (QType::Soa, RData::Soa(Box::new(soa)))
                }),
                proptest::collection::vec(any::<u8>(), 0..8)
                    .prop_map(|b| (QType::Rrsig, RData::Opaque(b.into()))),
            ]
        }

        fn arb_event() -> impl Strategy<Value = QueryEvent> {
            let record = (any::<bool>(), arb_name(), arb_rdata(), any::<u32>());
            (any::<u64>(), any::<u64>(), arb_name(), proptest::collection::vec(record, 0..5))
                .prop_map(|(secs, client, name, parts)| {
                    let records: Vec<Record> = parts
                        .into_iter()
                        .map(|(own, other, (qtype, rdata), ttl)| {
                            let owner = if own { name.clone() } else { other };
                            Record::new(owner, qtype, Ttl::from_secs(ttl), rdata)
                        })
                        .collect();
                    QueryEvent {
                        time: Timestamp::from_secs(secs),
                        client,
                        name,
                        qtype: QType::A,
                        outcome: match records.is_empty() {
                            true => Outcome::NxDomain,
                            false => Outcome::Answer(records),
                        },
                        zone_tag: u32::MAX,
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The line rendered from a decoded frame's view is
            /// `append_event` of the owned event the view builds, and of
            /// the event the frame was written from.
            #[test]
            fn a_view_renders_the_owned_events_line(event in arb_event()) {
                let mut dns = Vec::new();
                encode_response(&mut Encoder::new(), &mut dns, &event, 1).unwrap();
                let mut slot = crate::Slot {
                    secs: event.time.as_secs(),
                    client: event.client,
                    ..Default::default()
                };
                decode_dns_payload(&dns, &mut slot.view).unwrap();
                let (mut from_view, mut owned, mut written) = (Vec::new(), Vec::new(), Vec::new());
                slot.append_line(&mut from_view);
                trace_io::append_event(&to_event(&slot.view, slot.secs, slot.client), &mut owned);
                trace_io::append_event(&event, &mut written);
                prop_assert_eq!(&from_view, &owned);
                prop_assert_eq!(&from_view, &written);
            }
        }
    }
}
