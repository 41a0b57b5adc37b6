//! Per-frame payload decoding — the expensive phase of ingestion.

use dnsnoise_dns::wire::{self, Encoder, Header};
use dnsnoise_dns::{Name, Rcode, Record, Timestamp};
use dnsnoise_workload::trace_io::MAX_ANSWER_RECORDS;
use dnsnoise_workload::{Outcome, QueryEvent};

use crate::report::QuarantineClass;
use crate::scan::RawFrame;
use crate::{CaptureFormat, CaptureWriteError};

/// Why a frame did not decode to an event: its quarantine class and a
/// description for the ledger's samples.
pub(crate) type DecodeFailure = (QuarantineClass, String);

/// Decodes the frame `frame` delimits, whose payload bytes are `payload`.
pub(crate) fn decode_frame(
    payload: &[u8],
    frame: &RawFrame,
    format: CaptureFormat,
) -> Result<QueryEvent, DecodeFailure> {
    match format {
        CaptureFormat::Pcap => decode_pcap_frame(payload, frame),
        CaptureFormat::Dnstap => {
            decode_dns_payload(payload, frame.ts_secs, frame.client.unwrap_or(0))
        }
    }
}

/// Peels Ethernet → IPv4 → UDP/53 off a pcap frame and decodes the DNS
/// payload. Every rejection is typed: envelope problems are
/// `NonDnsPayload`, payload problems are `BadWireMessage`.
fn decode_pcap_frame(frame_bytes: &[u8], frame: &RawFrame) -> Result<QueryEvent, DecodeFailure> {
    let non_dns = |reason: String| (QuarantineClass::NonDnsPayload, reason);
    if frame_bytes.len() < 14 {
        return Err(non_dns(format!("{}-byte frame, too short for ethernet", frame_bytes.len())));
    }
    let ethertype = u16::from_be_bytes([frame_bytes[12], frame_bytes[13]]);
    if ethertype != 0x0800 {
        return Err(non_dns(format!("non-IPv4 ethertype {ethertype:#06x}")));
    }
    let ip = &frame_bytes[14..];
    if ip.len() < 20 {
        return Err(non_dns("IPv4 header truncated".into()));
    }
    if ip[0] >> 4 != 4 {
        return Err(non_dns(format!("IP version {} is not 4", ip[0] >> 4)));
    }
    let ihl = usize::from(ip[0] & 0x0f) * 4;
    if !(20..=60).contains(&ihl) || ip.len() < ihl {
        return Err(non_dns(format!("bad IPv4 header length {ihl}")));
    }
    if ip[9] != 17 {
        return Err(non_dns(format!("non-UDP protocol {}", ip[9])));
    }
    let udp = &ip[ihl..];
    if udp.len() < 8 {
        return Err(non_dns("UDP header truncated".into()));
    }
    let sport = u16::from_be_bytes([udp[0], udp[1]]);
    let dport = u16::from_be_bytes([udp[2], udp[3]]);
    if sport != 53 && dport != 53 {
        return Err(non_dns(format!("ports {sport}→{dport}, neither is 53")));
    }
    // The client is whoever is on the non-53 side; for the responses this
    // pipeline consumes that is the IPv4 destination.
    let client_octets: [u8; 4] =
        if sport == 53 { ip[16..20].try_into() } else { ip[12..16].try_into() }
            .expect("header length checked");
    let client = u64::from(u32::from_be_bytes(client_octets));
    let udp_len = usize::from(u16::from_be_bytes([udp[4], udp[5]]));
    if udp_len < 8 {
        return Err((QuarantineClass::BadWireMessage, format!("UDP length {udp_len} below 8")));
    }
    // Take what the datagram claims, bounded by what was captured.
    let dns = &udp[8..udp_len.min(udp.len())];
    decode_dns_payload(dns, frame.ts_secs, client)
}

/// Decodes a DNS wire message into a canonical trace event, enforcing
/// everything the line format can represent so the output trace is always
/// re-readable.
fn decode_dns_payload(dns: &[u8], ts_secs: u64, client: u64) -> Result<QueryEvent, DecodeFailure> {
    let bad = |reason: String| (QuarantineClass::BadWireMessage, reason);
    let msg = wire::decode(dns).map_err(|e| bad(e.to_string()))?;
    if !msg.is_response {
        return Err(bad("not a response message".into()));
    }
    let outcome = match msg.rcode {
        Rcode::NxDomain => Outcome::NxDomain,
        Rcode::NoError if msg.answers.is_empty() => {
            return Err(bad("NOERROR response with an empty answer section".into()));
        }
        Rcode::NoError => {
            if msg.answers.len() > MAX_ANSWER_RECORDS {
                return Err(bad(format!(
                    "{} answers exceed the trace format's {MAX_ANSWER_RECORDS}-record cap",
                    msg.answers.len()
                )));
            }
            Outcome::Answer(msg.answers)
        }
        other => return Err(bad(format!("rcode {other} has no trace representation"))),
    };
    if msg.question.name.is_root() {
        return Err(bad("root query name has no trace representation".into()));
    }
    for rr in outcome.records() {
        if rr.name.is_root() || rdata_name_depth_zero(rr) {
            return Err(bad("root record name has no trace representation".into()));
        }
    }
    Ok(QueryEvent {
        time: Timestamp::from_secs(ts_secs),
        client,
        name: msg.question.name,
        qtype: msg.question.qtype,
        outcome,
        // Ingested captures carry no scenario bookkeeping, exactly like
        // replayed text traces.
        zone_tag: u32::MAX,
    })
}

fn rdata_name_depth_zero(rr: &Record) -> bool {
    use dnsnoise_dns::RData;
    let zero = |n: &Name| n.is_root();
    match &rr.rdata {
        RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => zero(n),
        RData::Mx { exchange, .. } => zero(exchange),
        RData::Soa { mname, rname, .. } => zero(mname) || zero(rname),
        RData::A(_) | RData::Aaaa(_) | RData::Txt(_) | RData::Opaque(_) => false,
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
    use dnsnoise_dns::{Message, QType, Question, RData, Ttl};
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

    #[test]
    fn message_roundtrips_through_decode() {
        let original = event(100);
        let mut dns = Vec::new();
        encode_response(&mut Encoder::new(), &mut dns, &original, 7).unwrap();
        let back = decode_dns_payload(&dns, 100, 9).unwrap();
        assert_eq!(back.time, original.time);
        assert_eq!(back.client, original.client);
        assert_eq!(back.name, original.name);
        assert_eq!(back.outcome, original.outcome);
    }

    #[test]
    fn queries_and_odd_rcodes_are_rejected() {
        let q = Message::query(1, Question::new("x.example".parse().unwrap(), QType::A));
        let err = decode_dns_payload(&encode(&q), 0, 0).unwrap_err();
        assert_eq!(err.0, QuarantineClass::BadWireMessage);
        assert!(err.1.contains("not a response"), "{}", err.1);

        let servfail = Message::response(
            2,
            Question::new("x.example".parse().unwrap(), QType::A),
            Rcode::ServFail,
            vec![],
        );
        let err = decode_dns_payload(&encode(&servfail), 0, 0).unwrap_err();
        assert!(err.1.contains("SERVFAIL"), "{}", err.1);
    }

    #[test]
    fn root_names_are_rejected_not_emitted() {
        let msg =
            Message::response(3, Question::new(Name::root(), QType::A), Rcode::NxDomain, vec![]);
        let err = decode_dns_payload(&encode(&msg), 0, 0).unwrap_err();
        assert!(err.1.contains("root query name"), "{}", err.1);
    }
}
