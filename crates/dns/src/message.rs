//! DNS messages: header, question and answer sections.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::name::Name;
use crate::record::{QType, Record};

/// DNS operation code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Opcode {
    /// A standard query (the only opcode the simulation generates).
    Query,
    /// Anything else, preserved for wire-format fidelity.
    Other(u8),
}

impl Opcode {
    /// The 4-bit wire value.
    pub fn code(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::Other(v) => v & 0x0f,
        }
    }

    /// Parses a 4-bit wire value.
    pub fn from_code(code: u8) -> Self {
        match code & 0x0f {
            0 => Opcode::Query,
            v => Opcode::Other(v),
        }
    }
}

/// DNS response code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rcode {
    /// Successful resolution.
    NoError,
    /// Malformed query.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist — the paper's NXDOMAIN traffic class.
    NxDomain,
    /// Any other code, preserved for wire-format fidelity.
    Other(u8),
}

impl Rcode {
    /// The 4-bit wire value.
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::Other(v) => v & 0x0f,
        }
    }

    /// Parses a 4-bit wire value.
    pub fn from_code(code: u8) -> Self {
        match code & 0x0f {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            v => Rcode::Other(v),
        }
    }

    /// `true` for NXDOMAIN.
    pub fn is_nxdomain(self) -> bool {
        matches!(self, Rcode::NxDomain)
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => f.write_str("NOERROR"),
            Rcode::FormErr => f.write_str("FORMERR"),
            Rcode::ServFail => f.write_str("SERVFAIL"),
            Rcode::NxDomain => f.write_str("NXDOMAIN"),
            Rcode::Other(v) => write!(f, "RCODE{v}"),
        }
    }
}

/// The question section entry of a DNS message.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Question {
    /// The queried name.
    pub name: Name,
    /// The queried type.
    pub qtype: QType,
}

impl Question {
    /// Convenience constructor.
    pub fn new(name: Name, qtype: QType) -> Self {
        Question { name, qtype }
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}? {}", self.qtype, self.name)
    }
}

/// A DNS message restricted to the parts the monitoring point records:
/// header fields, one question, and the answer section (§III-A: "we only
/// record the answer section of the DNS response packets").
///
/// # Examples
///
/// ```
/// use dnsnoise_dns::{Message, Question, QType, Rcode};
///
/// let q = Question::new("www.example.com".parse()?, QType::A);
/// let msg = Message::response(7, q, Rcode::NxDomain, vec![]);
/// assert!(msg.rcode.is_nxdomain());
/// assert!(msg.is_response);
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message {
    /// Transaction identifier.
    pub id: u16,
    /// `true` for responses (QR bit).
    pub is_response: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// Authoritative-answer bit.
    pub authoritative: bool,
    /// Recursion-desired bit.
    pub recursion_desired: bool,
    /// Recursion-available bit.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
    /// The question.
    pub question: Question,
    /// The answer section.
    pub answers: Vec<Record>,
    /// The authority section (e.g. the SOA of a negative response,
    /// RFC 2308).
    pub authority: Vec<Record>,
}

impl Message {
    /// Builds a query message.
    // lint:allow(dead-api): crates/dns/tests/name_allocs.rs encodes its query with it
    pub fn query(id: u16, question: Question) -> Self {
        Message {
            id,
            is_response: false,
            opcode: Opcode::Query,
            authoritative: false,
            recursion_desired: true,
            recursion_available: false,
            rcode: Rcode::NoError,
            question,
            answers: Vec::new(),
            authority: Vec::new(),
        }
    }

    /// Builds a response message carrying `answers`.
    pub fn response(id: u16, question: Question, rcode: Rcode, answers: Vec<Record>) -> Self {
        Message {
            id,
            is_response: true,
            opcode: Opcode::Query,
            authoritative: false,
            recursion_desired: true,
            recursion_available: true,
            rcode,
            question,
            answers,
            authority: Vec::new(),
        }
    }

    /// Builds an NXDOMAIN response carrying the zone's SOA in the
    /// authority section, as RFC 2308 negative responses do.
    // lint:allow(dead-api): tests/pdns_wire.rs builds its NXDOMAIN packets with it
    pub fn negative_response(id: u16, question: Question, soa: Record) -> Self {
        let mut msg = Message::response(id, question, Rcode::NxDomain, Vec::new());
        msg.authority.push(soa);
        msg
    }

    /// The negative-caching TTL of this response: the minimum of the
    /// authority SOA's TTL and its `minimum` field (RFC 2308 §5), if an
    /// SOA is present.
    pub fn negative_ttl(&self) -> Option<crate::Ttl> {
        self.authority.iter().find_map(|rr| match &rr.rdata {
            crate::RData::Soa(soa) => {
                Some(crate::Ttl::from_secs(soa.minimum.min(rr.ttl.as_secs())))
            }
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RData, Soa};
    use crate::time::Ttl;

    fn q() -> Question {
        Question::new("www.example.com".parse().unwrap(), QType::A)
    }

    #[test]
    fn opcode_rcode_roundtrip() {
        for v in 0..=15u8 {
            assert_eq!(Opcode::from_code(v).code(), v);
            assert_eq!(Rcode::from_code(v).code(), v);
        }
    }

    #[test]
    fn query_has_expected_flags() {
        let m = Message::query(1, q());
        assert!(!m.is_response);
        assert!(m.recursion_desired);
        assert!(m.answers.is_empty());
    }

    #[test]
    fn negative_response_carries_soa_ttl() {
        let soa = Record::new(
            "example.com".parse().unwrap(),
            QType::Soa,
            Ttl::from_secs(3_600),
            RData::Soa(Box::new(Soa {
                mname: "ns1.example.com".parse().unwrap(),
                rname: "hostmaster.example.com".parse().unwrap(),
                serial: 2011113001,
                refresh: 7_200,
                retry: 900,
                expire: 1_209_600,
                minimum: 900,
            })),
        );
        let m = Message::negative_response(5, q(), soa);
        assert!(m.rcode.is_nxdomain());
        // RFC 2308: min(SOA TTL, SOA minimum) = min(3600, 900).
        assert_eq!(m.negative_ttl(), Some(Ttl::from_secs(900)));
        // Responses without an SOA expose no negative TTL.
        let plain = Message::response(5, q(), Rcode::NxDomain, vec![]);
        assert_eq!(plain.negative_ttl(), None);
    }
}
