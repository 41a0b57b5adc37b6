//! Resource records, query types and record data.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::name::Name;
use crate::time::Ttl;

/// DNS query/record type.
///
/// The paper's fpDNS dataset carries `A`, `CNAME` and `AAAA` records; the
/// remaining variants are needed by the wire codec, the DNSSEC cost model
/// and negative caching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QType {
    /// IPv4 address record.
    A,
    /// Name server record.
    Ns,
    /// Canonical name (alias) record.
    Cname,
    /// Start of authority record.
    Soa,
    /// Pointer (reverse lookup) record.
    Ptr,
    /// Mail exchanger record.
    Mx,
    /// Text record.
    Txt,
    /// IPv6 address record.
    Aaaa,
    /// DNSSEC signature record.
    Rrsig,
    /// DNSSEC public key record.
    Dnskey,
    /// DNSSEC delegation signer record.
    Ds,
}

impl QType {
    /// The RFC 1035/4034 wire value.
    pub fn code(self) -> u16 {
        match self {
            QType::A => 1,
            QType::Ns => 2,
            QType::Cname => 5,
            QType::Soa => 6,
            QType::Ptr => 12,
            QType::Mx => 15,
            QType::Txt => 16,
            QType::Aaaa => 28,
            QType::Ds => 43,
            QType::Rrsig => 46,
            QType::Dnskey => 48,
        }
    }

    /// Parses a wire value back into a [`QType`].
    pub fn from_code(code: u16) -> Option<Self> {
        Some(match code {
            1 => QType::A,
            2 => QType::Ns,
            5 => QType::Cname,
            6 => QType::Soa,
            12 => QType::Ptr,
            15 => QType::Mx,
            16 => QType::Txt,
            28 => QType::Aaaa,
            43 => QType::Ds,
            46 => QType::Rrsig,
            48 => QType::Dnskey,
            _ => return None,
        })
    }

    /// The presentation mnemonic (`A`, `CNAME`, …): the one table behind
    /// `Display`, `FromStr` and the text trace's writer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            QType::A => "A",
            QType::Ns => "NS",
            QType::Cname => "CNAME",
            QType::Soa => "SOA",
            QType::Ptr => "PTR",
            QType::Mx => "MX",
            QType::Txt => "TXT",
            QType::Aaaa => "AAAA",
            QType::Ds => "DS",
            QType::Rrsig => "RRSIG",
            QType::Dnskey => "DNSKEY",
        }
    }

    /// All types this crate understands, in wire-code order.
    pub fn all() -> &'static [QType] {
        &[
            QType::A,
            QType::Ns,
            QType::Cname,
            QType::Soa,
            QType::Ptr,
            QType::Mx,
            QType::Txt,
            QType::Aaaa,
            QType::Ds,
            QType::Rrsig,
            QType::Dnskey,
        ]
    }
}

impl fmt::Display for QType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The mnemonic was none of the eleven [`QType::all`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownQType;

impl fmt::Display for UnknownQType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("unknown query type mnemonic")
    }
}

impl std::error::Error for UnknownQType {}

/// The inverse of `Display`: exact, case-sensitive mnemonics.
impl FromStr for QType {
    type Err = UnknownQType;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        QType::all().iter().copied().find(|t| t.mnemonic() == s).ok_or(UnknownQType)
    }
}

/// Record data (the paper's `RDATA`).
///
/// 24 bytes, the size of its largest inline variant ([`RData::Mx`]): a
/// start of authority, a text payload and an opaque payload are held
/// behind one pointer each, so the records of every cached answer set
/// and every row of the day's record table pay for a name, not for an
/// SOA's two names and five counters. Hash, order, `Display` and every
/// codec see the same fields as inline payloads would give them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RData {
    /// An IPv4 address.
    A(Ipv4Addr),
    /// An IPv6 address.
    Aaaa(Ipv6Addr),
    /// An alias target.
    Cname(Name),
    /// A delegation target.
    Ns(Name),
    /// A reverse-mapping target.
    Ptr(Name),
    /// Free-form text (bounded at 255 bytes by the wire codec).
    Txt(Box<str>),
    /// A mail exchanger: preference and target.
    Mx {
        /// Lower values are preferred.
        preference: u16,
        /// The mail server name.
        exchange: Name,
    },
    /// A start-of-authority record. Negative (NXDOMAIN) responses carry
    /// one in the authority section; its `minimum` bounds the negative
    /// TTL (RFC 2308).
    Soa(Box<Soa>),
    /// Opaque data carried for types without structured decoding
    /// (DNSSEC payloads in this model).
    Opaque(Box<[u8]>),
}

/// The fields of a start-of-authority record ([`RData::Soa`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Soa {
    /// Primary name server.
    pub mname: Name,
    /// Responsible mailbox, encoded as a name.
    pub rname: Name,
    /// Zone serial.
    pub serial: u32,
    /// Refresh interval in seconds.
    pub refresh: u32,
    /// Retry interval in seconds.
    pub retry: u32,
    /// Expiry in seconds.
    pub expire: u32,
    /// Minimum / negative-caching TTL in seconds.
    pub minimum: u32,
}

impl RData {
    /// The natural [`QType`] for this data, or `None` for [`RData::Opaque`]
    /// (whose type lives on the enclosing [`Record`]).
    pub fn qtype(&self) -> Option<QType> {
        Some(match self {
            RData::A(_) => QType::A,
            RData::Aaaa(_) => QType::Aaaa,
            RData::Cname(_) => QType::Cname,
            RData::Ns(_) => QType::Ns,
            RData::Ptr(_) => QType::Ptr,
            RData::Txt(_) => QType::Txt,
            RData::Mx { .. } => QType::Mx,
            RData::Soa(_) => QType::Soa,
            RData::Opaque(_) => return None,
        })
    }

    /// The fields of this data, borrowed.
    pub fn borrowed(&self) -> RDataRef<'_> {
        match self {
            RData::A(a) => RDataRef::A(*a),
            RData::Aaaa(a) => RDataRef::Aaaa(*a),
            RData::Cname(n) => RDataRef::Cname(n.as_str()),
            RData::Ns(n) => RDataRef::Ns(n.as_str()),
            RData::Ptr(n) => RDataRef::Ptr(n.as_str()),
            RData::Txt(s) => RDataRef::Txt(s),
            RData::Mx { preference, exchange } => {
                RDataRef::Mx { preference: *preference, exchange: exchange.as_str() }
            }
            RData::Soa(soa) => {
                let Soa { mname, rname, serial, refresh, retry, expire, minimum } = &**soa;
                RDataRef::Soa {
                    mname: mname.as_str(),
                    rname: rname.as_str(),
                    counters: [*serial, *refresh, *retry, *expire, *minimum],
                }
            }
            RData::Opaque(b) => RDataRef::Opaque(b),
        }
    }

    /// Approximate storage footprint in bytes, used by the passive-DNS
    /// storage model.
    pub fn storage_bytes(&self) -> usize {
        match self {
            RData::A(_) => 4,
            RData::Aaaa(_) => 16,
            RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => n.presentation_len(),
            RData::Txt(s) => s.len(),
            RData::Mx { exchange, .. } => 2 + exchange.presentation_len(),
            RData::Soa(soa) => soa.mname.presentation_len() + soa.rname.presentation_len() + 20,
            RData::Opaque(b) => b.len(),
        }
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Cname(n) => write!(f, "{n}"),
            RData::Ns(n) => write!(f, "{n}"),
            RData::Ptr(n) => write!(f, "{n}"),
            RData::Txt(s) => write!(f, "{s:?}"),
            RData::Mx { preference, exchange } => write!(f, "{preference} {exchange}"),
            RData::Soa(soa) => {
                let Soa { mname, rname, serial, refresh, retry, expire, minimum } = &**soa;
                write!(f, "{mname} {rname} {serial} {refresh} {retry} {expire} {minimum}")
            }
            RData::Opaque(b) => write!(f, "opaque({} bytes)", b.len()),
        }
    }
}

/// A full resource record: the fpDNS tuple's `(name, type, TTL, RDATA)`
/// portion.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Record {
    /// The owner name.
    pub name: Name,
    /// The record type.
    pub qtype: QType,
    /// Time to live.
    pub ttl: Ttl,
    /// The record data.
    pub rdata: RData,
}

impl Record {
    /// Convenience constructor.
    pub fn new(name: Name, qtype: QType, ttl: Ttl, rdata: RData) -> Self {
        Record { name, qtype, ttl, rdata }
    }

    /// The deduplication identity of this record — the rpDNS key
    /// `(queried domain name, query type, RDATA)` of §III-A. TTL is
    /// deliberately excluded, matching the paper.
    pub fn key(&self) -> RrKey {
        RrKey { name: self.name.clone(), qtype: self.qtype, rdata: self.rdata.clone() }
    }

    /// The fields of this record, borrowed.
    pub fn borrowed(&self) -> RecordRef<'_> {
        RecordRef {
            name: self.name.as_str(),
            qtype: self.qtype,
            ttl: self.ttl,
            rdata: self.rdata.borrowed(),
        }
    }

    /// Approximate storage footprint in bytes for the pDNS storage model:
    /// presentation name + fixed type/TTL overhead + RDATA. Identical to
    /// [`RrKey::storage_bytes`] for this record's key — TTL is folded
    /// into the fixed overhead, not billed per distinct value.
    pub fn storage_bytes(&self) -> usize {
        RrKey::storage_bytes_of(&self.name, &self.rdata)
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} IN {} {}", self.name, self.ttl.as_secs(), self.qtype, self.rdata)
    }
}

/// A record's fields borrowed from wherever they are held: an owned
/// [`Record`] ([`Record::borrowed`]) or a decoded wire message
/// ([`crate::wire::MessageView::answer_records`]). Every name is its
/// presentation text, as [`Name::as_str`] gives it (`.` for the root), so
/// one renderer serves both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// The owner name's presentation text.
    pub name: &'a str,
    /// The record type.
    pub qtype: QType,
    /// Time to live.
    pub ttl: Ttl,
    /// The record data.
    pub rdata: RDataRef<'a>,
}

/// [`RData`]'s fields, borrowed: names as presentation text, payloads as
/// slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RDataRef<'a> {
    /// An IPv4 address.
    A(Ipv4Addr),
    /// An IPv6 address.
    Aaaa(Ipv6Addr),
    /// An alias target.
    Cname(&'a str),
    /// A delegation target.
    Ns(&'a str),
    /// A reverse-mapping target.
    Ptr(&'a str),
    /// Free-form text.
    Txt(&'a str),
    /// A mail exchanger: preference and target.
    Mx {
        /// Lower values are preferred.
        preference: u16,
        /// The mail server name.
        exchange: &'a str,
    },
    /// A start of authority.
    Soa {
        /// Primary name server.
        mname: &'a str,
        /// Responsible mailbox, encoded as a name.
        rname: &'a str,
        /// Serial, refresh, retry, expire and minimum, in wire order.
        counters: [u32; 5],
    },
    /// Opaque data.
    Opaque(&'a [u8]),
}

/// The rpDNS deduplication key: `(name, qtype, rdata)` without TTL or
/// timestamp (§III-A).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RrKey {
    /// The owner name.
    pub name: Name,
    /// The record type.
    pub qtype: QType,
    /// The record data.
    pub rdata: RData,
}

impl RrKey {
    /// Storage footprint of one deduplicated record: presentation name +
    /// fixed type/TTL overhead (8 bytes) + RDATA. This is the *single*
    /// definition every pDNS accounting path shares — the rpDNS store
    /// charges it on first sight, and the fpDNS byte model builds on it —
    /// so the accountings cannot drift.
    pub fn storage_bytes(&self) -> usize {
        RrKey::storage_bytes_of(&self.name, &self.rdata)
    }

    /// [`RrKey::storage_bytes`] without materialising a key, for callers
    /// that hold the name and RDATA by reference (e.g. a borrowed
    /// [`Record`]).
    pub fn storage_bytes_of(name: &Name, rdata: &RData) -> usize {
        name.presentation_len() + 8 + rdata.storage_bytes()
    }
}

impl fmt::Display for RrKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} IN {} {}", self.name, self.qtype, self.rdata)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn qtype_codes_roundtrip() {
        for &qt in QType::all() {
            assert_eq!(QType::from_code(qt.code()), Some(qt));
        }
        assert_eq!(QType::from_code(0), None);
        assert_eq!(QType::from_code(9999), None);
    }

    #[test]
    fn qtype_mnemonics_roundtrip() {
        for &qt in QType::all() {
            assert_eq!(qt.to_string().parse(), Ok(qt));
        }
        assert_eq!("SRV".parse::<QType>(), Err(UnknownQType));
        assert_eq!("a".parse::<QType>(), Err(UnknownQType), "mnemonics are case-sensitive");
    }

    #[test]
    fn rdata_qtype_matches_variant() {
        assert_eq!(RData::A(Ipv4Addr::LOCALHOST).qtype(), Some(QType::A));
        assert_eq!(RData::Cname(name("a.b")).qtype(), Some(QType::Cname));
        assert_eq!(RData::Opaque(Box::new([1, 2])).qtype(), None);
    }

    #[test]
    fn record_key_ignores_ttl() {
        let r1 = Record::new(
            name("x.com"),
            QType::A,
            Ttl::from_secs(30),
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        );
        let r2 = Record::new(
            name("x.com"),
            QType::A,
            Ttl::from_secs(300),
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        );
        assert_eq!(r1.key(), r2.key());
        let r3 = Record::new(
            name("x.com"),
            QType::A,
            Ttl::from_secs(30),
            RData::A(Ipv4Addr::new(192, 0, 2, 2)),
        );
        assert_ne!(r1.key(), r3.key());
    }

    #[test]
    fn storage_bytes_reflects_name_and_rdata() {
        let short =
            Record::new(name("a.com"), QType::A, Ttl::from_secs(1), RData::A(Ipv4Addr::LOCALHOST));
        let long = Record::new(
            name("load-0-p-01.up-1852280.device.trans.manage.esoft.com"),
            QType::A,
            Ttl::from_secs(1),
            RData::A(Ipv4Addr::LOCALHOST),
        );
        assert!(long.storage_bytes() > short.storage_bytes());
    }

    #[test]
    fn display_is_zone_file_like() {
        let r = Record::new(
            name("x.com"),
            QType::A,
            Ttl::from_secs(60),
            RData::A(Ipv4Addr::new(127, 0, 0, 1)),
        );
        assert_eq!(r.to_string(), "x.com 60 IN A 127.0.0.1");
    }

    #[test]
    fn records_and_keys_are_48_bytes() {
        // Every cached answer set holds its records, every row of the
        // day's record table and every memtable entry holds a key: each
        // pays for the largest inline `RData` variant.
        assert_eq!(std::mem::size_of::<RData>(), 24, "RData grew: every cached record pays for it");
        assert_eq!(
            std::mem::size_of::<Record>(),
            48,
            "Record grew: every record of every cached answer set pays for it"
        );
        assert_eq!(
            std::mem::size_of::<RrKey>(),
            48,
            "RrKey grew: every day-table row and memtable key pays for it"
        );
    }

    #[test]
    fn mcafee_reply_is_nonroutable_loopback_range() {
        // §IV-A: McAfee answers come from 127.0.0.0/16 with per-address
        // semantics. The model must represent these.
        let r = RData::A(Ipv4Addr::new(127, 0, 0, 37));
        assert_eq!(r.storage_bytes(), 4);
    }
}
