//! Canonical byte encoding of rpDNS keys for the run store.
//!
//! The composite sort key is the tuple `(name, qtype, rdata)` with each
//! component encoded so plain lexicographic byte order gives the order
//! the engine needs:
//!
//! * **name** — labels in *reverse* order (TLD first), each label's
//!   lowercase bytes followed by a `0x00` separator. Labels are printable
//!   ASCII (`0x21..=0x7e`, no `.`), so the separator can never collide
//!   with label bytes, and a zone's entire subtree — the zone apex and
//!   every descendant — is exactly the contiguous range of encodings
//!   starting with the zone's own encoding.
//! * **qtype** — the 16-bit RR type code, compared numerically.
//! * **rdata** — a one-byte variant tag followed by a fixed payload
//!   layout per variant; the order is arbitrary but total and
//!   deterministic, which is all deduplication and canonical output
//!   order require.
//!
//! Every encoding round-trips losslessly (names are case-normalised at
//! construction, so re-encoding a decoded key is byte-identical).

use std::cell::RefCell;
use std::net::{Ipv4Addr, Ipv6Addr};

use dnsnoise_dns::{Name, NameBuilder, NameParseError, QType, RData, RrKey};

/// The composite key the memtable sorts on. Rust's derived tuple `Ord`
/// is component-lexicographic, which matches the run layout's
/// `(name column, qtype column, rdata column)` comparison exactly.
pub type CompositeKey = (Vec<u8>, u16, Vec<u8>);

/// A composite key over borrowed columns: an encoded probe, a memtable
/// key or a run entry. The derived field-order `Ord` is [`CompositeKey`]'s
/// tuple order, so the three compare with one another directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct KeyRef<'a> {
    pub(crate) name: &'a [u8],
    pub(crate) qtype: u16,
    pub(crate) rdata: &'a [u8],
}

impl<'a> KeyRef<'a> {
    /// The columns of an owned key.
    pub(crate) fn of(key: &'a CompositeKey) -> KeyRef<'a> {
        KeyRef { name: &key.0, qtype: key.1, rdata: &key.2 }
    }

    /// The owned key — built only for a record the store is inserting.
    pub(crate) fn to_owned_key(self) -> CompositeKey {
        (self.name.to_vec(), self.qtype, self.rdata.to_vec())
    }
}

thread_local! {
    /// The name and rdata buffers [`with_probe`] encodes into, reused by
    /// every probe on this thread.
    static PROBE: RefCell<(Vec<u8>, Vec<u8>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Calls `f` with `(name, qtype, rdata)` encoded into this thread's
/// reused probe buffers: once they have grown to the longest key seen, a
/// store lookup allocates nothing. `f` must not probe again (it runs
/// while the buffers are borrowed).
pub(crate) fn with_probe<R>(
    name: &Name,
    qtype: QType,
    rdata: &RData,
    f: impl FnOnce(KeyRef<'_>) -> R,
) -> R {
    PROBE.with_borrow_mut(|(name_buf, rdata_buf)| {
        name_buf.clear();
        encode_name_into(name, name_buf);
        rdata_buf.clear();
        encode_rdata_into(rdata, rdata_buf);
        f(KeyRef { name: name_buf, qtype: qtype.code(), rdata: rdata_buf })
    })
}

/// Encodes an owner name in reverse-label order with `0x00` separators.
pub fn encode_name(name: &Name) -> Vec<u8> {
    let mut out = Vec::with_capacity(name.presentation_len() + 1);
    encode_name_into(name, &mut out);
    out
}

/// [`encode_name`], appended to `out`.
fn encode_name_into(name: &Name, out: &mut Vec<u8>) {
    for label in name.labels().iter().rev() {
        out.extend_from_slice(label.as_bytes());
        out.push(0);
    }
}

/// Decodes [`encode_name`] output. Total: bytes the encoder cannot
/// produce — a missing trailing separator, non-ASCII label bytes — are
/// reported as `Err`, never a panic, so a checksum collision or a logic
/// bug upstream surfaces as corruption instead of an abort.
// lint:certify(no-panic)
pub fn decode_name(bytes: &[u8]) -> Result<Name, String> {
    if bytes.is_empty() {
        return Ok(Name::root());
    }
    let body = bytes
        .strip_suffix(b"\x00")
        .ok_or_else(|| "name encoding missing trailing separator".to_string())?;
    // The key holds the labels TLD first; the name wants them leftmost first.
    let mut name = NameBuilder::new();
    for seg in body.rsplit(|&b| b == 0) {
        let text = std::str::from_utf8(seg).map_err(|_| "label is not UTF-8".to_string())?;
        name.push_label(seg).map_err(|e| match e {
            NameParseError::TooLong(_) => e.to_string(),
            _ => format!("invalid label {text:?}"),
        })?;
    }
    name.to_name().map_err(|e| e.to_string())
}

/// The half-open upper bound of `prefix`'s subtree range: the prefix with
/// its final separator bumped from `0x00` to `0x01` (no label byte sorts
/// between them). `None` means "unbounded" — the root's subtree is the
/// whole store.
pub fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut upper = prefix.to_vec();
    let last = upper.last_mut()?;
    debug_assert_eq!(*last, 0);
    *last = 1;
    Some(upper)
}

const TAG_A: u8 = 1;
const TAG_AAAA: u8 = 2;
const TAG_CNAME: u8 = 3;
const TAG_NS: u8 = 4;
const TAG_PTR: u8 = 5;
const TAG_TXT: u8 = 6;
const TAG_MX: u8 = 7;
const TAG_SOA: u8 = 8;
const TAG_OPAQUE: u8 = 9;

fn push_prefixed_name(out: &mut Vec<u8>, name: &Name) {
    let at = out.len();
    out.extend_from_slice(&[0, 0]);
    encode_name_into(name, out);
    let len = u16::try_from(out.len() - at - 2).expect("names are under 64 KiB");
    out[at..at + 2].copy_from_slice(&len.to_be_bytes());
}

fn take_prefixed_name(bytes: &[u8]) -> Result<(Name, &[u8]), String> {
    let (len_bytes, rest) =
        bytes.split_at_checked(2).ok_or_else(|| "truncated name length".to_string())?;
    let len_bytes: [u8; 2] =
        len_bytes.try_into().map_err(|_| "truncated name length".to_string())?;
    let len = usize::from(u16::from_be_bytes(len_bytes));
    let (enc, rest) =
        rest.split_at_checked(len).ok_or_else(|| "truncated name encoding".to_string())?;
    Ok((decode_name(enc)?, rest))
}

/// Encodes RDATA as a tag byte plus a deterministic payload.
fn encode_rdata(rdata: &RData) -> Vec<u8> {
    let mut out = Vec::new();
    encode_rdata_into(rdata, &mut out);
    out
}

/// [`encode_rdata`], appended to `out`.
fn encode_rdata_into(rdata: &RData, out: &mut Vec<u8>) {
    match rdata {
        RData::A(a) => {
            out.push(TAG_A);
            out.extend_from_slice(&a.octets());
        }
        RData::Aaaa(a) => {
            out.push(TAG_AAAA);
            out.extend_from_slice(&a.octets());
        }
        RData::Cname(n) => {
            out.push(TAG_CNAME);
            encode_name_into(n, out);
        }
        RData::Ns(n) => {
            out.push(TAG_NS);
            encode_name_into(n, out);
        }
        RData::Ptr(n) => {
            out.push(TAG_PTR);
            encode_name_into(n, out);
        }
        RData::Txt(s) => {
            out.push(TAG_TXT);
            out.extend_from_slice(s.as_bytes());
        }
        RData::Mx { preference, exchange } => {
            out.push(TAG_MX);
            out.extend_from_slice(&preference.to_be_bytes());
            encode_name_into(exchange, out);
        }
        RData::Soa { mname, rname, serial, refresh, retry, expire, minimum } => {
            out.push(TAG_SOA);
            push_prefixed_name(out, mname);
            push_prefixed_name(out, rname);
            for v in [serial, refresh, retry, expire, minimum] {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        RData::Opaque(b) => {
            out.push(TAG_OPAQUE);
            out.extend_from_slice(b);
        }
    }
}

/// Decodes the RDATA column of [`encode_key`]. Total: unknown tags and malformed
/// payloads are reported as `Err`, never a panic.
// lint:certify(no-panic)
pub fn decode_rdata(bytes: &[u8]) -> Result<RData, String> {
    let (tag, rest) = bytes.split_first().ok_or_else(|| "empty rdata encoding".to_string())?;
    match *tag {
        TAG_A => {
            let octets: [u8; 4] =
                rest.try_into().map_err(|_| "A payload is not 4 bytes".to_string())?;
            Ok(RData::A(Ipv4Addr::from(octets)))
        }
        TAG_AAAA => {
            let octets: [u8; 16] =
                rest.try_into().map_err(|_| "AAAA payload is not 16 bytes".to_string())?;
            Ok(RData::Aaaa(Ipv6Addr::from(octets)))
        }
        TAG_CNAME => Ok(RData::Cname(decode_name(rest)?)),
        TAG_NS => Ok(RData::Ns(decode_name(rest)?)),
        TAG_PTR => Ok(RData::Ptr(decode_name(rest)?)),
        TAG_TXT => {
            let text = std::str::from_utf8(rest).map_err(|_| "TXT is not UTF-8".to_string())?;
            Ok(RData::Txt(text.to_string()))
        }
        TAG_MX => {
            let (pref, rest) =
                rest.split_at_checked(2).ok_or_else(|| "truncated MX preference".to_string())?;
            let pref: [u8; 2] =
                pref.try_into().map_err(|_| "truncated MX preference".to_string())?;
            Ok(RData::Mx { preference: u16::from_be_bytes(pref), exchange: decode_name(rest)? })
        }
        TAG_SOA => {
            let (mname, rest) = take_prefixed_name(rest)?;
            let (rname, rest) = take_prefixed_name(rest)?;
            if rest.len() != 20 {
                return Err("SOA counters are not 20 bytes".to_string());
            }
            let mut words =
                rest.chunks_exact(4).map(|c| c.try_into().map(u32::from_be_bytes).unwrap_or(0));
            let mut next = || words.next().unwrap_or(0);
            Ok(RData::Soa {
                mname,
                rname,
                serial: next(),
                refresh: next(),
                retry: next(),
                expire: next(),
                minimum: next(),
            })
        }
        TAG_OPAQUE => Ok(RData::Opaque(rest.to_vec())),
        other => Err(format!("unknown rdata tag {other}")),
    }
}

/// Encodes a full deduplication key.
// lint:allow(dead-api): crates/pdns/tests/{proptests,durability_props}.rs build keys with it
pub fn encode_key(name: &Name, qtype: QType, rdata: &RData) -> CompositeKey {
    (encode_name(name), qtype.code(), encode_rdata(rdata))
}

/// Decodes a key's columns back into an [`RrKey`] — scans decode
/// straight out of a run's byte buffers without materialising an owned
/// composite key. Total: malformed columns and unknown qtype codes are
/// `Err`, never a panic.
// lint:certify(no-panic)
pub fn decode_key_parts(name: &[u8], qtype: u16, rdata: &[u8]) -> Result<RrKey, String> {
    Ok(RrKey {
        name: decode_name(name)?,
        qtype: QType::from_code(qtype).ok_or_else(|| format!("unknown qtype code {qtype}"))?,
        rdata: decode_rdata(rdata)?,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A key of one of three shapes (A, AAAA, CNAME rdata) for `id`.
    pub(crate) fn merge_key(id: u32, shape: u8) -> CompositeKey {
        let name: Name = format!("h{id}.z{}.example", id % 7).parse().unwrap();
        let (qtype, rdata) = match shape {
            0 => (QType::A, RData::A(Ipv4Addr::from(id))),
            1 => (QType::Aaaa, RData::Aaaa(Ipv6Addr::from(u128::from(id)))),
            _ => (QType::Cname, RData::Cname(format!("e{id}.cdn.example").parse().unwrap())),
        };
        encode_key(&name, qtype, &rdata)
    }

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn name_roundtrip_and_reverse_label_order() {
        for s in ["com", "vendor.com", "a.b.vendor.com", "."] {
            let n = name(s);
            assert_eq!(decode_name(&encode_name(&n)).unwrap(), n, "{s}");
        }
        // Reverse-label order: a zone's children sort inside its range,
        // siblings outside it.
        let zone = encode_name(&name("vendor.com"));
        let child = encode_name(&name("x.vendor.com"));
        let sibling = encode_name(&name("vendorx.com"));
        assert!(child.starts_with(&zone));
        assert!(!sibling.starts_with(&zone));
        let upper = prefix_upper_bound(&zone).unwrap();
        assert!(child < upper);
        assert!(zone < upper);
    }

    #[test]
    fn subtree_range_matches_is_subdomain_of() {
        let zone = name("ads.vendor.com");
        let zenc = encode_name(&zone);
        for s in ["ads.vendor.com", "x.ads.vendor.com", "vendor.com", "bds.vendor.com", "com"] {
            let n = name(s);
            assert_eq!(encode_name(&n).starts_with(&zenc), n.is_subdomain_of(&zone), "{s} vs zone");
        }
    }

    #[test]
    fn rdata_roundtrips_every_variant() {
        let variants = vec![
            RData::A(Ipv4Addr::new(192, 0, 2, 7)),
            RData::Aaaa(Ipv6Addr::LOCALHOST),
            RData::Cname(name("edge.cdn.example.net")),
            RData::Ns(name("ns1.example.net")),
            RData::Ptr(name("host.example.com")),
            RData::Txt("v=spf1 -all".to_string()),
            RData::Mx { preference: 10, exchange: name("mx.example.com") },
            RData::Soa {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 2026,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            },
            RData::Opaque(vec![1, 2, 3, 0, 255]),
        ];
        for rdata in variants {
            assert_eq!(decode_rdata(&encode_rdata(&rdata)).unwrap(), rdata, "{rdata:?}");
        }
    }

    #[test]
    fn key_roundtrip_preserves_storage_accounting() {
        let key = RrKey {
            name: name("d1234.dns.xx.fbcdn.example"),
            qtype: QType::A,
            rdata: RData::A(Ipv4Addr::new(203, 0, 113, 9)),
        };
        let enc = encode_key(&key.name, key.qtype, &key.rdata);
        let back = decode_key_parts(&enc.0, enc.1, &enc.2).unwrap();
        assert_eq!(back, key);
        assert_eq!(back.storage_bytes(), key.storage_bytes());
    }
}
