//! The decoder [`super::decode`] replaced, kept as the oracle the
//! differential tests hold the view and its owned build to (the way
//! `trace_io::reference` keeps the `core::fmt` codec): a walk that builds
//! every name as it meets it. It shares no name blocks, which changes
//! allocations, never a value or an error.

use std::net::{Ipv4Addr, Ipv6Addr};

use super::{WireError, CLASS_IN, MAX_POINTER_HOPS, POINTER_MASK};
use crate::message::{Message, Opcode, Question, Rcode};
use crate::name::{Name, NameBuilder, NameParseError};
use crate::record::{QType, RData, Record, Soa};
use crate::time::Ttl;

pub(crate) fn decode(bytes: &[u8]) -> Result<Message, WireError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let id = cur.u16()?;
    let flags = cur.u16()?;
    let qdcount = cur.u16()?;
    let ancount = cur.u16()?;
    let nscount = cur.u16()?;
    let _arcount = cur.u16()?;
    if qdcount != 1 {
        return Err(WireError::UnsupportedCounts);
    }

    let qname = cur.name()?;
    let qtype_code = cur.u16()?;
    let qtype = QType::from_code(qtype_code).ok_or(WireError::UnsupportedType(qtype_code))?;
    let class = cur.u16()?;
    if class != CLASS_IN {
        return Err(WireError::UnsupportedClass(class));
    }

    let mut answers = Vec::new();
    for _ in 0..ancount {
        answers.push(cur.read_record()?);
    }
    let mut authority = Vec::new();
    for _ in 0..nscount {
        authority.push(cur.read_record()?);
    }

    Ok(Message {
        id,
        is_response: flags & 0x8000 != 0,
        opcode: Opcode::from_code(((flags >> 11) & 0x0f) as u8),
        authoritative: flags & 0x0400 != 0,
        recursion_desired: flags & 0x0100 != 0,
        recursion_available: flags & 0x0080 != 0,
        rcode: Rcode::from_code((flags & 0x0f) as u8),
        question: Question::new(qname, qtype),
        answers,
        authority,
    })
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let chunk: [u8; 2] = self.slice(2)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u16::from_be_bytes(chunk))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let chunk: [u8; 4] = self.slice(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_be_bytes(chunk))
    }

    fn slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn name(&mut self) -> Result<Name, WireError> {
        let mut name = NameBuilder::new();
        let mut pos = self.pos;
        let mut end_after: Option<usize> = None;
        let mut hops = 0usize;
        loop {
            let len_byte = *self.bytes.get(pos).ok_or(WireError::Truncated)?;
            if len_byte & POINTER_MASK == POINTER_MASK {
                let second = *self.bytes.get(pos + 1).ok_or(WireError::Truncated)?;
                let target = usize::from(u16::from_be_bytes([len_byte & !POINTER_MASK, second]));
                if target >= pos {
                    return Err(WireError::BadPointer);
                }
                hops += 1;
                if hops > MAX_POINTER_HOPS {
                    return Err(WireError::PointerChainTooLong(hops));
                }
                if end_after.is_none() {
                    end_after = Some(pos + 2);
                }
                pos = target;
                continue;
            }
            if len_byte & POINTER_MASK != 0 {
                return Err(WireError::BadLabelType(len_byte));
            }
            if len_byte == 0 {
                pos += 1;
                break;
            }
            let len = usize::from(len_byte);
            let start = pos + 1;
            let label = self.bytes.get(start..start + len).ok_or(WireError::Truncated)?;
            name.push_label(label).map_err(|e| match e {
                NameParseError::TooLong(_) => WireError::NameTooLong,
                NameParseError::Label(_) | NameParseError::EmptyLabel => WireError::BadLabel,
            })?;
            pos = start + len;
        }
        self.pos = end_after.unwrap_or(pos);
        name.to_name().map_err(|_| WireError::BadLabel)
    }

    fn read_record(&mut self) -> Result<Record, WireError> {
        let name = self.name()?;
        let type_code = self.u16()?;
        let qtype = QType::from_code(type_code).ok_or(WireError::UnsupportedType(type_code))?;
        let class = self.u16()?;
        if class != CLASS_IN {
            return Err(WireError::UnsupportedClass(class));
        }
        let ttl = Ttl::from_secs(self.u32()?);
        let rdlen = usize::from(self.u16()?);
        let rd_end = self.pos.checked_add(rdlen).ok_or(WireError::Truncated)?;
        if rd_end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let rdata = match qtype {
            QType::A => {
                if rdlen != 4 {
                    return Err(WireError::BadRdata);
                }
                let octets: [u8; 4] = self.slice(4)?.try_into().map_err(|_| WireError::BadRdata)?;
                RData::A(Ipv4Addr::from(octets))
            }
            QType::Aaaa => {
                if rdlen != 16 {
                    return Err(WireError::BadRdata);
                }
                let octets: [u8; 16] =
                    self.slice(16)?.try_into().map_err(|_| WireError::BadRdata)?;
                RData::Aaaa(Ipv6Addr::from(octets))
            }
            QType::Cname | QType::Ns | QType::Ptr => {
                let n = self.name()?;
                if self.pos != rd_end {
                    return Err(WireError::BadRdata);
                }
                match qtype {
                    QType::Cname => RData::Cname(n),
                    QType::Ns => RData::Ns(n),
                    _ => RData::Ptr(n),
                }
            }
            QType::Txt => {
                if rdlen == 0 {
                    return Err(WireError::BadRdata);
                }
                let slen = usize::from(self.u8()?);
                if slen + 1 != rdlen {
                    return Err(WireError::BadRdata);
                }
                let s = self.slice(slen)?;
                let text = std::str::from_utf8(s).map_err(|_| WireError::BadRdata)?;
                RData::Txt(text.into())
            }
            QType::Mx => {
                if rdlen < 3 {
                    return Err(WireError::BadRdata);
                }
                let preference = self.u16()?;
                let exchange = self.name()?;
                if self.pos != rd_end {
                    return Err(WireError::BadRdata);
                }
                RData::Mx { preference, exchange }
            }
            QType::Soa => {
                let mname = self.name()?;
                let rname = self.name()?;
                if rd_end.saturating_sub(self.pos) != 20 {
                    return Err(WireError::BadRdata);
                }
                RData::Soa(Box::new(Soa {
                    mname,
                    rname,
                    serial: self.u32()?,
                    refresh: self.u32()?,
                    retry: self.u32()?,
                    expire: self.u32()?,
                    minimum: self.u32()?,
                }))
            }
            QType::Rrsig | QType::Dnskey | QType::Ds => RData::Opaque(self.slice(rdlen)?.into()),
        };
        Ok(Record { name, qtype, ttl, rdata })
    }
}
