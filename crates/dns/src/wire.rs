//! RFC 1035 wire-format codec with name compression.
//!
//! Passive-DNS collectors parse response packets off the wire; this module
//! lets the `dnsnoise` pipeline exercise that same path. The codec
//! supports the subset of DNS needed by the simulation: one question,
//! answer-section records of every [`QType`] this crate models, and
//! standard 0xC0 compression pointers (emitted on encode and followed, with
//! loop protection, on decode).
//!
//! # Examples
//!
//! ```
//! use dnsnoise_dns::{wire, Message, Question, QType, Rcode, Record, RData, Ttl};
//! use std::net::Ipv4Addr;
//!
//! let name: dnsnoise_dns::Name = "www.example.com".parse()?;
//! let msg = Message::response(
//!     42,
//!     Question::new(name.clone(), QType::A),
//!     Rcode::NoError,
//!     vec![Record::new(name, QType::A, Ttl::from_secs(300), RData::A(Ipv4Addr::new(192, 0, 2, 7)))],
//! );
//! let mut bytes = Vec::new();
//! wire::Encoder::new().append(
//!     &mut bytes,
//!     wire::Header::from(&msg),
//!     &msg.question.name,
//!     msg.question.qtype,
//!     &msg.answers,
//!     &msg.authority,
//! )?;
//! let back = wire::decode(&bytes)?;
//! assert_eq!(back, msg);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::message::{Message, Opcode, Question, Rcode};
use crate::name::{Name, NameBuilder, NameParseError};
use crate::record::{QType, RData, RDataRef, Record, RecordRef, Soa};
use crate::time::Ttl;

/// Errors raised while encoding or decoding wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A compression pointer chain looped or pointed forward.
    BadPointer,
    /// A compression pointer chain exceeded [`MAX_POINTER_HOPS`]. Backward
    /// pointers alone already rule out loops, but a crafted chain can still
    /// force `O(n)` hops each re-reading `O(n)` labels — quadratic work per
    /// message. The hop cap turns that into a typed error.
    PointerChainTooLong(usize),
    /// A label length byte used the reserved `0x40`/`0x80` prefixes.
    BadLabelType(u8),
    /// A decoded label failed validation.
    BadLabel,
    /// A name exceeded length limits during decode.
    NameTooLong,
    /// The record type code is not supported by this codec.
    UnsupportedType(u16),
    /// The record class is not IN.
    UnsupportedClass(u16),
    /// RDATA length disagreed with the record type's layout.
    BadRdata,
    /// The message had a section count this codec does not support
    /// (exactly one question is required).
    UnsupportedCounts,
    /// TXT RDATA exceeded 255 bytes.
    TxtTooLong(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadPointer => write!(f, "invalid compression pointer"),
            WireError::PointerChainTooLong(n) => {
                write!(f, "compression pointer chain of {n} hops exceeds {MAX_POINTER_HOPS}")
            }
            WireError::BadLabelType(b) => write!(f, "unsupported label type byte {b:#04x}"),
            WireError::BadLabel => write!(f, "label failed validation"),
            WireError::NameTooLong => write!(f, "decoded name exceeds length limit"),
            WireError::UnsupportedType(t) => write!(f, "unsupported record type {t}"),
            WireError::UnsupportedClass(c) => write!(f, "unsupported record class {c}"),
            WireError::BadRdata => write!(f, "rdata length mismatch"),
            WireError::UnsupportedCounts => write!(f, "unsupported section counts"),
            WireError::TxtTooLong(n) => write!(f, "txt rdata of {n} bytes exceeds 255"),
        }
    }
}

impl std::error::Error for WireError {}

const CLASS_IN: u16 = 1;
const POINTER_MASK: u8 = 0xc0;

/// Most compression-pointer hops the decoder follows for one name. A name
/// has at most 127 labels, and every legitimate hop must land on a label
/// sequence written earlier, so real messages never chain anywhere near
/// this deep; hostile ones can (each hop strictly backward but only by a
/// few bytes), which without a cap costs quadratic work per message.
pub const MAX_POINTER_HOPS: usize = 127;

/// The header fields of a message, all but the section counts, which
/// [`Encoder::append`] takes from the sections it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
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
}

impl Header {
    /// A response's header, with the bits [`Message::response`] sets.
    pub fn response(id: u16, rcode: Rcode) -> Header {
        Header {
            id,
            is_response: true,
            opcode: Opcode::Query,
            authoritative: false,
            recursion_desired: true,
            recursion_available: true,
            rcode,
        }
    }

    fn flags(self) -> u16 {
        let bit = |set: bool, mask: u16| if set { mask } else { 0 };
        bit(self.is_response, 0x8000)
            | u16::from(self.opcode.code()) << 11
            | bit(self.authoritative, 0x0400)
            | bit(self.recursion_desired, 0x0100)
            | bit(self.recursion_available, 0x0080)
            | u16::from(self.rcode.code())
    }
}

impl From<&Message> for Header {
    fn from(msg: &Message) -> Header {
        Header {
            id: msg.id,
            is_response: msg.is_response,
            opcode: msg.opcode,
            authoritative: msg.authoritative,
            recursion_desired: msg.recursion_desired,
            recursion_available: msg.recursion_available,
            rcode: msg.rcode,
        }
    }
}

/// Offsets past this one cannot be named by a 14-bit compression pointer.
const POINTER_WINDOW_END: usize = 0x3fff;

/// Encodes messages to wire format, appending each to a caller's buffer
/// and compressing repeated names.
///
/// A name is written as its labels up to the longest suffix the message
/// has already written, then a pointer to that suffix (or the root byte).
/// The suffixes written so far sit in a linear table, one entry per label
/// written at an offset a pointer can name: only offsets inside the 16 KiB
/// pointer window are recorded. Each label takes at least two bytes, so
/// the table never holds more than 8,186 entries, and a name costs one
/// scan of it; a message of a few names scans a few dozen. The table's
/// buffers are reused from one message to the next, so an encoder that
/// has seen a day's largest message allocates nothing more.
#[derive(Debug, Default)]
pub struct Encoder {
    /// The text of every name with a recorded suffix, back to back.
    text: String,
    /// The suffixes the current message has written inside the window.
    suffixes: Vec<Suffix>,
}

/// A written name suffix: the last `len` bytes of `text[..end]`, whose
/// first label starts at message offset `offset`.
#[derive(Debug, Clone, Copy)]
struct Suffix {
    end: usize,
    len: usize,
    offset: u16,
}

impl Encoder {
    /// An encoder with empty tables.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Appends one message to `out`: `header`, one question (`qname`,
    /// `qtype`), the `answers` and `authority` sections and no additional
    /// records. Compression pointers are relative to the message's first
    /// byte, wherever in `out` it lands.
    ///
    /// # Errors
    ///
    /// [`WireError::UnsupportedCounts`] for a section of more than 65,535
    /// records, [`WireError::TxtTooLong`] for a TXT payload over 255 bytes
    /// and [`WireError::BadRdata`] for RDATA over 65,535 bytes. On an error
    /// `out` is left as it was.
    pub fn append(
        &mut self,
        out: &mut Vec<u8>,
        header: Header,
        qname: &Name,
        qtype: QType,
        answers: &[Record],
        authority: &[Record],
    ) -> Result<(), WireError> {
        let base = out.len();
        let result = self.write_message(out, header, qname, qtype, answers, authority);
        if result.is_err() {
            out.truncate(base);
        }
        result
    }

    fn write_message(
        &mut self,
        out: &mut Vec<u8>,
        header: Header,
        qname: &Name,
        qtype: QType,
        answers: &[Record],
        authority: &[Record],
    ) -> Result<(), WireError> {
        let count = |records: &[Record]| {
            u16::try_from(records.len()).map_err(|_| WireError::UnsupportedCounts)
        };
        let (ancount, nscount) = (count(answers)?, count(authority)?);
        self.text.clear();
        self.suffixes.clear();
        let base = out.len();
        for field in [header.id, header.flags(), 1, ancount, nscount, 0] {
            out.extend_from_slice(&field.to_be_bytes());
        }
        self.write_name(out, base, qname);
        out.extend_from_slice(&qtype.code().to_be_bytes());
        out.extend_from_slice(&CLASS_IN.to_be_bytes());
        for rr in answers.iter().chain(authority) {
            self.write_record(out, base, rr)?;
        }
        Ok(())
    }

    fn write_record(
        &mut self,
        out: &mut Vec<u8>,
        base: usize,
        rr: &Record,
    ) -> Result<(), WireError> {
        self.write_name(out, base, &rr.name);
        out.extend_from_slice(&rr.qtype.code().to_be_bytes());
        out.extend_from_slice(&CLASS_IN.to_be_bytes());
        out.extend_from_slice(&rr.ttl.as_secs().to_be_bytes());
        // Reserve the RDLENGTH slot and backfill it once the RDATA is written.
        let len_pos = out.len();
        out.extend_from_slice(&[0, 0]);
        match &rr.rdata {
            RData::A(a) => out.extend_from_slice(&a.octets()),
            RData::Aaaa(a) => out.extend_from_slice(&a.octets()),
            RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => self.write_name(out, base, n),
            RData::Txt(s) => {
                let len = u8::try_from(s.len()).map_err(|_| WireError::TxtTooLong(s.len()))?;
                out.push(len);
                out.extend_from_slice(s.as_bytes());
            }
            RData::Mx { preference, exchange } => {
                out.extend_from_slice(&preference.to_be_bytes());
                self.write_name(out, base, exchange);
            }
            RData::Soa(soa) => {
                let Soa { mname, rname, serial, refresh, retry, expire, minimum } = &**soa;
                self.write_name(out, base, mname);
                self.write_name(out, base, rname);
                for field in [serial, refresh, retry, expire, minimum] {
                    out.extend_from_slice(&field.to_be_bytes());
                }
            }
            RData::Opaque(b) => out.extend_from_slice(b),
        }
        let rdlen = u16::try_from(out.len() - len_pos - 2).map_err(|_| WireError::BadRdata)?;
        out[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
        Ok(())
    }

    /// The longest suffix of `text` (a whole label sequence) this message
    /// has written: its length and offset.
    fn longest_suffix(&self, text: &str) -> Option<(usize, u16)> {
        let mut best: Option<(usize, u16)> = None;
        for s in &self.suffixes {
            if s.len > text.len() || best.is_some_and(|(len, _)| len >= s.len) {
                continue;
            }
            let at = text.len() - s.len;
            let aligned = at == 0 || text.as_bytes()[at - 1] == b'.';
            if aligned && text[at..] == self.text[s.end - s.len..s.end] {
                best = Some((s.len, s.offset));
            }
        }
        best
    }

    /// Writes `name` at the end of the message that starts at `out[base]`.
    fn write_name(&mut self, out: &mut Vec<u8>, base: usize, name: &Name) {
        if name.is_root() {
            out.push(0);
            return;
        }
        let text = name.as_str();
        let found = self.longest_suffix(text);
        // The labels before the suffix found, without the dot ending them.
        let inline = found.map_or(text.len(), |(len, _)| text.len().saturating_sub(len + 1));
        let end = self.text.len() + text.len();
        let mut at = 0;
        while at < inline {
            let offset = out.len() - base;
            if offset <= POINTER_WINDOW_END {
                if self.text.len() < end {
                    self.text.push_str(text);
                }
                self.suffixes.push(Suffix { end, len: text.len() - at, offset: offset as u16 });
            }
            let label_end = text[at..inline].find('.').map_or(inline, |dot| at + dot);
            out.push((label_end - at) as u8);
            out.extend_from_slice(&text.as_bytes()[at..label_end]);
            at = label_end + 1;
        }
        match found {
            Some((_, offset)) => out.extend_from_slice(&(0xc000 | offset).to_be_bytes()),
            None => out.push(0),
        }
    }

    /// How many suffixes the table holds.
    #[cfg(test)]
    fn recorded(&self) -> usize {
        self.suffixes.len()
    }
}

/// Decodes a wire-format message: [`MessageView::decode_message`] into a
/// view on the stack, then [`MessageView::to_message`].
///
/// # Errors
///
/// Returns an error for truncated input, malformed names or pointers,
/// unsupported types/classes, or section counts other than exactly one
/// question.
// lint:certify(no-panic)
pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
    let mut view = MessageView::on_stack();
    view.decode_message(bytes)?;
    Ok(view.to_message())
}

/// A decoded message held in reused buffers, not in owned values: one
/// text buffer with every name's lower-cased presentation text (and every
/// TXT payload), and per record a name span, type, TTL and rdata whose
/// names are spans and whose payloads are slices of the view's buffers.
///
/// [`MessageView::decode_message`] validates exactly what [`decode`] does,
/// reporting the same [`WireError`] in the same precedence, because
/// [`decode`] is that walk followed by [`MessageView::to_message`]. A view
/// a caller keeps and refills allocates only while its buffers grow to
/// the largest message it has held, so decoding a day's responses into
/// one and rendering them through [`MessageView::answer_records`] costs no heap
/// per message.
///
/// A name that is a bare compression pointer to the start of a name the
/// message already decoded — an answer owned by the question, a record
/// owned by the previous CNAME target — reuses that name's span rather
/// than copying its text, and [`MessageView::to_message`] hands every use
/// of one span one heap block: one block per distinct name.
///
/// # Examples
///
/// ```
/// use dnsnoise_dns::{wire, Message, Question, QType, Rcode, Record, RData, RDataRef, Ttl};
/// use std::net::Ipv4Addr;
///
/// let name: dnsnoise_dns::Name = "WWW.example.com".parse()?;
/// let msg = Message::response(
///     7,
///     Question::new(name.clone(), QType::A),
///     Rcode::NoError,
///     vec![Record::new(name, QType::A, Ttl::from_secs(60), RData::A(Ipv4Addr::new(192, 0, 2, 1)))],
/// );
/// let mut bytes = Vec::new();
/// wire::Encoder::new().append(&mut bytes, (&msg).into(), &msg.question.name, QType::A, &msg.answers, &[])?;
///
/// let mut view = wire::MessageView::new();
/// view.decode_message(&bytes)?;
/// assert_eq!(view.qname(), "www.example.com");
/// let answer = view.answer_records().next().unwrap();
/// assert_eq!(answer.rdata, RDataRef::A(Ipv4Addr::new(192, 0, 2, 1)));
/// assert_eq!(view.to_message(), msg);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MessageView {
    id: u16,
    flags: u16,
    qname: Span,
    qtype: QType,
    /// How many of `records` are answers; the rest are authority records.
    answers: usize,
    records: Buf<RecordAt, RECORDS_IN_PLACE>,
    /// Every name decoded, by the wire offset it started at (ascending).
    seen: Buf<Seen, NAMES_IN_PLACE>,
    text: Text,
    opaque: Buf<u8, OPAQUE_IN_PLACE>,
}

/// Records, names and bytes a view holds in place before it moves a
/// buffer to the heap: enough for the messages a resolver answers, so
/// [`decode`], whose view lives on the stack for one call, allocates
/// nothing but the message it returns.
const RECORDS_IN_PLACE: usize = 4;
const NAMES_IN_PLACE: usize = 8;
const TEXT_IN_PLACE: usize = 256;
const OPAQUE_IN_PLACE: usize = 32;

/// Where a name is first built when a view becomes a [`Message`]: every
/// later use of its span clones the block built there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    Question,
    /// The owner of record `i` (answers first, then authority).
    Owner(usize),
    /// Record `i`'s first rdata name: a CNAME/NS/PTR target, an MX
    /// exchange or an SOA mname.
    Target(usize),
    /// Record `i`'s SOA rname.
    Rname(usize),
}

/// A name's text in the view's text buffer, and where it is first built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: usize,
    len: usize,
    site: Site,
}

impl Span {
    const ROOT: Span = Span { start: 0, len: 0, site: Site::Question };
}

/// A decoded name: the wire offset it started at, the pointer hops its
/// walk took, and its span.
#[derive(Debug, Clone, Copy)]
struct Seen {
    wire: usize,
    hops: usize,
    name: Span,
}

#[derive(Debug, Clone, Copy)]
struct RecordAt {
    name: Span,
    qtype: QType,
    ttl: Ttl,
    rdata: RDataAt,
}

impl RecordAt {
    const EMPTY: RecordAt = RecordAt {
        name: Span::ROOT,
        qtype: QType::A,
        ttl: Ttl::ZERO,
        rdata: RDataAt::A(Ipv4Addr::UNSPECIFIED),
    };
}

/// Record data with names as spans and payloads as ranges of the view's
/// buffers; the record's type tells a CNAME, NS and PTR target apart.
#[derive(Debug, Clone, Copy)]
enum RDataAt {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    Target(Span),
    /// A TXT payload's `(start, len)` in the text buffer.
    Txt(usize, usize),
    Mx(u16, Span),
    Soa(Span, Span, [u32; 5]),
    /// An opaque payload's `(start, len)` in the opaque buffer.
    Opaque(usize, usize),
}

impl Default for MessageView {
    fn default() -> Self {
        MessageView::new()
    }
}

impl MessageView {
    /// An empty view for a caller to keep and refill: its buffers live on
    /// the heap and keep their capacity from one message to the next.
    pub fn new() -> Self {
        MessageView::with_buffers(true)
    }

    /// An empty view for one message: its buffers start in place.
    fn on_stack() -> Self {
        MessageView::with_buffers(false)
    }

    fn with_buffers(on_heap: bool) -> Self {
        MessageView {
            id: 0,
            flags: 0,
            qname: Span::ROOT,
            qtype: QType::A,
            answers: 0,
            records: Buf::new(RecordAt::EMPTY, Vec::new(), on_heap),
            seen: Buf::new(Seen { wire: 0, hops: 0, name: Span::ROOT }, Vec::new(), on_heap),
            text: Buf::new(0, String::new(), on_heap),
            opaque: Buf::new(0, Vec::new(), on_heap),
        }
    }

    /// Decodes `bytes` into this view, replacing what it held.
    ///
    /// # Errors
    ///
    /// Exactly [`decode`]'s. After an error the view holds a part of the
    /// message: refill it before reading it.
    // lint:certify(no-panic)
    pub fn decode_message(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.records.wipe();
        self.seen.wipe();
        self.text.wipe();
        self.opaque.wipe();
        let mut cur = Cursor { bytes, pos: 0, builder: NameBuilder::new() };
        self.id = cur.u16()?;
        self.flags = cur.u16()?;
        let qdcount = cur.u16()?;
        let ancount = cur.u16()?;
        let nscount = cur.u16()?;
        let _arcount = cur.u16()?;
        if qdcount != 1 {
            return Err(WireError::UnsupportedCounts);
        }

        self.qname = cur.name(self, Site::Question)?;
        let qtype_code = cur.u16()?;
        self.qtype = QType::from_code(qtype_code).ok_or(WireError::UnsupportedType(qtype_code))?;
        let class = cur.u16()?;
        if class != CLASS_IN {
            return Err(WireError::UnsupportedClass(class));
        }

        self.answers = usize::from(ancount);
        for i in 0..usize::from(ancount).saturating_add(usize::from(nscount)) {
            let record = cur.read_record(self, i)?;
            self.records.push(record);
        }
        Ok(())
    }

    /// Whether the QR bit is set.
    pub fn is_response(&self) -> bool {
        self.flags & 0x8000 != 0
    }

    /// The response code.
    pub fn rcode(&self) -> Rcode {
        Rcode::from_code((self.flags & 0x0f) as u8)
    }

    /// The question's name, as [`Name::as_str`] gives it (`.` for the root).
    pub fn qname(&self) -> &str {
        self.name_text(self.qname)
    }

    /// The question's type.
    pub fn qtype(&self) -> QType {
        self.qtype
    }

    /// The answer section, borrowed.
    pub fn answer_records(&self) -> impl ExactSizeIterator<Item = RecordRef<'_>> + '_ {
        let records = self.records.items();
        let answers = records.get(..self.answers).unwrap_or(records);
        answers.iter().map(|r| self.record_ref(r))
    }

    /// The owned message this view holds: what [`decode`] returns. Every
    /// use of one span shares one name block.
    pub fn to_message(&self) -> Message {
        let qname = Name::from_checked(self.span_text(self.qname));
        let records = self.records.items();
        let count = records.len();
        let answers_len = self.answers.min(count);
        let mut built = Built {
            qname,
            answers_len,
            answers: Vec::with_capacity(answers_len),
            authority: Vec::with_capacity(count.saturating_sub(answers_len)),
        };
        for (i, at) in records.iter().enumerate() {
            let record = self.build_record(i, at, &built);
            if i < answers_len {
                built.answers.push(record);
            } else {
                built.authority.push(record);
            }
        }
        let flags = self.flags;
        Message {
            id: self.id,
            is_response: flags & 0x8000 != 0,
            opcode: Opcode::from_code(((flags >> 11) & 0x0f) as u8),
            authoritative: flags & 0x0400 != 0,
            recursion_desired: flags & 0x0100 != 0,
            recursion_available: flags & 0x0080 != 0,
            rcode: Rcode::from_code((flags & 0x0f) as u8),
            question: Question::new(built.qname, self.qtype),
            answers: built.answers,
            authority: built.authority,
        }
    }

    fn build_record(&self, i: usize, at: &RecordAt, built: &Built) -> Record {
        let name = self.build_name(at.name, Site::Owner(i), built, (None, None));
        let own = Some(&name);
        let rdata = match at.rdata {
            RDataAt::A(a) => RData::A(a),
            RDataAt::Aaaa(a) => RData::Aaaa(a),
            RDataAt::Target(span) => {
                let target = self.build_name(span, Site::Target(i), built, (own, None));
                match at.qtype {
                    QType::Cname => RData::Cname(target),
                    QType::Ns => RData::Ns(target),
                    _ => RData::Ptr(target),
                }
            }
            RDataAt::Txt(start, len) => RData::Txt(self.text.get(start, len).into()),
            RDataAt::Mx(preference, span) => RData::Mx {
                preference,
                exchange: self.build_name(span, Site::Target(i), built, (own, None)),
            },
            RDataAt::Soa(m, r, [serial, refresh, retry, expire, minimum]) => {
                let mname = self.build_name(m, Site::Target(i), built, (own, None));
                let rname = self.build_name(r, Site::Rname(i), built, (own, Some(&mname)));
                RData::Soa(Box::new(Soa { mname, rname, serial, refresh, retry, expire, minimum }))
            }
            RDataAt::Opaque(start, len) => {
                RData::Opaque(self.opaque.items().get(start..start + len).unwrap_or(&[]).into())
            }
        };
        Record { name, qtype: at.qtype, ttl: at.ttl, rdata }
    }

    /// The name `span` names at `site`: a clone of the block built where
    /// the span was first decoded, or a new block when that is `site`.
    /// `current` holds the owner and the first rdata name of the record
    /// being built, which `built` does not hold yet.
    fn build_name(
        &self,
        span: Span,
        site: Site,
        built: &Built,
        current: (Option<&Name>, Option<&Name>),
    ) -> Name {
        let earlier = match span.site {
            _ if span.site == site => None,
            Site::Question => Some(&built.qname),
            Site::Owner(i) if Site::Target(i) == site || Site::Rname(i) == site => current.0,
            Site::Target(i) if Site::Rname(i) == site => current.1,
            Site::Owner(i) => built.built_record(i).map(|r| &r.name),
            Site::Target(i) => built.built_record(i).and_then(|r| match &r.rdata {
                RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => Some(n),
                RData::Mx { exchange, .. } => Some(exchange),
                RData::Soa(soa) => Some(&soa.mname),
                _ => None,
            }),
            Site::Rname(i) => built.built_record(i).and_then(|r| match &r.rdata {
                RData::Soa(soa) => Some(&soa.rname),
                _ => None,
            }),
        };
        match earlier {
            Some(name) => name.clone(),
            None => Name::from_checked(self.span_text(span)),
        }
    }

    fn record_ref(&self, at: &RecordAt) -> RecordRef<'_> {
        let rdata = match at.rdata {
            RDataAt::A(a) => RDataRef::A(a),
            RDataAt::Aaaa(a) => RDataRef::Aaaa(a),
            RDataAt::Target(span) => {
                let target = self.name_text(span);
                match at.qtype {
                    QType::Cname => RDataRef::Cname(target),
                    QType::Ns => RDataRef::Ns(target),
                    _ => RDataRef::Ptr(target),
                }
            }
            RDataAt::Txt(start, len) => RDataRef::Txt(self.text.get(start, len)),
            RDataAt::Mx(preference, span) => {
                RDataRef::Mx { preference, exchange: self.name_text(span) }
            }
            RDataAt::Soa(m, r, counters) => {
                RDataRef::Soa { mname: self.name_text(m), rname: self.name_text(r), counters }
            }
            RDataAt::Opaque(start, len) => {
                RDataRef::Opaque(self.opaque.items().get(start..start + len).unwrap_or(&[]))
            }
        };
        RecordRef { name: self.name_text(at.name), qtype: at.qtype, ttl: at.ttl, rdata }
    }

    /// A span's text: `""` for the root.
    fn span_text(&self, span: Span) -> &str {
        self.text.get(span.start, span.len)
    }

    /// A span's presentation text: `.` for the root.
    fn name_text(&self, span: Span) -> &str {
        match self.span_text(span) {
            "" => ".",
            text => text,
        }
    }

    /// The name a bare pointer at `at` in `bytes` decodes to, when it
    /// points (strictly backward) at the start of a name this message
    /// decoded whose chain leaves room for this one more hop; `None` sends
    /// the caller down the full walk, which also reports every defect.
    /// Returns the span and the hops its walk would take.
    fn shared(&self, bytes: &[u8], at: usize) -> Option<(Span, usize)> {
        let pointer: [u8; 2] = bytes.get(at..at.checked_add(2)?)?.try_into().ok()?;
        let [first, second] = pointer;
        if first & POINTER_MASK != POINTER_MASK {
            return None;
        }
        let target = usize::from(u16::from_be_bytes([first & !POINTER_MASK, second]));
        if target >= at {
            return None;
        }
        let seen = self.seen.items();
        let found = seen.get(seen.binary_search_by_key(&target, |s| s.wire).ok()?)?;
        (found.hops < MAX_POINTER_HOPS).then_some((found.name, found.hops.saturating_add(1)))
    }
}

/// The parts of a [`Message`] [`MessageView::to_message`] has built.
struct Built {
    qname: Name,
    answers_len: usize,
    answers: Vec<Record>,
    authority: Vec<Record>,
}

impl Built {
    /// Record `i`, answers first, once built.
    fn built_record(&self, i: usize) -> Option<&Record> {
        match i.checked_sub(self.answers_len) {
            None => self.answers.get(i),
            Some(j) => self.authority.get(j),
        }
    }
}

/// A view's buffer of `Copy` items: the first `N` in place, until a push
/// that does not fit moves them all to the heap side `H`, where they stay
/// (with its capacity) from then on. `H` is a `Vec<T>`, or for the
/// [`Text`] a `String`, which reads back as `&str` with no check.
#[derive(Debug)]
struct Buf<T, const N: usize, H = Vec<T>> {
    in_place: [T; N],
    len: usize,
    heap: H,
    on_heap: bool,
}

/// The heap side of a [`Buf`] of `T`s, which takes pushes of `Piece`s.
trait Heap<T>: AsRef<[T]> {
    /// `[T]`, or `str` for a `String`.
    type Piece: ?Sized + AsRef<[T]>;

    fn spill(&mut self, piece: &Self::Piece);

    /// Takes the in-place items, moved by the first push that does not fit.
    fn spill_held(&mut self, held: &[T]);

    /// Empties it, keeping its capacity.
    fn wipe_heap(&mut self);
}

impl<T: Copy> Heap<T> for Vec<T> {
    type Piece = [T];

    fn spill(&mut self, piece: &[T]) {
        self.extend_from_slice(piece);
    }

    fn spill_held(&mut self, held: &[T]) {
        self.extend_from_slice(held);
    }

    fn wipe_heap(&mut self) {
        // Called by path, as are `String`'s below, so the no-panic
        // certification admits these std fns alone, not every method of
        // their names.
        Vec::clear(self);
    }
}

impl Heap<u8> for String {
    type Piece = str;

    fn spill(&mut self, piece: &str) {
        String::push_str(self, piece);
    }

    fn spill_held(&mut self, held: &[u8]) {
        // The held bytes were pushed as `&str`s.
        String::push_str(self, std::str::from_utf8(held).unwrap_or(""));
    }

    fn wipe_heap(&mut self) {
        String::clear(self);
    }
}

impl<T: Copy, const N: usize, H: Heap<T>> Buf<T, N, H> {
    /// An empty buffer that starts on `heap` (empty) or in place.
    fn new(fill: T, heap: H, on_heap: bool) -> Self {
        Buf { in_place: [fill; N], len: 0, heap, on_heap }
    }

    fn items(&self) -> &[T] {
        match self.on_heap {
            true => AsRef::as_ref(&self.heap),
            false => self.in_place.get(..self.len).unwrap_or(&[]),
        }
    }

    fn wipe(&mut self) {
        self.len = 0;
        self.heap.wipe_heap();
    }

    fn extend_from(&mut self, piece: &H::Piece) {
        if !self.on_heap {
            let items: &[T] = AsRef::as_ref(piece);
            let end = self.len.saturating_add(items.len());
            if let Some(room) = self.in_place.get_mut(self.len..end) {
                for (slot, item) in room.iter_mut().zip(items) {
                    *slot = *item;
                }
                self.len = end;
                return;
            }
            self.heap.spill_held(self.in_place.get(..self.len).unwrap_or(&[]));
            self.on_heap = true;
        }
        self.heap.spill(piece);
    }
}

impl<T: Copy, const N: usize> Buf<T, N> {
    fn push(&mut self, item: T) {
        self.extend_from(&[item]);
    }
}

/// A view's text: every name and TXT payload it decoded, back to back.
type Text = Buf<u8, TEXT_IN_PLACE, String>;

impl Text {
    /// The `len` bytes from `start`; `""` if they are not a span of the
    /// text. On the heap a span is a plain slice; in place (only
    /// [`decode`]'s one-message view) it is checked as it is read.
    fn get(&self, start: usize, len: usize) -> &str {
        let range = start..start.saturating_add(len);
        match self.on_heap {
            true => self.heap.get(range).unwrap_or(""),
            false => std::str::from_utf8(self.items().get(range).unwrap_or(&[])).unwrap_or(""),
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The name being walked, reused from one name to the next.
    builder: NameBuilder,
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

    /// Decodes the possibly compressed name at the current position into
    /// `view`, first built at `site`: a bare pointer to a name the message
    /// already decoded reuses its span, anything else walks its labels
    /// and copies their text.
    fn name(&mut self, view: &mut MessageView, site: Site) -> Result<Span, WireError> {
        let start = self.pos;
        let (name, hops) = match view.shared(self.bytes, start) {
            Some(shared) => {
                self.pos = start.saturating_add(2);
                shared
            }
            None => {
                let hops = self.walk_name()?;
                let text = self.builder.text().map_err(|_| WireError::BadLabel)?;
                let span = Span { start: view.text.items().len(), len: text.len(), site };
                view.text.extend_from(text);
                (span, hops)
            }
        };
        view.seen.push(Seen { wire: start, hops, name });
        Ok(name)
    }

    /// Walks the labels and pointers of the name at the current position
    /// into the builder; returns the number of pointer hops taken.
    fn walk_name(&mut self) -> Result<usize, WireError> {
        self.builder.reset();
        let mut pos = self.pos;
        // After the first pointer the cursor no longer advances; remember
        // where the inline portion ended.
        let mut end_after: Option<usize> = None;
        let mut hops = 0usize;
        loop {
            let len_byte = *self.bytes.get(pos).ok_or(WireError::Truncated)?;
            if len_byte & POINTER_MASK == POINTER_MASK {
                let second = *self.bytes.get(pos + 1).ok_or(WireError::Truncated)?;
                let target = usize::from(u16::from_be_bytes([len_byte & !POINTER_MASK, second]));
                // Pointers must point strictly backwards; this also bounds
                // the number of hops to the message length.
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
            // The builder holds the RFC 1035 limit: 255 octets on the wire,
            // root octet included, is `MAX_NAME_LEN` presentation characters.
            self.builder.push_label(label).map_err(|e| match e {
                NameParseError::TooLong(_) => WireError::NameTooLong,
                NameParseError::Label(_) | NameParseError::EmptyLabel => WireError::BadLabel,
            })?;
            pos = start + len;
        }
        self.pos = end_after.unwrap_or(pos);
        Ok(hops)
    }

    /// Decodes record `i` (answers first, then authority) into `view`'s
    /// buffers; the caller pushes the returned record.
    fn read_record(&mut self, view: &mut MessageView, i: usize) -> Result<RecordAt, WireError> {
        let name = self.name(view, Site::Owner(i))?;
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
                RDataAt::A(Ipv4Addr::from(octets))
            }
            QType::Aaaa => {
                if rdlen != 16 {
                    return Err(WireError::BadRdata);
                }
                let octets: [u8; 16] =
                    self.slice(16)?.try_into().map_err(|_| WireError::BadRdata)?;
                RDataAt::Aaaa(Ipv6Addr::from(octets))
            }
            QType::Cname | QType::Ns | QType::Ptr => {
                let target = self.name(view, Site::Target(i))?;
                if self.pos != rd_end {
                    return Err(WireError::BadRdata);
                }
                RDataAt::Target(target)
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
                let start = view.text.items().len();
                view.text.extend_from(text);
                RDataAt::Txt(start, text.len())
            }
            QType::Mx => {
                if rdlen < 3 {
                    return Err(WireError::BadRdata);
                }
                let preference = self.u16()?;
                let exchange = self.name(view, Site::Target(i))?;
                if self.pos != rd_end {
                    return Err(WireError::BadRdata);
                }
                RDataAt::Mx(preference, exchange)
            }
            QType::Soa => {
                let mname = self.name(view, Site::Target(i))?;
                let rname = self.name(view, Site::Rname(i))?;
                if rd_end.saturating_sub(self.pos) != 20 {
                    return Err(WireError::BadRdata);
                }
                let counters = [self.u32()?, self.u32()?, self.u32()?, self.u32()?, self.u32()?];
                RDataAt::Soa(mname, rname, counters)
            }
            QType::Rrsig | QType::Dnskey | QType::Ds => {
                let payload = self.slice(rdlen)?;
                let start = view.opaque.items().len();
                view.opaque.extend_from(payload);
                RDataAt::Opaque(start, payload.len())
            }
        };
        Ok(RecordAt { name, qtype, ttl, rdata })
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn encode(msg: &Message) -> Result<Vec<u8>, WireError> {
        let (mut out, q) = (Vec::new(), &msg.question);
        Encoder::new().append(
            &mut out,
            msg.into(),
            &q.name,
            q.qtype,
            &msg.answers,
            &msg.authority,
        )?;
        Ok(out)
    }

    fn sample_response() -> Message {
        Message::response(
            0xbeef,
            Question::new(name("www.example.com"), QType::A),
            Rcode::NoError,
            vec![
                Record::new(
                    name("www.example.com"),
                    QType::Cname,
                    Ttl::from_secs(60),
                    RData::Cname(name("edge.cdn.example.net")),
                ),
                Record::new(
                    name("edge.cdn.example.net"),
                    QType::A,
                    Ttl::from_secs(20),
                    RData::A(Ipv4Addr::new(192, 0, 2, 9)),
                ),
            ],
        )
    }

    #[test]
    fn roundtrip_response() {
        let msg = sample_response();
        let bytes = encode(&msg).unwrap();
        assert_eq!(decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let msg = sample_response();
        let compressed = encode(&msg).unwrap();
        // The answer name equals the question name, so it must be a 2-byte
        // pointer rather than 17 bytes of labels.
        let uncompressed_estimate = 12
            + (msg.question.name.presentation_len() + 2) // qname + root byte
            + 4;
        assert!(
            compressed.len()
                < uncompressed_estimate + 2 * (msg.question.name.presentation_len() + 30)
        );
        // Look for at least one pointer byte.
        assert!(compressed.iter().any(|&b| b & POINTER_MASK == POINTER_MASK));
    }

    #[test]
    fn roundtrip_every_rdata_variant() {
        let records = vec![
            Record::new(
                name("a.test"),
                QType::A,
                Ttl::from_secs(1),
                RData::A(Ipv4Addr::new(127, 0, 0, 1)),
            ),
            Record::new(
                name("aaaa.test"),
                QType::Aaaa,
                Ttl::from_secs(2),
                RData::Aaaa(Ipv6Addr::LOCALHOST),
            ),
            Record::new(
                name("c.test"),
                QType::Cname,
                Ttl::from_secs(3),
                RData::Cname(name("target.test")),
            ),
            Record::new(name("ns.test"), QType::Ns, Ttl::from_secs(4), RData::Ns(name("ns1.test"))),
            Record::new(
                name("p.test"),
                QType::Ptr,
                Ttl::from_secs(5),
                RData::Ptr(name("host.test")),
            ),
            Record::new(
                name("t.test"),
                QType::Txt,
                Ttl::from_secs(6),
                RData::Txt("hello world".into()),
            ),
            Record::new(
                name("m.test"),
                QType::Mx,
                Ttl::from_secs(7),
                RData::Mx { preference: 10, exchange: name("mail.test") },
            ),
            Record::new(
                name("s.test"),
                QType::Rrsig,
                Ttl::from_secs(8),
                RData::Opaque(Box::new([1, 2, 3, 4])),
            ),
        ];
        let msg =
            Message::response(1, Question::new(name("q.test"), QType::A), Rcode::NoError, records);
        let bytes = encode(&msg).unwrap();
        assert_eq!(decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn soa_and_authority_roundtrip() {
        let soa = Record::new(
            name("example.com"),
            QType::Soa,
            Ttl::from_secs(3_600),
            RData::Soa(Box::new(Soa {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 2011113001,
                refresh: 7_200,
                retry: 900,
                expire: 1_209_600,
                minimum: 900,
            })),
        );
        let msg =
            Message::negative_response(3, Question::new(name("gone.example.com"), QType::A), soa);
        let bytes = encode(&msg).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, msg);
        assert_eq!(back.negative_ttl(), Some(Ttl::from_secs(900)));
        // SOA names share suffixes with the qname: compression kicks in.
        assert!(bytes.iter().any(|&b| b & POINTER_MASK == POINTER_MASK));
    }

    #[test]
    fn truncated_soa_rdata_is_rejected() {
        let soa = Record::new(
            name("example.com"),
            QType::Soa,
            Ttl::from_secs(60),
            RData::Soa(Box::new(Soa {
                mname: name("ns1.example.com"),
                rname: name("h.example.com"),
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 5,
            })),
        );
        let msg =
            Message::negative_response(3, Question::new(name("x.example.com"), QType::A), soa);
        let bytes = encode(&msg).unwrap();
        // Chop the last counter field: the RDLENGTH no longer matches.
        assert!(decode(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn nxdomain_roundtrip() {
        let msg = Message::response(
            9,
            Question::new(name("no.such.name"), QType::A),
            Rcode::NxDomain,
            vec![],
        );
        let bytes = encode(&msg).unwrap();
        let back = decode(&bytes).unwrap();
        assert!(back.rcode.is_nxdomain());
        assert!(back.answers.is_empty());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = encode(&sample_response()).unwrap();
        for cut in [0, 5, 11, 13, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn forward_pointer_is_rejected() {
        // Header + a name that points at itself.
        let mut b = vec![0u8; 12];
        b[4..6].copy_from_slice(&1u16.to_be_bytes()); // qdcount = 1
        b.extend_from_slice(&[0xc0, 12]); // pointer to its own position
        b.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(decode(&b), Err(WireError::BadPointer));
    }

    #[test]
    fn pointer_chain_over_hop_limit_is_rejected() {
        // Header: qdcount = 1, ancount = 2.
        let mut b = vec![0u8; 12];
        b[4..6].copy_from_slice(&1u16.to_be_bytes());
        b[6..8].copy_from_slice(&2u16.to_be_bytes());
        // Question: root name, type A, class IN.
        b.push(0x00);
        b.extend_from_slice(&[0, 1, 0, 1]);
        // Answer 1: an opaque (RRSIG) record whose RDATA is a pointer
        // ladder — a root byte, then rungs each hopping 2 bytes backward.
        // Every rung is strictly backward, so only the hop cap stops it.
        let hops = MAX_POINTER_HOPS + 3;
        b.push(0x00); // owner: root
        b.extend_from_slice(&[0, 46, 0, 1, 0, 0, 0, 0]);
        let rdlen = u16::try_from(1 + 2 * hops).unwrap();
        b.extend_from_slice(&rdlen.to_be_bytes());
        let base = b.len();
        b.push(0x00); // ladder base: a terminating root label
        for k in 0..hops {
            let target = if k == 0 { base } else { base + 1 + 2 * (k - 1) };
            b.extend_from_slice(&(0xc000 | u16::try_from(target).unwrap()).to_be_bytes());
        }
        let top = base + 1 + 2 * (hops - 1);
        // Answer 2: its owner name enters the ladder at the top rung.
        b.extend_from_slice(&(0xc000 | u16::try_from(top).unwrap()).to_be_bytes());
        b.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 0, 0, 4, 192, 0, 2, 1]);
        assert!(matches!(decode(&b), Err(WireError::PointerChainTooLong(_))), "{:?}", decode(&b));
    }

    /// A message whose second answer's owner enters a pointer ladder of
    /// `rungs` rungs and whose third answer's owner is a bare pointer to
    /// the second's: the second owner takes `rungs + 1` hops, the third
    /// one more.
    fn ladder_then_pointer(rungs: usize) -> Vec<u8> {
        let mut b = vec![0u8; 12];
        b[4..6].copy_from_slice(&1u16.to_be_bytes());
        b[6..8].copy_from_slice(&3u16.to_be_bytes());
        b.extend_from_slice(&[0x00, 0, 1, 0, 1]); // question: root, A, IN
        b.push(0x00); // answer 1: root owner, RRSIG whose RDATA is the ladder
        b.extend_from_slice(&[0, 46, 0, 1, 0, 0, 0, 0]);
        b.extend_from_slice(&u16::try_from(1 + 2 * rungs).unwrap().to_be_bytes());
        let base = b.len();
        b.push(0x00);
        for k in 0..rungs {
            let target = if k == 0 { base } else { base + 1 + 2 * (k - 1) };
            b.extend_from_slice(&(0xc000 | u16::try_from(target).unwrap()).to_be_bytes());
        }
        let top = base + 1 + 2 * (rungs - 1);
        let second = b.len();
        for target in [top, second] {
            b.extend_from_slice(&(0xc000 | u16::try_from(target).unwrap()).to_be_bytes());
            b.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 0, 0, 4, 192, 0, 2, 1]);
        }
        b
    }

    #[test]
    fn a_pointer_to_a_remembered_name_still_counts_its_hops() {
        // The second owner takes MAX_POINTER_HOPS - 1 hops: the third,
        // shared from the memo, lands exactly on the limit.
        let msg = decode(&ladder_then_pointer(MAX_POINTER_HOPS - 2)).unwrap();
        assert_eq!(msg.answers.len(), 3);
        assert!(msg.answers[2].name.is_root());
        // The second owner is at the limit: one more hop is over it,
        // whether or not its name is remembered.
        assert_eq!(
            decode(&ladder_then_pointer(MAX_POINTER_HOPS - 1)),
            Err(WireError::PointerChainTooLong(MAX_POINTER_HOPS + 1))
        );
    }

    #[test]
    fn name_limit_is_255_octets_with_the_root() {
        // 63/63/63/61 is 255 octets on the wire, root included (253
        // characters): the longest legal name. One more byte is over — the
        // decoder once let it through by not counting the root octet.
        let question = |last: usize| {
            let mut b = vec![0u8; 12];
            b[4..6].copy_from_slice(&1u16.to_be_bytes());
            for len in [63, 63, 63, last] {
                b.push(len as u8);
                b.extend(std::iter::repeat_n(b'x', len));
            }
            b.extend_from_slice(&[0, 0, 1, 0, 1]); // root, QTYPE A, QCLASS IN
            b
        };
        let longest = decode(&question(61)).unwrap().question.name;
        assert_eq!(longest.presentation_len(), crate::MAX_NAME_LEN);
        assert_eq!(longest.to_string().parse::<Name>().unwrap(), longest);
        assert_eq!(decode(&question(62)), Err(WireError::NameTooLong));
        // The label that overflows is still vetted first.
        let mut bad = question(62);
        bad[12 + 3 * 64 + 1] = b' ';
        assert_eq!(decode(&bad), Err(WireError::BadLabel));
    }

    #[test]
    fn reserved_label_type_is_rejected() {
        let mut b = vec![0u8; 12];
        b[4..6].copy_from_slice(&1u16.to_be_bytes());
        b.push(0x40); // reserved extended label type
        assert_eq!(decode(&b), Err(WireError::BadLabelType(0x40)));
    }

    #[test]
    fn txt_over_255_bytes_fails_encode() {
        let msg = Message::response(
            1,
            Question::new(name("q.test"), QType::Txt),
            Rcode::NoError,
            vec![Record::new(
                name("q.test"),
                QType::Txt,
                Ttl::ZERO,
                RData::Txt("x".repeat(300).into()),
            )],
        );
        assert_eq!(encode(&msg), Err(WireError::TxtTooLong(300)));
    }

    #[test]
    fn an_encoder_appends_and_leaves_a_failed_message_out() {
        let mut enc = Encoder::new();
        let mut out = b"prefix".to_vec();
        let msg = sample_response();
        let q = &msg.question;
        let header = Header::response(msg.id, msg.rcode);
        enc.append(&mut out, header, &q.name, q.qtype, &msg.answers, &[]).unwrap();
        assert_eq!(&out[..6], b"prefix");
        // Pointers count from the message's first byte, not the buffer's.
        assert_eq!(decode(&out[6..]).unwrap(), msg);
        let len = out.len();
        let txt = [Record::new(
            name("q.test"),
            QType::Txt,
            Ttl::ZERO,
            RData::Txt("x".repeat(256).into()),
        )];
        let err = enc.append(&mut out, header, &q.name, QType::Txt, &txt, &[]);
        assert_eq!(err, Err(WireError::TxtTooLong(256)));
        assert_eq!(out.len(), len, "a failed message leaves nothing behind");
        // The table starts afresh: the next message equals a fresh encoder's.
        enc.append(&mut out, header, &q.name, q.qtype, &msg.answers, &[]).unwrap();
        assert_eq!(out[len..], out[6..len]);
    }

    /// A message whose second answer's owner, `owner`, starts at offset
    /// `at` and whose third answer's owner is `owner` again; returns the
    /// third owner's bytes on the wire.
    fn repeat_at(at: usize, owner: &str) -> Vec<u8> {
        let a = |n: &str| {
            Record::new(name(n), QType::A, Ttl::from_secs(1), RData::A(Ipv4Addr::LOCALHOST))
        };
        // Header 12, root question 5, root owner and fixed fields 11.
        let pad = at - 12 - 5 - 11;
        let padding = Record::new(
            Name::root(),
            QType::Rrsig,
            Ttl::from_secs(1),
            RData::Opaque(vec![0; pad].into()),
        );
        let msg = Message::response(
            1,
            Question::new(Name::root(), QType::A),
            Rcode::NoError,
            vec![padding, a(owner), a(owner)],
        );
        let bytes = encode(&msg).unwrap();
        assert_eq!(decode(&bytes).unwrap(), msg);
        let third = at + owner.len() + 2 + 14;
        bytes[third..bytes.len() - 14].to_vec()
    }

    #[test]
    fn only_offsets_inside_the_pointer_window_are_recorded() {
        for at in [0x3ffe, 0x3fff] {
            let pointer = (0xc000 | at as u16).to_be_bytes().to_vec();
            assert_eq!(repeat_at(at, "x.test"), pointer, "a name at {at:#x}");
        }
        let inline = b"\x01x\x04test\x00".to_vec();
        assert_eq!(repeat_at(0x4000, "x.test"), inline, "a name at 0x4000");
    }

    #[test]
    fn the_suffix_table_stops_at_the_pointer_window() {
        // Worst case for the table: every label a one-byte label (two
        // bytes on the wire) and no suffix ever repeated, so every label
        // written inside the window is recorded. Each owner is 120
        // one-byte labels and a last one of its own.
        let owner = |i: usize| format!("{}t{i}", "a.".repeat(120));
        let answers: Vec<Record> = (0..200)
            .map(|i| {
                Record::new(
                    name(&owner(i)),
                    QType::A,
                    Ttl::from_secs(1),
                    RData::A(Ipv4Addr::LOCALHOST),
                )
            })
            .collect();
        let mut enc = Encoder::new();
        let mut out = Vec::new();
        let q = Name::root();
        enc.append(&mut out, Header::response(1, Rcode::NoError), &q, QType::A, &answers, &[])
            .unwrap();
        assert!(out.len() > 3 * POINTER_WINDOW_END, "{} bytes", out.len());
        assert_eq!(decode(&out).unwrap().answers, answers);
        // Label starts inside the window, counted from the layout: header,
        // root question, then per record its labels, root byte, fixed
        // fields and four bytes of address.
        let (mut at, mut expected) = (12 + 5, 0);
        for i in 0..answers.len() {
            for label in owner(i).split('.') {
                expected += usize::from(at <= POINTER_WINDOW_END);
                at += 1 + label.len();
            }
            at += 1 + 10 + 4;
        }
        assert_eq!(enc.recorded(), expected);
        assert!(expected <= (POINTER_WINDOW_END - 12) / 2 + 1, "{expected} entries");
    }

    #[test]
    fn multiple_questions_rejected() {
        let mut b = vec![0u8; 12];
        b[4..6].copy_from_slice(&2u16.to_be_bytes());
        assert_eq!(decode(&b), Err(WireError::UnsupportedCounts));
    }

    #[test]
    fn non_in_class_rejected() {
        let msg = sample_response();
        let mut bytes = encode(&msg).unwrap().to_vec();
        // Patch the question class (last 2 bytes of the question section).
        let qlen = {
            // name takes presentation_len + 2 bytes (length bytes replace dots, plus root)
            msg.question.name.presentation_len() + 2
        };
        let class_pos = 12 + qlen + 2;
        bytes[class_pos..class_pos + 2].copy_from_slice(&3u16.to_be_bytes()); // CH class
        assert_eq!(decode(&bytes), Err(WireError::UnsupportedClass(3)));
    }

    /// `bytes` through the view, fresh and reused, and through [`decode`]:
    /// each equals the reference decoder's message or error, and the
    /// view's borrowed answers are the owned message's.
    fn agrees_with_the_reference(bytes: &[u8], reused: &mut MessageView) -> Result<(), String> {
        let want = reference::decode(bytes);
        let check = |what: &str, got: Result<Message, WireError>| match got == want {
            true => Ok(()),
            false => Err(format!("{what}: {got:?}, want {want:?}, bytes {bytes:?}")),
        };
        check("decode", decode(bytes))?;
        check("reused view", reused.decode_message(bytes).map(|()| reused.to_message()))?;
        if let Ok(msg) = &want {
            let owned: Vec<RecordRef<'_>> = msg.answers.iter().map(Record::borrowed).collect();
            let viewed: Vec<RecordRef<'_>> = reused.answer_records().collect();
            if viewed != owned || reused.qname() != msg.question.name.as_str() {
                return Err(format!("borrowed answers {viewed:?}, want {owned:?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn pointer_ladders_agree_with_the_reference() {
        let mut view = MessageView::new();
        for rungs in [1, 2, MAX_POINTER_HOPS - 2, MAX_POINTER_HOPS - 1, MAX_POINTER_HOPS] {
            let bytes = ladder_then_pointer(rungs);
            for cut in 0..=bytes.len() {
                agrees_with_the_reference(&bytes[..cut], &mut view).unwrap();
            }
        }
    }

    #[test]
    fn a_view_spills_to_the_heap_and_back_in_place() {
        // 200 owners of 121 labels each outgrow every in-place buffer.
        let owner = |i: usize| format!("{}T{i}", "A.".repeat(120));
        let answers: Vec<Record> = (0..200)
            .map(|i| {
                let rdata = RData::Opaque(vec![i as u8; 40].into());
                Record::new(name(&owner(i)), QType::Rrsig, Ttl::from_secs(1), rdata)
            })
            .collect();
        let big =
            Message::response(1, Question::new(Name::root(), QType::A), Rcode::NoError, answers);
        let small = sample_response();
        let mut view = MessageView::new();
        for msg in [&small, &big, &small] {
            let bytes = encode(msg).unwrap();
            assert_eq!(decode(&bytes).as_ref(), Ok(msg));
            agrees_with_the_reference(&bytes, &mut view).unwrap();
            let mut once = MessageView::on_stack();
            once.decode_message(&bytes).unwrap();
            assert_eq!(&once.to_message(), msg);
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use proptest::string::string_regex;
        use proptest::test_runner::TestCaseError;

        /// Short names over a small alphabet, so names repeat and suffixes
        /// compress.
        fn arb_name() -> impl Strategy<Value = Name> {
            string_regex("[a-c]{1,3}(\\.[a-c]{1,3}){0,3}").unwrap().prop_map(|s| name(&s))
        }

        fn arb_rdata() -> impl Strategy<Value = (QType, RData)> {
            prop_oneof![
                any::<[u8; 4]>().prop_map(|o| (QType::A, RData::A(Ipv4Addr::from(o)))),
                any::<[u8; 16]>().prop_map(|o| (QType::Aaaa, RData::Aaaa(Ipv6Addr::from(o)))),
                arb_name().prop_map(|n| (QType::Cname, RData::Cname(n))),
                arb_name().prop_map(|n| (QType::Ns, RData::Ns(n))),
                arb_name().prop_map(|n| (QType::Ptr, RData::Ptr(n))),
                string_regex("[ -~\u{e9}]{0,12}")
                    .unwrap()
                    .prop_map(|s| (QType::Txt, RData::Txt(s.into()))),
                (any::<u16>(), arb_name())
                    .prop_map(|(p, n)| (QType::Mx, RData::Mx { preference: p, exchange: n })),
                (arb_name(), arb_name(), any::<[u8; 20]>()).prop_map(|(mname, rname, c)| {
                    let counter =
                        |k: usize| u32::from_be_bytes(c[4 * k..4 * k + 4].try_into().unwrap());
                    let [serial, refresh, retry, expire, minimum] = [0, 1, 2, 3, 4].map(counter);
                    let soa = Soa { mname, rname, serial, refresh, retry, expire, minimum };
                    (QType::Soa, RData::Soa(Box::new(soa)))
                }),
                proptest::collection::vec(any::<u8>(), 0..12)
                    .prop_map(|b| (QType::Ds, RData::Opaque(b.into()))),
            ]
        }

        /// Records owned by the previous record's last rdata name or by
        /// another name, each flagged for ownership by the qname: the
        /// shapes bare pointers take.
        fn arb_records() -> impl Strategy<Value = Vec<(bool, Record)>> {
            proptest::collection::vec((0u8..3, arb_name(), arb_rdata(), any::<u32>()), 0..5)
                .prop_map(|parts| {
                    let mut records: Vec<(bool, Record)> = Vec::new();
                    for (owner, other, (qtype, rdata), ttl) in parts {
                        let previous = records.last().and_then(|(_, r)| match &r.rdata {
                            RData::Cname(n) | RData::Ns(n) | RData::Ptr(n) => Some(n.clone()),
                            RData::Mx { exchange, .. } => Some(exchange.clone()),
                            RData::Soa(soa) => Some(soa.rname.clone()),
                            _ => None,
                        });
                        let name = match (owner, previous) {
                            (1, Some(target)) => target,
                            _ => other,
                        };
                        let record = Record::new(name, qtype, Ttl::from_secs(ttl), rdata);
                        records.push((owner == 0, record));
                    }
                    records
                })
        }

        fn arb_message() -> impl Strategy<Value = Message> {
            (arb_name(), any::<u16>(), any::<u16>(), arb_records(), arb_records()).prop_map(
                |(qname, id, flags, answers, authority)| {
                    let owned = |records: Vec<(bool, Record)>| -> Vec<Record> {
                        records
                            .into_iter()
                            .map(|(own, r)| match own {
                                true => Record { name: qname.clone(), ..r },
                                false => r,
                            })
                            .collect()
                    };
                    let mut msg = Message::response(
                        id,
                        Question::new(qname.clone(), QType::A),
                        Rcode::from_code((flags & 0x0f) as u8),
                        owned(answers),
                    );
                    msg.is_response = flags & 0x8000 != 0;
                    msg.opcode = Opcode::from_code(((flags >> 11) & 0x0f) as u8);
                    msg.authoritative = flags & 0x0400 != 0;
                    msg.authority = owned(authority);
                    msg
                },
            )
        }

        /// What a hostile capture does to a message's bytes.
        #[derive(Debug, Clone)]
        enum Damage {
            /// Upper-cases the byte at this fraction of the message.
            Upper(f64),
            Flip(f64, u8),
            /// A compression pointer written at one fraction, aimed at
            /// another: backward, forward or at itself.
            Pointer(f64, f64),
        }

        fn arb_damage() -> impl Strategy<Value = Damage> {
            prop_oneof![
                (0.0f64..1.0).prop_map(Damage::Upper),
                (0.0f64..1.0).prop_map(Damage::Upper),
                (0.0f64..1.0, 1u8..=255).prop_map(|(at, x)| Damage::Flip(at, x)),
                (0.0f64..1.0, 0.0f64..1.0).prop_map(|(at, to)| Damage::Pointer(at, to)),
            ]
        }

        fn damage(bytes: &mut [u8], damage: &[Damage]) {
            let at = |frac: f64, len: usize| ((len as f64 * frac) as usize).min(len - 1);
            for d in damage {
                let len = bytes.len();
                match *d {
                    Damage::Upper(f) => bytes[at(f, len)].make_ascii_uppercase(),
                    Damage::Flip(f, x) => bytes[at(f, len)] ^= x,
                    Damage::Pointer(f, to) => {
                        let (pos, target) = (at(f, len), at(to, len) as u16);
                        let pointer = (0xc000 | target).to_be_bytes();
                        for (k, b) in pointer.into_iter().enumerate() {
                            if let Some(slot) = bytes.get_mut(pos + k) {
                                *slot = b;
                            }
                        }
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Every rdata kind, authority sections and compressed names,
            /// damaged or not, and every truncation of the result: the view
            /// and its owned build equal the reference.
            #[test]
            fn the_view_decodes_as_the_reference(
                msg in arb_message(),
                harm in proptest::collection::vec(arb_damage(), 0..4),
            ) {
                let mut bytes = encode(&msg).unwrap();
                damage(&mut bytes, &harm);
                let mut view = MessageView::new();
                if harm.is_empty() {
                    prop_assert_eq!(decode(&bytes), Ok(msg));
                }
                for cut in (0..=bytes.len()).rev() {
                    agrees_with_the_reference(&bytes[..cut], &mut view)
                        .map_err(TestCaseError::fail)?;
                }
            }

            /// Pointer-dense garbage with a real question count.
            #[test]
            fn pointer_soup_decodes_as_the_reference(
                mut bytes in proptest::collection::vec(
                    prop_oneof![Just(0xc0u8), 0u8..32, b'a'..=b'c', any::<u8>()],
                    12..200,
                ),
                counts in any::<[u8; 2]>(),
            ) {
                bytes[4..6].copy_from_slice(&1u16.to_be_bytes());
                bytes[7] = counts[0] % 8;
                bytes[9] = counts[1] % 8;
                agrees_with_the_reference(&bytes, &mut MessageView::new())
                    .map_err(TestCaseError::fail)?;
            }
        }
    }
}
