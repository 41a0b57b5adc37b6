//! Property-based tests for the DNS data model and wire codec.

use dnsnoise_dns::{
    wire, Label, Message, Name, NameBuilder, NameParseError, QType, Question, RData, Rcode, Record,
    SuffixList, Ttl, MAX_NAME_LEN,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_label() -> impl Strategy<Value = Label> {
    proptest::string::string_regex("[a-z0-9_-]{1,16}")
        .unwrap()
        .prop_map(|s| Label::new(&s).unwrap())
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..7).prop_map(Name::from_labels)
}

fn arb_rdata() -> impl Strategy<Value = (QType, RData)> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| (QType::A, RData::A(Ipv4Addr::from(o)))),
        any::<[u8; 16]>().prop_map(|o| (QType::Aaaa, RData::Aaaa(Ipv6Addr::from(o)))),
        arb_name().prop_map(|n| (QType::Cname, RData::Cname(n))),
        arb_name().prop_map(|n| (QType::Ns, RData::Ns(n))),
        arb_name().prop_map(|n| (QType::Ptr, RData::Ptr(n))),
        proptest::string::string_regex("[ -~]{1,40}")
            .unwrap()
            .prop_map(|s| (QType::Txt, RData::Txt(s.into()))),
        (any::<u16>(), arb_name())
            .prop_map(|(p, n)| (QType::Mx, RData::Mx { preference: p, exchange: n })),
        proptest::collection::vec(any::<u8>(), 0..64)
            .prop_map(|b| (QType::Rrsig, RData::Opaque(b.into()))),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), arb_rdata(), 0u32..1_000_000).prop_map(|(name, (qtype, rdata), ttl)| Record {
        name,
        qtype,
        ttl: Ttl::from_secs(ttl),
        rdata,
    })
}

/// `msg` on the wire, from a fresh encoder.
fn encode(msg: &Message) -> Vec<u8> {
    let (mut out, q) = (Vec::new(), &msg.question);
    wire::Encoder::new()
        .append(&mut out, msg.into(), &q.name, q.qtype, &msg.answers, &msg.authority)
        .unwrap();
    out
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_name(),
        proptest::collection::vec(arb_record(), 0..8),
        prop_oneof![Just(Rcode::NoError), Just(Rcode::NxDomain), Just(Rcode::ServFail)],
    )
        .prop_map(|(id, qname, answers, rcode)| {
            Message::response(id, Question::new(qname, QType::A), rcode, answers)
        })
}

/// `Name::parse` as it was before its one-pass scan: every label through
/// the builder. The oracle for the `Ok` value and for which error wins.
fn parse_by_labels(s: &str) -> Result<Name, NameParseError> {
    if s == "." || s.is_empty() {
        return Ok(Name::root());
    }
    let s = s.strip_suffix('.').unwrap_or(s);
    if s.len() > MAX_NAME_LEN {
        return Err(NameParseError::TooLong(s.len()));
    }
    let mut name = NameBuilder::new();
    for part in s.split('.') {
        if part.is_empty() {
            return Err(NameParseError::EmptyLabel);
        }
        name.push_label(part.as_bytes())?;
    }
    name.to_name()
}

/// One label of `len` characters drawn from `alphabet` by `seed`.
fn label_text(len: usize, alphabet: &str, seed: u64) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            chars[(x >> 33) as usize % chars.len()]
        })
        .collect()
}

/// Strings shaped like names and weighted toward the edges a parse
/// checks: empty, leading, doubled and trailing dots, upper case, bytes
/// outside the alphabet (space, tab, non-ASCII, a lone dot inside a
/// label's alphabet), 63/64-character labels and 253/254-character names.
fn arb_name_text() -> impl Strategy<Value = String> {
    let alphabet = || {
        prop_oneof![
            Just("abcxyz0129-_"),
            Just("abcxyz0129-_"),
            Just("wwwEXAMPLEcom"),
            Just("ab c"),
            Just("a\tb\u{e9}"),
            Just("a*~!/."),
        ]
    };
    let short = || {
        (
            proptest::collection::vec((0usize..9, alphabet(), any::<u64>()), 0..8),
            prop_oneof![Just(""), Just("."), Just(".."), Just("")],
            prop_oneof![Just(""), Just(""), Just(".")],
        )
            .prop_map(|(labels, end, start)| {
                let labels: Vec<String> =
                    labels.into_iter().map(|(len, a, seed)| label_text(len, a, seed)).collect();
                format!("{start}{}{end}", labels.join("."))
            })
    };
    // Up to four long labels of 61–64 characters each, so a label lands
    // on either side of 63.
    let long = (
        proptest::collection::vec((61usize..65, alphabet(), any::<u64>()), 1..5),
        prop_oneof![Just(""), Just(".")],
    )
        .prop_map(|(labels, end)| {
            let labels: Vec<String> =
                labels.into_iter().map(|(len, a, seed)| label_text(len, a, seed)).collect();
            format!("{}{end}", labels.join("."))
        });
    // 63-character labels filled up to 252–255 characters, so the name
    // lands on either side of 253.
    let edge = (252usize..256, alphabet(), any::<u64>(), prop_oneof![Just(""), Just(".")])
        .prop_map(|(total, alphabet, seed, end)| {
            let mut text = String::new();
            while text.len() < total {
                if !text.is_empty() {
                    text.push('.');
                }
                let len = (total - text.len()).min(63);
                text += &label_text(len, alphabet, seed ^ text.len() as u64);
            }
            text + end
        });
    prop_oneof![
        short(),
        short(),
        long,
        edge,
        proptest::string::string_regex("[ -~]{0,12}").unwrap()
    ]
}

proptest! {
    /// The one-pass parse is the label-by-label parse: the same name, or
    /// the same error.
    #[test]
    fn name_parse_equals_the_builder_path(text in arb_name_text()) {
        prop_assert_eq!(Name::parse(&text), parse_by_labels(&text), "{:?}", text);
    }

    /// Encoding then decoding any message reproduces it exactly — including
    /// names rewritten through compression pointers.
    #[test]
    fn wire_roundtrip(msg in arb_message()) {
        let bytes = encode(&msg);
        let back = wire::decode(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// The decoder never panics on arbitrary bytes; it either parses or
    /// returns an error.
    #[test]
    fn decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::decode(&bytes);
    }

    /// Truncating a valid message at any point never panics and never
    /// yields the original message back.
    #[test]
    fn truncation_never_roundtrips(msg in arb_message(), frac in 0.0f64..1.0) {
        let bytes = encode(&msg);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            if let Ok(parsed) = wire::decode(&bytes[..cut]) {
                // A prefix can occasionally parse (e.g. when answers are
                // dropped cleanly is impossible since ancount mismatches ⇒
                // Truncated), so a successful parse must differ.
                prop_assert_ne!(parsed, msg);
            }
        }
    }

    /// Forged section counts never panic the decoder and never trick it
    /// into a huge up-front allocation: the capacity hint for the answer
    /// and authority vectors is clamped by the bytes actually remaining
    /// (a wire record takes at least 11 bytes), so a 12-byte packet
    /// claiming 65 535 answers reserves nothing.
    #[test]
    fn forged_counts_never_panic_or_overallocate(
        msg in arb_message(),
        ancount in any::<u16>(),
        nscount in any::<u16>(),
    ) {
        let mut bytes = encode(&msg);
        bytes[6..8].copy_from_slice(&ancount.to_be_bytes());
        bytes[8..10].copy_from_slice(&nscount.to_be_bytes());
        // Rejecting the forged packet is always acceptable; parsing can
        // only succeed when the forged counts match what is actually on
        // the wire, and must not have trusted them for the allocation.
        if let Ok(parsed) = wire::decode(&bytes) {
            prop_assert_eq!(usize::from(ancount), parsed.answers.len());
            prop_assert_eq!(usize::from(nscount), parsed.authority.len());
            let cap = parsed.answers.capacity() + parsed.authority.capacity();
            prop_assert!(
                cap <= bytes.len(),
                "allocated {} record slots from a {}-byte packet", cap, bytes.len()
            );
        }
    }

    /// Flipping any single byte of a valid message never panics the
    /// decoder: it parses to something (possibly different) or errors.
    #[test]
    fn single_byte_corruption_is_total(msg in arb_message(), pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let mut bytes = encode(&msg);
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= flip;
        let _ = wire::decode(&bytes);
    }

    /// Pointer-dense garbage — bytes biased toward 0xC0 tags and small
    /// offsets, the shape that stresses compression-pointer handling —
    /// never panics the decoder and never runs away: backward-only targets
    /// plus the hop cap bound the work per name.
    #[test]
    fn pointer_heavy_bytes_never_panic(
        bytes in proptest::collection::vec(
            prop_oneof![Just(0xc0u8), Just(0xc0u8), 0u8..32, any::<u8>()],
            12..300,
        ),
        qdcount_real in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if qdcount_real {
            // Forcing qdcount = 1 gets past the header check so the name
            // parser actually runs on the pointer soup.
            bytes[4..6].copy_from_slice(&1u16.to_be_bytes());
        }
        let _ = wire::decode(&bytes);
    }

    /// Name parse/display roundtrip.
    #[test]
    fn name_roundtrip(name in arb_name()) {
        let s = name.to_string();
        let back: Name = s.parse().unwrap();
        prop_assert_eq!(back, name);
    }

    /// nld(k) is always a suffix of the name, and depth decreases correctly.
    #[test]
    fn nld_is_suffix(name in arb_name(), k in 0usize..8) {
        match name.nld(k) {
            Some(suffix) => {
                prop_assert_eq!(suffix.depth(), k);
                prop_assert!(name.is_subdomain_of(&suffix));
            }
            None => prop_assert!(k > name.depth()),
        }
    }

    /// Entropy is within [0, 8] bits per byte and zero for single-char repeats.
    #[test]
    fn entropy_bounds(label in arb_label()) {
        let h = label.entropy();
        prop_assert!((0.0..=8.0).contains(&h));
    }

    /// The registered domain is always one label deeper than the effective
    /// TLD and is an ancestor of (or equal to) the name.
    #[test]
    fn registered_domain_consistency(name in arb_name()) {
        let psl = SuffixList::builtin();
        if let Some(reg) = psl.registered_domain(&name) {
            let etld = psl.effective_tld(&name).unwrap();
            prop_assert_eq!(reg.depth(), etld.depth() + 1);
            prop_assert!(name.is_subdomain_of(&reg));
            prop_assert!(reg.is_subdomain_of(&etld));
        }
    }

    /// Record storage sizes are positive and monotone in name length.
    #[test]
    fn storage_bytes_positive(record in arb_record()) {
        prop_assert!(record.storage_bytes() > 0);
    }
}
