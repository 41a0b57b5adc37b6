//! The flat `Name` must be indistinguishable from the label-slice name it
//! replaced: same order, equality and hashing, same parse errors in the same
//! precedence, same labels out as went in.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use dnsnoise_dns::{Label, LabelParseError, Name, NameParseError};
use proptest::prelude::*;

/// Labels over a tiny alphabet that straddles `.` in byte order (`!` and
/// `-` sort below it, letters above), so prefixes, `a.b` vs `a-b` and equal
/// names all come up constantly.
fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ab!-]{1,3}").unwrap()
}

fn arb_labels() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_label(), 0..4)
}

fn name_of(labels: &[String]) -> Name {
    Name::from_labels(labels.iter().map(|l| l.parse::<Label>().unwrap()))
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

proptest! {
    /// `Ord`, `Eq` and `Hash` on the flat text are the label-sequence
    /// definitions: the order every `BTreeMap` render was pinned under.
    #[test]
    fn order_equality_and_hash_are_the_label_sequences(a in arb_labels(), b in arb_labels()) {
        let (na, nb) = (name_of(&a), name_of(&b));
        prop_assert_eq!(na.cmp(&nb), a.cmp(&b), "{} vs {}", na, nb);
        prop_assert_eq!(na.partial_cmp(&nb), Some(a.cmp(&b)));
        prop_assert_eq!(na == nb, a == b);
        if a == b {
            prop_assert_eq!(hash_of(&na), hash_of(&nb));
        }
        // However a name is built, it is the same name.
        let reparsed: Name = na.to_string().to_ascii_uppercase().parse().unwrap();
        prop_assert_eq!(&reparsed, &na);
        prop_assert_eq!(hash_of(&reparsed), hash_of(&na));
        prop_assert_eq!(na.labels().iter().collect::<Vec<_>>(), a);
    }

    /// `Label: Borrow<str>` is lawful — a label hashes, compares and orders
    /// as its text — so a `BTreeMap<Label, _>` answers `&str` probes.
    #[test]
    fn label_borrows_as_its_text(a in arb_label(), b in arb_label()) {
        let (la, lb): (Label, Label) = (a.parse().unwrap(), b.parse().unwrap());
        let (sa, sb): (&str, &str) = (la.borrow(), lb.borrow());
        prop_assert_eq!(la.cmp(&lb), sa.cmp(sb));
        prop_assert_eq!(la == lb, sa == sb);
        prop_assert_eq!(hash_of(&la), hash_of(sa));
        let map: std::collections::BTreeMap<Label, u8> = [(la.clone(), 1)].into();
        prop_assert_eq!(map.get(a.as_str()), Some(&1));
    }
}

#[test]
fn hand_picked_orderings_hold() {
    let n = |s: &str| s.parse::<Name>().unwrap();
    // The root is below everything; a label-wise prefix is below its
    // extensions; `.` ends a label, so it ranks below `-` and `!`.
    let ascending = [".", "a", "a.b", "a.b.c", "a.c", "a!b", "a-b", "ab", "b"];
    for pair in ascending.windows(2) {
        assert!(n(pair[0]) < n(pair[1]), "{} < {}", pair[0], pair[1]);
    }
    assert_eq!(Name::root(), n(""));
}

/// Error *values* and their precedence, pinned to what the label-at-a-time
/// parser reported: the whole-name length first, then the labels left to
/// right, each one empty → too long → its first invalid byte.
#[test]
fn parse_errors_keep_their_values_and_precedence() {
    use LabelParseError::{InvalidByte, TooLong};
    let l63 = "a".repeat(63);
    let l64 = "a".repeat(64);
    let n253 = [l63.as_str(), &l63, &l63, &"a".repeat(61)].join(".");
    let n254 = [l63.as_str(), &l63, &l63, &"a".repeat(62)].join(".");
    let table: Vec<(String, Result<usize, NameParseError>)> = vec![
        (n253.clone(), Ok(4)),
        (format!("{n253}."), Ok(4)), // the trailing dot is not counted
        (n254.clone(), Err(NameParseError::TooLong(254))),
        // The whole name's length wins over any label defect inside it.
        (format!("{n254}..\u{1}"), Err(NameParseError::TooLong(257))),
        ("a..b".into(), Err(NameParseError::EmptyLabel)),
        (".a".into(), Err(NameParseError::EmptyLabel)),
        ("a..".into(), Err(NameParseError::EmptyLabel)),
        // Left to right: the empty label comes before the bad byte…
        ("a..b c".into(), Err(NameParseError::EmptyLabel)),
        // …and the bad byte before the empty label.
        ("a b..c".into(), Err(NameParseError::Label(InvalidByte(b' ')))),
        // The first invalid byte of the label, not the last.
        ("a\tb\u{7f}.c".into(), Err(NameParseError::Label(InvalidByte(b'\t')))),
        ("caf\u{e9}.fr".into(), Err(NameParseError::Label(InvalidByte(0xc3)))),
        // Within one label, too long is reported before an invalid byte.
        (format!("{l64} .com"), Err(NameParseError::Label(TooLong(65)))),
        (format!("ok.{l64}"), Err(NameParseError::Label(TooLong(64)))),
        (format!("a b.{l64}"), Err(NameParseError::Label(InvalidByte(b' ')))),
        (".".into(), Ok(0)),
        (String::new(), Ok(0)),
        ("COM.".into(), Ok(1)),
    ];
    for (input, want) in table {
        let got = Name::parse(&input).map(|n| n.depth());
        assert_eq!(got, want, "{input:?}");
    }
}

#[test]
fn labels_iterate_forwards_and_backwards_at_every_depth() {
    let cases: [(&str, &[&str]); 4] = [
        (".", &[]),
        ("com", &["com"]),
        ("www.example.com", &["www", "example", "com"]),
        (
            "0.0.0.0.1.0.0.4e.x.avqs.mcafee.com",
            &["0", "0", "0", "0", "1", "0", "0", "4e", "x", "avqs", "mcafee", "com"],
        ),
    ];
    for (text, want) in cases {
        let name: Name = text.parse().unwrap();
        let labels = name.labels();
        assert_eq!(labels.iter().collect::<Vec<_>>(), want, "{text}");
        let mut reversed = want.to_vec();
        reversed.reverse();
        assert_eq!(labels.iter().rev().collect::<Vec<_>>(), reversed, "{text}");
        assert_eq!((labels.len(), labels.is_empty()), (want.len(), want.is_empty()));
        assert_eq!(name.depth(), want.len());
        assert_eq!(name.leftmost(), want.first().copied());
        assert_eq!(name.tld(), want.last().copied());
        assert_eq!(name.as_str(), text);
    }
}

#[test]
fn the_handle_is_two_words() {
    assert_eq!(std::mem::size_of::<Name>(), 16);
    assert_eq!(std::mem::size_of::<Option<Name>>(), 16);
}
