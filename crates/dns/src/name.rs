//! Fully qualified domain names.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::label::{Label, LabelParseError};

/// Maximum length of a full domain name in presentation format
/// (RFC 1035 §2.3.4 allows 255 octets of wire format; the presentation
/// limit of 253 characters is the commonly enforced bound).
pub const MAX_NAME_LEN: usize = 253;

/// A validated, case-normalised, fully qualified domain name.
///
/// Labels are stored in presentation order (leftmost / deepest first), so
/// `www.example.com` is `["www", "example", "com"]`. The root name (zero
/// labels) is representable and prints as `.`.
///
/// Cloning is cheap: the label storage is shared behind an [`Arc`], which
/// matters because simulation statistics key millions of map entries by
/// name.
///
/// # Examples
///
/// ```
/// use dnsnoise_dns::Name;
///
/// let d: Name = "a.example.com".parse()?;
/// assert_eq!(d.depth(), 3);
/// assert_eq!(d.tld().unwrap().to_string(), "com");
/// assert_eq!(d.nld(2).unwrap().to_string(), "example.com");
/// assert_eq!(d.parent().unwrap().to_string(), "example.com");
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name {
    /// Labels in presentation order: `labels[0]` is the leftmost label.
    labels: Arc<[Label]>,
}

impl Serialize for Name {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_str(self)
    }
}

impl<'de> Deserialize<'de> for Name {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Name::parse(&s).map_err(D::Error::custom)
    }
}

/// Error returned when parsing a [`Name`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameParseError {
    /// One of the labels was invalid.
    Label(LabelParseError),
    /// The overall name exceeded [`MAX_NAME_LEN`] characters.
    TooLong(usize),
    /// The name contained an empty interior label (`a..b`).
    EmptyLabel,
}

impl fmt::Display for NameParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameParseError::Label(e) => write!(f, "invalid label: {e}"),
            NameParseError::TooLong(n) => {
                write!(f, "name of {n} characters exceeds the {MAX_NAME_LEN}-character limit")
            }
            NameParseError::EmptyLabel => write!(f, "empty interior label"),
        }
    }
}

impl std::error::Error for NameParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NameParseError::Label(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LabelParseError> for NameParseError {
    fn from(e: LabelParseError) -> Self {
        NameParseError::Label(e)
    }
}

impl Name {
    /// The DNS root (the empty name, printed as `.`).
    pub fn root() -> Self {
        Name { labels: Arc::from(Vec::new()) }
    }

    /// Builds a name from labels in presentation order (leftmost first).
    pub fn from_labels<I>(labels: I) -> Self
    where
        I: IntoIterator<Item = Label>,
    {
        Name { labels: labels.into_iter().collect::<Vec<_>>().into() }
    }

    /// Parses a name from presentation format (`www.example.com`).
    ///
    /// A single trailing dot is accepted and ignored; `.` alone denotes the
    /// root.
    ///
    /// # Errors
    ///
    /// Returns an error if any label is invalid, an interior label is
    /// empty, or the name is longer than [`MAX_NAME_LEN`] characters.
    pub fn parse(s: &str) -> Result<Self, NameParseError> {
        if s == "." || s.is_empty() {
            return Ok(Name::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.len() > MAX_NAME_LEN {
            return Err(NameParseError::TooLong(s.len()));
        }
        let mut labels = Vec::new();
        for part in s.split('.') {
            if part.is_empty() {
                return Err(NameParseError::EmptyLabel);
            }
            labels.push(Label::new(part)?);
        }
        Ok(Name { labels: labels.into() })
    }

    /// Number of labels, which the paper calls the *depth* of the tree node
    /// (`www.example.com` has depth 3; the root has depth 0).
    pub fn depth(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` for the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Labels in presentation order (leftmost first).
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The leftmost (deepest) label, if any.
    pub fn leftmost(&self) -> Option<&Label> {
        self.labels.first()
    }

    /// The rightmost label — the lexical TLD (`com` for `www.example.com`).
    ///
    /// Note that the *effective* TLD of the paper (which treats `co.uk` as
    /// a TLD) is provided by [`crate::SuffixList`], not here.
    pub fn tld(&self) -> Option<&Label> {
        self.labels.last()
    }

    /// The `N`-th level domain: the `n` rightmost labels, as in the paper's
    /// notation `NLD(d)`. Returns `None` if the name has fewer than `n`
    /// labels.
    ///
    /// # Examples
    ///
    /// ```
    /// use dnsnoise_dns::Name;
    /// let d: Name = "a.example.com".parse()?;
    /// assert_eq!(d.nld(1).unwrap().to_string(), "com");
    /// assert_eq!(d.nld(3).unwrap().to_string(), "a.example.com");
    /// assert!(d.nld(4).is_none());
    /// # Ok::<(), dnsnoise_dns::NameParseError>(())
    /// ```
    pub fn nld(&self, n: usize) -> Option<Name> {
        if n > self.labels.len() {
            return None;
        }
        Some(Name { labels: self.labels[self.labels.len() - n..].to_vec().into() })
    }

    /// The parent zone (all labels but the leftmost); `None` for the root.
    pub fn parent(&self) -> Option<Name> {
        if self.labels.is_empty() {
            None
        } else {
            Some(Name { labels: self.labels[1..].to_vec().into() })
        }
    }

    /// Prepends a label, producing a child name.
    ///
    /// # Examples
    ///
    /// ```
    /// use dnsnoise_dns::{Label, Name};
    /// let zone: Name = "example.com".parse()?;
    /// let child = zone.child("www".parse::<Label>().unwrap());
    /// assert_eq!(child.to_string(), "www.example.com");
    /// # Ok::<(), dnsnoise_dns::NameParseError>(())
    /// ```
    pub fn child(&self, label: Label) -> Name {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label);
        labels.extend_from_slice(&self.labels);
        Name { labels: labels.into() }
    }

    /// Returns `true` if `self` equals `ancestor` or is a descendant of it
    /// (i.e. `ancestor` is a suffix of `self` on label boundaries).
    ///
    /// # Examples
    ///
    /// ```
    /// use dnsnoise_dns::Name;
    /// let d: Name = "a.b.example.com".parse()?;
    /// let zone: Name = "example.com".parse()?;
    /// assert!(d.is_subdomain_of(&zone));
    /// assert!(!zone.is_subdomain_of(&d));
    /// # Ok::<(), dnsnoise_dns::NameParseError>(())
    /// ```
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        let n = ancestor.labels.len();
        if n > self.labels.len() {
            return false;
        }
        self.labels[self.labels.len() - n..] == ancestor.labels[..]
    }

    /// Total length of the presentation form in characters (dots included).
    pub fn presentation_len(&self) -> usize {
        if self.labels.is_empty() {
            1
        } else {
            self.labels.iter().map(Label::len).sum::<usize>() + self.labels.len() - 1
        }
    }

    /// The bytes of the presentation form — exactly what `Display` writes —
    /// without allocating: labels joined by `b'.'`, `b"."` for the root.
    pub fn presentation_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        let root = self.labels.is_empty().then_some(b'.');
        let labels = self.labels.iter().enumerate().flat_map(|(i, label)| {
            (i > 0).then_some(b'.').into_iter().chain(label.as_str().bytes())
        });
        root.into_iter().chain(labels)
    }

    /// Number of `.` separators in the presentation form. The paper reports
    /// "on average, there are 7 periods in disposable domains".
    pub fn period_count(&self) -> usize {
        self.labels.len().saturating_sub(1)
    }
}

/// Seedless 64-bit FNV-1a over a byte stream: the stable hash behind
/// name-based cache routing and the streaming miner's name cardinality.
/// Feed it [`Name::presentation_bytes`] to hash a name without formatting it.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FromStr for Name {
    type Err = NameParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return f.write_str(".");
        }
        for (i, label) in self.labels.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{label}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["com", "example.com", "a.b.c.example.co.uk", "xn--caf-dma.fr"] {
            assert_eq!(n(s).to_string(), s);
        }
    }

    #[test]
    fn trailing_dot_is_normalised() {
        assert_eq!(n("example.com."), n("example.com"));
    }

    #[test]
    fn root_parses_and_displays() {
        assert!(n(".").is_root());
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(n("").depth(), 0);
    }

    #[test]
    fn empty_interior_label_rejected() {
        assert_eq!(Name::parse("a..b"), Err(NameParseError::EmptyLabel));
    }

    #[test]
    fn name_too_long_rejected() {
        let long = ["a"; 130].join(".");
        assert!(matches!(Name::parse(&long), Err(NameParseError::TooLong(_))));
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(n("WWW.Example.COM"), n("www.example.com"));
    }

    #[test]
    fn nld_matches_paper_notation() {
        // §III-B: d = a.example.com, TLD(d) = com, 2LD(d) = example.com,
        // 3LD(d) = a.example.com.
        let d = n("a.example.com");
        assert_eq!(d.nld(1).unwrap(), n("com"));
        assert_eq!(d.nld(2).unwrap(), n("example.com"));
        assert_eq!(d.nld(3).unwrap(), d);
        assert_eq!(d.nld(0).unwrap(), Name::root());
    }

    #[test]
    fn parent_and_child_are_inverse() {
        let d = n("www.example.com");
        let p = d.parent().unwrap();
        assert_eq!(p, n("example.com"));
        assert_eq!(p.child("www".parse().unwrap()), d);
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn subdomain_checks_label_boundaries() {
        assert!(n("a.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        // "ample.com" is a string suffix but not a label-boundary suffix.
        assert!(!n("example.com").is_subdomain_of(&n("ample.com")));
        assert!(n("anything.at.all").is_subdomain_of(&Name::root()));
    }

    #[test]
    fn period_count_and_len() {
        let d = n("0.0.0.0.1.0.0.4e.13cfus2drmdq3j8cafidezr8l6.avqs.mcafee.com");
        assert_eq!(d.period_count(), 11); // as stated in §IV-A for avqs.mcafee.com
        assert_eq!(d.presentation_len(), d.to_string().len());
        assert_eq!(Name::root().presentation_len(), 1);
    }

    #[test]
    fn presentation_bytes_hash_like_the_formatted_name() {
        // Routing, HLL registers and every golden were pinned while the
        // callers hashed `to_string()`; the walk must feed the same bytes.
        for name in [n("a.b.c.example.co.uk"), n("com"), Name::root()] {
            let text = name.to_string();
            assert!(name.presentation_bytes().eq(text.bytes()), "{text}");
            assert_eq!(name.presentation_bytes().count(), name.presentation_len());
            assert_eq!(fnv1a(name.presentation_bytes()), fnv1a(text.bytes()), "{text}");
        }
        // The FNV-1a offset basis and one published vector.
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
