//! Fully qualified domain names.
//!
//! A [`Name`] is one heap block: its lower-case presentation text behind an
//! [`Arc<str>`], no trailing dot, `""` for the root. Every per-event
//! operation — parse, clone, drop, hash, equality — touches that block and
//! nothing else, however many labels the name has; the disposable names the
//! paper studies average seven periods (§IV-A), so a label-per-allocation
//! layout would pay eight or more heap blocks for each of them.
//!
//! Labels are not stored: [`Name::labels`] splits the text on demand, and
//! [`Label`] survives as the owned, validated form builders hand to
//! [`Name::child`] and [`Name::from_labels`].
//!
//! **Ordering.** `Ord` is the order of the label sequences, leftmost label
//! first (`["a", "b"] < ["a-b"]` because `"a" < "a-b"`), which is what every
//! sorted render was pinned under. On the flat text that is the byte order
//! with `.` ranked below every label byte: at the first differing byte
//! either both bytes sit in the same label (the labels compare as those
//! bytes do) or one name's label has ended there, making it a strict prefix
//! of the other's, hence smaller; with no differing byte the shorter text is
//! a label-wise prefix. Plain byte order would get `a.b` vs `a-b` wrong
//! (`-` is `0x2d`, `.` is `0x2e`), so `Ord` is written out rather than
//! derived, and `Name` deliberately does not implement `Borrow<str>`.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::label::{byte_ok, Label, LabelParseError, MAX_LABEL_LEN};

/// Maximum length of a full domain name in presentation format.
/// RFC 1035 §2.3.4 allows 255 octets of wire format, root octet included:
/// one length octet per label replaces the dots and adds one, so a name
/// fits the wire exactly when its presentation form has at most 253
/// characters.
pub const MAX_NAME_LEN: usize = 253;

/// A validated, case-normalised, fully qualified domain name.
///
/// `www.example.com` has the labels `["www", "example", "com"]` in
/// presentation order (leftmost / deepest first). The root name (zero
/// labels) is representable and prints as `.`.
///
/// Cloning is a reference-count bump and the handle is 16 bytes, which
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
/// assert_eq!(d.tld(), Some("com"));
/// assert_eq!(d.nld(2).unwrap().to_string(), "example.com");
/// assert_eq!(d.parent().unwrap().to_string(), "example.com");
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name {
    /// Lower-case presentation form without a trailing dot; `""` is the root.
    text: Arc<str>,
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.text.as_bytes(), other.text.as_bytes());
        match a.iter().zip(b).find(|(x, y)| x != y) {
            // A label that ends (`.`) is a strict prefix of one that goes on.
            Some((&x, &y)) => (x != b'.', x).cmp(&(y != b'.', y)),
            None => a.len().cmp(&b.len()),
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
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

/// Builds a [`Name`] from labels that arrive from outside the process —
/// wire messages, store keys, text — leftmost label first.
///
/// Every label is validated and lower-cased straight into one stack buffer,
/// and [`NameBuilder::to_name`] copies that buffer into the name's single
/// heap block: one allocation per name, none per label. This is the one
/// place the RFC 1035 length limits are enforced for decoded names.
///
/// # Examples
///
/// ```
/// use dnsnoise_dns::NameBuilder;
///
/// let mut b = NameBuilder::new();
/// b.push_label(b"WWW")?;
/// b.push_label(b"example")?;
/// b.push_label(b"com")?;
/// assert_eq!(b.to_name()?.to_string(), "www.example.com");
/// assert!(b.push_label(b"a.b").is_err());
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug)]
pub struct NameBuilder {
    buf: [u8; MAX_NAME_LEN],
    len: usize,
}

impl Default for NameBuilder {
    fn default() -> Self {
        NameBuilder::new()
    }
}

impl NameBuilder {
    /// An empty builder; [`NameBuilder::to_name`] on it yields the root.
    pub fn new() -> Self {
        NameBuilder { buf: [0; MAX_NAME_LEN], len: 0 }
    }

    /// Appends one label to the right of those already pushed.
    ///
    /// # Errors
    ///
    /// The label's own defect first — empty, longer than
    /// [`MAX_LABEL_LEN`], its first byte outside the accepted alphabet —
    /// then [`NameParseError::TooLong`] with the length the name would
    /// have reached. A failed push leaves the builder as it was.
    pub fn push_label(&mut self, label: &[u8]) -> Result<(), NameParseError> {
        if label.is_empty() {
            return Err(LabelParseError::Empty.into());
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(LabelParseError::TooLong(label.len()).into());
        }
        if let Some(&b) = label.iter().find(|&&b| !byte_ok(b)) {
            return Err(LabelParseError::InvalidByte(b).into());
        }
        // A separator goes before every label but the first.
        let start = if self.len == 0 { 0 } else { self.len.saturating_add(1) };
        let end = start.saturating_add(label.len());
        let Some(slot) = self.buf.get_mut(start..end) else {
            return Err(NameParseError::TooLong(end));
        };
        for (dst, src) in slot.iter_mut().zip(label) {
            *dst = src.to_ascii_lowercase();
        }
        if start > 0 {
            if let Some(dot) = self.buf.get_mut(self.len) {
                *dot = b'.';
            }
        }
        self.len = end;
        Ok(())
    }

    /// The name of the labels pushed so far (the root if none).
    ///
    /// # Errors
    ///
    /// None in practice: every pushed byte was checked to be printable
    /// ASCII. The conversion to text is still the checked one, so a defect
    /// here would surface as an invalid-byte error, not a malformed name.
    pub fn to_name(&self) -> Result<Name, NameParseError> {
        self.text().map(|text| Name { text: Arc::from(text) })
    }

    /// The presentation text of the labels pushed so far (`""` for none),
    /// checked as [`NameBuilder::to_name`] checks it.
    pub(crate) fn text(&self) -> Result<&str, NameParseError> {
        let bytes = self.buf.get(..self.len).unwrap_or(&[]);
        std::str::from_utf8(bytes).map_err(|_| {
            LabelParseError::InvalidByte(bytes.iter().copied().find(|&b| b > 0x7e).unwrap_or(0))
                .into()
        })
    }

    /// Drops every label pushed, for the next name.
    pub(crate) fn reset(&mut self) {
        self.len = 0;
    }
}

/// The labels of a [`Name`], borrowed from its text: what
/// [`Name::labels`] returns.
#[derive(Debug, Clone, Copy)]
pub struct Labels<'a> {
    text: &'a str,
}

impl<'a> Labels<'a> {
    /// The labels in presentation order (leftmost first); `.rev()` walks
    /// from the TLD down. Yields what `split_terminator('.')` yields —
    /// nothing for the root's empty text — by a byte search for the dots.
    pub fn iter(&self) -> LabelIter<'a> {
        // `split_terminator` drops one trailing empty piece: the root's
        // whole text, or what follows a final dot.
        let rest = self.text.strip_suffix('.').unwrap_or(self.text);
        LabelIter { rest, done: self.text.is_empty() }
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        if self.text.is_empty() {
            0
        } else {
            1 + self.text.bytes().filter(|&b| b == b'.').count()
        }
    }

    /// Returns `true` for the root's (empty) label sequence.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }
}

/// The labels of a [`Name`] in either direction: what [`Labels::iter`]
/// returns.
///
/// A label is found by a byte search for the next (or, from the back,
/// the last) dot: the text is ASCII, so every dot is a one-byte
/// character and every cut falls on a character boundary. That costs
/// about a third less per name than `str::split_terminator`, and every
/// store key encode and tree insert walks a name's labels.
#[derive(Debug, Clone)]
pub struct LabelIter<'a> {
    /// The labels not yet yielded, joined by dots.
    rest: &'a str,
    /// Every label has been yielded (`rest` is then spent).
    done: bool,
}

impl<'a> LabelIter<'a> {
    /// The last label, once no dot is left.
    fn finish(&mut self) -> Option<&'a str> {
        self.done = true;
        Some(self.rest)
    }
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.done {
            return None;
        }
        let Some(dot) = self.rest.bytes().position(|b| b == b'.') else {
            return self.finish();
        };
        let label = self.rest.get(..dot);
        self.rest = self.rest.get(dot + 1..).unwrap_or("");
        label
    }
}

impl<'a> DoubleEndedIterator for LabelIter<'a> {
    fn next_back(&mut self) -> Option<&'a str> {
        if self.done {
            return None;
        }
        let Some(dot) = self.rest.bytes().rposition(|b| b == b'.') else {
            return self.finish();
        };
        let label = self.rest.get(dot + 1..);
        self.rest = self.rest.get(..dot).unwrap_or("");
        label
    }
}

impl std::iter::FusedIterator for LabelIter<'_> {}

impl Name {
    /// The DNS root (the empty name, printed as `.`).
    pub fn root() -> Self {
        Name { text: Arc::from("") }
    }

    /// Builds a name from labels in presentation order (leftmost first).
    pub fn from_labels<I>(labels: I) -> Self
    where
        I: IntoIterator<Item = Label>,
    {
        let mut text = String::new();
        for label in labels {
            if !text.is_empty() {
                text.push('.');
            }
            text.push_str(label.as_str());
        }
        Name { text: text.into() }
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
        match scan(s.as_bytes()) {
            Some(false) => Ok(Name { text: Arc::from(s) }),
            Some(true) => {
                let mut lower = [0u8; MAX_NAME_LEN];
                for (dst, src) in lower.iter_mut().zip(s.bytes()) {
                    *dst = src.to_ascii_lowercase();
                }
                match std::str::from_utf8(&lower[..s.len()]) {
                    Ok(text) => Ok(Name { text: Arc::from(text) }),
                    Err(_) => Name::parse_labels(s),
                }
            }
            None => Name::parse_labels(s),
        }
    }

    /// The label-by-label parse of a name [`scan`] found a defect in: it
    /// names the defect, in the order checked (length, then each label's
    /// emptiness, length and bytes, left to right).
    fn parse_labels(s: &str) -> Result<Self, NameParseError> {
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

    /// The name whose text is `text`: lower-case labels, each checked and
    /// joined by dots, at most [`MAX_NAME_LEN`] characters (`""` for the
    /// root) — what the wire decoder writes into its view.
    pub(crate) fn from_checked(text: &str) -> Name {
        Name { text: Arc::from(text) }
    }

    /// Whether `self` and `other` are one heap block (an `Arc` clone), not
    /// merely equal texts.
    #[cfg(test)]
    pub(crate) fn shares_block(&self, other: &Name) -> bool {
        Arc::ptr_eq(&self.text, &other.text)
    }

    /// The presentation form — exactly what `Display` writes: the labels
    /// joined by `.`, and `.` alone for the root.
    pub fn as_str(&self) -> &str {
        if self.text.is_empty() {
            "."
        } else {
            &self.text
        }
    }

    /// Number of labels, which the paper calls the *depth* of the tree node
    /// (`www.example.com` has depth 3; the root has depth 0).
    pub fn depth(&self) -> usize {
        self.labels().len()
    }

    /// Returns `true` for the root name.
    pub fn is_root(&self) -> bool {
        self.text.is_empty()
    }

    /// Labels in presentation order (leftmost first), borrowed from the
    /// name's text.
    pub fn labels(&self) -> Labels<'_> {
        Labels { text: &self.text }
    }

    /// The rightmost label — the lexical TLD (`com` for `www.example.com`).
    ///
    /// Note that the *effective* TLD of the paper (which treats `co.uk` as
    /// a TLD) is provided by [`crate::SuffixList`], not here.
    pub fn tld(&self) -> Option<&str> {
        self.labels().iter().next_back()
    }

    /// The text of the `n` rightmost labels; `None` if there are fewer.
    fn suffix(&self, n: usize) -> Option<&str> {
        if n == 0 {
            return Some("");
        }
        // The suffix starts after the n-th dot from the right, or at the
        // start of a name of exactly n labels.
        let mut dots = self.text.rmatch_indices('.');
        match dots.nth(n - 1) {
            Some((dot, _)) => self.text.get(dot + 1..),
            None => (self.depth() == n).then_some(&*self.text),
        }
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
        self.suffix(n).map(|text| Name { text: Arc::from(text) })
    }

    /// The parent zone (all labels but the leftmost); `None` for the root.
    pub fn parent(&self) -> Option<Name> {
        if self.is_root() {
            return None;
        }
        let rest = self.text.split_once('.').map_or("", |(_, rest)| rest);
        Some(Name { text: Arc::from(rest) })
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
        if self.is_root() {
            return Name { text: Arc::from(label.as_str()) };
        }
        let mut text = String::with_capacity(label.len() + 1 + self.text.len());
        text.push_str(label.as_str());
        text.push('.');
        text.push_str(&self.text);
        Name { text: text.into() }
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
        match self.text.strip_suffix(&*ancestor.text) {
            // A string suffix is a label suffix when it starts the name,
            // follows a dot, or is the root's empty text.
            Some(rest) => rest.is_empty() || rest.ends_with('.') || ancestor.is_root(),
            None => false,
        }
    }

    /// Total length of the presentation form in characters (dots included).
    pub fn presentation_len(&self) -> usize {
        self.as_str().len()
    }

    /// The bytes of the presentation form — exactly what `Display` writes:
    /// labels joined by `b'.'`, `b"."` for the root.
    pub fn presentation_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.as_str().bytes()
    }
}

/// One pass over a name's presentation bytes, trailing dot stripped:
/// `Some(has_upper_case)` when it is at most [`MAX_NAME_LEN`] bytes of
/// non-empty labels of at most [`MAX_LABEL_LEN`] accepted bytes each, so
/// the text is the name's block as it stands (or once lower-cased);
/// `None` on any defect.
fn scan(s: &[u8]) -> Option<bool> {
    if s.len() > MAX_NAME_LEN {
        return None;
    }
    let (mut label_len, mut upper) = (0usize, false);
    for &b in s {
        if b == b'.' {
            if label_len == 0 {
                return None;
            }
            label_len = 0;
        } else if byte_ok(b) && label_len < MAX_LABEL_LEN {
            upper |= b.is_ascii_uppercase();
            label_len += 1;
        } else {
            return None;
        }
    }
    (label_len > 0).then_some(upper)
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

/// The SplitMix64 finalizer: avalanches a 64-bit value into an unbiased
/// one. Fault sampling and failover routing use it on raw coordinates;
/// `dnsnoise_workload::mix64` is SplitMix64 proper, this after a
/// golden-ratio add.
#[inline]
pub fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FromStr for Name {
    type Err = NameParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
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
    use proptest::prelude::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// Drives `Labels::iter` and the `split_terminator('.')` reference
    /// over `text` through the same `next`/`next_back` sequence (`true`
    /// is `next_back`), then drains both from the front; every step must
    /// agree.
    fn walk_agrees(text: &str, backs: &[bool]) -> proptest::test_runner::TestCaseResult {
        let mut ours = Labels { text }.iter();
        let mut reference = text.split_terminator('.');
        for &back in backs {
            if back {
                prop_assert_eq!(ours.next_back(), reference.next_back(), "{:?}", text);
            } else {
                prop_assert_eq!(ours.next(), reference.next(), "{:?}", text);
            }
        }
        prop_assert_eq!(ours.collect::<Vec<_>>(), reference.collect::<Vec<_>>(), "{:?}", text);
        Ok(())
    }

    #[test]
    fn label_walk_matches_split_terminator_on_the_edge_cases() {
        let texts = ["", ".", "..", "com", "com.", "a.b", ".a", "a..b", "a.b.", "a.b.."];
        for text in texts {
            let all = text.split_terminator('.').collect::<Vec<_>>();
            assert_eq!(Labels { text }.iter().collect::<Vec<_>>(), all, "{text:?}");
            let back = text.split_terminator('.').rev().collect::<Vec<_>>();
            assert_eq!(Labels { text }.iter().rev().collect::<Vec<_>>(), back, "{text:?}");
        }
        assert_eq!(Name::root().labels().iter().next(), None);
        assert_eq!(n("com").labels().iter().rev().collect::<Vec<_>>(), ["com"]);
        assert_eq!(n("www.example.com").tld(), Some("com"));
    }

    proptest! {
        /// Any text over letters and dots, empty labels and trailing dots
        /// included, under any interleaving of the two ends.
        #[test]
        fn label_walk_matches_split_terminator(
            text in proptest::string::string_regex("[ab.]{0,9}").unwrap(),
            backs in proptest::collection::vec(any::<bool>(), 0..8),
        ) {
            walk_agrees(&text, &backs)?;
        }

        /// Real names: the root, one label, and deep names.
        #[test]
        fn label_walk_matches_split_terminator_on_names(
            labels in proptest::collection::vec(
                proptest::string::string_regex("[a-z0-9][a-z0-9-]{0,5}").unwrap(), 0..6),
            backs in proptest::collection::vec(any::<bool>(), 0..8),
        ) {
            let name = Name::parse(&labels.join(".")).unwrap();
            walk_agrees(&name.text, &backs)?;
            prop_assert_eq!(name.labels().iter().collect::<Vec<_>>(), labels);
        }
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
        assert_eq!(d.depth(), 12); // 11 periods, as stated in §IV-A for avqs.mcafee.com
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
