//! Single DNS labels.

use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Maximum length of a single DNS label in bytes (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;

/// One dot-separated component of a domain name, owned and validated.
///
/// A [`crate::Name`] stores its labels as one flat text and hands them out
/// as `&str`; `Label` is the owned form builders pass to
/// [`crate::Name::child`] and [`crate::Name::from_labels`], and the key type
/// of the domain tree's child maps.
///
/// Labels are case-insensitive in DNS; this type normalises to ASCII
/// lowercase on construction so that equality and hashing behave like the
/// protocol. The permitted alphabet is deliberately wider than strict
/// "LDH" (letters/digits/hyphen): real passive-DNS traffic — and in
/// particular the disposable names the paper studies (e.g. the eSoft
/// telemetry names of Fig. 6) — uses `_` and other printable bytes, so we
/// accept any printable ASCII except `.` and whitespace.
///
/// # Examples
///
/// ```
/// use dnsnoise_dns::Label;
///
/// let label: Label = "WWW".parse()?;
/// assert_eq!(label.as_str(), "www");
/// assert_eq!(label.len(), 3);
/// # Ok::<(), dnsnoise_dns::LabelParseError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Label(Box<str>);

/// Error returned when parsing a [`Label`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelParseError {
    /// The label was empty.
    Empty,
    /// The label exceeded [`MAX_LABEL_LEN`] bytes.
    TooLong(usize),
    /// The label contained a byte outside the accepted alphabet.
    InvalidByte(u8),
}

impl fmt::Display for LabelParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelParseError::Empty => write!(f, "empty label"),
            LabelParseError::TooLong(n) => {
                write!(f, "label of {n} bytes exceeds the {MAX_LABEL_LEN}-byte limit")
            }
            LabelParseError::InvalidByte(b) => {
                write!(f, "invalid byte {b:#04x} in label")
            }
        }
    }
}

impl std::error::Error for LabelParseError {}

pub(crate) fn byte_ok(b: u8) -> bool {
    // Printable ASCII except '.', space and control characters.
    (0x21..=0x7e).contains(&b) && b != b'.'
}

impl Label {
    /// Creates a label from a string, validating and lowercasing it.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is empty, longer than
    /// [`MAX_LABEL_LEN`] bytes, or contains a byte outside printable ASCII
    /// (or a `.`).
    pub fn new(s: &str) -> Result<Self, LabelParseError> {
        if s.is_empty() {
            return Err(LabelParseError::Empty);
        }
        if s.len() > MAX_LABEL_LEN {
            return Err(LabelParseError::TooLong(s.len()));
        }
        if let Some(&b) = s.as_bytes().iter().find(|&&b| !byte_ok(b)) {
            return Err(LabelParseError::InvalidByte(b));
        }
        Ok(Label(s.to_ascii_lowercase().into_boxed_str()))
    }

    /// Returns the label as a string slice (always lowercase).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns the label's length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the label is empty. Labels constructed through
    /// [`Label::new`] are never empty; this exists for API completeness.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Shannon entropy (bits per character) of the label's characters.
    ///
    /// This is the `H(l)` of the paper's tree-structure feature family
    /// (§V-A2): machine-generated labels such as
    /// `13cfus2drmdq3j8cafidezr8l6` score high, while human-chosen labels
    /// such as `www` or `mail` score low.
    ///
    /// # Examples
    ///
    /// ```
    /// use dnsnoise_dns::Label;
    ///
    /// let human: Label = "aaaa".parse()?;
    /// let random: Label = "q7x2kfp9".parse()?;
    /// assert_eq!(human.entropy(), 0.0);
    /// assert!(random.entropy() > 2.0);
    /// # Ok::<(), dnsnoise_dns::LabelParseError>(())
    /// ```
    pub fn entropy(&self) -> f64 {
        Label::entropy_of(&self.0)
    }

    /// [`Label::entropy`] of a label's text, for callers that hold it
    /// borrowed (the domain tree keeps its labels in one byte arena).
    pub fn entropy_of(text: &str) -> f64 {
        let bytes = text.as_bytes();
        let mut counts = [0u32; 256];
        for &b in bytes {
            counts[b as usize] += 1;
        }
        let n = bytes.len() as f64;
        let mut h = 0.0;
        for &c in counts.iter().filter(|&&c| c > 0) {
            let p = f64::from(c) / n;
            h -= p * p.log2();
        }
        h
    }
}

impl FromStr for Label {
    type Err = LabelParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Label::new(s)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({:?})", self.0)
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A label hashes, compares and orders exactly as its text, so a map keyed
/// by `Label` can be probed with the `&str` labels of a [`crate::Name`]
/// without building a `Label` first.
impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_lowercases() {
        let l = Label::new("MiXeD-Case01").unwrap();
        assert_eq!(l.as_str(), "mixed-case01");
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Label::new(""), Err(LabelParseError::Empty));
    }

    #[test]
    fn rejects_too_long() {
        let s = "a".repeat(64);
        assert_eq!(Label::new(&s), Err(LabelParseError::TooLong(64)));
        assert!(Label::new(&"a".repeat(63)).is_ok());
    }

    #[test]
    fn rejects_dot_and_space_and_controls() {
        assert!(matches!(Label::new("a.b"), Err(LabelParseError::InvalidByte(b'.'))));
        assert!(matches!(Label::new("a b"), Err(LabelParseError::InvalidByte(b' '))));
        assert!(matches!(Label::new("a\tb"), Err(LabelParseError::InvalidByte(b'\t'))));
        assert!(matches!(Label::new("a\u{7f}"), Err(LabelParseError::InvalidByte(0x7f))));
    }

    #[test]
    fn accepts_underscore_and_punctuation() {
        // Real traffic contains names like `_dmarc` and the metric-bearing
        // eSoft labels; these must parse.
        assert!(Label::new("_dmarc").is_ok());
        assert!(Label::new("load-0-p-01").is_ok());
    }

    #[test]
    fn entropy_of_uniform_string_is_zero() {
        assert_eq!(Label::new("aaaaaa").unwrap().entropy(), 0.0);
    }

    #[test]
    fn entropy_grows_with_alphabet() {
        let low = Label::new("abab").unwrap().entropy();
        let high = Label::new("abcd").unwrap().entropy();
        assert!(high > low);
        assert!((high - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_is_case_normalised() {
        // "Ab" lowercases to "ab" so entropy is computed on the normal form.
        let e = Label::new("AbAb").unwrap().entropy();
        assert!((e - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_is_lexicographic_on_lowercase() {
        let a = Label::new("Alpha").unwrap();
        let b = Label::new("beta").unwrap();
        assert!(a < b);
    }
}
