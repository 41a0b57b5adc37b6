//! A bounded table of recently parsed names: [`NameTable`].

use std::hash::{BuildHasher, Hasher};

use crate::hash::SeededState;
use crate::name::{Name, NameParseError};

/// Slots in a [`NameTable`]: a power of two, 16 bytes each. A table of
/// 65,536 slots lost the peak-memory gain on a scale-0.5 day.
const SLOTS: usize = 4096;

/// A fixed, direct-mapped table of recently parsed names.
///
/// DNS traffic is skewed: a few popular names are asked again and again
/// while the disposable ones are asked about once (§IV). A reader that
/// parses every name field into a fresh [`Name`] makes a new heap block
/// for each repeat, so the cache key, the answer set and the day-table
/// row of one popular name end up holding copies made by different
/// events. A `NameTable` hands a repeat the block it made the first time.
///
/// It has 4,096 slots of one `Option<Name>` each (64 KiB), allocated once,
/// never grown and never cleared. A field's slot is picked by a hash of
/// its bytes under a fixed key; a slot whose name's presentation text
/// equals the field byte for byte is a hit and returns a clone of its
/// `Arc`. Anything else is a miss: [`Name::parse`] parses the field and
/// its name overwrites the slot. A miss is therefore exactly a table-free
/// parse, value and error alike, and a defective field is never stored.
/// There is no probe chain, so colliding fields evict each other and cost
/// a parse, never more; the [`hash`](crate::hash) module docs say why that
/// needs no random key.
///
/// # Examples
///
/// ```
/// use dnsnoise_dns::NameTable;
///
/// let mut names = NameTable::new();
/// let first = names.intern("www.example.com")?;
/// assert_eq!(names.intern("www.example.com")?, first); // the same block
/// assert_eq!(names.intern("WWW.Example.COM.")?, first); // parsed again
/// assert!(names.intern("a..b").is_err());
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug)]
pub struct NameTable {
    slots: Box<[Option<Name>]>,
}

impl Default for NameTable {
    fn default() -> Self {
        NameTable::new()
    }
}

impl NameTable {
    /// An empty table: its one allocation, the slots.
    pub fn new() -> Self {
        NameTable { slots: std::iter::repeat_with(|| None).take(SLOTS).collect() }
    }

    /// The name `field` spells: the slot's own block when it holds a name
    /// whose text is `field`, else [`Name::parse`]'s, which then takes
    /// the slot.
    ///
    /// # Errors
    ///
    /// [`Name::parse`]'s error for the field; the table is left as it was.
    pub fn intern(&mut self, field: &str) -> Result<Name, NameParseError> {
        let slot = &mut self.slots[slot_of(field)];
        match slot {
            Some(name) if name.as_str() == field => Ok(name.clone()),
            _ => {
                let name = Name::parse(field)?;
                *slot = Some(name.clone());
                Ok(name)
            }
        }
    }
}

/// The slot `field` maps to, below [`SLOTS`].
fn slot_of(field: &str) -> usize {
    let mut hasher = SeededState::FIXED.build_hasher();
    hasher.write(field.as_bytes());
    hasher.finish() as usize & (SLOTS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What slot `field` holds now.
    fn held<'a>(names: &'a NameTable, field: &str) -> Option<&'a Name> {
        names.slots[slot_of(field)].as_ref()
    }

    #[test]
    fn a_repeat_hits_and_shares_the_block() {
        let mut names = NameTable::new();
        assert!(held(&names, "www.example.com").is_none());
        let first = names.intern("www.example.com").unwrap();
        assert!(held(&names, "www.example.com").unwrap().shares_block(&first));
        let again = names.intern("www.example.com").unwrap();
        assert!(again.shares_block(&first));
    }

    #[test]
    fn a_field_that_is_not_the_text_misses_and_parses() {
        let mut names = NameTable::new();
        let lower = names.intern("www.example.com").unwrap();
        for field in ["WWW.example.com", "www.example.com."] {
            let name = names.intern(field).unwrap();
            assert_eq!(name, lower, "{field}");
            assert!(!name.shares_block(&lower), "{field} is parsed, not looked up");
        }
    }

    #[test]
    fn a_colliding_field_overwrites_the_slot() {
        let first = "c0.example";
        let other = (1..)
            .map(|i| format!("c{i}.example"))
            .find(|f| slot_of(f) == slot_of(first))
            .expect("4,096 slots collide within a few thousand names");
        let mut names = NameTable::new();
        let a = names.intern(first).unwrap();
        let b = names.intern(&other).unwrap();
        assert_eq!(b.as_str(), other);
        assert!(held(&names, first).unwrap().shares_block(&b));
        // The evicted name parses again, into a block of its own.
        let again = names.intern(first).unwrap();
        assert_eq!(again, a);
        assert!(!again.shares_block(&a));
        assert!(held(&names, &other).unwrap().shares_block(&again));
    }

    #[test]
    fn the_root_is_spelled_dot_or_empty() {
        let mut names = NameTable::new();
        for field in ["", ".", "", "."] {
            assert!(names.intern(field).unwrap().is_root(), "{field:?}");
        }
        // The root's text is `.`, so that field hits; `""` parses every time.
        let dot = names.intern(".").unwrap();
        assert!(names.intern(".").unwrap().shares_block(&dot));
        let empty = names.intern("").unwrap();
        assert!(!names.intern("").unwrap().shares_block(&empty));
    }

    #[test]
    fn an_invalid_field_is_never_stored() {
        let mut names = NameTable::new();
        let long = format!("{}example", "a.".repeat(124)); // 255 characters
        for field in ["a..b", "..", "a b.example", "x\u{1}.example", &"x".repeat(64), &long] {
            assert!(names.intern(field).is_err(), "{field}");
            assert_eq!(names.intern(field), Name::parse(field), "{field}");
            assert!(held(&names, field).is_none(), "{field}");
        }
        // Nor does it evict the name its slot holds.
        let valid = names.intern("ok.example").unwrap();
        let bad = (0..)
            .map(|i| format!("{i}..bad"))
            .find(|f| slot_of(f) == slot_of("ok.example"))
            .expect("4,096 slots collide within a few thousand names");
        assert!(names.intern(&bad).is_err());
        assert!(held(&names, "ok.example").unwrap().shares_block(&valid));
    }
}
