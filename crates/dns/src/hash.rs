//! A seeded hasher for the tables probed on every replayed event.
//!
//! The resolver cache index, the negative cache, the day's per-record
//! table and the stream's client set are each probed at least once per
//! event, with keys of a few dozen bytes. [`FoldHasher`] folds a key eight
//! bytes at a time through one 64×64→128-bit multiply whose halves are
//! xor-folded, where std's SipHash-1-3 runs several rounds per word.
//! The cache index and the per-record table hash their keys with it and
//! probe a [`PositionTable`](crate::table::PositionTable) from that hash.
//!
//! Speed must not hand a crafted trace a lever on those tables: every
//! table draws its own key from std's [`RandomState`] through
//! [`SeededState::default`], so no input is known in advance to collide.
//! The hash is therefore different in every process, and nothing may
//! iterate a table hashed with it into an output (the `hash-iter` lint
//! holds that line).
//!
//! The [`NameTable`](crate::NameTable) is the one exception: it hashes with
//! a key fixed at compile time (`SeededState::FIXED`). It is
//! direct-mapped, one name per slot and no probe chain, so a collision costs
//! one miss and nothing longer: a crafted trace that makes every lookup
//! collide pays the parse it would pay without the table, plus one hash.
//! With no lever to guard, a fixed key keeps the table's hits, and so the
//! reader's allocation counts, the same in every process.

use std::hash::{BuildHasher, Hasher, RandomState};

/// A per-table random key: the [`BuildHasher`] of [`FoldHasher`].
#[derive(Debug, Clone, Copy)]
pub struct SeededState {
    start: u64,
    multiplier: u64,
}

impl SeededState {
    /// The compile-time key of the [`NameTable`](crate::NameTable), which
    /// needs no random one; see the [module docs](self). The multiplier is
    /// odd (2^64 over the golden ratio), the start the first digits of π.
    pub(crate) const FIXED: SeededState =
        SeededState { start: 0x243f_6a88_85a3_08d3, multiplier: 0x9e37_79b9_7f4a_7c15 };
}

impl Default for SeededState {
    /// A fresh key drawn from std's [`RandomState`].
    fn default() -> Self {
        let random = RandomState::new();
        SeededState { start: random.hash_one(0u8), multiplier: random.hash_one(1u8) }
    }
}

impl BuildHasher for SeededState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { acc: self.start, multiplier: self.multiplier }
    }
}

/// Folds each word into its state with one folded multiply by the
/// table's secret multiplier; see the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct FoldHasher {
    acc: u64,
    multiplier: u64,
}

impl FoldHasher {
    #[inline]
    fn word(&mut self, word: u64) {
        let product = u128::from(self.acc ^ word) * u128::from(self.multiplier);
        self.acc = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let words = bytes.chunks_exact(8);
        // The tail's length rides in its free top byte.
        let mut tail = (words.remainder().len() as u64) << 56;
        for (shift, &b) in words.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * shift);
        }
        for word in words {
            self.word(word.try_into().map_or(0, u64::from_le_bytes));
        }
        self.word(tail);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_table_hashes_alike_and_tables_differ() {
        let (a, b) = (SeededState::default(), SeededState::default());
        assert_eq!(a.hash_one("www.example.com"), a.hash_one("www.example.com"));
        assert_ne!(a.hash_one("www.example.com"), a.hash_one("www.example.co"));
        // Two tables draw two keys (a tie has odds of 2^-64).
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
    }

    #[test]
    fn the_tail_length_separates_zero_padded_writes() {
        let state = SeededState::default();
        let hash = |bytes: &[u8]| {
            let mut h = state.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"a"), hash(b"a\0"));
        assert_ne!(hash(b""), hash(b"\0"));
        assert_ne!(hash(b"abcdefgh"), hash(b"abcdefgh\0"));
    }
}
