//! The per-run hash index: an open-addressing table over a run's
//! composite keys, answering a point lookup in about one slot read.
//!
//! Each slot is one `u64`: the high 32 bits of the key's hash (its
//! *fingerprint*) over the entry's position in the run, or `EMPTY`.
//! The table has a power-of-two length of at least twice the run's
//! entry count (load factor ≤ 0.5, so ≤ 32 B per entry) and is probed
//! linearly from the slot the hash's low bits name. A probe skips slots
//! whose fingerprint differs without touching the run's columns and
//! confirms a fingerprint match with one exact composite compare.
//!
//! Hostile keys cannot make a probe unbounded: the build places an entry
//! only within `MAX_PROBE` slots of its home slot, and *spills* one
//! that finds no free slot there. A probe therefore reads at most
//! `MAX_PROBE` slots. Reaching an empty slot proves absence (the
//! missing key would have been placed before it); only a window that is
//! full in a table that spilled leaves the answer `Probe::Unsure`, and
//! the caller then binary-searches the sorted columns.
//!
//! Determinism: the hash is a fixed function of the key bytes and the
//! build inserts in run order, so the table is a pure function of the
//! run. It is never serialized.
//!
//! The memtable, the cache index and the day table share
//! [`PositionTable`](dnsnoise_dns::table::PositionTable); this table
//! stays apart. It is built once at a fixed size, its bound on the probe
//! (and the spill to `Probe::Unsure` behind it) is what keeps a fixed,
//! unkeyed hash safe, and its probe is certified not to panic: a shared
//! table would have to branch on which of them it serves.

use super::keys::KeyRef;

/// The most slots a probe reads, and the farthest from its home slot
/// the build places an entry: two 64-byte cache lines of slots.
const MAX_PROBE: usize = 16;

/// A slot that holds no entry. No entry encodes to it, because an
/// entry's position is below `u32::MAX` (run offsets are `u32`).
const EMPTY: u64 = u64::MAX;

/// The multiplier of the word mix: 2⁶⁴ / φ, odd, so each step is a
/// bijection of the running state.
const WORD_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// What one table probe proves about a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The key is the run's entry at this position.
    Found(usize),
    /// The run does not hold the key.
    Absent,
    /// The probe window was full in a table that spilled an entry: the
    /// key may be one of the spilled entries.
    Unsure,
}

/// A run's hash index. Built once, on the run's first probe.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashIndex {
    /// `fingerprint << 32 | position`, or [`EMPTY`]; a power-of-two
    /// length, or none at all for an empty run.
    slots: Vec<u64>,
    /// Whether some entry found no free slot within [`MAX_PROBE`] of its
    /// home and is missing from the table.
    spilled: bool,
}

impl HashIndex {
    /// The table over the `n` entries of a run, where `hash_at(i)` is
    /// entry `i`'s [`key_hash`].
    pub(crate) fn build(n: usize, hash_at: impl Fn(usize) -> u64) -> HashIndex {
        if n == 0 {
            return HashIndex::default();
        }
        let mut slots = vec![EMPTY; n.saturating_mul(2).next_power_of_two()];
        let mask = slots.len() - 1;
        let mut spilled = false;
        for pos in 0..n {
            let hash = hash_at(pos);
            let home = hash as usize & mask;
            let free = (0..MAX_PROBE).map(|d| (home + d) & mask).find(|&s| slots[s] == EMPTY);
            match free {
                Some(s) => slots[s] = slot(hash, pos),
                None => spilled = true,
            }
        }
        HashIndex { slots, spilled }
    }

    /// Probes for the key whose [`key_hash`] is `hash`; `is_key(i)` is
    /// the exact compare against entry `i`, called only on a fingerprint
    /// match.
    // lint:certify(no-panic)
    pub(crate) fn find(&self, hash: u64, is_key: impl Fn(usize) -> bool) -> Probe {
        let mask = self.slots.len().saturating_sub(1);
        let home = hash as usize & mask;
        for d in 0..MAX_PROBE {
            let Some(&slot) = self.slots.get(home.saturating_add(d) & mask) else {
                return Probe::Absent;
            };
            if slot == EMPTY {
                return Probe::Absent;
            }
            match slot_match(slot, hash) {
                Some(pos) if is_key(pos) => return Probe::Found(pos),
                _ => {}
            }
        }
        if self.spilled {
            Probe::Unsure
        } else {
            Probe::Absent
        }
    }
}

/// The slot of entry `pos`, whose key hashes to `hash`: the hash's high
/// 32 bits (its fingerprint) over the position.
fn slot(hash: u64, pos: usize) -> u64 {
    (hash & !0xffff_ffff) | pos as u64
}

/// The position a non-empty `slot` holds when its fingerprint is
/// `hash`'s; a different fingerprint proves the slot holds another key.
// lint:certify(no-panic)
fn slot_match(slot: u64, hash: u64) -> Option<usize> {
    (slot >> 32 == hash >> 32).then_some(slot as u32 as usize)
}

/// The hash every run's table is keyed by: the name, qtype and rdata
/// columns mixed a word at a time, then finalised. One probe hashes once
/// and hands the value to every run.
// lint:certify(no-panic)
pub(crate) fn key_hash(key: KeyRef<'_>) -> u64 {
    let h = mix_bytes(u64::from(key.qtype), key.name);
    let mut h = mix_bytes(h, key.rdata);
    // MurmurHash3's 64-bit finaliser: every input bit reaches the low
    // bits (the home slot) and the high bits (the fingerprint).
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Folds `bytes` into `h` eight at a time, the zero-padded tail last,
/// then the length (so the name and rdata columns cannot trade bytes).
// lint:certify(no-panic)
fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let mut tail = [0u8; 8];
    for (t, b) in tail.iter_mut().zip(words.remainder()) {
        *t = *b;
    }
    for word in words {
        h = mix_word(h, word.try_into().map_or(0, u64::from_le_bytes));
    }
    h = mix_word(h, u64::from_le_bytes(tail));
    mix_word(h, bytes.len() as u64)
}

// lint:certify(no-panic)
fn mix_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(WORD_MIX).rotate_left(23)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a table over `keys` with the given hash and checks that
    /// every stored key is found at its position and every probe of an
    /// absent key says `Absent` or, in a spilled table, `Unsure`.
    fn check(keys: &[u64], hash: impl Fn(u64) -> u64, absent: &[u64]) -> HashIndex {
        let index = HashIndex::build(keys.len(), |i| hash(keys[i]));
        for (i, &k) in keys.iter().enumerate() {
            match index.find(hash(k), |j| keys[j] == k) {
                Probe::Found(pos) => assert_eq!(pos, i),
                Probe::Unsure => assert!(index.spilled, "unsure without a spill"),
                Probe::Absent => panic!("stored key {k} reported absent"),
            }
        }
        for &k in absent {
            let probe = index.find(hash(k), |j| keys[j] == k);
            assert!(matches!(probe, Probe::Absent | Probe::Unsure), "{k}: {probe:?}");
            assert!(probe == Probe::Absent || index.spilled, "{k} unsure without a spill");
        }
        index
    }

    #[test]
    fn random_hashes_find_every_key_and_do_not_spill() {
        let keys: Vec<u64> = (0..5000).collect();
        let absent: Vec<u64> = (5000..6000).collect();
        let hash = |k: u64| key_hash(KeyRef { name: &k.to_le_bytes(), qtype: 1, rdata: &[] });
        let index = check(&keys, hash, &absent);
        assert!(!index.spilled);
        assert!(index.slots.len() >= 2 * keys.len(), "load factor above 0.5");
    }

    #[test]
    fn a_table_forced_to_spill_still_answers_exactly() {
        // Every key hashes alike: MAX_PROBE of them fit, the rest spill.
        let keys: Vec<u64> = (0..100).collect();
        let index = check(&keys, |_| 0x1234_5678_0000_0007, &[100, 101]);
        assert!(index.spilled);
        let placed = index.slots.iter().filter(|&&s| s != EMPTY).count();
        assert_eq!(placed, MAX_PROBE);
        // A spilled key is reported unsure after at most MAX_PROBE compares.
        let compares = std::cell::Cell::new(0);
        let probe = index.find(0x1234_5678_0000_0007, |j| {
            compares.set(compares.get() + 1);
            keys[j] == 99
        });
        assert_eq!((probe, compares.get()), (Probe::Unsure, MAX_PROBE));
    }

    #[test]
    fn colliding_fingerprints_and_homes_are_told_apart_by_the_key() {
        // Four hash values shared by all keys: full collisions within each
        // class, so only the exact compare separates them.
        let keys: Vec<u64> = (0..40).collect();
        let hash = |k: u64| 0xdead_beef_0000_0000 | (k % 4);
        check(&keys, hash, &[40, 41, 42, 43]);
        // A fingerprint that matches no entry never reaches the compare.
        let index = HashIndex::build(keys.len(), |i| hash(keys[i]));
        let probe = index.find(0x0bad_cafe_0000_0001, |_| panic!("compared a foreign print"));
        assert!(matches!(probe, Probe::Absent | Probe::Unsure));
    }

    #[test]
    fn empty_and_one_entry_tables() {
        let empty = HashIndex::build(0, |_| unreachable!());
        assert!(empty.slots.is_empty());
        assert_eq!(empty.find(42, |_| true), Probe::Absent);
        let one = check(&[7], |k| k.wrapping_mul(WORD_MIX), &[8, 9]);
        assert_eq!(one.slots.len(), 2);
    }

    #[test]
    fn the_hash_separates_columns() {
        let a = key_hash(KeyRef { name: b"com\0ab\0", qtype: 1, rdata: b"\x01c" });
        let b = key_hash(KeyRef { name: b"com\0a", qtype: 1, rdata: b"b\0\x01c" });
        let c = key_hash(KeyRef { name: b"com\0ab\0", qtype: 28, rdata: b"\x01c" });
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
