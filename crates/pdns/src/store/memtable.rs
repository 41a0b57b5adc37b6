//! The run store's memtable: the keys observed since the last flush,
//! held unsorted and found by hash.
//!
//! Entries sit in insertion order in one buffer. An open-addressing
//! table over them is keyed by [`key_hash`], the hash every run's index
//! uses; the caller passes it in, as it does to [`HashIndex::find`], so
//! a store probe hashes its key once for the memtable and all runs. Each
//! slot is one `u64`, laid out as in [`HashIndex`]: the hash's high 32
//! bits (its fingerprint) over the entry's position, or [`EMPTY`]. The
//! table keeps a load factor of at most one half and is probed linearly,
//! so a probe stops at an empty slot after reading at most one slot per
//! entry plus one: keys whose hashes all collide cost one exact compare
//! per entry, and a store flushes at `memtable_cap` entries, so such a
//! probe reads at most `memtable_cap` slots (a store without a spill
//! directory never flushes: like any hash map, it pays one compare per
//! colliding entry).
//!
//! Entries are sorted only when they leave: [`Memtable::drain_sorted`]
//! hands the flush its run input in composite-key order. The entry
//! buffer and the table keep their capacity across flushes, so once the
//! first flush has sized them an insert allocates only its owned key.
//!
//! [`key_hash`]: super::index::key_hash
//! [`HashIndex`]: super::index::HashIndex
//! [`HashIndex::find`]: super::index::HashIndex::find

use super::index::{slot, slot_match, EMPTY};
use super::keys::{CompositeKey, KeyRef};

/// The table's length before the first insert grows it.
const MIN_SLOTS: usize = 16;

/// Unflushed `(key, first-seen day)` entries with a hash table over them.
#[derive(Debug, Default)]
pub(crate) struct Memtable {
    /// Entries in insertion order; keys are distinct.
    entries: Vec<(CompositeKey, u64)>,
    /// Each entry's hash, as the caller supplied it, for placing the
    /// entries again when the table grows.
    hashes: Vec<u64>,
    /// `fingerprint << 32 | position`, or [`EMPTY`]; a power-of-two
    /// length of at least twice `entries.len()`, or none before the
    /// first insert.
    slots: Vec<u64>,
}

impl Memtable {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memtable holds no entries.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in insertion order.
    pub(crate) fn entries(&self) -> &[(CompositeKey, u64)] {
        &self.entries
    }

    /// The first-seen day of `key`, whose `key_hash` is `hash`.
    pub(crate) fn get(&self, key: KeyRef<'_>, hash: u64) -> Option<u64> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut s = hash as usize & mask;
        loop {
            let slot = *self.slots.get(s)?;
            if slot == EMPTY {
                return None;
            }
            if let Some((entry, day)) = slot_match(slot, hash).and_then(|pos| self.entries.get(pos))
            {
                if KeyRef::of(entry) == key {
                    return Some(*day);
                }
            }
            s = (s + 1) & mask;
        }
    }

    /// Adds `key`, whose `key_hash` is `hash`, first seen on `day`. The
    /// caller has probed: `key` is not in the memtable.
    pub(crate) fn insert(&mut self, key: CompositeKey, hash: u64, day: u64) {
        debug_assert!(self.get(KeyRef::of(&key), hash).is_none(), "memtable keys are distinct");
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let pos = self.entries.len();
        place(&mut self.slots, hash, pos);
        self.entries.push((key, day));
        self.hashes.push(hash);
    }

    /// Doubles the table and places every entry again.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(len, EMPTY);
        for (pos, &hash) in self.hashes.iter().enumerate() {
            place(&mut self.slots, hash, pos);
        }
    }

    /// Sorts the entries into composite-key order, hands them to `f`
    /// (the flush builds its run from them) and empties the memtable,
    /// keeping the buffer's and the table's capacity.
    pub(crate) fn drain_sorted<R>(&mut self, f: impl FnOnce(&[(CompositeKey, u64)]) -> R) -> R {
        self.entries.sort_unstable();
        let out = f(&self.entries);
        self.entries.clear();
        self.hashes.clear();
        self.slots.fill(EMPTY);
        out
    }
}

/// Writes entry `pos` into the first empty slot from `hash`'s home.
fn place(slots: &mut [u64], hash: u64, pos: usize) {
    let mask = slots.len() - 1;
    let mut s = hash as usize & mask;
    while slots[s] != EMPTY {
        s = (s + 1) & mask;
    }
    slots[s] = slot(hash, pos);
}

#[cfg(test)]
mod tests {
    use super::super::index::key_hash;
    use super::super::keys::tests::merge_key;
    use super::super::run::Run;
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Inserts `key` unless present, as `observe` does; every answer is
    /// checked against `oracle`.
    fn observe(
        table: &mut Memtable,
        oracle: &mut BTreeMap<CompositeKey, u64>,
        key: CompositeKey,
        hash: u64,
        day: u64,
    ) {
        let got = table.get(KeyRef::of(&key), hash);
        assert_eq!(got, oracle.get(&key).copied(), "get {key:?}");
        if got.is_none() {
            oracle.insert(key.clone(), day);
            table.insert(key, hash, day);
        }
        assert_eq!(table.len(), oracle.len());
    }

    /// Drains `table` and checks the run input is the oracle's sorted,
    /// distinct entries, then empties the oracle too.
    fn drain(table: &mut Memtable, oracle: &mut BTreeMap<CompositeKey, u64>) {
        let want: Vec<(CompositeKey, u64)> = std::mem::take(oracle).into_iter().collect();
        let run = table.drain_sorted(|entries| {
            assert_eq!(entries, want.as_slice(), "drain is the sorted, distinct entries");
            Run::build(entries)
        });
        assert_eq!(run, Run::build(&want));
        assert!(table.is_empty());
    }

    #[test]
    fn one_hash_for_every_key_still_answers_exactly() {
        const HASH: u64 = 0x1234_5678_0000_0007;
        let mut table = Memtable::default();
        let mut oracle = BTreeMap::new();
        for round in 0..3u32 {
            // The second pass repeats every key of the first.
            for id in (0..40).rev().chain(0..40) {
                let key = merge_key(id + round * 20, (id % 3) as u8);
                observe(&mut table, &mut oracle, key, HASH, u64::from(id % 5));
            }
            assert_eq!(table.len(), 40);
            for id in 100..110 {
                assert_eq!(table.get(KeyRef::of(&merge_key(id, 0)), HASH), None);
            }
            drain(&mut table, &mut oracle);
        }
    }

    #[test]
    fn an_empty_table_answers_without_a_slot() {
        let table = Memtable::default();
        let key = merge_key(1, 0);
        assert_eq!(table.get(KeyRef::of(&key), key_hash(KeyRef::of(&key))), None);
        let mut table = Memtable::default();
        table.drain_sorted(|entries| assert!(entries.is_empty()));
        assert!(table.slots.is_empty());
    }

    #[test]
    fn the_table_keeps_its_size_across_drains() {
        let mut table = Memtable::default();
        for id in 0..100 {
            let key = merge_key(id, 0);
            table.insert(key.clone(), key_hash(KeyRef::of(&key)), 0);
        }
        let (slots, entries) = (table.slots.len(), table.entries.capacity());
        assert_eq!(table.hashes.capacity(), table.entries.capacity());
        assert!(slots >= 200 && slots.is_power_of_two(), "{slots}");
        table.drain_sorted(|_| ());
        assert_eq!((table.slots.len(), table.entries.capacity()), (slots, entries));
        assert!(table.slots.iter().all(|&s| s == EMPTY));
    }

    proptest! {
        /// Random observes and drains over keys of three shapes, hashed
        /// by `key_hash` or squeezed into four hash values, agree with a
        /// `BTreeMap` at every step.
        #[test]
        fn observes_and_drains_match_a_btreemap(
            ops in proptest::collection::vec((0u32..200, 0u8..3, 0u64..20, 0u8..40), 0..400),
            squeeze in any::<bool>(),
        ) {
            let mut table = Memtable::default();
            let mut oracle = BTreeMap::new();
            for (id, shape, day, op) in ops {
                if op == 0 {
                    drain(&mut table, &mut oracle);
                    continue;
                }
                let key = merge_key(id, shape);
                let hash = key_hash(KeyRef::of(&key));
                let hash = if squeeze { hash & 0x3_0000_0003 } else { hash };
                observe(&mut table, &mut oracle, key, hash, day);
            }
            drain(&mut table, &mut oracle);
        }
    }
}
