//! One open-addressing table of positions into a vector its owner keeps:
//! the resolver cache's slab, the day table's rows and the run store's
//! memtable entries. Keys live once, in that vector. The caller passes
//! the hash to probe from (keyed as it likes) and closures for the key
//! compare and a position's hash, so the table holds no key and no
//! hasher. It hands no cell out, so nothing can read it in hash order.

/// A cell that holds no position. Every position is below it.
const EMPTY: u32 = u32::MAX;

/// The table's length when the first insert grows it.
const MIN_CELLS: usize = 16;

/// Positions below [`PositionTable::LIMIT`], found by hash.
///
/// The length is a power of two of at least twice the positions held
/// (none before the first insert), and a key is probed linearly from the
/// cell its hash's low bits name to the first empty cell. A removal
/// shifts the rest of its probe run back into the hole, so no cell is a
/// tombstone and every position stays reachable from its home.
#[derive(Debug, Clone, Default)]
pub struct PositionTable {
    cells: Vec<u32>,
    len: usize,
}

impl PositionTable {
    /// The bound on positions: a position must be below it.
    pub const LIMIT: usize = EMPTY as usize;

    /// Number of positions held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table holds no position.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of cells.
    // lint:allow(dead-api): the cache and memtable unit tests pin the table's size through it
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// The first position of `hash`'s probe run that passes `is_key`.
    #[inline]
    pub fn find(&self, hash: u64, mut is_key: impl FnMut(usize) -> bool) -> Option<usize> {
        let mask = self.cells.len().checked_sub(1)?;
        let mut cell = hash as usize & mask;
        loop {
            let pos = self.cells[cell];
            if pos == EMPTY {
                return None;
            }
            if is_key(pos as usize) {
                return Some(pos as usize);
            }
            cell = (cell + 1) & mask;
        }
    }

    /// Enters `pos`, whose key hashes to `hash` and is not in the table,
    /// after doubling a table it would pass half full (which places every
    /// held position again by `hash_of`).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not below [`PositionTable::LIMIT`].
    #[inline]
    pub fn insert(&mut self, hash: u64, pos: usize, hash_of: impl Fn(usize) -> u64) {
        assert!(pos < Self::LIMIT, "position {pos} is past the table's 32-bit cells");
        if (self.len + 1) * 2 > self.cells.len() {
            self.grow(hash_of);
        }
        self.place(hash, pos as u32);
        self.len += 1;
    }

    /// Takes `pos`, whose key hashes to `hash`, out of the table, and
    /// shifts each later cell of its probe run whose home (by `hash_of`)
    /// allows it back into the hole.
    ///
    /// # Panics
    ///
    /// Panics if the table does not hold `pos`.
    #[inline]
    pub fn remove(&mut self, hash: u64, pos: usize, hash_of: impl Fn(usize) -> u64) {
        let mask = self.cells.len().wrapping_sub(1);
        let mut hole = hash as usize & mask;
        while self.cells[hole] as usize != pos {
            assert_ne!(self.cells[hole], EMPTY, "position {pos} is not in the table");
            hole = (hole + 1) & mask;
        }
        let mut cell = hole;
        loop {
            cell = (cell + 1) & mask;
            let next = self.cells[cell];
            if next == EMPTY {
                break;
            }
            // `next` may fill the hole when the hole lies on its probe
            // path: no further from its home than `cell` is.
            let home = hash_of(next as usize) as usize & mask;
            if cell.wrapping_sub(home) & mask >= cell.wrapping_sub(hole) & mask {
                self.cells[hole] = next;
                hole = cell;
            }
        }
        self.cells[hole] = EMPTY;
        self.len -= 1;
    }

    /// Empties the table, keeping its length.
    pub fn clear(&mut self) {
        self.cells.fill(EMPTY);
        self.len = 0;
    }

    /// Writes `pos` into the first empty cell from `hash`'s home.
    fn place(&mut self, hash: u64, pos: u32) {
        let mask = self.cells.len() - 1;
        let mut cell = hash as usize & mask;
        while self.cells[cell] != EMPTY {
            cell = (cell + 1) & mask;
        }
        self.cells[cell] = pos;
    }

    /// Doubles the table and places every held position again.
    #[cold]
    fn grow(&mut self, hash_of: impl Fn(usize) -> u64) {
        // Reallocate the cells first and copy the held positions out
        // after: building the new table beside the old one, or copying
        // them out before, raised a day replay's peak RSS by 0.1–0.4 MB.
        let old = self.cells.len();
        self.cells.resize((old * 2).max(MIN_CELLS), EMPTY);
        let held: Vec<u32> =
            self.cells[..old].iter().copied().filter(|&pos| pos != EMPTY).collect();
        self.cells[..old].fill(EMPTY);
        for pos in held {
            self.place(hash_of(pos as usize), pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Checks every held cell is reachable from its home without
    /// crossing an empty cell, the count matches, and the table is at
    /// most half full.
    fn check(table: &PositionTable, hash_of: impl Fn(usize) -> u64) {
        let mask = table.cells.len().wrapping_sub(1);
        let mut held = 0;
        for (cell, &pos) in table.cells.iter().enumerate() {
            if pos == EMPTY {
                continue;
            }
            held += 1;
            let mut at = hash_of(pos as usize) as usize & mask;
            while at != cell {
                assert_ne!(table.cells[at], EMPTY, "an empty cell cuts {pos} off its home");
                at = (at + 1) & mask;
            }
        }
        assert_eq!(held, table.len());
        assert!(table.cells.is_empty() || table.cells.len().is_power_of_two());
        assert!(table.len() * 2 <= table.cells.len() || table.cells.is_empty());
    }

    proptest! {
        /// Random inserts, removes, finds and clears (6 : 3 : 3 : 1) over
        /// keys 0..200 agree with a `HashMap` from key to position. The owner's
        /// vector is the key at each position; `squeeze` maps every key
        /// to one of a few hashes whose homes are the table's last cells,
        /// so probe runs wrap past the end and shifts cross it.
        #[test]
        fn agrees_with_a_hashmap(
            ops in proptest::collection::vec((0u8..13, 0u16..200), 0..600),
            squeeze in 1u64..5,
        ) {
            let mut table = PositionTable::default();
            let mut model: HashMap<u16, usize> = HashMap::new();
            // Position → key; a removed position's key is kept, unused.
            let mut keys: Vec<u16> = Vec::new();
            let hash = |k: u16| u64::MAX - u64::from(k) % squeeze;
            for (op, k) in ops {
                match op {
                    0..=5 => {
                        model.entry(k).or_insert_with(|| {
                            keys.push(k);
                            table.insert(hash(k), keys.len() - 1, |p| hash(keys[p]));
                            keys.len() - 1
                        });
                    }
                    6..=8 => {
                        if let Some(pos) = model.remove(&k) {
                            table.remove(hash(k), pos, |p| hash(keys[p]));
                        }
                    }
                    9..=11 => {
                        let got = table.find(hash(k), |p| keys[p] == k);
                        prop_assert_eq!(got, model.get(&k).copied());
                    }
                    _ => {
                        let cells = table.cells();
                        table.clear();
                        model.clear();
                        prop_assert_eq!(table.cells(), cells);
                    }
                }
                check(&table, |p| hash(keys[p]));
                prop_assert_eq!(table.len(), model.len());
            }
            for (&k, &pos) in &model {
                prop_assert_eq!(table.find(hash(k), |p| keys[p] == k), Some(pos));
            }
        }
    }

    #[test]
    fn an_empty_table_finds_nothing_without_a_cell() {
        let table = PositionTable::default();
        assert_eq!(table.find(7, |_| panic!("compared a key")), None);
        assert_eq!(table.cells(), 0);
    }

    #[test]
    fn the_first_insert_makes_sixteen_cells_and_growth_doubles() {
        let mut table = PositionTable::default();
        let hash = |p: usize| (p as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for pos in 0..9 {
            table.insert(hash(pos), pos, hash);
        }
        assert_eq!((table.len(), table.cells()), (9, 32));
        assert!((0..9).all(|pos| table.find(hash(pos), |p| p == pos) == Some(pos)));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn removing_an_absent_position_panics() {
        let mut table = PositionTable::default();
        table.insert(3, 0, |_| 3);
        table.remove(3, 1, |_| 3);
    }
}
