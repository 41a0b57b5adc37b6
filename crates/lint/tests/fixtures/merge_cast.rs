//! Fixture: lossy arithmetic inside merge functions.

struct Stats {
    total: u64,
    small: u16,
    ratio: f64,
}

impl Stats {
    fn merge(&mut self, other: &Stats) {
        self.total += other.total;
        self.small = other.total as u16; // EXPECT merge-cast (narrowing)
        self.ratio += other.total as f64; // EXPECT merge-cast (float cast)
    }

    // Run compaction merges are covered like counter merges; a widening
    // cast is fine in either.
    fn merge_runs(&mut self, parts: &[Stats]) {
        for p in parts {
            self.total += p.small as u64;
            self.small = p.total as u16; // EXPECT merge-cast (narrowing)
            let x: f64 = p.ratio; // EXPECT merge-cast (float in merge fn)
            self.ratio = x;
        }
    }

    // Non-merge functions are fine.
    fn display(&self) -> f64 {
        self.total as f64
    }
}
