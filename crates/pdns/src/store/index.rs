//! The per-run sparse index: one `(feature, position)` sample per
//! sixteen feature groups of the sorted name column.
//!
//! Every entry's index feature is a 64-bit big-endian window of its
//! encoded name, read at the offset where the run's first and last names
//! stop sharing a prefix (the run-wide LCP). Within one sorted run the
//! feature is monotone non-decreasing, so equal features form contiguous
//! *groups*; the index maps a feature to the candidate window between
//! the sampled group starts that bracket it, and the caller finishes
//! with an exact binary search over the full composite keys inside that
//! window. The window's end is the start of a group whose feature
//! exceeds the probe's, so the probe's whole group lies inside it and a
//! lookup can never miss.
//!
//! Determinism: the build is a pure function of the sorted keys.

/// One sample per this many feature groups.
const SAMPLE_EVERY: usize = 16;

/// A per-run index over the name-feature space: `(feature, entry
/// index)` of every [`SAMPLE_EVERY`]-th feature group.
#[derive(Debug, Clone, PartialEq)]
pub struct RunIndex {
    /// Byte offset into every encoded name where the feature window
    /// starts (the run-wide longest common prefix).
    lcp: usize,
    /// Sampled group starts, ordered by feature.
    samples: Vec<(u64, u32)>,
}

impl RunIndex {
    /// Builds the index for `names`, the run's encoded-name column in
    /// sorted order.
    pub fn build(names: &[&[u8]]) -> RunIndex {
        let lcp = match (names.first(), names.last()) {
            (Some(first), Some(last)) => common_prefix_len(first, last),
            _ => 0,
        };
        let samples = feature_groups(names, lcp).into_iter().step_by(SAMPLE_EVERY).collect();
        RunIndex { lcp, samples }
    }

    /// The candidate entry window `[lo, hi)` that contains every entry
    /// of feature group `x`, if any entry of the run has feature `x`.
    /// `n` is the run length.
    pub fn window(&self, x: u64, n: usize) -> (usize, usize) {
        let below = self.samples.partition_point(|&(sx, _)| sx < x);
        let lo =
            below.checked_sub(1).and_then(|i| self.samples.get(i)).map_or(0, |&(_, p)| p as usize);
        let at_or_below = self.samples.partition_point(|&(sx, _)| sx <= x);
        let hi = self.samples.get(at_or_below).map_or(n, |&(_, p)| p as usize);
        (lo, hi)
    }

    /// The feature offset this index reads names at.
    pub fn lcp(&self) -> usize {
        self.lcp
    }
}

/// The 64-bit big-endian feature window of `name` at byte offset `lcp`,
/// zero-padded past the end. Monotone over a sorted run because every
/// name in it shares the first `lcp` bytes and `0x00` padding is the
/// minimum byte.
// lint:certify(no-panic)
pub fn feature(name: &[u8], lcp: usize) -> u64 {
    let mut window = [0u8; 8];
    let tail = name.get(lcp..).unwrap_or(&[]);
    for (w, b) in window.iter_mut().zip(tail) {
        *w = *b;
    }
    u64::from_be_bytes(window)
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// `(feature, first entry index)` of every distinct feature group.
///
/// Group starts saturate at `u32::MAX`; unreachable in practice, since
/// the run format's `u32` column offsets already cap entry counts well
/// below that.
fn feature_groups(names: &[&[u8]], lcp: usize) -> Vec<(u64, u32)> {
    let mut groups: Vec<(u64, u32)> = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let x = feature(name, lcp);
        if groups.last().is_none_or(|&(last_x, _)| last_x != x) {
            groups.push((x, u32::try_from(i).unwrap_or(u32::MAX)));
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every entry — not just its group's first — must sit inside the
    /// window of its own feature: that is what lets `Run::get` stop at
    /// the window's end.
    fn windows_cover_all_entries(names: &[Vec<u8>]) {
        let refs: Vec<&[u8]> = names.iter().map(Vec::as_slice).collect();
        let index = RunIndex::build(&refs);
        for (i, name) in names.iter().enumerate() {
            let (lo, hi) = index.window(feature(name, index.lcp()), names.len());
            assert!(lo <= i && i < hi, "entry {i} outside [{lo},{hi})");
        }
    }

    #[test]
    fn alternating_gaps_keep_the_window_guarantee() {
        // Dense bursts separated by huge feature gaps: samples land at
        // arbitrary points inside bursts and across gaps.
        let burst = 66;
        let names: Vec<Vec<u8>> = (0..2048u32)
            .map(|i| {
                let v = (i / burst) * (1 << 24) + (i % burst);
                format!("com\0alt\0{v:08x}\0").into_bytes()
            })
            .collect();
        windows_cover_all_entries(&names);
    }

    #[test]
    fn duplicate_features_keep_the_window_guarantee() {
        // Many entries share one feature (same owner name, many RDATAs):
        // the window must still contain the whole group.
        let mut names: Vec<Vec<u8>> = Vec::new();
        for z in 0..64u32 {
            for _ in 0..50 {
                names.push(format!("com\0dup\0z{z:04}\0").into_bytes());
            }
        }
        names.sort();
        windows_cover_all_entries(&names);
    }

    #[test]
    fn single_name_run_works() {
        windows_cover_all_entries(&[b"com\0one\0".to_vec()]);
    }
}
