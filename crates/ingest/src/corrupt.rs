//! Seeded corruption injection for robustness testing.
//!
//! Three damage operators model what real capture pipelines produce:
//! *burst flips* (disk/DMA corruption: contiguous runs of XORed bytes),
//! *tail truncation* (a capture cut off mid-frame by a crash or rotation),
//! and *splices* (a span deleted or duplicated, as when a ring buffer
//! wraps mid-write). All draws come from a caller-seeded RNG, so a
//! corrupted fixture is exactly reproducible from `(input, seed, spec)`.
//!
//! Flips come in bursts of 16–512 bytes rather than independent per-byte
//! draws: the same corrupted-byte budget then lands on few frames instead
//! of dusting nearly all of them, which is both the realistic failure mode
//! and the one a resync-capable reader can actually be measured against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shortest burst of flipped bytes.
const MIN_BURST: usize = 16;
/// Longest burst of flipped bytes.
const MAX_BURST: usize = 512;

/// Flips approximately `fraction` of the bytes of `data` in place, in
/// random bursts, using the RNG seeded from `seed`. Every flipped byte is
/// XORed with a nonzero mask, so it is guaranteed to change.
pub fn flip_bursts(data: &mut [u8], fraction: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    flip_bursts_rng(data, fraction, &mut rng);
}

fn flip_bursts_rng(data: &mut [u8], fraction: f64, rng: &mut StdRng) {
    if data.is_empty() || fraction <= 0.0 {
        return;
    }
    let budget = ((data.len() as f64) * fraction.min(1.0)).round() as usize;
    let mut flipped = 0usize;
    while flipped < budget {
        let want = MIN_BURST + rng.gen_range(0..=MAX_BURST - MIN_BURST);
        let len = want.min(budget - flipped).min(data.len());
        let start = rng.gen_range(0..=data.len() - len);
        for byte in &mut data[start..start + len] {
            let mask = 1 + rng.gen_range(0..255u16) as u8;
            *byte ^= mask;
        }
        flipped += len;
    }
}

/// Removes the final `fraction` of `data` (at least one byte when the
/// fraction is positive), modeling a capture cut off mid-frame.
// lint:allow(dead-api): damage model of crates/ingest/tests/{robustness,window}.rs
pub fn truncate_tail(data: &mut Vec<u8>, fraction: f64) {
    if data.is_empty() || fraction <= 0.0 {
        return;
    }
    let cut = (((data.len() as f64) * fraction.min(1.0)).round() as usize)
        .clamp(1, data.len().saturating_sub(1));
    data.truncate(data.len() - cut);
}

/// What a splice does to the chosen span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpliceKind {
    /// Deletes the span, as when a ring buffer drops a write.
    Delete,
    /// Duplicates the span in place, as when a retry re-emits a write.
    Duplicate,
}

/// Applies one splice of at most `max_span` bytes at a seeded position.
// lint:allow(dead-api): damage model of crates/ingest/tests/robustness.rs
pub fn splice(data: &mut Vec<u8>, kind: SpliceKind, max_span: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    if data.len() < 2 || max_span == 0 {
        return;
    }
    let span = 1 + rng.gen_range(0..max_span.min(data.len() - 1));
    let start = rng.gen_range(0..=data.len() - span);
    match kind {
        SpliceKind::Delete => {
            data.drain(start..start + span);
        }
        SpliceKind::Duplicate => {
            let copy: Vec<u8> = data[start..start + span].to_vec();
            let at = start + span;
            data.splice(at..at, copy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flips_are_seeded_and_hit_the_budget() {
        let clean: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let mut a = clean.clone();
        let mut b = clean.clone();
        flip_bursts(&mut a, 0.01, 7);
        flip_bursts(&mut b, 0.01, 7);
        assert_eq!(a, b, "same seed must corrupt identically");
        let changed = a.iter().zip(&clean).filter(|(x, y)| x != y).count();
        let budget = (clean.len() as f64 * 0.01) as usize;
        // Bursts may overlap, so changed <= budget; but they must land.
        assert!(changed > 0 && changed <= budget + MAX_BURST, "changed {changed}");
        let mut c = clean.clone();
        flip_bursts(&mut c, 0.01, 8);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn truncate_and_splice_change_length_as_promised() {
        let clean: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let mut t = clean.clone();
        truncate_tail(&mut t, 0.1);
        assert_eq!(t.len(), 900);
        assert_eq!(t[..], clean[..900]);

        let mut d = clean.clone();
        splice(&mut d, SpliceKind::Delete, 64, 3);
        assert!(d.len() < clean.len() && d.len() >= clean.len() - 64);

        let mut p = clean.clone();
        splice(&mut p, SpliceKind::Duplicate, 64, 3);
        assert!(p.len() > clean.len() && p.len() <= clean.len() + 64);
    }
}
