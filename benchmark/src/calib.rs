//! Host-speed calibration.
//!
//! The VMs this benchmark runs on change speed by tens of percent for
//! minutes at a time — every process, the harness's own set-up included,
//! slows down together. Three sets of ten runs of the same build, back to
//! back over fifty minutes, had raw medians up to 29 % (`events_per_s`)
//! and 31 % (`setup_s`) apart, which is more than the largest bound a
//! metric may declare (25 %): the benchmark would be refused for noise it
//! did not make. So `run::measure` times a fixed kernel that depends on
//! nothing in the repository (formatting, hashing and ordered-map inserts
//! of name-like strings: the instruction and allocation mix of the
//! pipeline) around every measured interval of a run, and the two
//! end-to-end time metrics are reported in *reference seconds*: the time
//! they would have taken on a host that runs the kernel in
//! [`REFERENCE_S`]. The same thirty runs then agree within 14 %.
//!
//! The kernel is CPU- and allocator-bound; time a stage spends waiting for
//! an `fsync` does not scale with it, so that part of a stage is
//! over-corrected on a slow host. The most any stage here waits is the 23
//! checkpoint writes of the hourly stream workload, about a tenth of its
//! rep. Raw seconds are always printed next to the calibrated figures,
//! every per-layer time is raw, and `host.speed` is reported with them.

use std::collections::BTreeMap;
use std::hint::black_box;

use crate::trace::now;

/// Kernel time that defines a reference second. Only ratios between runs
/// matter, so the value is a choice of unit: this one is the kernel's time
/// on the 2-vCPU VM the baseline was recorded on when it is quiet, so
/// that reference seconds and raw seconds read alike there.
pub const REFERENCE_S: f64 = 0.020;

const KERNEL_KEYS: usize = 40_000;
/// Kernel runs per [`Calibration::sample`].
const KERNEL_REPEATS: usize = 5;

fn kernel() -> u64 {
    let mut map: BTreeMap<String, u64> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..KERNEL_KEYS as u64 {
        // xorshift64: a fixed, seedless key stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("{:06x}.svc{:02}.example.com", x & 0xff_ffff, (x >> 24) % 64);
        *map.entry(key).or_insert(0) += i;
    }
    map.iter().fold(0u64, |acc, (key, v)| {
        let hash = key.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        acc.wrapping_add(hash ^ v)
    })
}

fn kernel_seconds() -> f64 {
    let start = now();
    black_box(kernel());
    start.elapsed().as_secs_f64()
}

/// Kernel timings taken through one run (by `run::measure`): a few before
/// set-up, after it, and after every measured rep. Speed regimes last minutes and a run
/// lasts seconds, so the run gets one host speed, from the mean of all its
/// timings: single timings fall into a fast and a slow mode about 1.4×
/// apart, a regime is the share of time spent in the slow one, and the few
/// timings next to one rep are too few to tell.
#[derive(Debug, Default)]
pub struct Calibration {
    kernel_s: Vec<f64>,
}

impl Calibration {
    /// Times the kernel a few times, now.
    pub fn sample(&mut self) {
        self.kernel_s.extend((0..KERNEL_REPEATS).map(|_| kernel_seconds()));
    }

    /// Host speed relative to the reference host (1.0 = as fast). A raw
    /// interval times this is the interval in reference seconds.
    ///
    /// # Panics
    ///
    /// Panics before the first [`Calibration::sample`].
    pub fn host_speed(&self) -> f64 {
        REFERENCE_S / (self.kernel_s.iter().sum::<f64>() / self.kernel_s.len() as f64)
    }

    pub fn samples(&self) -> &[f64] {
        &self.kernel_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_calibration_scales_time() {
        assert_eq!(kernel(), kernel());
        assert!(kernel_seconds() > 0.0);
        // A host that needs twice the reference time for the kernel is half
        // as fast, so an interval measured on it counts half.
        let slow = Calibration { kernel_s: vec![REFERENCE_S, 3.0 * REFERENCE_S] };
        assert_eq!(slow.host_speed(), 0.5, "the mean timing decides");
        assert_eq!(10.0 * slow.host_speed(), 5.0);
        let mut live = Calibration::default();
        live.sample();
        assert!(live.host_speed() > 0.0 && live.samples().len() == KERNEL_REPEATS);
    }
}
