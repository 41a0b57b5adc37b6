//! Simulation time at the paper's one-second granularity.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Seconds in a simulated day.
pub const SECS_PER_DAY: u64 = 86_400;

/// An instant on the simulation clock, in whole seconds since the start of
/// the simulated trace.
///
/// The paper's fpDNS tuples carry timestamps "in the granularity of
/// seconds" (§III-A), so a `u64` of seconds is the natural representation.
///
/// # Examples
///
/// ```
/// use dnsnoise_dns::{Timestamp, Ttl};
///
/// let t = Timestamp::from_secs(100);
/// let expiry = t + Ttl::from_secs(300);
/// assert_eq!(expiry.as_secs(), 400);
/// assert_eq!(expiry - t, Ttl::from_secs(300));
/// assert_eq!(t.day(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The start of the trace.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from seconds since trace start.
    pub fn from_secs(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// Creates a timestamp at the start of simulated day `day`.
    pub fn from_days(day: u64) -> Self {
        Timestamp(day * SECS_PER_DAY)
    }

    /// Seconds since trace start.
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// The zero-based simulated day this instant falls in.
    pub fn day(self) -> u64 {
        self.0 / SECS_PER_DAY
    }

    /// Seconds into the current simulated day (`0..86400`).
    pub fn second_of_day(self) -> u64 {
        self.0 % SECS_PER_DAY
    }

    /// The zero-based hour of the simulated day (`0..24`).
    pub fn hour_of_day(self) -> u64 {
        self.second_of_day() / 3600
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, ttl: Ttl) -> Timestamp {
        Timestamp(self.0.saturating_sub(u64::from(ttl.as_secs())))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            self.day(),
            self.hour_of_day(),
            (self.second_of_day() / 60) % 60,
            self.second_of_day() % 60
        )
    }
}

/// Saturating: a trace stamp within a TTL of `u64::MAX` is outside
/// input, and its expiry pins at the end of time instead of overflowing.
impl Add<Ttl> for Timestamp {
    type Output = Timestamp;

    fn add(self, ttl: Ttl) -> Timestamp {
        Timestamp(self.0.saturating_add(u64::from(ttl.as_secs())))
    }
}

impl AddAssign<Ttl> for Timestamp {
    fn add_assign(&mut self, ttl: Ttl) {
        *self = *self + ttl;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Ttl;

    /// Elapsed time between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self` (the subtraction
    /// underflows).
    fn sub(self, rhs: Timestamp) -> Ttl {
        Ttl::from_secs(u32::try_from(self.0 - rhs.0).expect("interval fits in u32"))
    }
}

/// A time-to-live value in seconds.
///
/// TTLs are 31-bit on the wire; a `u32` capped at `i32::MAX` keeps the
/// arithmetic honest. A TTL of zero is legal and means "do not cache" —
/// §VI-A discusses why zero-TTL disposable records are rare (0.8% in Feb
/// 2011).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ttl(u32);

impl Ttl {
    /// TTL of zero — the record must not be served from cache.
    pub const ZERO: Ttl = Ttl(0);

    /// Creates a TTL, clamping to the 31-bit wire maximum.
    pub fn from_secs(secs: u32) -> Self {
        Ttl(secs.min(i32::MAX as u32))
    }

    /// The TTL in seconds.
    pub fn as_secs(self) -> u32 {
        self.0
    }

    /// `true` when the TTL is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Ttl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

/// Stamps a [`StampWindow`] consults on either side of the one it judges.
pub const STAMP_NEIGHBORS: usize = 2;

/// The running median of a stamp sequence: each stamp is judged by the
/// median of itself, the (up to) [`STAMP_NEIGHBORS`] stamps before it and
/// the (up to) [`STAMP_NEIGHBORS`] after it, which the caller holds back
/// as lookahead. One stamp far from its neighbours cannot move the median,
/// so it cannot move what is measured against it: ingest's timestamp
/// filter and the stream's epoch clock.
#[derive(Debug, Default)]
pub struct StampWindow {
    /// The last stamps passed, oldest first; the first `len` are valid.
    before: [u64; STAMP_NEIGHBORS],
    len: usize,
}

impl StampWindow {
    /// The median of the stamps passed last, `stamp` and the first
    /// [`STAMP_NEIGHBORS`] of `after`; then passes `stamp`.
    pub fn median(&mut self, stamp: u64, after: impl IntoIterator<Item = u64>) -> u64 {
        let mut window = [0u64; 2 * STAMP_NEIGHBORS + 1];
        let mut len = 0;
        let after = after.into_iter().take(STAMP_NEIGHBORS);
        for s in self.before[..self.len].iter().copied().chain([stamp]).chain(after) {
            window[len] = s;
            len += 1;
        }
        window[..len].sort_unstable();
        self.pass(stamp);
        window[len / 2]
    }

    /// Passes `stamp` unjudged: it joins the history later stamps are
    /// judged against.
    pub fn pass(&mut self, stamp: u64) {
        if self.len < STAMP_NEIGHBORS {
            self.len += 1;
        } else {
            self.before.rotate_left(1);
        }
        self.before[self.len - 1] = stamp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_math() {
        let t = Timestamp::from_days(3) + Ttl::from_secs(3_700);
        assert_eq!(t.day(), 3);
        assert_eq!(t.hour_of_day(), 1);
        assert_eq!(t.second_of_day(), 3_700);
    }

    #[test]
    fn ttl_clamps_to_wire_max() {
        assert_eq!(Ttl::from_secs(u32::MAX).as_secs(), i32::MAX as u32);
        assert_eq!(Ttl::from_secs(300).as_secs(), 300);
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let t = Timestamp::from_secs(1_000);
        let ttl = Ttl::from_secs(86_400);
        assert_eq!((t + ttl) - t, ttl);
    }

    #[test]
    fn saturating_sub_stops_at_zero() {
        let t = Timestamp::from_secs(10);
        assert_eq!(t.saturating_sub(Ttl::from_secs(100)), Timestamp::ZERO);
    }

    #[test]
    fn the_window_is_the_median_of_five_and_forgets_older_stamps() {
        let mut window = StampWindow::default();
        assert_eq!(window.median(7, []), 7, "alone, a stamp is its own median");
        window.pass(1);
        window.pass(2);
        // 7 left the history: the window is [1, 2, 50, 3, 4].
        assert_eq!(window.median(50, [3, 4, 1_000]), 3);
        // History [2, 50]: the window is [2, 50, 5].
        assert_eq!(window.median(5, []), 5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Timestamp::from_secs(90_061).to_string(), "d1+01:01:01");
        assert_eq!(Ttl::from_secs(300).to_string(), "300s");
    }
}
