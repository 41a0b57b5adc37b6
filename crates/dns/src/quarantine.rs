//! The quarantine ledger shared by every layer that reads outside bytes.
//!
//! Capture ingestion and store recovery both sort what they reject into
//! typed classes and keep, per class, an exact count, an exact byte total
//! and the first few offending samples. [`Ledger`] is that bookkeeping,
//! written once: a layer supplies its class enum (a [`Class`]) and its
//! sample type, and renders the tallies in its own words.

/// How many samples each class retains. Counts and bytes are exact;
/// samples are a bounded diagnostic aid.
pub const MAX_SAMPLES: usize = 5;

/// A layer's quarantine classes, in the fixed order its report lists them.
pub trait Class: Copy + Eq + 'static {
    /// Every class, in report order.
    const ALL: &'static [Self];

    /// Stable lowercase identifier used in renders and log lines.
    fn id(self) -> &'static str;
}

/// Exact counts plus bounded samples for one class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally<S> {
    /// Records (frames, files) booked under the class.
    pub count: u64,
    /// Bytes those records occupied.
    pub bytes: u64,
    /// Up to [`MAX_SAMPLES`] examples, in booking order.
    pub samples: Vec<S>,
}

/// Pushes `sample` onto `samples` unless [`MAX_SAMPLES`] are already kept.
pub fn keep_sample<S>(samples: &mut Vec<S>, sample: S) {
    if samples.len() < MAX_SAMPLES {
        samples.push(sample);
    }
}

/// One [`Tally`] per class of `C`, listed in `C::ALL` order.
///
/// # Examples
///
/// ```
/// use dnsnoise_dns::quarantine::{Class, Ledger, MAX_SAMPLES};
///
/// #[derive(Debug, Clone, Copy, PartialEq, Eq)]
/// enum Damage { Short, Garbled }
///
/// impl Class for Damage {
///     const ALL: &'static [Self] = &[Damage::Short, Damage::Garbled];
///     fn id(self) -> &'static str {
///         match self {
///             Damage::Short => "short",
///             Damage::Garbled => "garbled",
///         }
///     }
/// }
///
/// let mut ledger: Ledger<Damage, u64> = Ledger::default();
/// for offset in 0..9 {
///     ledger.record(Damage::Garbled, 10, offset);
/// }
/// let garbled = ledger.get(Damage::Garbled).unwrap();
/// assert_eq!((garbled.count, garbled.bytes), (9, 90));
/// assert_eq!(garbled.samples.len(), MAX_SAMPLES);
/// assert_eq!((ledger.count(), ledger.bytes()), (9, 90));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger<C, S> {
    tallies: Vec<(C, Tally<S>)>,
}

impl<C: Class, S> Default for Ledger<C, S> {
    fn default() -> Self {
        let empty = |&class| (class, Tally { count: 0, bytes: 0, samples: Vec::new() });
        Ledger { tallies: C::ALL.iter().map(empty).collect() }
    }
}

impl<C: Class, S> Ledger<C, S> {
    /// Books one record of `bytes` bytes under `class`. Total: a class
    /// missing from `C::ALL` is appended after the listed ones, never
    /// dropped.
    pub fn record(&mut self, class: C, bytes: u64, sample: S) {
        match self.tallies.iter_mut().find(|(c, _)| *c == class) {
            Some((_, tally)) => {
                tally.count = tally.count.saturating_add(1);
                tally.bytes = tally.bytes.saturating_add(bytes);
                keep_sample(&mut tally.samples, sample);
            }
            None => {
                self.tallies.push((class, Tally { count: 1, bytes, samples: Vec::from([sample]) }))
            }
        }
    }

    /// The tally of `class` (`None` only for a class outside `C::ALL`
    /// that was never booked).
    pub fn get(&self, class: C) -> Option<&Tally<S>> {
        self.tallies.iter().find(|(c, _)| *c == class).map(|(_, tally)| tally)
    }

    /// Every `(class, tally)` pair in report order, empty classes included.
    pub fn iter(&self) -> impl Iterator<Item = (C, &Tally<S>)> {
        self.tallies.iter().map(|(class, tally)| (*class, tally))
    }

    /// Records booked across every class.
    pub fn count(&self) -> u64 {
        self.iter().map(|(_, tally)| tally.count).sum()
    }

    /// Bytes booked across every class.
    pub fn bytes(&self) -> u64 {
        self.iter().map(|(_, tally)| tally.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        A,
        B,
        Unlisted,
    }

    impl Class for Kind {
        const ALL: &'static [Self] = &[Kind::B, Kind::A];
        fn id(self) -> &'static str {
            match self {
                Kind::A => "a",
                Kind::B => "b",
                Kind::Unlisted => "unlisted",
            }
        }
    }

    #[test]
    fn counts_are_exact_and_samples_capped() {
        let mut ledger: Ledger<Kind, String> = Ledger::default();
        for i in 0..20 {
            ledger.record(Kind::A, 10, format!("bad {i}"));
        }
        let a = ledger.get(Kind::A).unwrap();
        assert_eq!((a.count, a.bytes), (20, 200));
        assert_eq!(a.samples.len(), MAX_SAMPLES);
        assert_eq!(a.samples[0], "bad 0");
        assert_eq!(ledger.get(Kind::B).map(|b| (b.count, b.bytes)), Some((0, 0)));
        assert_eq!((ledger.count(), ledger.bytes()), (20, 200));
    }

    #[test]
    fn iteration_follows_the_declared_order() {
        let mut ledger: Ledger<Kind, ()> = Ledger::default();
        ledger.record(Kind::A, 1, ());
        ledger.record(Kind::Unlisted, 2, ());
        ledger.record(Kind::B, 4, ());
        let order: Vec<_> = ledger.iter().map(|(c, t)| (c.id(), t.bytes)).collect();
        assert_eq!(order, [("b", 4), ("a", 1), ("unlisted", 2)]);
        assert_eq!((ledger.count(), ledger.bytes()), (3, 7));
    }
}
