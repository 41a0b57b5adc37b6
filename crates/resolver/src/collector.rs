//! A passive-DNS collector attached to the monitoring point.
//!
//! [`PdnsCollector`] adapts any [`PdnsStore`] backend to the simulator's
//! [`Observer`] hook: every answered response's answer-section records
//! are observed into the store with the replayed day as the first-seen
//! candidate, exactly how the paper's collector builds the reduced pDNS
//! database below the recursives. The day is the collector's, not the
//! event's: one hostile timestamp in a trace must not size the store's
//! per-day table. Shed queries and SERVFAILs carry no
//! records below and are skipped; NXDOMAINs pass an empty answer section
//! and contribute nothing.

use dnsnoise_dns::Record;
use dnsnoise_pdns::PdnsStore;
use dnsnoise_workload::QueryEvent;

use crate::observer::{Observer, Served};

/// Collects the reduced passive-DNS dataset through a [`PdnsStore`]
/// backend while a day run replays.
#[derive(Debug, Default)]
pub struct PdnsCollector<S> {
    store: S,
    day: u64,
    responses: u64,
    records: u64,
}

impl<S: PdnsStore> PdnsCollector<S> {
    /// Wraps `store`; observations accumulate into it as first seen on
    /// `day` (the replayed trace's [`DayTrace::day`](dnsnoise_workload::DayTrace)).
    pub fn new(store: S, day: u64) -> Self {
        PdnsCollector { store, day, responses: 0, records: 0 }
    }

    /// The wrapped store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Unwraps the store with everything collected so far.
    pub fn into_store(self) -> S {
        self.store
    }

    /// Answered responses seen (cache hits, misses, stale hits and
    /// NXDOMAINs; excludes shed queries and SERVFAILs).
    pub fn responses(&self) -> u64 {
        self.responses
    }

    /// Answer-section records observed (before deduplication).
    pub fn records(&self) -> u64 {
        self.records
    }
}

impl<S: PdnsStore> Observer for PdnsCollector<S> {
    fn observe(&mut self, _event: &QueryEvent, served: Served, answers: &[Record]) {
        if served.is_shed() || served.is_failure() {
            return;
        }
        self.responses += 1;
        for record in answers {
            self.records += 1;
            self.store.observe(record, self.day);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnsnoise_dns::{QType, RData, Timestamp, Ttl};
    use dnsnoise_pdns::RpDns;
    use dnsnoise_workload::Outcome;
    use std::net::Ipv4Addr;

    fn event(secs: u64) -> QueryEvent {
        QueryEvent {
            time: Timestamp::from_secs(secs),
            client: 1,
            name: "www.example.com".parse().unwrap(),
            qtype: QType::A,
            outcome: Outcome::NxDomain,
            zone_tag: u32::MAX,
        }
    }

    fn answer(ip: u8) -> Record {
        Record::new(
            "www.example.com".parse().unwrap(),
            QType::A,
            Ttl::from_secs(60),
            RData::A(Ipv4Addr::new(192, 0, 2, ip)),
        )
    }

    #[test]
    fn answered_records_land_in_the_store_once() {
        let mut c = PdnsCollector::new(RpDns::new(), 0);
        c.observe(&event(10), Served::CacheMiss, &[answer(1), answer(2)]);
        c.observe(&event(20), Served::CacheHit, &[answer(1)]);
        c.observe(&event(30), Served::NegativeHit, &[]);
        assert_eq!(c.responses(), 3);
        assert_eq!(c.records(), 3);
        assert_eq!(c.store().len(), 2);
    }

    #[test]
    fn shed_and_failed_responses_are_invisible() {
        let mut c = PdnsCollector::new(RpDns::new(), 0);
        for served in [Served::ServFail, Served::Dropped, Served::RateLimited] {
            c.observe(&event(10), served, &[]);
        }
        assert_eq!(c.responses(), 0);
        assert!(c.store().is_empty());
    }
}
