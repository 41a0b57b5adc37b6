//! Passive DNS databases (pDNS-DBs).
//!
//! The paper's §III-A defines two datasets collected at the monitoring
//! point and §VI-C analyses their storage economics:
//!
//! * [`FpDnsSummary`] — the **full passive DNS** dataset's totals: one
//!   answer-section tuple `(timestamp, client, name, qtype, TTL, RDATA)`
//!   per record observed below the recursives, counted and sized by the
//!   one fpDNS byte model rather than kept.
//! * [`RpDns`] — the **reduced passive DNS** dataset: distinct resource
//!   records from successful resolutions with their first-seen day, the
//!   substrate of Fig. 5 / Fig. 15 and of the §VI-C storage discussion.
//! * [`WildcardAggregator`] — the §VI-C mitigation: collapse disposable
//!   records under their mined `(zone, depth)` into a single wildcard
//!   record (`1022vr5.dns.xx.fbcdn.net` → `*.dns.xx.fbcdn.net`), which in
//!   the paper shrinks 129,674,213 disposable records to 945,065 (0.7%).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fpdns;
mod rpdns;
pub mod store;
mod wildcard;

pub use fpdns::FpDnsSummary;
pub use rpdns::{DailyNewRrs, RpDns};
pub use store::{
    fsck, BackendKind, PdnsBackend, PdnsStore, RecoveryReport, Run, RunStore, StoreConfig,
    StoreError, StoreStats,
};
pub use wildcard::{AggregationOutcome, WildcardAggregator};
