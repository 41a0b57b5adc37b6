//! Streaming online miner for disposable-domain detection.
//!
//! The batch pipeline replays a whole day, then mines the per-record
//! statistics the replay left behind. This crate steps the *same* replay
//! incrementally — one [`QueryEvent`](dnsnoise_workload::QueryEvent) at a
//! time — and mines the replay session's own exact per-record query/miss
//! table ([`EventSession::rr_stats`](dnsnoise_resolver::EventSession::rr_stats))
//! whenever an epoch closes, adding only the set of distinct clients, the
//! four fpDNS counters of
//! [`FpDnsSummary`](dnsnoise_pdns::FpDnsSummary) and the rpDNS store.
//! Every count it reports is exact: the distinct clients are the set's
//! size, the distinct names the close-time tree's. Periodic epoch closes
//! emit mid-day classifications; [`StreamMiner::finish`] emits the
//! end-of-day report.
//!
//! Everything is deterministic: the miner's output does not depend on
//! table iteration order, and the streaming classifications equal the
//! batch miner's exactly — both build their tree from the same table with
//! the same function (a property the fidelity test suite pins all the
//! same).
//!
//! # Examples
//!
//! ```
//! use dnsnoise_core::{DailyPipeline, MinerConfig};
//! use dnsnoise_stream::{StreamConfig, StreamMiner};
//! use dnsnoise_workload::{Scenario, ScenarioConfig};
//!
//! let s = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.02), 7);
//! let mut pipeline = DailyPipeline::new(MinerConfig::default());
//! let _ = pipeline.run_day(&s, 0); // offline training
//! let miner = pipeline.into_miner().expect("trained");
//!
//! let mut stream = StreamMiner::new(StreamConfig::default(), &miner);
//! for event in &s.generate_day(1).events {
//!     stream.push(event); // one event at a time
//! }
//! // The closed rpDNS store comes back too: the day's distinct records.
//! let (report, store) = stream.finish();
//! assert!(report.conserves());
//! assert_eq!(store.len(), report.day_report.rr_stats.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod engine;

pub use checkpoint::{Checkpoint, CHECKPOINT_NAME};
pub use engine::{EpochSummary, RpdnsStoreSummary, StreamConfig, StreamMiner, StreamReport};
