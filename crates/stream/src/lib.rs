//! Streaming online miner for disposable-domain detection.
//!
//! The batch pipeline materialises a whole day of per-record statistics
//! before mining. This crate replays the *same* per-event resolver logic
//! incrementally — one [`QueryEvent`](dnsnoise_workload::QueryEvent) at a
//! time — keeping exact per-record query and miss counters in a name
//! registry (each owner name stored once, 16 bytes per record under it)
//! and a seeded [`HyperLogLog`] per cardinality. Periodic epoch closes
//! emit mid-day classifications; [`StreamMiner::finish`] emits the
//! end-of-day report.
//!
//! Everything is deterministic: hashes are seeded, iteration orders are
//! sorted, and the streaming classifications equal the batch miner's
//! exactly (a property the fidelity test suite pins).
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
//! let (report, _sim) = stream.finish();
//! assert!(report.conserves());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod engine;
mod sketch;

pub use checkpoint::{Checkpoint, CHECKPOINT_NAME};
pub use engine::{
    EpochSummary, PdnsSummary, RpdnsStoreSummary, StreamConfig, StreamMiner, StreamReport,
    PDNS_RETAIN,
};
pub use sketch::HyperLogLog;
