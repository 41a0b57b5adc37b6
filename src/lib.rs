//! # dnsnoise
//!
//! A full reproduction of *DNS Noise: Measuring the Pervasiveness of
//! Disposable Domains in Modern DNS Traffic* (Chen et al., DSN 2014) —
//! the disposable zone miner plus every substrate it needs: a DNS data
//! model with wire codec, a recursive-resolver cache-cluster simulator, a
//! ground-truth ISP workload generator, passive-DNS collection, a small ML
//! library (LAD tree and baselines), and a DNSSEC cost model.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a module name.
//!
//! # Quickstart
//!
//! ```
//! use dnsnoise::core::{DailyPipeline, MinerConfig};
//! use dnsnoise::workload::{Scenario, ScenarioConfig};
//!
//! // A small December-2011-like ISP workload with ground truth.
//! let scenario = Scenario::new(ScenarioConfig::paper_epoch(1.0).with_scale(0.05), 7);
//!
//! // Simulate the resolver cluster, build the daily domain-name tree,
//! // train the LAD-tree classifier, run Algorithm 1, evaluate.
//! let mut pipeline = DailyPipeline::new(MinerConfig::default());
//! let report = pipeline.run_day(&scenario, 0);
//!
//! println!("found {} disposable zones (TPR {:.0}%)", report.found.len(), report.tpr() * 100.0);
//! assert!(!report.found.is_empty());
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]

/// DNS data model: names, suffix list, records, messages, wire codec.
pub use dnsnoise_dns as dns;

/// TTL-LRU caches, negative caching and the resolver cache cluster.
pub use dnsnoise_cache as cache;

/// Synthetic ISP workload generation with ground truth.
pub use dnsnoise_workload as workload;

/// Fault-tolerant pcap/dnstap capture ingestion with a quarantine ledger.
pub use dnsnoise_ingest as ingest;

/// The recursive-resolver cluster simulation and monitoring taps.
pub use dnsnoise_resolver as resolver;

/// Passive DNS databases (fpDNS, rpDNS, wildcard aggregation).
pub use dnsnoise_pdns as pdns;

/// The ML toolbox: LAD tree, baselines, cross validation, ROC.
pub use dnsnoise_ml as ml;

/// The disposable zone miner (domain tree, features, Algorithm 1).
pub use dnsnoise_core as core;

/// The streaming online miner: exact per-record counters, epoch closes.
pub use dnsnoise_stream as stream;

/// The DNSSEC validation cost model.
pub use dnsnoise_dnssec as dnssec;
