//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see `DESIGN.md` §4 for the index and `EXPERIMENTS.md` for
//! paper-vs-measured results).
//!
//! Each experiment is a pure function returning a structured result plus a
//! `render()` producing the rows/series the paper reports; the
//! `experiments` binary dispatches on experiment id.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod util;

pub use experiments::{run_experiment_with_store, ExperimentId};
