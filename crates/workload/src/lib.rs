//! Synthetic ISP DNS workload generation with ground truth.
//!
//! The paper measures 24 days of proprietary Comcast resolver traffic. That
//! trace cannot be redistributed, so this crate generates an equivalent
//! *synthetic* trace: a stream of client DNS queries whose per-zone
//! behaviour reproduces the distributions the paper reports — one-time-use
//! machine-generated names for disposable zones (§IV, Fig. 6), Zipf-popular
//! content for CDNs and popular sites, a heavy long tail of rarely-queried
//! names (Fig. 3), epoch-dependent TTL mixtures (Fig. 14), NXDOMAIN noise
//! (Fig. 2), and a diurnal load curve.
//!
//! Because the trace is synthetic, every generated name comes with **ground
//! truth**: the scenario knows exactly which zones are disposable and at
//! which depth their machine-generated children live. This replaces the
//! paper's manual labeling of 398 disposable and 401 non-disposable zones
//! and lets the evaluation compute exact true/false positive rates.
//!
//! # Examples
//!
//! ```
//! use dnsnoise_workload::{Scenario, ScenarioConfig};
//!
//! let config = ScenarioConfig::paper_epoch(0.0).with_scale(0.05);
//! let scenario = Scenario::new(config, 42);
//! let day = scenario.generate_day(0);
//! assert!(!day.events.is_empty());
//! // Events are time-sorted and each is tagged with its generating zone.
//! assert!(day.events.windows(2).all(|w| w[0].time <= w[1].time));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod diurnal;
mod event;
mod namegen;
mod scenario;
pub mod trace_io;
mod ttl;
mod zipf;
mod zone;
pub mod zones;

pub use attack::{
    AttackPlan, AttackSpecError, LabelEntropy, SurgeWindow, ATTACK_CLIENT_BASE, ATTACK_TAG,
};
pub use diurnal::DiurnalCurve;
pub use event::{Outcome, QueryEvent};
pub use namegen::{label_alnum, label_base32, label_hex, mix64, NameForge};
pub use scenario::{DayTrace, GroundTruth, Scenario, ScenarioConfig, ZoneInfo};
pub use ttl::TtlModel;
pub use zipf::ZipfSampler;
pub use zone::{Category, DayCtx, Operator, ZoneModel};
