//! DNS data model for the `dnsnoise` workspace.
//!
//! This crate provides the vocabulary types shared by every other crate in the
//! reproduction of *DNS Noise: Measuring the Pervasiveness of Disposable
//! Domains in Modern DNS Traffic* (DSN 2014):
//!
//! * [`Label`] and [`Name`] — validated, case-normalised domain names with the
//!   level accessors the paper uses (`TLD(d)`, `2LD(d)`, `NLD(d)`).
//! * [`SuffixList`] — effective-TLD ("public suffix") semantics, so that
//!   `co.uk`-style delegation points are treated as TLDs exactly as in §III-B.
//! * [`QType`], [`RData`], [`Record`] and [`RrKey`] — resource records and the
//!   deduplication identity used by the paper's rpDNS dataset.
//! * [`Message`] and the RFC 1035 [`wire`] codec — so passive-DNS collection
//!   can exercise a realistic parse path rather than an in-memory shortcut.
//! * [`Timestamp`] / [`Ttl`] — simulation time with second granularity, which
//!   matches the granularity of the paper's fpDNS tuples.
//! * [`hash`] — the seeded hasher of the tables probed on every replayed
//!   event.
//! * [`quarantine`] — the typed, exactly counted quarantine ledger that
//!   capture ingestion and store recovery both book rejected bytes into.
//!
//! # Examples
//!
//! ```
//! use dnsnoise_dns::{Name, SuffixList};
//!
//! let name: Name = "p2.a22a43lt5rwfg.ipv6-exp.l.google.com".parse()?;
//! assert_eq!(name.depth(), 6);
//! assert_eq!(name.nld(2).unwrap().to_string(), "google.com");
//!
//! let psl = SuffixList::builtin();
//! assert_eq!(psl.registered_domain(&name).unwrap().to_string(), "google.com");
//! # Ok::<(), dnsnoise_dns::NameParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
mod label;
mod message;
mod name;
pub mod quarantine;
mod record;
mod suffix;
mod time;
pub mod wire;

pub use label::{Label, LabelParseError, MAX_LABEL_LEN};
pub use message::{Message, Opcode, Question, Rcode};
pub use name::{
    fnv1a, splitmix_finalize, LabelIter, Labels, Name, NameBuilder, NameParseError, MAX_NAME_LEN,
};
pub use record::{QType, RData, Record, RrKey, UnknownQType};
pub use suffix::SuffixList;
pub use time::{StampWindow, Timestamp, Ttl, SECS_PER_DAY, STAMP_NEIGHBORS};
