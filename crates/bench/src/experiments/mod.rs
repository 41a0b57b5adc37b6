//! One module per reproduced table/figure.

pub mod ablation;
pub mod cache_pressure;
pub mod common;
pub mod dnssec_cost;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod overload;
pub mod pdnsdb;
pub mod phases;
pub mod resilience;
pub mod tables;

use std::fmt;
use std::path::Path;
use std::str::FromStr;

use dnsnoise_pdns::store::holds_store;
use dnsnoise_pdns::{RunStore, StoreConfig};

/// Identifier of a reproducible experiment (see DESIGN.md §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Fig. 2 — traffic above/below the recursives.
    Fig2,
    /// Fig. 3a — lookup-volume long tail.
    Fig3a,
    /// Fig. 3b — domain-hit-rate CDF.
    Fig3b,
    /// Fig. 4 — cache-hit-rate CDF (1 day + multi-day).
    Fig4,
    /// Fig. 5 — rpDNS new records per day.
    Fig5,
    /// Fig. 7 — CHR, disposable vs non-disposable.
    Fig7,
    /// Fig. 11 — measurement summary table.
    Fig11,
    /// Fig. 12 — classifier ROC (10-fold CV).
    Fig12,
    /// Fig. 13 — growth of disposable shares.
    Fig13,
    /// Fig. 14 — disposable TTL histograms.
    Fig14,
    /// Fig. 15 — new RRs, disposable vs non-disposable.
    Fig15,
    /// Table I — low-lookup-volume tail.
    Tab1,
    /// Table II — zero-DHR tail.
    Tab2,
    /// §VI-A — cache-pressure what-if.
    Cache,
    /// §VI-B — DNSSEC validation cost.
    Dnssec,
    /// §VI-C — pDNS storage and wildcard aggregation.
    PdnsDb,
    /// Engine phase timings + metrics-registry profile of one day.
    Phases,
    /// Design-choice ablations (feature families, θ, load balancing).
    Ablation,
    /// Resilience — outages × disposable share, serve-stale mitigation.
    Resilience,
    /// Overload — subdomain floods vs admission control.
    Overload,
}

impl ExperimentId {
    /// Every experiment, in paper order.
    pub fn all() -> &'static [ExperimentId] {
        &[
            ExperimentId::Fig2,
            ExperimentId::Fig3a,
            ExperimentId::Fig3b,
            ExperimentId::Fig4,
            ExperimentId::Fig5,
            ExperimentId::Fig7,
            ExperimentId::Fig11,
            ExperimentId::Fig12,
            ExperimentId::Fig13,
            ExperimentId::Fig14,
            ExperimentId::Fig15,
            ExperimentId::Tab1,
            ExperimentId::Tab2,
            ExperimentId::Cache,
            ExperimentId::Dnssec,
            ExperimentId::PdnsDb,
            ExperimentId::Phases,
            ExperimentId::Ablation,
            ExperimentId::Resilience,
            ExperimentId::Overload,
        ]
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExperimentId::Fig2 => "fig2",
            ExperimentId::Fig3a => "fig3a",
            ExperimentId::Fig3b => "fig3b",
            ExperimentId::Fig4 => "fig4",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Fig11 => "fig11",
            ExperimentId::Fig12 => "fig12",
            ExperimentId::Fig13 => "fig13",
            ExperimentId::Fig14 => "fig14",
            ExperimentId::Fig15 => "fig15",
            ExperimentId::Tab1 => "tab1",
            ExperimentId::Tab2 => "tab2",
            ExperimentId::Cache => "cache",
            ExperimentId::Dnssec => "dnssec",
            ExperimentId::PdnsDb => "pdnsdb",
            ExperimentId::Phases => "phases",
            ExperimentId::Ablation => "ablation",
            ExperimentId::Resilience => "resilience",
            ExperimentId::Overload => "overload",
        };
        f.write_str(s)
    }
}

impl FromStr for ExperimentId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ExperimentId::all()
            .iter()
            .copied()
            .find(|id| id.to_string() == s.to_ascii_lowercase())
            .ok_or_else(|| format!("unknown experiment id: {s}"))
    }
}

/// Runs one experiment at `scale_factor` (1.0 = report scale; tests use
/// much smaller) and returns its rendered report. The pDNS-backed
/// experiments (Fig. 5, Fig. 15, §VI-C) each collect into a fresh store,
/// flushed and collapsed into its final single-run image once the
/// experiment ends. `store_path` mirrors each one's runs under
/// `<store_path>/<id>`, one directory per experiment; reports are
/// bit-identical with or without it. Experiments that build no pDNS
/// database ignore it.
///
/// # Errors
///
/// When `<store_path>/<id>` already holds a store ([`holds_store`]): a
/// fresh store would rename its runs over the old one's. When the store
/// latched a persistence failure: the report is exact, but the directory
/// does not hold it.
pub fn run_experiment_with_store(
    id: ExperimentId,
    scale_factor: f64,
    store_path: Option<&Path>,
) -> Result<String, String> {
    // Runs a pDNS experiment against a fresh store, then closes it the
    // way `simulate --store` does.
    let with_store = |experiment: &dyn Fn(&mut RunStore) -> String| {
        let spill = store_path.map(|path| path.join(id.to_string()));
        if let Some(dir) = spill.as_ref().filter(|dir| holds_store(dir)) {
            return Err(format!(
                "{} already holds a pDNS store; pass an empty --store-path",
                dir.display()
            ));
        }
        let mut store = match spill {
            Some(dir) => RunStore::with_config(StoreConfig::default().with_spill(dir)),
            None => RunStore::new(),
        };
        let render = experiment(&mut store);
        store.optimize();
        match store.io_error() {
            Some(e) => Err(format!("rpdns store degraded to memory-only: {e}")),
            None => Ok(render),
        }
    };
    Ok(match id {
        ExperimentId::Fig2 => fig2::run(scale_factor).render(),
        ExperimentId::Fig3a => fig3::run_3a(scale_factor).render(),
        ExperimentId::Fig3b => fig3::run_3b(scale_factor).render(),
        ExperimentId::Fig4 => fig4::run(scale_factor).render(),
        ExperimentId::Fig5 => with_store(&|b| fig5::run(scale_factor, b).render())?,
        ExperimentId::Fig7 => fig7::run(scale_factor).render(),
        ExperimentId::Fig11 => fig11::run(scale_factor).render(),
        ExperimentId::Fig12 => fig12::run(scale_factor).render(),
        ExperimentId::Fig13 => fig13::run(scale_factor).render(),
        ExperimentId::Fig14 => fig14::run(scale_factor).render(),
        ExperimentId::Fig15 => with_store(&|b| fig15::run(scale_factor, b).render())?,
        ExperimentId::Tab1 => tables::run_tab1(scale_factor).render(),
        ExperimentId::Tab2 => tables::run_tab2(scale_factor).render(),
        ExperimentId::Cache => cache_pressure::run(scale_factor).render(),
        ExperimentId::Dnssec => dnssec_cost::run(scale_factor).render(),
        ExperimentId::PdnsDb => with_store(&|b| pdnsdb::run(scale_factor, b).render())?,
        ExperimentId::Phases => phases::run(scale_factor).render(),
        ExperimentId::Ablation => ablation::run(scale_factor).render(),
        ExperimentId::Resilience => resilience::run(scale_factor).render(),
        ExperimentId::Overload => overload::run(scale_factor).render(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_pdns_experiment_keeps_its_own_store() {
        let dir = std::env::temp_dir().join(format!("dnsnoise-exp-stores-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = |id| run_experiment_with_store(id, 0.1, Some(&dir));
        for id in [ExperimentId::Fig15, ExperimentId::Fig5] {
            run(id).unwrap();
        }
        assert!(holds_store(&dir.join("fig15")), "fig5 overwrote fig15's store");
        assert!(holds_store(&dir.join("fig5")));
        assert!(!holds_store(&dir), "a store landed in the shared directory itself");
        let refused = run(ExperimentId::Fig5).unwrap_err();
        assert!(refused.contains("already holds a pDNS store"), "{refused}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The distinct records a pDNS experiment's render reports: the sum of
    /// Fig. 5's `all` column or of Fig. 15's two columns, §VI-C's stored
    /// count.
    fn rendered_records(render: &str) -> u64 {
        let number = |cell: &str| cell.parse::<u64>().ok();
        render
            .lines()
            .filter_map(|line| {
                let cells: Vec<&str> = line.split_whitespace().collect();
                match cells.as_slice() {
                    ["stored", "distinct", "records", n] => number(n),
                    [day, disposable, other, share] if share.ends_with('%') => {
                        number(day)?;
                        Some(number(disposable)? + number(other)?)
                    }
                    [day, all, _, _] => {
                        number(day)?;
                        number(all)
                    }
                    _ => None,
                }
            })
            .sum()
    }

    /// A store directory moves no rendered byte, and a reopen of it holds
    /// every record the render counts.
    #[test]
    fn a_reopened_experiment_store_holds_every_rendered_record() {
        let dir = std::env::temp_dir().join(format!("dnsnoise-exp-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for id in [ExperimentId::Fig5, ExperimentId::Fig15, ExperimentId::PdnsDb] {
            let render = run_experiment_with_store(id, 0.1, Some(&dir)).unwrap();
            let memory = run_experiment_with_store(id, 0.1, None).unwrap();
            assert_eq!(render, memory, "{id} diverges with a store directory");
            let records = rendered_records(&render);
            assert!(records > 0, "{id} rendered no records:\n{render}");
            let reopened = dnsnoise_pdns::RunStore::open(
                dir.join(id.to_string()),
                dnsnoise_pdns::StoreConfig::default(),
            )
            .unwrap();
            assert_eq!(reopened.len() as u64, records, "{id}'s store lost records");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ids_roundtrip() {
        for &id in ExperimentId::all() {
            let parsed: ExperimentId = id.to_string().parse().unwrap();
            assert_eq!(parsed, id);
        }
        assert!("nope".parse::<ExperimentId>().is_err());
    }
}
