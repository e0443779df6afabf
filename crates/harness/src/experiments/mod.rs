//! One module per paper result (see crate docs for the index).
//!
//! Every module exposes the same surface: a `Config` with `paper()` /
//! `quick()` presets, a `scenarios_for(&Config)` enumerator, aggregation
//! helpers over `[RunOutcome]`, and a unit struct implementing
//! [`crate::sweep::Experiment`]. The [`registry`] collects the structs in
//! the report's print order; `repro` iterates it with no per-experiment
//! dispatch.

pub mod ablations;
pub mod fig4_6;
pub mod fig7;
pub mod fig_adaptive;
pub mod fig_ngen;
pub mod fig_tenants;
pub mod rates;
pub mod recovery_time;
pub mod scarce;

use crate::sweep::Experiment;

/// All experiments, in the report's print order, with the lattice
/// comparison ([`fig_ngen`]) at `gens` generations (`repro --gens`).
/// Newest experiments append at the end so reports from earlier builds
/// remain a byte-identical prefix.
pub fn registry_with(gens: usize) -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(rates::Rates),
        Box::new(fig4_6::Fig46),
        Box::new(fig7::Fig7),
        Box::new(scarce::Scarce),
        Box::new(recovery_time::RecoveryTime),
        Box::new(ablations::Ablations),
        Box::new(fig_ngen::FigNgen { gens }),
        Box::new(fig_adaptive::FigAdaptive),
        Box::new(fig_tenants::FigTenants),
    ]
}

/// [`registry_with`] at the default three-generation lattice comparison.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    registry_with(3)
}
