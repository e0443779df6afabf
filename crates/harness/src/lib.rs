#![warn(missing_docs)]

//! Experiment harness: regenerates every figure of the SIGMOD '93
//! ephemeral-logging evaluation.
//!
//! The harness couples the pieces the other crates provide — event kernel,
//! workload generator, log manager, flush array, recovery — into full
//! simulation runs ([`runner`]), implements the paper's minimum-disk-space
//! search ("we continued to run simulations and reduce the disk space
//! until we observed transactions being killed", [`minspace`]), and wraps
//! both into one module per figure ([`experiments`]).
//!
//! | Paper result | Module |
//! |---|---|
//! | Figure 4 (disk space vs mix) | [`experiments::fig4_6`] |
//! | Figure 5 (log bandwidth vs mix) | [`experiments::fig4_6`] |
//! | Figure 6 (memory vs mix) | [`experiments::fig4_6`] |
//! | Figure 7 (bandwidth vs last-generation size, recirculation) | [`experiments::fig7`] |
//! | §4 scarce-flush-bandwidth study | [`experiments::scarce`] |
//! | §4 update-rate prose (210→280/s) | [`experiments::rates`] |
//! | §4/§6 recovery-time claim | [`experiments::recovery_time`] |
//! | Design-choice ablations (ours) | [`experiments::ablations`] |
//! | §5 N-generation extension | [`experiments::fig_ngen`] |

pub mod cli;
pub mod crashpoint;
pub mod experiments;
pub mod latsearch;
pub mod minspace;
pub mod report;
pub mod runner;
pub mod serve;
pub mod sweep;

pub use crashpoint::{snapshot_run, CrashPoint, CrashSnapshot};
pub use latsearch::{Geometry, LatticeLimits, SearchMode, SearchOutcome, SearchRequest};
pub use minspace::MinSpaceResult;
pub use runner::{RunConfig, RunResult, SimModel, TenantLayout};
pub use serve::{serve_run, ServeConfig, ServeOutcome, TenantReport};
pub use sweep::{
    derive_seed, run_experiments, run_scenarios, ExecOptions, Experiment, ExperimentReport, Job,
    Output, RunOutcome, Scenario,
};
