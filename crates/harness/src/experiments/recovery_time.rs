//! The recovery-time claim (§4/§6): less log ⇒ proportionally faster
//! recovery; EL's few dozen blocks fit in RAM and recover in a single
//! sub-second pass.
//!
//! The paper does not measure recovery ("We do not simulate recovery so we
//! cannot cite any quantitative results"); we go one step further and *do*
//! recover: a run is crashed at its horizon, the bytes of its surface are
//! scanned, the single-pass REDO executes, and the result is verified
//! against the oracle of acknowledged commits (`crashpoint::{crash,
//! restart}`). Reported per configuration: the modelled 1993-hardware
//! recovery time, proportional to blocks. (Earlier
//! revisions also printed the wall-clock of the in-memory pass; that
//! column is gone — sweep output must be byte-identical at any `--jobs`,
//! and wall time is not.)

use crate::report::Table;
use crate::runner::RunConfig;
use crate::sweep::{failure_notes, Experiment, Job, RunOutcome, Scenario};
use elog_core::ElConfig;
use elog_model::{FlushConfig, LogConfig};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// FW blocks (paper: its 5 % minimum, 123).
    pub fw_blocks: u32,
    /// EL geometry (paper: the Figure 7 recirculation minimum, 18 + 10).
    pub el_geometry: Vec<u32>,
    /// Long-transaction fraction.
    pub frac_long: f64,
    /// Simulated seconds before the crash.
    pub runtime_secs: u64,
}

impl Config {
    /// Paper-scale run at the published minima.
    pub fn paper() -> Self {
        Config {
            fw_blocks: 123,
            el_geometry: vec![18, 10],
            frac_long: 0.05,
            runtime_secs: 120,
        }
    }

    /// Reduced run for tests.
    pub fn quick() -> Self {
        Config {
            fw_blocks: 96,
            el_geometry: vec![14, 12],
            frac_long: 0.05,
            runtime_secs: 20,
        }
    }

    /// The FW run this configuration crashes.
    pub fn fw_run(&self) -> RunConfig {
        RunConfig::paper(
            self.frac_long,
            ElConfig::firewall(self.fw_blocks, FlushConfig::default()),
        )
        .runtime_secs(self.runtime_secs)
    }

    /// The EL run this configuration crashes.
    pub fn el_run(&self) -> RunConfig {
        let log = LogConfig {
            generation_blocks: self.el_geometry.clone(),
            recirculation: true,
            ..LogConfig::default()
        };
        RunConfig::paper(
            self.frac_long,
            ElConfig::ephemeral(log, FlushConfig::default()),
        )
        .runtime_secs(self.runtime_secs)
    }
}

/// Two crash-recovery scenarios — the FW minimum and the EL minimum —
/// sharing a seed index so both crash the same workload.
pub fn scenarios_for(cfg: &Config) -> Vec<Scenario> {
    let fw = cfg.fw_run();
    let el = cfg.el_run();

    vec![
        Scenario::new(
            format!("FW @{}", cfg.fw_blocks),
            "fw",
            0,
            Job::CrashRecover(fw),
        ),
        Scenario::new(
            format!("EL @{:?}", cfg.el_geometry),
            "el",
            0,
            Job::CrashRecover(el),
        ),
    ]
}

/// Renders the table.
pub fn table(outcomes: &[RunOutcome]) -> Table {
    let mut t = Table::new(
        "Recovery — modelled 1993 time for a crash at the horizon",
        &[
            "config", "blocks", "records", "modelled", "objects", "verified",
        ],
    );
    for o in outcomes {
        let Some((blocks, r)) = o.recovery() else {
            continue;
        };
        t.row(vec![
            o.label.clone(),
            blocks.to_string(),
            r.scan.records.to_string(),
            r.modelled.to_string(),
            r.state.versions.len().to_string(),
            r.report.is_ok().to_string(),
        ]);
    }
    t
}

/// The crash-recovery experiment.
pub struct RecoveryTime;

impl Experiment for RecoveryTime {
    fn name(&self) -> &'static str {
        "recovery time FW vs EL"
    }

    fn scenarios(&self, quick: bool) -> Vec<Scenario> {
        scenarios_for(&if quick {
            Config::quick()
        } else {
            Config::paper()
        })
    }

    fn tables(&self, outcomes: &[RunOutcome]) -> Vec<(String, Table)> {
        vec![("recovery".to_string(), table(outcomes))]
    }

    fn notes(&self, outcomes: &[RunOutcome]) -> Vec<String> {
        failure_notes(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_scenarios, ExecOptions};

    #[test]
    fn both_configs_recover_verified() {
        let outcomes = run_scenarios(
            &scenarios_for(&Config::quick()),
            &ExecOptions {
                jobs: 2,
                progress: false,
                ..Default::default()
            },
        );
        assert_eq!(outcomes.len(), 2);
        let points: Vec<_> = outcomes
            .iter()
            .map(|o| o.recovery().expect("recovery outcome"))
            .collect();
        for (o, (_, r)) in outcomes.iter().zip(&points) {
            assert!(r.report.is_ok(), "{} recovery must verify", o.label);
            assert!(!r.state.versions.is_empty());
        }
        // EL's smaller log must be modelled as faster to recover.
        let ((fw_blocks, fw), (el_blocks, el)) = (points[0], points[1]);
        assert!(el_blocks < fw_blocks);
        assert!(el.modelled < fw.modelled);
        assert_eq!(table(&outcomes).len(), 2);
    }
}
