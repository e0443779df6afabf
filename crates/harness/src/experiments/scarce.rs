//! The §4 scarce-flush-bandwidth study.
//!
//! Paper: raising the flush transfer time from 25 ms to 45 ms leaves the
//! ten drives only 222 flushes/s against 210 updates/s at the 5 % mix.
//! Under that pressure EL with recirculation needs 31 blocks (20 + 11) and
//! 13.96 writes/s; unflushed committed updates recirculate in generation 1
//! until flushed. The queueing backlog *increases locality*: the mean oid
//! distance between successive flushes falls from ~235 000 (25 ms case) to
//! ~109 000 — negative feedback that stabilises the system.

use crate::report::{f, fo, Table};
use crate::runner::{RunConfig, RunResult};
use crate::sweep::{failure_notes, Experiment, Job, RunOutcome, Scenario};
use elog_core::ElConfig;
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Long-transaction fraction (paper: 0.05).
    pub frac_long: f64,
    /// Simulated seconds per run.
    pub runtime_secs: u64,
}

impl Config {
    /// Paper-scale run.
    pub fn paper() -> Self {
        Config {
            frac_long: 0.05,
            runtime_secs: 500,
        }
    }

    /// Reduced run for tests.
    pub fn quick() -> Self {
        Config {
            frac_long: 0.05,
            runtime_secs: 60,
        }
    }
}

/// One flush-speed case.
#[derive(Clone, Debug)]
pub struct Case {
    /// Flush transfer time in milliseconds.
    pub transfer_ms: u64,
    /// Minimum EL geometry under this flush speed.
    pub geometry: Vec<u32>,
    /// Measured run at the minimum.
    pub measured: RunResult,
}

/// One recirculation-minimum scenario per flush speed (ample 25 ms and
/// scarce 45 ms), sharing a seed index so both face the same workload.
pub fn scenarios_for(cfg: &Config) -> Vec<Scenario> {
    [25u64, 45]
        .into_iter()
        .map(|transfer_ms| {
            let flush = FlushConfig {
                drives: 10,
                transfer_time: SimTime::from_millis(transfer_ms),
            };
            let log = LogConfig {
                recirculation: true,
                ..LogConfig::default()
            };
            Scenario::new(
                format!("scarce flush {transfer_ms}ms"),
                transfer_ms.to_string(),
                0,
                Job::ElRecircMin {
                    base: RunConfig::paper(cfg.frac_long, ElConfig::ephemeral(log, flush))
                        .runtime_secs(cfg.runtime_secs),
                },
            )
        })
        .collect()
}

/// Reassembles the flush-speed cases, skipping failures.
pub fn cases(outcomes: &[RunOutcome]) -> Vec<Case> {
    outcomes
        .iter()
        .filter_map(|o| {
            let (min, measured) = o.min_space()?;
            Some(Case {
                transfer_ms: o.variant.parse().ok()?,
                geometry: min.generation_blocks.clone(),
                measured: measured.clone(),
            })
        })
        .collect()
}

/// Comparison table.
pub fn table(cases: &[Case]) -> Table {
    let mut t = Table::new(
        "§4 scarce flush bandwidth — EL with recirculation, 5% mix",
        &[
            "flush ms",
            "max flush/s",
            "geometry",
            "total blocks",
            "log w/s",
            "mean oid distance",
            "flush backlog",
        ],
    );
    for c in cases {
        let m = &c.measured.metrics;
        t.row(vec![
            c.transfer_ms.to_string(),
            f(10_000.0 / c.transfer_ms as f64, 0),
            format!("{:?}", c.geometry),
            c.geometry.iter().sum::<u32>().to_string(),
            f(m.log_write_rate, 2),
            fo(m.mean_seek_distance, 0),
            m.flush_backlog.to_string(),
        ]);
    }
    t
}

/// The locality claim: scarcity must *reduce* the mean seek distance.
/// `cases` must be `[ample, scarce]` in scenario order.
pub fn locality_gain(cases: &[Case]) -> Option<f64> {
    let [ample, scarce] = cases else { return None };
    let a = ample.measured.metrics.mean_seek_distance?;
    let s = scarce.measured.metrics.mean_seek_distance?;
    Some(a / s)
}

/// The scarce-flush-bandwidth experiment.
pub struct Scarce;

impl Experiment for Scarce {
    fn name(&self) -> &'static str {
        "§4 scarce flush bandwidth"
    }

    fn scenarios(&self, quick: bool) -> Vec<Scenario> {
        scenarios_for(&if quick {
            Config::quick()
        } else {
            Config::paper()
        })
    }

    fn tables(&self, outcomes: &[RunOutcome]) -> Vec<(String, Table)> {
        vec![("scarce_flush".to_string(), table(&cases(outcomes)))]
    }

    fn notes(&self, outcomes: &[RunOutcome]) -> Vec<String> {
        let mut notes = failure_notes(outcomes);
        if let Some(gain) = locality_gain(&cases(outcomes)) {
            notes.push(format!("flush locality gain under scarcity: {:.2}×", gain));
        }
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_scenarios, ExecOptions};

    #[test]
    fn scarcity_increases_locality_and_space() {
        let scenarios = scenarios_for(&Config::quick());
        let outcomes = run_scenarios(
            &scenarios,
            &ExecOptions {
                jobs: 2,
                progress: false,
                ..Default::default()
            },
        );
        let out = cases(&outcomes);
        assert_eq!(out.len(), 2);
        let (ample, scarce) = (&out[0], &out[1]);
        // Neither case kills at its minimum.
        assert_eq!(ample.measured.killed, 0);
        assert_eq!(scarce.measured.killed, 0);
        // Backlogged flushing must show better locality (smaller distance).
        let gain = locality_gain(&out).expect("both cases flush");
        assert!(
            gain > 1.2,
            "scarce flushing must gain locality, ratio {gain}"
        );
        // The scarce case needs at least as much log space.
        let total = |c: &Case| c.geometry.iter().sum::<u32>();
        assert!(total(scarce) >= total(ample));
        // And drives run hotter.
        assert!(
            scarce.measured.metrics.flush_utilisation > ample.measured.metrics.flush_utilisation
        );
        assert_eq!(table(&out).len(), 2);
    }
}
