//! §4 prose check: "As the fraction of 10 s transactions increases from
//! 5% to 40%, the average number of updates per second rises from 210 to
//! 280."
//!
//! The analytic value is `100 TPS × (2(1−p) + 4p)`; the measured value is
//! the workload driver's data-record count over the horizon. Both are
//! reported so the table doubles as a calibration check of the driver.

use crate::report::{f, Table};
use crate::runner::RunConfig;
use crate::sweep::{failure_notes, Experiment, Job, RunOutcome, Scenario};
use elog_core::ElConfig;
use elog_model::{FlushConfig, LogConfig};
use elog_workload::mean_update_rate;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Long-transaction fractions to evaluate.
    pub mixes: Vec<f64>,
    /// Simulated seconds per run.
    pub runtime_secs: u64,
}

impl Config {
    /// Paper-style sweep over the mix endpoints and midpoints.
    pub fn paper() -> Self {
        Config {
            mixes: vec![0.05, 0.10, 0.20, 0.30, 0.40],
            runtime_secs: 120,
        }
    }

    /// Reduced runtime for smoke runs.
    pub fn quick() -> Self {
        Config {
            runtime_secs: 30,
            ..Config::paper()
        }
    }
}

/// One mix's analytic and measured update rates.
#[derive(Clone, Debug)]
pub struct RatePoint {
    /// Long-transaction fraction.
    pub frac_long: f64,
    /// Analytic updates/s.
    pub analytic: f64,
    /// Measured updates/s.
    pub measured: f64,
}

/// One measured run per mix on a roomy geometry (this experiment measures
/// the workload driver, not the log manager).
pub fn scenarios_for(cfg: &Config) -> Vec<Scenario> {
    cfg.mixes
        .iter()
        .enumerate()
        .map(|(i, &frac)| {
            let log = LogConfig {
                generation_blocks: vec![64, 64],
                ..LogConfig::default()
            };
            Scenario::new(
                format!("rates {:.0}%", frac * 100.0),
                frac.to_string(),
                i as u64,
                Job::Measure(
                    RunConfig::paper(frac, ElConfig::ephemeral(log, FlushConfig::default()))
                        .runtime_secs(cfg.runtime_secs),
                ),
            )
        })
        .collect()
}

/// Pairs each measured rate with its analytic value.
pub fn points(outcomes: &[RunOutcome]) -> Vec<RatePoint> {
    outcomes
        .iter()
        .filter_map(|o| {
            let frac_long: f64 = o.variant.parse().ok()?;
            let r = o.measured()?;
            Some(RatePoint {
                frac_long,
                analytic: mean_update_rate(frac_long, 100.0),
                measured: r.data_records as f64 / r.horizon.as_secs_f64(),
            })
        })
        .collect()
}

/// Renders the table.
pub fn table(points: &[RatePoint]) -> Table {
    let mut t = Table::new(
        "§4 prose — update rate vs mix (paper: 210/s at 5% to 280/s at 40%)",
        &["% 10s txns", "analytic updates/s", "measured updates/s"],
    );
    for p in points {
        t.row(vec![
            f(p.frac_long * 100.0, 0),
            f(p.analytic, 1),
            f(p.measured, 1),
        ]);
    }
    t
}

/// The update-rate calibration experiment.
pub struct Rates;

impl Experiment for Rates {
    fn name(&self) -> &'static str {
        "§4 update rate vs mix"
    }

    fn scenarios(&self, quick: bool) -> Vec<Scenario> {
        scenarios_for(&if quick {
            Config::quick()
        } else {
            Config::paper()
        })
    }

    fn tables(&self, outcomes: &[RunOutcome]) -> Vec<(String, Table)> {
        vec![("rates".to_string(), table(&points(outcomes)))]
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
    fn measured_rates_match_analytic() {
        let runtime = 60;
        let cfg = Config {
            runtime_secs: runtime,
            ..Config::paper()
        };
        let outcomes = run_scenarios(
            &scenarios_for(&cfg),
            &ExecOptions {
                jobs: 2,
                progress: false,
                ..Default::default()
            },
        );
        let points = points(&outcomes);
        assert_eq!(points.len(), 5);
        assert!((points[0].analytic - 210.0).abs() < 1e-9);
        assert!((points[4].analytic - 280.0).abs() < 1e-9);
        for p in &points {
            // Long transactions arriving in the final 10 s have written
            // only part of their records by the horizon, so the measured
            // rate undershoots by up to ~frac·4·(10/runtime)·100/2 per
            // second; allow that truncation plus sampling noise.
            let truncation = p.frac_long * 4.0 * 100.0 * (10.0 / runtime as f64) / 2.0;
            let tol = truncation + 0.03 * p.analytic;
            assert!(
                (p.measured - p.analytic).abs() < tol,
                "mix {}: measured {} vs analytic {} (tol {tol})",
                p.frac_long,
                p.measured,
                p.analytic
            );
        }
        assert_eq!(table(&points).len(), 5);
    }
}
