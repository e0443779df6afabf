//! Figure 7: EL disk bandwidth versus last-generation size, with
//! recirculation enabled.
//!
//! Paper setup: 5 % mix, gen0 fixed at 18 blocks (its no-recirculation
//! minimum), recirculation on, last-generation size progressively reduced
//! until kills appear. Space drops from 34 to 28 blocks while total
//! bandwidth rises only from 12.87 to 12.99 writes/s — against FW's
//! 123 blocks / 11.63 w/s that is a 4.4× space reduction for +12 %
//! bandwidth. Only the last generation's bandwidth grows (footnote 7).
//!
//! As a sweep this is flat: one measured run per candidate last-generation
//! size, every run stopping early on its first kill. Kill-freedom is
//! monotone in the last generation's size, so the survivors form a suffix
//! of the sweep and the smallest survivor *is* the paper's "progressively
//! decreased until killed" minimum — no search step needed.

use crate::report::{f, Table};
use crate::runner::{RunConfig, RunResult};
use crate::sweep::{failure_notes, Experiment, Job, RunOutcome, Scenario};
use elog_core::ElConfig;
use elog_model::{FlushConfig, LogConfig};

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Long-transaction fraction (paper: 0.05).
    pub frac_long: f64,
    /// Fixed gen0 size (paper: 18, its no-recirculation minimum from the
    /// Figure 4 search).
    pub g0: u32,
    /// Largest last-generation size to measure (paper: 16, the
    /// no-recirculation minimum gen1).
    pub g1_max: u32,
    /// Simulated seconds per run.
    pub runtime_secs: u64,
}

impl Config {
    /// Paper-scale sweep around the published minima.
    pub fn paper() -> Self {
        Config {
            frac_long: 0.05,
            g0: 18,
            g1_max: 16,
            runtime_secs: 500,
        }
    }

    /// Reduced sweep for tests.
    pub fn quick() -> Self {
        Config {
            frac_long: 0.05,
            g0: 12,
            g1_max: 12,
            runtime_secs: 40,
        }
    }
}

/// One measured point of the sweep.
#[derive(Clone, Debug)]
pub struct Point {
    /// Last-generation size.
    pub g1: u32,
    /// Measured run.
    pub measured: RunResult,
}

fn base_cfg(cfg: &Config) -> RunConfig {
    let log = LogConfig {
        recirculation: true,
        ..LogConfig::default()
    };
    RunConfig::paper(
        cfg.frac_long,
        ElConfig::ephemeral(log, FlushConfig::default()),
    )
    .runtime_secs(cfg.runtime_secs)
}

/// One `Measure` scenario per candidate last-generation size, smallest
/// valid size up to `g1_max`. All candidates share a seed index: the
/// sweep compares geometries under one workload.
pub fn scenarios_for(cfg: &Config) -> Vec<Scenario> {
    let base = base_cfg(cfg);
    let g1_lo = base.el.log.gap_blocks + 1;
    (g1_lo..=cfg.g1_max.max(g1_lo))
        .map(|g1| {
            Scenario::new(
                format!("fig7 g1={g1}"),
                g1.to_string(),
                0,
                Job::Measure(base.clone().geometry(vec![cfg.g0, g1]).stop_on_kill(true)),
            )
        })
        .collect()
}

/// The kill-free points of the sweep, smallest last generation first.
/// The first entry's `g1` is the Figure 7 minimum.
pub fn surviving_points(outcomes: &[RunOutcome]) -> Vec<Point> {
    outcomes
        .iter()
        .filter_map(|o| {
            let measured = o.measured()?;
            if measured.killed > 0 {
                return None;
            }
            Some(Point {
                g1: o.variant.parse().ok()?,
                measured: measured.clone(),
            })
        })
        .collect()
}

/// The Figure 7 table: bandwidth versus space, survivors only.
pub fn table(points: &[Point]) -> Table {
    let g0 = points
        .first()
        .map(|p| p.measured.metrics.per_gen_blocks[0])
        .unwrap_or(0);
    let mut t = Table::new(
        format!("Figure 7 — EL bandwidth vs last-generation size (gen0 = {g0}, recirculation on)"),
        &[
            "gen1 blocks",
            "total blocks",
            "last-gen w/s",
            "total w/s",
            "recirculated recs",
        ],
    );
    for p in points {
        let m = &p.measured.metrics;
        t.row(vec![
            p.g1.to_string(),
            (g0 + u64::from(p.g1)).to_string(),
            f(*m.per_gen_write_rate.last().expect("two generations"), 2),
            f(m.log_write_rate, 2),
            m.stats.recirculated_records.to_string(),
        ]);
    }
    t
}

/// The Figure 7 experiment.
pub struct Fig7;

impl Experiment for Fig7 {
    fn name(&self) -> &'static str {
        "fig7 recirculation bandwidth/space trade"
    }

    fn scenarios(&self, quick: bool) -> Vec<Scenario> {
        scenarios_for(&if quick {
            Config::quick()
        } else {
            Config::paper()
        })
    }

    fn tables(&self, outcomes: &[RunOutcome]) -> Vec<(String, Table)> {
        vec![(
            "fig7_recirc".to_string(),
            table(&surviving_points(outcomes)),
        )]
    }

    fn notes(&self, outcomes: &[RunOutcome]) -> Vec<String> {
        let mut notes = failure_notes(outcomes);
        if let Some(p) = surviving_points(outcomes).first() {
            let g0 = p.measured.metrics.per_gen_blocks[0];
            notes.push(format!(
                "smallest kill-free last generation: {} blocks ({} total)",
                p.g1,
                g0 + u64::from(p.g1)
            ));
        }
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_scenarios, ExecOptions};

    #[test]
    fn shrinking_last_gen_trades_bandwidth_for_space() {
        let cfg = Config::quick();
        let scenarios = scenarios_for(&cfg);
        let outcomes = run_scenarios(
            &scenarios,
            &ExecOptions {
                jobs: 2,
                progress: false,
                ..Default::default()
            },
        );
        let points = surviving_points(&outcomes);
        assert!(!points.is_empty(), "a feasible minimum exists");
        assert!(points.first().expect("non-empty").g1 <= cfg.g1_max);

        // Survivors must form a suffix of the sweep: kill-freedom is
        // monotone in the last generation's size.
        let min_g1 = points.first().expect("non-empty").g1;
        for o in &outcomes {
            let g1: u32 = o.variant.parse().expect("variant is g1");
            let killed = o.measured().expect("measured").killed;
            assert_eq!(
                killed > 0,
                g1 < min_g1,
                "kill boundary must be monotone at g1={g1}"
            );
        }
        // The smallest configuration recirculates at least as much as the
        // largest (paper footnote 7: only the last generation's bandwidth
        // grows as it shrinks).
        let smallest = &points.first().expect("non-empty").measured;
        let largest = &points.last().expect("non-empty").measured;
        assert!(
            smallest.metrics.stats.recirculated_records
                >= largest.metrics.stats.recirculated_records,
            "smaller last gen must recirculate at least as much"
        );
        assert!(
            smallest.metrics.log_write_rate >= largest.metrics.log_write_rate * 0.98,
            "total bandwidth must not drop when the last generation shrinks"
        );
        assert_eq!(table(&points).len(), points.len());
    }
}
