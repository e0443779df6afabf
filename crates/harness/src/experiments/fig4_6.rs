//! Figures 4, 5 and 6: minimum disk space, log bandwidth and peak memory
//! versus the transaction mix, FW against EL (two generations, no
//! recirculation).
//!
//! Paper headline (5 % mix): EL needs 34 blocks (18 + 16) against FW's
//! 123 — a 3.6× reduction — at an 11 % bandwidth premium (12.87 vs 11.63
//! block writes/s) and modest memory. The EL advantage shrinks as the
//! long-transaction fraction grows.

use crate::latsearch::SearchMode;
use crate::minspace::MinSpaceResult;
use crate::report::{f, Table};
use crate::runner::{RunConfig, RunResult};
use crate::sweep::{failure_notes, Experiment, Job, RunOutcome, Scenario};
use elog_core::{ElConfig, MemoryModel};
use elog_model::{FlushConfig, LogConfig};

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Long-transaction fractions to evaluate (paper: 5 %–40 %).
    pub mixes: Vec<f64>,
    /// Simulated seconds per probe/measurement run (paper: 500).
    pub runtime_secs: u64,
}

impl Config {
    /// Full paper-scale sweep.
    pub fn paper() -> Self {
        Config {
            mixes: vec![0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40],
            runtime_secs: 500,
        }
    }

    /// Reduced sweep for tests and smoke runs.
    pub fn quick() -> Self {
        Config {
            mixes: vec![0.05, 0.20, 0.40],
            runtime_secs: 60,
        }
    }
}

/// One mix's outcome for one technique.
#[derive(Clone, Debug)]
pub struct TechniquePoint {
    /// Minimum geometry found.
    pub min: MinSpaceResult,
    /// Full measured run at that geometry.
    pub measured: RunResult,
}

/// One row of the sweep.
#[derive(Clone, Debug)]
pub struct MixPoint {
    /// Long-transaction fraction.
    pub frac_long: f64,
    /// Firewall baseline.
    pub fw: TechniquePoint,
    /// Ephemeral logging (2 generations, no recirculation).
    pub el: TechniquePoint,
}

impl MixPoint {
    /// Figure 4's headline ratio: FW blocks / EL blocks.
    pub fn space_ratio(&self) -> f64 {
        f64::from(self.fw.min.total_blocks) / f64::from(self.el.min.total_blocks)
    }

    /// Figure 5's premium: EL bandwidth / FW bandwidth − 1.
    pub fn bandwidth_premium(&self) -> f64 {
        self.el.measured.metrics.log_write_rate / self.fw.measured.metrics.log_write_rate - 1.0
    }
}

fn base_cfg(frac_long: f64, runtime_secs: u64, memory: MemoryModel) -> RunConfig {
    let log = LogConfig {
        recirculation: false,
        ..LogConfig::default()
    };
    let mut el = ElConfig::ephemeral(log, FlushConfig::default());
    el.memory_model = memory;
    RunConfig::paper(frac_long, el).runtime_secs(runtime_secs)
}

/// Scenarios for an explicit configuration: per mix, one FW minimum-space
/// search and one EL search, sharing a seed index so both techniques face
/// the same workload.
pub fn scenarios_for(cfg: &Config) -> Vec<Scenario> {
    let mut out = Vec::new();
    for (i, &frac) in cfg.mixes.iter().enumerate() {
        let pct = frac * 100.0;
        out.push(Scenario::new(
            format!("fig4-6 fw {pct:.0}%"),
            frac.to_string(),
            i as u64,
            Job::MinSpace {
                base: base_cfg(frac, cfg.runtime_secs, MemoryModel::Firewall),
                mode: SearchMode::MinSpace { gens: 1 },
            },
        ));
        out.push(Scenario::new(
            format!("fig4-6 el {pct:.0}%"),
            frac.to_string(),
            i as u64,
            Job::MinSpace {
                base: base_cfg(frac, cfg.runtime_secs, MemoryModel::Ephemeral),
                mode: SearchMode::MinSpace { gens: 2 },
            },
        ));
    }
    out
}

/// Reassembles `(fw, el)` outcome pairs into sweep rows, skipping pairs
/// where either side failed.
pub fn points(outcomes: &[RunOutcome]) -> Vec<MixPoint> {
    outcomes
        .chunks(2)
        .filter_map(|pair| {
            let [fw, el] = pair else { return None };
            let frac_long: f64 = fw.variant.parse().ok()?;
            let (fw_min, fw_measured) = fw.min_space()?;
            let (el_min, el_measured) = el.min_space()?;
            Some(MixPoint {
                frac_long,
                fw: TechniquePoint {
                    min: fw_min.clone(),
                    measured: fw_measured.clone(),
                },
                el: TechniquePoint {
                    min: el_min.clone(),
                    measured: el_measured.clone(),
                },
            })
        })
        .collect()
}

/// Figure 4: disk space (blocks) vs mix.
pub fn fig4_table(points: &[MixPoint]) -> Table {
    let mut t = Table::new(
        "Figure 4 — minimum disk space (blocks) vs transaction mix",
        &[
            "% 10s txns",
            "FW blocks",
            "EL blocks",
            "EL geometry",
            "FW/EL ratio",
        ],
    );
    for p in points {
        t.row(vec![
            f(p.frac_long * 100.0, 0),
            p.fw.min.total_blocks.to_string(),
            p.el.min.total_blocks.to_string(),
            format!("{:?}", p.el.min.generation_blocks),
            f(p.space_ratio(), 2),
        ]);
    }
    t
}

/// Figure 5: log bandwidth (block writes/s) vs mix.
pub fn fig5_table(points: &[MixPoint]) -> Table {
    let mut t = Table::new(
        "Figure 5 — log bandwidth (block writes/s) vs transaction mix",
        &["% 10s txns", "FW w/s", "EL w/s", "EL premium %"],
    );
    for p in points {
        t.row(vec![
            f(p.frac_long * 100.0, 0),
            f(p.fw.measured.metrics.log_write_rate, 2),
            f(p.el.measured.metrics.log_write_rate, 2),
            f(p.bandwidth_premium() * 100.0, 1),
        ]);
    }
    t
}

/// Figure 6: peak main memory (bytes) vs mix.
pub fn fig6_table(points: &[MixPoint]) -> Table {
    let mut t = Table::new(
        "Figure 6 — peak LM memory (bytes) vs transaction mix",
        &["% 10s txns", "FW bytes", "EL bytes", "EL/FW ratio"],
    );
    for p in points {
        let fw = p.fw.measured.metrics.peak_memory_bytes;
        let el = p.el.measured.metrics.peak_memory_bytes;
        t.row(vec![
            f(p.frac_long * 100.0, 0),
            fw.to_string(),
            el.to_string(),
            f(el as f64 / fw as f64, 2),
        ]);
    }
    t
}

/// The figures 4–6 experiment.
pub struct Fig46;

impl Experiment for Fig46 {
    fn name(&self) -> &'static str {
        "fig4-6 space/bandwidth/memory vs mix"
    }

    fn scenarios(&self, quick: bool) -> Vec<Scenario> {
        scenarios_for(&if quick {
            Config::quick()
        } else {
            Config::paper()
        })
    }

    fn tables(&self, outcomes: &[RunOutcome]) -> Vec<(String, Table)> {
        let pts = points(outcomes);
        vec![
            ("fig4_space".to_string(), fig4_table(&pts)),
            ("fig5_bandwidth".to_string(), fig5_table(&pts)),
            ("fig6_memory".to_string(), fig6_table(&pts)),
        ]
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
    fn quick_sweep_shape_matches_paper() {
        let cfg = Config {
            mixes: vec![0.05, 0.40],
            runtime_secs: 40,
        };
        let scenarios = scenarios_for(&cfg);
        assert_eq!(scenarios.len(), 4);
        let outcomes = run_scenarios(
            &scenarios,
            &ExecOptions {
                jobs: 2,
                progress: false,
                ..Default::default()
            },
        );
        let pts = points(&outcomes);
        assert_eq!(pts.len(), 2);

        for p in &pts {
            // No kills at the minima, by construction.
            assert_eq!(p.fw.measured.killed, 0, "FW minimum must survive");
            assert_eq!(p.el.measured.killed, 0, "EL minimum must survive");
            // The central claim: EL saves disk space.
            assert!(
                p.space_ratio() > 1.3,
                "mix {}: EL must beat FW on space, ratio {}",
                p.frac_long,
                p.space_ratio()
            );
            // And pays some bandwidth for it.
            assert!(
                p.bandwidth_premium() > -0.01,
                "EL bandwidth at least FW's, premium {}",
                p.bandwidth_premium()
            );
            // Memory: EL costs more than FW (40 B/txn + 40 B/object vs 22).
            assert!(
                p.el.measured.metrics.peak_memory_bytes > p.fw.measured.metrics.peak_memory_bytes
            );
        }
        // The advantage shrinks as long transactions proliferate.
        assert!(
            pts[0].space_ratio() > pts[1].space_ratio(),
            "5% ratio {} must exceed 40% ratio {}",
            pts[0].space_ratio(),
            pts[1].space_ratio()
        );

        // Tables render through the Experiment impl.
        let tables = Fig46.tables(&outcomes);
        assert_eq!(tables.len(), 3);
        for (_, t) in &tables {
            assert_eq!(t.len(), 2);
        }
    }
}
