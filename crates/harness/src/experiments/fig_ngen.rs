//! §5 extension: minimum disk space with N ≥ 3 generations.
//!
//! The paper evaluates two-generation ephemeral logs in detail and argues
//! (§5) that more generations refine the lifetime partition further: each
//! extra generation gives short-lived records one more chance to die
//! before being forwarded. This experiment prices that claim with the
//! lattice search ([`crate::latsearch`]): for each transaction mix it runs
//! the two-generation minimum-space search and the N-generation lattice
//! search under the *same* workload (shared seed index) and compares the
//! minima — space, geometry and log bandwidth — with the lattice-search
//! statistics (probes, pruned volume) reported alongside.
//!
//! `N` defaults to 3 and is CLI-selectable (`repro --gens N`); `N = 1`
//! degenerates to the firewall binary search, `N = 2` to the
//! two-generation search itself (a useful self-check: both sides of the
//! comparison then agree).

use crate::latsearch::SearchMode;
use crate::report::{f, Table};
use crate::sweep::{failure_notes, Experiment, Job, RunOutcome, Scenario};
use elog_core::ElConfig;
use elog_model::{FlushConfig, LogConfig};

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Long-transaction fractions to compare.
    pub mixes: Vec<f64>,
    /// Simulated seconds per run.
    pub runtime_secs: u64,
    /// Generations for the lattice side of the comparison (≥ 1).
    pub gens: usize,
}

impl Config {
    /// Paper-scale comparison at `gens` generations.
    pub fn paper(gens: usize) -> Self {
        Config {
            mixes: vec![0.05, 0.20, 0.40],
            runtime_secs: 500,
            gens,
        }
    }

    /// Reduced comparison for tests and `--quick`.
    pub fn quick(gens: usize) -> Self {
        Config {
            mixes: vec![0.05],
            runtime_secs: 40,
            gens,
        }
    }
}

fn base_cfg(cfg: &Config, frac_long: f64) -> crate::runner::RunConfig {
    crate::runner::RunConfig::paper(
        frac_long,
        ElConfig::ephemeral(LogConfig::default(), FlushConfig::default()),
    )
    .runtime_secs(cfg.runtime_secs)
}

/// Two scenarios per mix — the two-generation baseline and the
/// N-generation lattice search — sharing one seed index so both face the
/// same workload.
pub fn scenarios_for(cfg: &Config) -> Vec<Scenario> {
    assert!(cfg.gens >= 1, "fig_ngen needs at least one generation");
    let mut out = Vec::new();
    for (i, &mix) in cfg.mixes.iter().enumerate() {
        let base = base_cfg(cfg, mix);
        out.push(Scenario::new(
            format!("fig_ngen mix={mix} 2gen"),
            format!("{mix}"),
            i as u64,
            Job::MinSpace {
                base: base.clone(),
                mode: SearchMode::MinSpace { gens: 2 },
            },
        ));
        out.push(Scenario::new(
            format!("fig_ngen mix={mix} {}gen", cfg.gens),
            format!("{mix}"),
            i as u64,
            Job::MinSpace {
                base,
                mode: SearchMode::MinSpace { gens: cfg.gens },
            },
        ));
    }
    out
}

/// One mix's paired minima.
#[derive(Clone, Debug)]
pub struct Point {
    /// Long-transaction fraction.
    pub mix: String,
    /// Two-generation baseline outcome.
    pub two_gen: RunOutcome,
    /// N-generation lattice outcome.
    pub n_gen: RunOutcome,
}

/// Pairs the outcomes back up, in mix order.
pub fn points(outcomes: &[RunOutcome]) -> Vec<Point> {
    outcomes
        .chunks_exact(2)
        .map(|pair| Point {
            mix: pair[0].variant.clone(),
            two_gen: pair[0].clone(),
            n_gen: pair[1].clone(),
        })
        .collect()
}

fn geometry_label(blocks: &[u32]) -> String {
    blocks
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join("+")
}

/// The comparison table: two-generation vs N-generation minimum space.
pub fn table(gens: usize, pts: &[Point]) -> Table {
    let mut t = Table::new(
        format!("§5 extension — minimum space, 2-gen vs {gens}-gen lattice search"),
        &[
            "mix",
            "2-gen geometry",
            "2-gen blocks",
            "2-gen w/s",
            "N-gen geometry",
            "N-gen blocks",
            "N-gen w/s",
        ],
    );
    for p in pts {
        let (Some((min2, run2)), Some((minn, runn))) = (p.two_gen.min_space(), p.n_gen.min_space())
        else {
            continue;
        };
        t.row(vec![
            p.mix.clone(),
            geometry_label(&min2.generation_blocks),
            min2.total_blocks.to_string(),
            f(run2.metrics.log_write_rate, 2),
            geometry_label(&minn.generation_blocks),
            minn.total_blocks.to_string(),
            f(runn.metrics.log_write_rate, 2),
        ]);
    }
    t
}

/// The §5-extension experiment at a chosen generation count.
pub struct FigNgen {
    /// Generations for the lattice side (≥ 1; `repro --gens`).
    pub gens: usize,
}

impl Experiment for FigNgen {
    fn name(&self) -> &'static str {
        "fig_ngen N-generation lattice min-space"
    }

    fn scenarios(&self, quick: bool) -> Vec<Scenario> {
        scenarios_for(&if quick {
            Config::quick(self.gens)
        } else {
            Config::paper(self.gens)
        })
    }

    fn tables(&self, outcomes: &[RunOutcome]) -> Vec<(String, Table)> {
        vec![(
            "fig_ngen_minspace".to_string(),
            table(self.gens, &points(outcomes)),
        )]
    }

    fn notes(&self, outcomes: &[RunOutcome]) -> Vec<String> {
        let mut notes = failure_notes(outcomes);
        for p in points(outcomes) {
            let Some((minn, _)) = p.n_gen.min_space() else {
                continue;
            };
            notes.push(format!(
                "mix {}: {}-gen search used {} probes, pruned {} lattice points probe-free",
                p.mix, self.gens, minn.probes, minn.search.pruned_volume,
            ));
            if let (Some((min2, _)), true) = (p.two_gen.min_space(), self.gens >= 3) {
                // Report both directions: extra generations can also *cost*
                // blocks (more gap overhead than forwarding staging wins).
                if minn.total_blocks <= min2.total_blocks {
                    notes.push(format!(
                        "mix {}: {} generations save {} blocks over 2 ({} vs {})",
                        p.mix,
                        self.gens,
                        min2.total_blocks - minn.total_blocks,
                        minn.total_blocks,
                        min2.total_blocks,
                    ));
                } else {
                    notes.push(format!(
                        "mix {}: {} generations cost {} more blocks than 2 ({} vs {})",
                        p.mix,
                        self.gens,
                        minn.total_blocks - min2.total_blocks,
                        minn.total_blocks,
                        min2.total_blocks,
                    ));
                }
            }
        }
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minspace::survives;
    use crate::sweep::{run_scenarios, ExecOptions};

    fn tiny(gens: usize) -> Config {
        Config {
            mixes: vec![0.05],
            runtime_secs: 20,
            gens,
        }
    }

    #[test]
    fn three_gen_comparison_runs_and_tables() {
        let cfg = tiny(3);
        let outcomes = run_scenarios(
            &scenarios_for(&cfg),
            &ExecOptions {
                jobs: 2,
                progress: false,
                ..Default::default()
            },
        );
        let pts = points(&outcomes);
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        let (min2, _) = p.two_gen.min_space().expect("2-gen search succeeded");
        let (minn, _) = p.n_gen.min_space().expect("3-gen search succeeded");
        assert_eq!(min2.generation_blocks.len(), 2);
        assert_eq!(minn.generation_blocks.len(), 3);
        // The minimum really is kill-free under the same workload.
        let base =
            base_cfg(&cfg, 0.05).seed(crate::sweep::derive_seed(base_cfg(&cfg, 0.05).seed, 0));
        assert!(survives(&base, &minn.generation_blocks));
        assert_eq!(table(3, &pts).len(), 1);
        let fig = FigNgen { gens: 3 };
        assert!(!fig.notes(&outcomes).is_empty(), "lattice stats note");
    }

    #[test]
    fn single_gen_degenerates_to_firewall() {
        // One generation needs FW-sized room: the firewall search finds
        // it, and it exceeds the 2-generation minimum of the same workload.
        let cfg = tiny(1);
        let outcomes = run_scenarios(
            &scenarios_for(&cfg),
            &ExecOptions {
                jobs: 2,
                progress: false,
                ..Default::default()
            },
        );
        let pts = points(&outcomes);
        let (minn, _) = pts[0].n_gen.min_space().expect("fw search succeeded");
        let (min2, _) = pts[0].two_gen.min_space().expect("2-gen search succeeded");
        assert_eq!(minn.generation_blocks.len(), 1);
        assert!(minn.total_blocks > min2.total_blocks);
    }
}
