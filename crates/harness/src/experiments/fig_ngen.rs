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

use crate::latsearch::{LatticeLimits, SearchMode};
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
    /// Scan ceiling for the first prefix axis; later axes halve it
    /// (forwarded traffic shrinks with depth, so do the ceilings).
    pub first_cap: u32,
    /// Binary-search ceiling for the last generation (also the firewall
    /// ceiling when `gens == 1`).
    pub last_limit: u32,
    /// gen0 scan ceiling of the two-generation baseline.
    pub g0_max: u32,
    /// gen1 binary-search ceiling of the two-generation baseline.
    pub g1_limit: u32,
}

impl Config {
    /// Paper-scale comparison at `gens` generations.
    pub fn paper(gens: usize) -> Self {
        Config {
            mixes: vec![0.05, 0.20, 0.40],
            runtime_secs: 500,
            gens,
            first_cap: 24,
            last_limit: 256,
            g0_max: 24,
            g1_limit: 256,
        }
    }

    /// Reduced comparison for tests and `--quick`.
    pub fn quick(gens: usize) -> Self {
        Config {
            mixes: vec![0.05],
            runtime_secs: 40,
            gens,
            first_cap: 12,
            last_limit: 64,
            g0_max: 16,
            g1_limit: 64,
        }
    }

    /// The lattice side's per-prefix-axis ceilings: `first_cap` halved per
    /// axis, floored just above the gap threshold so every axis has at
    /// least two candidate sizes.
    pub fn prefix_caps(&self, gap_blocks: u32) -> Vec<u32> {
        (0..self.gens.saturating_sub(1))
            .map(|i| (self.first_cap >> i).max(gap_blocks + 2))
            .collect()
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
                mode: SearchMode::Lattice {
                    limits: LatticeLimits::uniform(2, cfg.g0_max, cfg.g1_limit),
                },
            },
        ));
        let mode = if cfg.gens == 1 {
            SearchMode::Firewall {
                limit: cfg.last_limit,
            }
        } else {
            SearchMode::Lattice {
                limits: LatticeLimits {
                    prefix_max: cfg.prefix_caps(base.el.log.gap_blocks),
                    last_limit: cfg.last_limit,
                },
            }
        };
        let lattice_job = Job::MinSpace { base, mode };
        out.push(Scenario::new(
            format!("fig_ngen mix={mix} {}gen", cfg.gens),
            format!("{mix}"),
            i as u64,
            lattice_job,
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
            first_cap: 10,
            last_limit: 48,
            g0_max: 12,
            g1_limit: 48,
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
        // One generation needs FW-sized room: 48 blocks cannot hold even
        // 20 s of this mix, and a clamped ceiling is a failure, not a row.
        let cfg = Config {
            last_limit: 256,
            ..tiny(1)
        };
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
        assert_eq!(minn.generation_blocks.len(), 1);
        assert!(minn.total_blocks < cfg.last_limit);
    }

    #[test]
    fn prefix_caps_halve_and_floor() {
        let cfg = tiny(4);
        assert_eq!(cfg.prefix_caps(2), vec![10, 5, 4]);
        assert_eq!(tiny(1).prefix_caps(2), Vec::<u32>::new());
    }
}
