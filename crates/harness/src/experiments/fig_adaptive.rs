//! `fig_adaptive` — the online generation controller against per-phase
//! static optima.
//!
//! Every search in this harness prices the best *static* geometry for one
//! workload. This experiment prices the controller (`elog_core::adaptive`)
//! against that yardstick on workloads that drift:
//!
//! * **Drifting mix** — the long-transaction fraction walks
//!   `light → heavy → light` in thirds of the horizon
//!   ([`elog_workload::TxMix::phased`]). One adaptive run tracks it live;
//!   two fixed-prefix [`Job::MinSpace`] searches find each phase's static
//!   optimum (same front-generation prefix, so only the last axis is in
//!   question). The tracking table reads the controller's capacity at
//!   each phase end off its reshape timeline and compares against the
//!   optimum of that phase's mix — the acceptance bar is over-provision
//!   within 15 %.
//! * **Mid-run shift family** — the mix jumps `light → heavy` at half the
//!   horizon. The same workload runs with the controller on and off
//!   (shared seed index); the frozen run documents the kill cost of
//!   provisioning for the light phase, the adaptive run documents how
//!   much of it re-shaping sheds.
//!
//! The controller starts from the geometry an operator would pick for the
//! light phase (`start_last`); everything it does afterwards is its own
//! decision, reported through [`elog_core::AdaptiveStats`].

use crate::latsearch::SearchMode;
use crate::report::{f, Table};
use crate::runner::RunConfig;
use crate::sweep::{failure_notes, Experiment, Job, RunOutcome, Scenario};
use elog_core::ElConfig;
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;
use elog_workload::TxMix;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Long-transaction fraction of the light phases.
    pub light: f64,
    /// Long-transaction fraction of the heavy phase.
    pub heavy: f64,
    /// Simulated seconds per run (phases sit at thirds of this).
    pub runtime_secs: u64,
    /// Fixed sizes of generations `0..N-1`, shared by every run and both
    /// static searches.
    pub prefix: Vec<u32>,
    /// Last-generation size the adaptive runs start from (the operator's
    /// light-phase provisioning).
    pub start_last: u32,
}

impl Config {
    /// Paper-scale drift: 0.1 → 0.4 → 0.1 over 500 s.
    pub fn paper() -> Self {
        Config {
            light: 0.1,
            heavy: 0.4,
            runtime_secs: 500,
            prefix: vec![18],
            start_last: 24,
        }
    }

    /// Reduced drift for tests and `--quick`. 40 s per phase is the
    /// shortest horizon that gives the controller's 5 s windows room to
    /// both grow into the heavy phase and settle back down after it.
    pub fn quick() -> Self {
        Config {
            light: 0.1,
            heavy: 0.4,
            runtime_secs: 120,
            prefix: vec![18],
            start_last: 24,
        }
    }

    /// Phase-boundary times of the drift scenario: thirds of the horizon.
    pub fn drift_boundaries(&self) -> [u64; 2] {
        [self.runtime_secs / 3, 2 * self.runtime_secs / 3]
    }
}

fn base_cfg(cfg: &Config, frac_long: f64) -> RunConfig {
    RunConfig::paper(
        frac_long,
        ElConfig::ephemeral(LogConfig::default(), FlushConfig::default()),
    )
    .runtime_secs(cfg.runtime_secs)
}

fn start_geometry(cfg: &Config) -> Vec<u32> {
    let mut g = cfg.prefix.clone();
    g.push(cfg.start_last);
    g
}

/// Five scenarios: the drifting adaptive run, the two per-phase static
/// optima (sharing its seed index), and the mid-run shift pair (a second
/// shared index, so on/off face the same workload).
pub fn scenarios_for(cfg: &Config) -> Vec<Scenario> {
    let [t1, t2] = cfg.drift_boundaries();
    let drift = TxMix::phased(&[(0, cfg.light), (t1, cfg.heavy), (t2, cfg.light)]);
    let mut out = vec![Scenario::new(
        format!(
            "fig_adaptive drift {}->{}->{} adaptive",
            cfg.light, cfg.heavy, cfg.light
        ),
        "drift".to_string(),
        0,
        Job::Measure(
            base_cfg(cfg, cfg.light)
                .geometry(start_geometry(cfg))
                .with_mix(drift)
                .adaptive(true),
        ),
    )];
    for &mix in &[cfg.light, cfg.heavy] {
        out.push(Scenario::new(
            format!("fig_adaptive static optimum mix={mix}"),
            format!("{mix}"),
            0,
            Job::MinSpace {
                base: base_cfg(cfg, mix),
                mode: SearchMode::FixedPrefix {
                    prefix: cfg.prefix.clone(),
                },
            },
        ));
    }
    let shift = TxMix::phased(&[(0, cfg.light), (cfg.runtime_secs / 2, cfg.heavy)]);
    for (label, on) in [("adaptive", true), ("frozen", false)] {
        out.push(Scenario::new(
            format!("fig_adaptive shift {}->{} {label}", cfg.light, cfg.heavy),
            format!("shift-{label}"),
            1,
            Job::Measure(
                base_cfg(cfg, cfg.light)
                    .geometry(start_geometry(cfg))
                    .with_mix(shift.clone())
                    .adaptive(on),
            ),
        ));
    }
    out
}

/// Last-generation capacity in effect at virtual time `t`, read off the
/// controller's reshape timeline (`start` before the first reshape).
pub fn capacity_at(start: u32, reshape_log: &[(SimTime, u32)], t: SimTime) -> u32 {
    reshape_log
        .iter()
        .take_while(|(at, _)| *at <= t)
        .last()
        .map_or(start, |&(_, blocks)| blocks)
}

/// One drift phase's tracking comparison.
#[derive(Clone, Debug)]
pub struct PhasePoint {
    /// Phase number (1-based) and its long-transaction fraction.
    pub phase: usize,
    /// The phase's mix.
    pub mix: f64,
    /// Static-optimum total blocks for this mix.
    pub static_blocks: u64,
    /// Controller total blocks at the phase's end.
    pub controller_blocks: u64,
}

impl PhasePoint {
    /// Signed relative deviation from the static optimum
    /// (+0.10 = 10 % over-provisioned, −0.10 = 10 % under).
    pub fn deviation(&self) -> f64 {
        self.controller_blocks as f64 / self.static_blocks as f64 - 1.0
    }
}

/// Extracts the per-phase tracking points from the outcomes (drift run
/// first, then the light and heavy static optima, as enumerated by
/// [`scenarios_for`]). Empty when any needed outcome failed.
pub fn tracking_points(cfg: &Config, outcomes: &[RunOutcome]) -> Vec<PhasePoint> {
    let (Some(drift), Some((min_light, _)), Some((min_heavy, _))) = (
        outcomes[0].measured(),
        outcomes[1].min_space(),
        outcomes[2].min_space(),
    ) else {
        return Vec::new();
    };
    let Some(ad) = &drift.adaptive else {
        return Vec::new();
    };
    let prefix_sum: u32 = cfg.prefix.iter().sum();
    let [t1, t2] = cfg.drift_boundaries();
    let ends = [t1, t2, cfg.runtime_secs];
    let mixes = [cfg.light, cfg.heavy, cfg.light];
    let statics = [
        min_light.total_blocks,
        min_heavy.total_blocks,
        min_light.total_blocks,
    ];
    (0..3)
        .map(|i| {
            let cap = capacity_at(cfg.start_last, &ad.reshape_log, SimTime::from_secs(ends[i]));
            PhasePoint {
                phase: i + 1,
                mix: mixes[i],
                static_blocks: statics[i] as u64,
                controller_blocks: (prefix_sum + cap) as u64,
            }
        })
        .collect()
}

/// The drift tracking table.
pub fn tracking_table(pts: &[PhasePoint]) -> Table {
    let mut t = Table::new(
        "fig_adaptive — controller capacity at phase end vs per-phase static optimum",
        &[
            "phase",
            "mix",
            "static blocks",
            "controller blocks",
            "deviation %",
        ],
    );
    for p in pts {
        t.row(vec![
            p.phase.to_string(),
            format!("{}", p.mix),
            p.static_blocks.to_string(),
            p.controller_blocks.to_string(),
            f(p.deviation() * 100.0, 1),
        ]);
    }
    t
}

/// The mid-run shift table (adaptive vs frozen on one workload).
pub fn shift_table(outcomes: &[RunOutcome]) -> Table {
    let mut t = Table::new(
        "fig_adaptive — mid-run workload shift, controller on vs off",
        &[
            "variant",
            "reshapes",
            "kills",
            "committed",
            "final geometry",
        ],
    );
    for o in &outcomes[3..5] {
        let Some(r) = o.measured() else { continue };
        let (reshapes, final_geo) = match &r.adaptive {
            Some(ad) => (
                ad.reshapes.to_string(),
                format!("{:?}", r.metrics.per_gen_blocks),
            ),
            None => ("-".to_string(), format!("{:?}", r.metrics.per_gen_blocks)),
        };
        t.row(vec![
            o.variant.clone(),
            reshapes,
            r.killed.to_string(),
            r.committed.to_string(),
            final_geo,
        ]);
    }
    t
}

/// The configuration the outcomes ran under, read off the drift run's
/// horizon: 500 s is [`Config::paper`], anything shorter [`Config::quick`].
fn config_of(outcomes: &[RunOutcome]) -> Config {
    if outcomes
        .first()
        .and_then(|o| o.measured())
        .is_some_and(|r| r.horizon >= SimTime::from_secs(500))
    {
        Config::paper()
    } else {
        Config::quick()
    }
}

/// The `fig_adaptive` experiment.
pub struct FigAdaptive;

impl Experiment for FigAdaptive {
    fn name(&self) -> &'static str {
        "fig_adaptive online controller vs per-phase static optima"
    }

    fn scenarios(&self, quick: bool) -> Vec<Scenario> {
        scenarios_for(&if quick {
            Config::quick()
        } else {
            Config::paper()
        })
    }

    fn tables(&self, outcomes: &[RunOutcome]) -> Vec<(String, Table)> {
        let cfg = config_of(outcomes);
        vec![
            (
                "fig_adaptive_tracking".to_string(),
                tracking_table(&tracking_points(&cfg, outcomes)),
            ),
            ("fig_adaptive_shift".to_string(), shift_table(outcomes)),
        ]
    }

    fn notes(&self, outcomes: &[RunOutcome]) -> Vec<String> {
        let mut notes = failure_notes(outcomes);
        let pts = tracking_points(&config_of(outcomes), outcomes);
        if let Some(worst) = pts
            .iter()
            .map(|p| p.deviation().abs())
            .fold(None::<f64>, |m, d| Some(m.map_or(d, |m| m.max(d))))
        {
            notes.push(format!(
                "drift tracking: worst per-phase deviation {:.1}% from the static optimum \
                 (acceptance bar 15%)",
                worst * 100.0
            ));
        }
        if let Some(ad) = outcomes[0].measured() {
            if let Some(st) = &ad.adaptive {
                notes.push(format!(
                    "drift run: {} window decisions, {} reshapes ({} grows, {} shrinks), \
                     {} kills",
                    st.window_decisions, st.reshapes, st.grows, st.shrinks, ad.killed,
                ));
            }
        }
        if let (Some(on), Some(off)) = (outcomes[3].measured(), outcomes[4].measured()) {
            notes.push(format!(
                "mid-run shift: controller sheds {} of {} kills ({} with re-shaping)",
                off.killed.saturating_sub(on.killed),
                off.killed,
                on.killed,
            ));
        }
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_scenarios, ExecOptions};

    fn tiny() -> Config {
        Config::quick()
    }

    #[test]
    fn capacity_at_walks_the_timeline() {
        let log = vec![
            (SimTime::from_secs(5), 20u32),
            (SimTime::from_secs(25), 40),
            (SimTime::from_secs(45), 24),
        ];
        assert_eq!(capacity_at(16, &log, SimTime::from_secs(1)), 16);
        assert_eq!(capacity_at(16, &log, SimTime::from_secs(5)), 20);
        assert_eq!(capacity_at(16, &log, SimTime::from_secs(30)), 40);
        assert_eq!(capacity_at(16, &log, SimTime::from_secs(60)), 24);
        assert_eq!(capacity_at(16, &[], SimTime::from_secs(60)), 16);
    }

    /// The quick config at four base seeds: one seed hides the spread
    /// the bar has to hold across.
    #[test]
    fn controller_tracks_the_drifting_mix_within_the_bar() {
        let cfg = tiny();
        for seed in [0x5EED_1993, 2, 3, 4] {
            let mut scenarios = scenarios_for(&cfg);
            for s in &mut scenarios {
                match &mut s.job {
                    Job::Measure(run) | Job::MinSpace { base: run, .. } => run.seed = seed,
                    other => unreachable!("fig_adaptive runs no {other:?}"),
                }
            }
            let outcomes = run_scenarios(
                &scenarios,
                &ExecOptions {
                    jobs: 4,
                    progress: false,
                    ..Default::default()
                },
            );
            let pts = tracking_points(&cfg, &outcomes);
            assert_eq!(
                pts.len(),
                3,
                "seed {seed:#x}: three drift phases: {:?}",
                failure_notes(&outcomes)
            );
            // The acceptance bar: every phase within 15% of its static optimum.
            for p in &pts {
                assert!(
                    p.deviation().abs() <= 0.15,
                    "seed {seed:#x}: phase {} (mix {}) off by {:.1}%: controller {} vs static {}",
                    p.phase,
                    p.mix,
                    p.deviation() * 100.0,
                    p.controller_blocks,
                    p.static_blocks,
                );
            }
            // The drift run actually adapted (grew for the heavy phase and
            // came back down for the final light phase).
            let ad = outcomes[0].measured().unwrap().adaptive.clone().unwrap();
            assert!(
                ad.grows >= 1,
                "seed {seed:#x}: heavy phase must trigger growth"
            );
            assert!(
                ad.shrinks >= 1,
                "seed {seed:#x}: final light phase must shrink back"
            );
            // The shift pair: re-shaping sheds kills relative to frozen.
            let on = outcomes[3].measured().unwrap();
            let off = outcomes[4].measured().unwrap();
            assert!(
                on.killed < off.killed,
                "seed {seed:#x}: adaptive {} kills vs frozen {}",
                on.killed,
                off.killed
            );
            assert_eq!(tracking_table(&pts).len(), 3);
            assert_eq!(shift_table(&outcomes).len(), 2);
        }
    }
}
