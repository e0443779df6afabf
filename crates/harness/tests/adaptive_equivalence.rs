//! Adaptive-equivalence suite: the online generation controller
//! (`elog_core::adaptive`, DESIGN.md §5j) must be invisible on workloads
//! that do not drift, and replayable on workloads that do.
//!
//! * On a *static* workload the controller observes, decides nothing,
//!   and re-shapes nothing — so every report rendered from scenarios
//!   with `adaptive = true` must be byte-identical to the controller-off
//!   run, at every worker count. These tests are the API-level
//!   counterpart of ci.sh's adaptive smoke (which diffs `elsim` stdout).
//! * On a *drifting* workload the controller's decisions are fully
//!   captured by its reshape/hint timeline: re-simulating the same run
//!   with a scripted controller that replays the timeline — no signals,
//!   no policy — must commit the same record set and end on the same
//!   geometry. That replayability is the safety argument for re-shaping
//!   live (DESIGN.md §5j): a controller run is one static-geometry run
//!   per timeline segment, glued at recorded boundaries.

use elog_core::adaptive::AdaptiveController;
use elog_core::ElConfig;
use elog_harness::experiments::registry_with;
use elog_harness::runner::{build_model, RunConfig};
use elog_harness::sweep::{run_scenarios, ExecOptions, Job};
use elog_model::{CommittedOracle, FlushConfig, LogConfig};
use elog_sim::cases;
use elog_workload::PhaseSchedule;

/// Renders the measured-run slice of the quick registry the way `repro`
/// prints it — every table, then every note, in registry order — with
/// `adaptive` set on every scenario's run configuration.
fn render(jobs: usize, adaptive: bool) -> String {
    let experiments: Vec<_> = registry_with(2)
        .into_iter()
        .filter(|e| {
            let n = e.name().to_lowercase();
            n.contains("scarce") || n.contains("fig7")
        })
        .collect();
    assert_eq!(experiments.len(), 2, "registry lost a target experiment");
    let exec = ExecOptions {
        jobs,
        progress: false,
        ..Default::default()
    };
    let mut out = String::new();
    for e in &experiments {
        let mut scenarios = e.scenarios(true);
        for s in &mut scenarios {
            let cfg = match &mut s.job {
                Job::Measure(cfg) | Job::CrashRecover(cfg) => cfg,
                Job::MinSpace { base, .. } | Job::ElRecircMin { base, .. } => base,
                Job::Serve(serve) => &mut serve.base,
            };
            cfg.adaptive = adaptive;
        }
        let outcomes = run_scenarios(&scenarios, &exec);
        for (slug, table) in e.tables(&outcomes) {
            out.push_str(&slug);
            out.push('\n');
            out.push_str(&table.render());
            out.push('\n');
        }
        for note in e.notes(&outcomes) {
            out.push_str(&note);
            out.push('\n');
        }
    }
    out
}

/// A static-workload sweep with the controller on renders the same
/// reports as the controller-off run, at jobs {1, 2, 4}.
#[test]
fn static_reports_are_controller_and_jobs_invariant() {
    let baseline = render(1, false);
    assert!(!baseline.is_empty(), "experiments produced no report");
    for jobs in [1usize, 2, 4] {
        assert_eq!(
            baseline,
            render(jobs, true),
            "controller changed a static-workload report at jobs={jobs}"
        );
    }
}

/// The non-vacuity half: a plain static run with the controller on makes
/// zero reshapes (while demonstrably observing windows) and reproduces
/// the controller-off run's results exactly.
#[test]
fn static_run_is_observed_but_never_reshaped() {
    let cfg = static_cfg(0.05, vec![18, 16], 40);
    let off = digest(&cfg.clone().adaptive(false));
    let on_cfg = cfg.adaptive(true);
    let mut engine = build_model(&on_cfg);
    engine.run_until(on_cfg.runtime);
    let st = engine
        .model()
        .adaptive
        .as_ref()
        .expect("controller ran")
        .stats()
        .clone();
    assert!(
        st.window_decisions > 0,
        "controller never observed a window"
    );
    assert_eq!(st.reshapes, 0, "static workload must not be re-shaped");
    assert_eq!(st.hint_toggles, 0);
    assert_eq!(
        digest_model(&engine),
        off,
        "controller perturbed a static run"
    );
}

fn static_cfg(frac_long: f64, blocks: Vec<u32>, secs: u64) -> RunConfig {
    RunConfig::paper(
        frac_long,
        ElConfig::ephemeral(LogConfig::default(), FlushConfig::default()),
    )
    .runtime_secs(secs)
    .geometry(blocks)
    .track_oracle(true)
}

/// The committed record set, canonically ordered: one line per object
/// holding its final committed version.
fn record_set(oracle: &CommittedOracle) -> Vec<String> {
    let mut v: Vec<String> = oracle
        .iter()
        .map(|(oid, ver)| format!("{oid:?}={ver:?}"))
        .collect();
    v.sort_unstable();
    v
}

/// Everything the scripted replay must reproduce: workload verdicts,
/// the committed record set, and the final geometry.
fn digest_model(engine: &elog_sim::Engine<elog_harness::runner::SimModel>) -> String {
    let model = engine.model();
    let stats = model.driver.stats();
    format!(
        "committed={} killed={} geometry={:?} records={:?}",
        stats.committed,
        stats.killed,
        model.lm.metrics(elog_sim::SimTime::ZERO).per_gen_blocks,
        record_set(&model.oracle),
    )
}

fn digest(cfg: &RunConfig) -> String {
    let mut engine = build_model(cfg);
    engine.run_until(cfg.runtime);
    digest_model(&engine)
}

/// Property: for random geometries and drifting mixes, the live
/// controller's chosen geometry timeline, re-simulated statically by a
/// scripted controller (replaying the recorded reshape/hint timeline
/// with no signals and no policy), commits the same record set, the
/// same verdict counts, and the same final geometry.
#[test]
fn scripted_replay_of_controller_decisions_commits_the_same_record_set() {
    let mut reshaped_cases = 0u32;
    let ran = cases::run("scripted_replay_of_controller_decisions", 4, |rng| {
        let g0 = rng.range(10..20) as u32;
        let g1 = rng.range(16..32) as u32;
        let light = [0.05, 0.1][rng.next_u64_below(2) as usize];
        let heavy = [0.3, 0.4][rng.next_u64_below(2) as usize];
        let secs = 40 + 10 * rng.next_u64_below(3);
        let shift = PhaseSchedule::paper(&[(0, light), (secs / 2, heavy)]);
        let cfg = static_cfg(light, vec![g0, g1], secs)
            .with_phases(Some(shift))
            .adaptive(true);

        let mut live = build_model(&cfg);
        live.run_until(cfg.runtime);
        let st = live
            .model()
            .adaptive
            .as_ref()
            .expect("controller ran")
            .stats()
            .clone();
        let want = digest_model(&live);
        if st.reshapes > 0 {
            reshaped_cases += 1;
        }

        let mut replay = build_model(&cfg);
        replay.model_mut().adaptive = Some(AdaptiveController::scripted(
            st.reshape_log.clone(),
            st.hint_log.clone(),
            cfg.lifetime_hints,
        ));
        replay.run_until(cfg.runtime);
        assert_eq!(
            want,
            digest_model(&replay),
            "geometry [{g0}, {g1}] {light}->{heavy} over {secs}s \
             diverged under scripted replay ({} reshapes)",
            st.reshapes,
        );
    });
    assert!(
        ran < 4 || reshaped_cases > 0,
        "vacuous property: no random case ever re-shaped"
    );
}
