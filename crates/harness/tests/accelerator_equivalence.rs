//! Accelerator-equivalence suite: the probe accelerator behind the
//! unified search API — the per-column consumption certificate — must be
//! a pure accelerator. Every search run with it enabled must choose the
//! same geometry, consume the same number of verdicts in the same order,
//! and report the same derived statistics as the simulate-everything path
//! (`.analytic(false)`, `--no-analytic`); only the simulated event volume
//! may shrink. (`search_oracle.rs` holds both paths to ground truth.)

use elog_harness::experiments::registry;
use elog_harness::minspace::paper_base;
use elog_harness::sweep::{run_scenarios, ExecOptions};
use elog_harness::{LatticeLimits, MinSpaceResult, SearchRequest};

fn assert_equivalent(on: &MinSpaceResult, off: &MinSpaceResult) {
    assert_eq!(
        on.generation_blocks, off.generation_blocks,
        "the certificate changed the selected geometry"
    );
    assert_eq!(on.total_blocks, off.total_blocks);
    assert_eq!(
        on.probes, off.probes,
        "the certificate changed how many verdicts the search consumed"
    );
    assert_eq!(on.search.sim_probes, off.search.sim_probes);
    assert_eq!(on.search.replay_probes, off.search.replay_probes);
    assert_eq!(off.search.cert_verdicts, 0);
    assert!(
        on.search.probe_events <= off.search.probe_events,
        "the certificate must not add events: {} vs {}",
        on.search.probe_events,
        off.search.probe_events
    );
}

#[test]
fn fixed_prefix_search_certifies_and_matches_probe_only_path() {
    // Figure-7-style protocol: a fixed prefix, bisect the last axis. The
    // first surviving replay's consumption certificate answers the rest
    // of the bisection probe-free, without changing the outcome.
    let base = paper_base(0.05, false, 30);
    let on = SearchRequest::fixed_prefix(&base, vec![14], 96).run();
    let off = SearchRequest::fixed_prefix(&base, vec![14], 96)
        .analytic(false)
        .run();
    assert!(on.feasible && off.feasible);
    assert_equivalent(&on.min, &off.min);
    assert!(
        on.min.search.cert_verdicts > 0,
        "bisection under one prefix must use the certificate"
    );
}

#[test]
fn recirculation_disables_the_certificate_and_falls_back_to_full_replay() {
    // Recirculation breaks the certificate's deterministic consumption
    // law, so the same search shape must simulate every probe — changing
    // nothing at all, the event count included.
    let base = paper_base(0.05, true, 30);
    let on = SearchRequest::fixed_prefix(&base, vec![14], 96).run();
    let off = SearchRequest::fixed_prefix(&base, vec![14], 96)
        .analytic(false)
        .run();
    assert!(on.feasible && off.feasible);
    assert_equivalent(&on.min, &off.min);
    assert_eq!(on.min.search, off.min.search);
}

#[test]
fn lattice_search_is_equivalent_and_jobs_invariant() {
    // The full lattice walk, certificates on vs off and serial vs
    // parallel: one verdict sequence, four ways of computing it.
    let base = paper_base(0.2, false, 20);
    let limits = LatticeLimits {
        prefix_max: vec![10, 8],
        last_limit: 64,
    };
    let on = SearchRequest::lattice(&base, limits.clone()).run();
    let off = SearchRequest::lattice(&base, limits.clone())
        .analytic(false)
        .run();
    assert_equivalent(&on.min, &off.min);
    assert!(
        on.min.search.cert_verdicts > 0,
        "vacuous equivalence: no certificate ever answered"
    );

    let par_on = SearchRequest::lattice(&base, limits.clone()).jobs(4).run();
    assert_eq!(on.min.generation_blocks, par_on.min.generation_blocks);
    assert_eq!(on.min.probes, par_on.min.probes);
    assert_eq!(on.min.search, par_on.min.search);
}

#[test]
fn registry_reports_are_identical_without_the_accelerators() {
    // The registry-level claim `repro --no-analytic` exists to prove:
    // `ExecOptions::analytic` reaches every search a scenario launches,
    // the rendered tables and notes do not move, and only the simulated
    // probe volume grows.
    let render = |analytic| {
        let exec = ExecOptions {
            jobs: 1,
            progress: false,
            analytic,
        };
        let mut out = String::new();
        let mut probe_events = 0;
        for e in registry() {
            let n = e.name();
            if !(n.contains("scarce") || n.contains("fig_ngen")) {
                continue;
            }
            let outcomes = run_scenarios(&e.scenarios(true), &exec);
            for (slug, table) in e.tables(&outcomes) {
                out += &format!("{slug}\n{}\n", table.render());
            }
            for note in e.notes(&outcomes) {
                out += &format!("{note}\n");
            }
            probe_events += outcomes
                .iter()
                .filter_map(|o| o.output.perf())
                .map(|p| p.search.probe_events)
                .sum::<u64>();
        }
        (out, probe_events)
    };
    let (on, on_events) = render(true);
    let (off, off_events) = render(false);
    assert!(on.contains("fig_ngen") && on.contains("scarce"), "{on}");
    assert_eq!(on, off, "--no-analytic changed a report");
    assert!(
        off_events > on_events,
        "certificates saved nothing: {off_events} vs {on_events}"
    );
}
