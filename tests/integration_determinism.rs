//! Reproducibility: a seed fully determines a run, across techniques,
//! arrival processes and crash instants — and the rendered reports are
//! byte-identical across repeats and across process boundaries.

use elog_core::ElConfig;
use elog_harness::crashpoint::{crash, restart};
use elog_harness::experiments::registry;
use elog_harness::report::render_repro;
use elog_harness::runner::{build_model, run, RunConfig};
use elog_harness::sweep::{run_experiments, ExecOptions};
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;
use elog_workload::ArrivalProcess;

fn cfg(seed: u64, poisson: bool) -> RunConfig {
    let log = LogConfig {
        generation_blocks: vec![18, 16],
        recirculation: true,
        ..LogConfig::default()
    };
    let mut c = RunConfig::paper(0.2, ElConfig::ephemeral(log, FlushConfig::default()));
    c.runtime = SimTime::from_secs(20);
    c.seed = seed;
    if poisson {
        c.arrivals = ArrivalProcess::Poisson { rate_tps: 100.0 };
    }
    c
}

#[test]
fn identical_seeds_identical_runs() {
    for poisson in [false, true] {
        let a = run(&cfg(77, poisson));
        let b = run(&cfg(77, poisson));
        assert_eq!(a.started, b.started);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.killed, b.killed);
        assert_eq!(a.metrics.log_writes, b.metrics.log_writes);
        assert_eq!(a.metrics.flushes, b.metrics.flushes);
        assert_eq!(a.metrics.peak_memory_bytes, b.metrics.peak_memory_bytes);
        assert_eq!(
            a.metrics.stats.forwarded_records,
            b.metrics.stats.forwarded_records
        );
        assert_eq!(
            a.metrics.stats.recirculated_records,
            b.metrics.stats.recirculated_records
        );
    }
}

#[test]
fn identical_seeds_identical_crash_surfaces() {
    let snapshot = |seed: u64| {
        let mut c = cfg(seed, false);
        c.track_oracle = true;
        let at = SimTime::from_secs(9);
        let mut engine = build_model(&c);
        engine.run_until(at);
        let r = restart(&crash("9s", engine.model(), at));
        (
            r.scan.records,
            r.scan.blocks,
            r.state.versions.len(),
            r.state.committed_txns,
        )
    };
    assert_eq!(snapshot(123), snapshot(123));
    assert_ne!(snapshot(123), snapshot(321), "different seeds must diverge");
}

#[test]
fn quick_fig4_report_is_byte_stable_across_processes() {
    // The report is a pure function of the experiment configuration: two
    // in-process runs and a fresh-process run must agree byte for byte.
    // This pins down everything the hot path leans on — hasher seeding,
    // map iteration discipline, the pruned min-space search — since any
    // process-dependent state (e.g. RandomState-style per-process hash
    // seeds) would show up here first.
    let experiments: Vec<_> = registry()
        .into_iter()
        .filter(|e| e.name().to_lowercase().contains("fig4"))
        .collect();
    assert!(!experiments.is_empty());
    let exec = ExecOptions {
        jobs: 2,
        progress: false,
        ..Default::default()
    };
    // `render_repro` is what `repro --quick --only fig4` prints.
    let first = render_repro(&run_experiments(&experiments, true, &exec), true);
    let second = render_repro(&run_experiments(&experiments, true, &exec), true);
    assert_eq!(first, second, "same process, same bytes");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--only", "fig4", "--jobs", "2"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "repro failed: {out:?}");
    let fresh = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert_eq!(fresh, first, "fresh process, same bytes");
}

#[test]
fn seed_changes_only_stochastic_choices() {
    // Deterministic arrivals: the *count* of started transactions is fixed
    // by the clock regardless of seed; only type draws and oids move.
    let a = run(&cfg(1, false));
    let b = run(&cfg(2, false));
    assert_eq!(a.started, b.started);
}
