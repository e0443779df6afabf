//! Cross-crate integration: crash the *full* simulation (workload driver +
//! log manager + flush array) at many instants and restart it from the
//! bytes of its log surface, verifying single-pass recovery against the
//! oracle, for EL and FW, with and without recirculation.

use elog_core::ElConfig;
use elog_harness::crashpoint::{crash, restart};
use elog_harness::runner::{build_model, RunConfig};
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;

fn crash_and_verify(mut cfg: RunConfig, crash_secs: f64) {
    cfg.track_oracle = true;
    cfg.runtime = SimTime::from_secs_f64(crash_secs + 5.0);
    let at = SimTime::from_secs_f64(crash_secs);
    let mut engine = build_model(&cfg);
    engine.run_until(at);
    let model = engine.model();
    assert_eq!(
        model.lm.stats().durability_violations,
        0,
        "paper-scale geometry must never violate durability holds"
    );

    let snap = crash(format!("{crash_secs}s"), model, at);
    let r = restart(&snap);
    assert_eq!(r.scan.corrupt_blocks, 0, "a clean surface decodes whole");
    assert!(
        r.report.is_ok(),
        "crash at {crash_secs}s: missing {:?} stale {:?}",
        r.report.missing,
        r.report.stale
    );
    // The oracle's every object must be covered.
    assert!(r.report.exact + r.report.acceptable_newer >= snap.oracle.len() as u64);
}

fn el_cfg(recirc: bool) -> RunConfig {
    let log = LogConfig {
        generation_blocks: vec![18, 16],
        recirculation: recirc,
        ..LogConfig::default()
    };
    RunConfig::paper(0.05, ElConfig::ephemeral(log, FlushConfig::default()))
}

#[test]
fn el_crash_matrix() {
    for crash in [3.3, 7.7, 15.2] {
        crash_and_verify(el_cfg(false), crash);
        crash_and_verify(el_cfg(true), crash);
    }
}

#[test]
fn fw_crash_matrix() {
    for crash in [4.1, 12.9] {
        let cfg = RunConfig::paper(0.05, ElConfig::firewall(140, FlushConfig::default()));
        crash_and_verify(cfg, crash);
    }
}

#[test]
fn recovery_scales_with_log_size_not_history() {
    // Ten times more history does not grow the scan: the log is bounded by
    // its geometry. (This is the whole point of the paper.)
    let mut short = el_cfg(true);
    short.track_oracle = false;
    short.runtime = SimTime::from_secs(10);
    let mut long = short.clone();
    long.runtime = SimTime::from_secs(100);

    let mut records = Vec::new();
    for cfg in [short, long] {
        let mut engine = build_model(&cfg);
        engine.run_until(cfg.runtime);
        let snap = crash("horizon", engine.model(), cfg.runtime);
        records.push(restart(&snap).scan.records);
    }
    let ratio = records[1] as f64 / records[0].max(1) as f64;
    assert!(
        ratio < 1.6,
        "scan size must be bounded by geometry, not history: {} vs {}",
        records[0],
        records[1]
    );
}
