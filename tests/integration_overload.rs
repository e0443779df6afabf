//! The flush-limited overload regime (§4 starves flush bandwidth on
//! purpose): EL `[60,50]` without recirculation at 400 TPS, where the
//! flush array cannot keep up, committed-unflushed records reach the last
//! head, are expedited and dropped, and per-drive backlogs grow without
//! bound. Every number below was recorded on the commit *before* the
//! urgent bit moved into the pending entry and LOT/LTT entries went
//! inline; a host-side change to that path must leave all of them alone.

use elog_core::ElConfig;
use elog_harness::runner::{build_model, run, RunConfig};
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;
use elog_workload::ArrivalProcess;

const FLUSHES: u64 = 23_580;

fn overload_cfg() -> RunConfig {
    let log = LogConfig {
        generation_blocks: vec![60, 50],
        recirculation: false,
        ..LogConfig::default()
    };
    RunConfig::paper(0.05, ElConfig::ephemeral(log, FlushConfig::default()))
        .with_arrivals(ArrivalProcess::Deterministic { rate_tps: 400.0 })
        .runtime_secs(60)
        .seed(0x5EED_1993)
}

#[test]
fn overload_regime_is_pinned() {
    let r = run(&overload_cfg());
    let s = &r.metrics.stats;
    assert_eq!(
        (r.started, r.committed, r.killed),
        (24_000, 22_312, 1_246),
        "started / committed / killed"
    );
    assert_eq!(
        (s.forced_flushes, s.unsafe_drops),
        (41_572, 62_314),
        "forced flushes / unsafe drops"
    );
    assert_eq!(r.metrics.flushes, FLUSHES, "completed flushes");
    assert_eq!(
        r.metrics.flush_backlog, 21_000,
        "flush requests still pending"
    );
    let seek = r.metrics.mean_seek_distance.expect("flushes happened");
    assert!(
        (seek - 235_791.503_053_435).abs() < 1e-6,
        "mean seek distance {seek:.9} moved"
    );
}

#[test]
fn overload_keeps_table_and_drive_invariants() {
    let cfg = overload_cfg();
    let mut engine = build_model(&cfg);
    for secs in (10..=60).step_by(10) {
        engine.run_until(SimTime::from_secs(secs));
        engine.model().lm.check_invariants();
    }
    // Stopping to look must not change the run.
    assert_eq!(engine.model().lm.metrics(cfg.runtime).flushes, FLUSHES);
    // 1 246 kills and 22 312 acks each released their oids exactly once.
    let driver = &engine.model().driver;
    assert_eq!(driver.stats().killed, 1_246);
    assert_eq!(driver.picker().double_releases(), 0);
}
