//! Crash a running system at an arbitrary instant and recover it.
//!
//! Runs the paper's 5 % workload against an EL manager, "pulls the plug"
//! mid-run (open and in-flight buffers are lost; only the durable surface
//! and the stable database survive), restarts from the bytes the crash left
//! on the log device with the single-pass recovery, and verifies the
//! reconstruction against the oracle of acknowledged commits.
//!
//! ```text
//! cargo run --release --example crash_recovery [crash_at_secs]
//! ```

use elog_core::ElConfig;
use elog_harness::cli;
use elog_harness::crashpoint::{crash, restart};
use elog_harness::runner::{build_model, RunConfig};
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;

const USAGE: &str = "crash_recovery [crash_at_secs]
  crash_at_secs           simulated seconds before the crash (default 42.5,
                          at most 3600)";

/// The latest crash instant accepted: an hour of the paper's workload,
/// which simulates in about a second.
const MAX_CRASH_AT_SECS: f64 = 3600.0;

/// The crash instant, in seconds. Anything outside `[0, 3600]` is refused:
/// a negative instant crashes before the first arrival, and an infinite
/// one saturates the clock so that arrivals never stop.
fn parse(args: Vec<String>) -> Result<f64, String> {
    let args: cli::Args = &mut args.into_iter();
    let at: f64 = cli::value_or("crash_at_secs", args, 42.5)?;
    if !(0.0..=MAX_CRASH_AT_SECS).contains(&at) {
        return Err(format!(
            "crash_at_secs {at}: must be a number of seconds in [0, {MAX_CRASH_AT_SECS}]"
        ));
    }
    cli::no_more(args)?;
    Ok(at)
}

fn main() {
    let crash_at = cli::parse_env(USAGE, parse);

    let log = LogConfig {
        generation_blocks: vec![18, 16],
        recirculation: true,
        ..LogConfig::default()
    };
    let mut cfg = RunConfig::paper(0.05, ElConfig::ephemeral(log, FlushConfig::default()));
    cfg.runtime = SimTime::from_secs_f64(crash_at + 10.0);
    cfg.track_oracle = true;

    println!("running 5% mix at 100 TPS; crashing at t = {crash_at} s ...");
    let at = SimTime::from_secs_f64(crash_at);
    let mut engine = build_model(&cfg);
    engine.run_until(at);
    let model = engine.model();

    let stats = model.driver.stats();
    println!(
        "at crash: {} txns started, {} acknowledged, {} in flight",
        stats.started,
        stats.committed,
        model.driver.active_txns()
    );

    // CRASH. Everything in RAM is gone; what survives is the image.
    let snap = crash("el", model, at);
    println!(
        "durable surface: {} log blocks across {} generations; stable DB {} objects",
        snap.encoded.len(),
        snap.per_gen_blocks.len(),
        snap.stable.len()
    );

    // Single-pass recovery from the bytes.
    let wall = std::time::Instant::now();
    let r = restart(&snap);
    let wall = wall.elapsed();

    println!(
        "scan: {} records ({} duplicates from forwarding/recirculation), {} committed txns",
        r.scan.records, r.scan.duplicates, r.state.committed_txns
    );
    println!(
        "redo: {} redone, {} stale skipped, {} uncommitted skipped -> {} objects total",
        r.state.redone,
        r.state.skipped_stale,
        r.state.skipped_uncommitted,
        r.state.versions.len()
    );
    println!(
        "recovery time: {} modelled on 1993 hardware, {wall:?} measured in memory",
        r.modelled
    );
    println!(
        "verification: {} exact, {} newer (commits durable but unacknowledged at crash), {} missing, {} stale",
        r.report.exact,
        r.report.acceptable_newer,
        r.report.missing.len(),
        r.report.stale.len()
    );
    assert!(r.report.is_ok(), "recovery lost acknowledged data!");
    println!("\nok: no acknowledged transaction was lost.");
}
