//! Replay-equivalence suite: a captured workload trace replayed through
//! the probe engine must reproduce the live RNG-driven run *exactly* —
//! same metrics, same counts, same report lines — across seeds, mixes
//! and memory models. This is the contract the minimum-space searches
//! stand on (`elog_harness::minspace` replays one capture against every
//! candidate geometry instead of re-running the driver).

use elog_core::{ElConfig, MemoryModel};
use elog_harness::report::{f, Table};
use elog_harness::runner::{run, run_capture, RunConfig, RunResult};
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;

fn base_cfg(frac_long: f64, memory: MemoryModel, recirc: bool, secs: u64) -> RunConfig {
    let log = LogConfig {
        recirculation: recirc,
        ..LogConfig::default()
    };
    let mut el = ElConfig::ephemeral(log, FlushConfig::default());
    el.memory_model = memory;
    let mut cfg = RunConfig::paper(frac_long, el);
    cfg.runtime = SimTime::from_secs(secs);
    cfg
}

/// Everything observable about a run except host-side perf counters
/// (wall clock legitimately differs between live and replay).
fn observable(r: &RunResult) -> String {
    format!(
        "{:?} started={} committed={} killed={} latency={:?} ended={:?} \
         data={} horizon={:?}",
        r.metrics,
        r.started,
        r.committed,
        r.killed,
        r.p50_commit_latency_ms,
        r.ended_at,
        r.data_records,
        r.horizon
    )
}

/// The report-facing digest of a run, rendered through the same table
/// machinery the figures use.
fn report_lines(label: &str, r: &RunResult) -> String {
    let mut t = Table::new(
        label,
        &[
            "committed",
            "killed",
            "log writes/s",
            "peak mem",
            "latency ms",
        ],
    );
    t.row(vec![
        r.committed.to_string(),
        r.killed.to_string(),
        f(r.metrics.log_write_rate, 2),
        r.metrics.peak_memory_bytes.to_string(),
        r.p50_commit_latency_ms
            .map(|v| f(v, 3))
            .unwrap_or_else(|| "-".into()),
    ]);
    t.render()
}

/// Captures a live run, replays the trace under the same configuration,
/// and asserts the two runs are observably identical.
fn assert_replay_equivalent(mut cfg: RunConfig) {
    let (live, trace) = run_capture(&cfg);
    let trace = trace.expect("capture configuration must be kill-free");
    cfg.trace = Some(trace);
    let replayed = run(&cfg);
    assert_eq!(
        observable(&live),
        observable(&replayed),
        "replay diverged from live run"
    );
    assert_eq!(
        report_lines("digest", &live),
        report_lines("digest", &replayed),
        "report lines diverged"
    );
    assert!(live.committed > 0, "vacuous equivalence: nothing committed");
}

#[test]
fn replay_matches_live_across_seeds() {
    for seed in [0x5EED_1993, 1, 0xDEAD_BEEF] {
        let mut cfg = base_cfg(0.05, MemoryModel::Ephemeral, false, 20);
        cfg.seed = seed;
        assert_replay_equivalent(cfg);
    }
}

#[test]
fn replay_matches_live_across_mixes() {
    // Heavier mixes need room: the paper default geometry kills at 20-40%
    // long transactions, and a killed capture is truncated by design.
    for frac in [0.0, 0.2, 0.4] {
        let mut cfg = base_cfg(frac, MemoryModel::Ephemeral, false, 20);
        cfg.el.log.generation_blocks = vec![64, 64];
        assert_replay_equivalent(cfg);
    }
}

#[test]
fn replay_matches_live_under_firewall_model() {
    // FW probes share the same engine; the trace carries no geometry, so
    // the single-generation memory model replays just as exactly.
    let mut cfg = base_cfg(0.2, MemoryModel::Firewall, false, 20);
    cfg.el.log.generation_blocks = vec![512];
    assert_replay_equivalent(cfg);
}

#[test]
fn replay_matches_live_with_recirculation() {
    let mut cfg = base_cfg(0.2, MemoryModel::Ephemeral, true, 20);
    cfg.el.log.generation_blocks = vec![64, 64];
    assert_replay_equivalent(cfg);
}

#[test]
fn replay_matches_live_on_killing_geometry() {
    // The probe engine's core soundness case: the trace is captured on a
    // roomy kill-free geometry, then replayed against one that kills.
    // Until the first kill the workload is geometry-independent, and a
    // stop-on-kill probe ends there — so live and replay must agree on
    // the killing run too, not just on surviving ones.
    let mut roomy = base_cfg(0.4, MemoryModel::Ephemeral, false, 30);
    roomy.el.log.generation_blocks = vec![64, 64];
    let (_, trace) = run_capture(&roomy);
    let trace = trace.expect("roomy geometry is kill-free");

    let mut tight = roomy.clone();
    tight.el.log.generation_blocks = vec![3, 3];
    tight.stop_on_kill = true;
    tight.trace = None;
    let live = run(&tight);
    assert!(live.killed > 0, "3+3 blocks must kill at a 40% mix");

    tight.trace = Some(trace);
    let replayed = run(&tight);
    assert_eq!(
        observable(&live),
        observable(&replayed),
        "killing probe diverged between live and replay"
    );
    assert!(
        replayed.ended_at < roomy.runtime,
        "stop-on-kill must end the replayed probe early"
    );
}
