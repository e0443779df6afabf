//! Serve-mode pins: the 1-tenant degeneracy (elserve ≡ elsim) and the
//! tenant-isolation property (a tenant's committed record set is identical
//! alone or alongside T−1 others).

use elog_core::ElConfig;
use elog_harness::runner::{run, RunConfig};
use elog_harness::serve::{serve_run, serve_run_recorded, CommittedRecord, ServeConfig};
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;
use elog_workload::ArrivalProcess;

fn base(runtime_secs: u64, rate_tps: f64) -> RunConfig {
    let log = LogConfig {
        generation_blocks: vec![36, 32],
        ..LogConfig::default()
    };
    let mut cfg = RunConfig::paper(0.05, ElConfig::ephemeral(log, FlushConfig::default()));
    cfg.arrivals = ArrivalProcess::Deterministic { rate_tps };
    cfg.runtime = SimTime::from_secs(runtime_secs);
    cfg
}

/// One tenant is the classic run: the same model built by the same
/// function over the same configuration, so the whole metrics snapshot and
/// the engine's own event and queue counters must agree with `run()` —
/// not a hand-picked subset. (ci.sh diffs the two binaries' stdout on top
/// of this.)
#[test]
fn one_tenant_serve_matches_the_classic_run() {
    let cfg = base(20, 100.0);
    let classic = run(&cfg);
    let served = serve_run(&ServeConfig::new(cfg, 1));

    assert_eq!(served.per_tenant.len(), 1);
    assert_eq!(served.aggregate.started, classic.started);
    assert_eq!(served.aggregate.committed, classic.committed);
    assert_eq!(served.aggregate.killed, classic.killed);
    assert_eq!(served.aggregate.throttled, 0);
    assert_eq!(served.aggregate.data_records, classic.data_records);
    assert_eq!(served.p50_commit_latency_ms, classic.p50_commit_latency_ms);
    assert_eq!(
        format!("{:?}", served.metrics),
        format!("{:?}", classic.metrics)
    );
    assert_eq!(served.perf.events, classic.perf.events);
    assert_eq!(served.perf.queue, classic.perf.queue);
    assert_eq!(served.metrics.stats.unsafe_drops, 0);
    assert_eq!(served.metrics.stats.durability_violations, 0);
}

fn sorted(mut set: Vec<CommittedRecord>) -> Vec<CommittedRecord> {
    set.sort_unstable();
    set
}

/// The splitmix64 isolation property: each tenant's workload is a pure
/// function of `(base seed, tenant index)` over its own oid slice, so the
/// committed `(tid, seq, oid)` set (tenant-local spaces) is identical
/// whether the tenant runs alone or multiplexed with others — neighbours
/// shift *when* records commit, never *which*.
///
/// The comparison covers the run's prefix (transactions arriving in the
/// first 6 of 20 seconds). A commit acknowledgement requires the block
/// holding the COMMIT record to fill and flush, so the trailing window's
/// acks depend on how much record volume *follows* them — a property of
/// total load, not of the tenant's stream. Prefix transactions (even long
/// 10 s ones, which commit by 16 s) have seconds of full-rate arrivals
/// behind them in both runs, so their acks always land by the drain.
#[test]
fn tenant_commits_are_identical_alone_or_multiplexed() {
    let tenants = 3;
    let horizon = 20;
    let rate_tps = 25.0;
    let drain = SimTime::from_secs(horizon + 60);
    // Deterministic arrivals: tenant-local tid t arrives at t / rate.
    let cutoff_tid = (6.0 * rate_tps) as u64;
    let prefix = |set: &[CommittedRecord]| {
        sorted(set.iter().copied().filter(|r| r.0 < cutoff_tid).collect())
    };

    let group_cfg = ServeConfig::new(base(horizon, rate_tps), tenants).with_drain(drain);
    let (group, group_sets) = serve_run_recorded(&group_cfg, true);
    assert_eq!(group.aggregate.killed, 0, "property needs kill-free runs");
    assert_eq!(group.aggregate.throttled, 0);

    for (t, group_set) in group_sets.iter().enumerate() {
        // Replay tenant t solo: hand its stream seed and its oid slice
        // length to a 1-tenant instance (tenant 0 keeps the seed raw, and
        // the driver draws oids from [0, len) in both runs).
        let mut solo_base = base(horizon, rate_tps);
        solo_base.seed = group_cfg.tenant_seed(t);
        solo_base.el.db.num_objects = group_cfg.layout.ranges[t].1;
        let solo_cfg = ServeConfig::new(solo_base, 1).with_drain(drain);
        let (solo, solo_sets) = serve_run_recorded(&solo_cfg, true);
        assert_eq!(solo.aggregate.killed, 0, "property needs kill-free runs");

        let multiplexed = prefix(group_set);
        let alone = prefix(&solo_sets[0]);
        // Every prefix transaction must have committed: 2 records each for
        // the short-transaction majority.
        assert!(
            alone.len() as u64 >= 2 * cutoff_tid,
            "tenant {t} solo prefix too small: {} records",
            alone.len()
        );
        assert_eq!(
            multiplexed, alone,
            "tenant {t}'s committed set changed under multiplexing"
        );
    }

    // Distinct streams: no two tenants committed the same record set.
    assert_ne!(prefix(&group_sets[0]), prefix(&group_sets[1]));
    assert_ne!(prefix(&group_sets[1]), prefix(&group_sets[2]));
}
