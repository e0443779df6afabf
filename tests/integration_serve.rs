//! Serve-mode pins: the 1-tenant degeneracy (`serve_run` ≡ `run`) and the
//! tenant-isolation property (a tenant's committed record set is identical
//! alone or alongside T−1 others).

use elog_core::{AdaptiveController, Effects, ElConfig, ElManager, LmTimer, LogManager};
use elog_harness::runner::{build_model_with, run, RunConfig};
use elog_harness::serve::{serve_run, ServeConfig, TENANT_TID_SHIFT};
use elog_model::{FlushConfig, LogConfig, Oid, StableDb, Tid};
use elog_sim::{FxHashMap, SimTime};
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
/// not a hand-picked subset.
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

/// A committed record: `(local tid, seq, local oid)` — local on purpose,
/// so a tenant's record set is directly comparable between a solo run and
/// a multi-tenant run.
type CommittedRecord = (u64, u32, u64);

/// An [`ElManager`] that writes down what it is asked to log: every data
/// record by shared-space tid until its transaction's ack, then the
/// record, translated to tenant-local spaces, into its tenant's
/// committed set.
struct Recorder {
    inner: ElManager,
    /// Oid range base per tenant (local oid + base = shared-space oid).
    oid_base: Vec<u64>,
    pending: FxHashMap<Tid, Vec<(u32, Oid)>>,
    committed: Vec<Vec<CommittedRecord>>,
}

impl Recorder {
    fn new(cfg: &RunConfig) -> Self {
        let ranges = cfg.tenants.as_ref().expect("a serve layout").ranges();
        Recorder {
            inner: ElManager::new(cfg.el.clone()).expect("valid configuration"),
            oid_base: ranges.iter().map(|r| r.0).collect(),
            pending: FxHashMap::default(),
            committed: vec![Vec::new(); ranges.len()],
        }
    }

    fn observe(&mut self, fx: Effects) -> Effects {
        for tid in &fx.acks {
            let tenant = (tid.0 >> TENANT_TID_SHIFT) as usize;
            let local = tid.0 & ((1 << TENANT_TID_SHIFT) - 1);
            let base = self.oid_base[tenant];
            let records = self.pending.remove(tid).unwrap_or_default();
            self.committed[tenant].extend(
                records
                    .into_iter()
                    .map(|(seq, oid)| (local, seq, oid.0 - base)),
            );
        }
        fx
    }
}

impl LogManager for Recorder {
    fn begin(&mut self, now: SimTime, tid: Tid) -> Effects {
        let fx = self.inner.begin(now, tid);
        self.observe(fx)
    }

    fn write_data(&mut self, now: SimTime, tid: Tid, oid: Oid, seq: u32, size: u32) -> Effects {
        self.pending.entry(tid).or_default().push((seq, oid));
        let fx = self.inner.write_data(now, tid, oid, seq, size);
        self.observe(fx)
    }

    fn commit_request(&mut self, now: SimTime, tid: Tid) -> Effects {
        let fx = self.inner.commit_request(now, tid);
        self.observe(fx)
    }

    fn abort(&mut self, now: SimTime, tid: Tid) -> Effects {
        let fx = self.inner.abort(now, tid);
        self.observe(fx)
    }

    fn handle_timer(&mut self, now: SimTime, timer: LmTimer) -> Effects {
        let fx = self.inner.handle_timer(now, timer);
        self.observe(fx)
    }

    fn quiesce(&mut self, now: SimTime) -> Effects {
        let fx = self.inner.quiesce(now);
        self.observe(fx)
    }

    fn adaptive_window(&mut self, now: SimTime, ctl: &mut AdaptiveController) {
        LogManager::adaptive_window(&mut self.inner, now, ctl);
    }

    fn recycle(&mut self, fx: Effects) {
        LogManager::recycle(&mut self.inner, fx);
    }

    fn peak_memory_bytes(&self) -> u64 {
        self.inner.peak_memory_bytes()
    }

    fn log_writes(&self) -> u64 {
        LogManager::log_writes(&self.inner)
    }

    fn log_write_rate(&self, now: SimTime) -> f64 {
        LogManager::log_write_rate(&self.inner, now)
    }

    fn stable_db(&self) -> &StableDb {
        self.inner.stable_db()
    }
}

/// Runs `cfg` through the one run loop past its arrival horizon, until
/// `drain`, and returns each tenant's committed record set. Panics unless
/// the run was kill- and refusal-free.
fn recorded_commits(cfg: &ServeConfig, drain: SimTime) -> Vec<Vec<CommittedRecord>> {
    let mut engine = build_model_with(&cfg.base, Recorder::new(&cfg.base));
    engine.run_until(drain);
    let model = engine.model();
    assert_eq!(model.kills(), 0, "property needs kill-free runs");
    // The drivers count refused arrivals as kills; none may be refused.
    let refused: u64 = model.driver.all().iter().map(|d| d.stats().killed).sum();
    assert_eq!(refused, 0);
    std::mem::take(&mut engine.model_mut().lm.committed)
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

    let group_cfg = ServeConfig::new(base(horizon, rate_tps), tenants);
    let group_sets = recorded_commits(&group_cfg, drain);

    for (t, group_set) in group_sets.iter().enumerate() {
        // Replay tenant t solo: hand its stream seed and its oid slice
        // length to a 1-tenant instance (tenant 0 keeps the seed raw, and
        // the driver draws oids from [0, len) in both runs).
        let mut solo_base = base(horizon, rate_tps);
        solo_base.seed = group_cfg.tenant_seed(t);
        solo_base.el.db.num_objects = group_cfg.base.tenants.as_ref().unwrap().ranges()[t].1;
        let solo_sets = recorded_commits(&ServeConfig::new(solo_base, 1), drain);

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
