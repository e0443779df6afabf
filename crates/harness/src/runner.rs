//! The simulation run: T ≥ 1 workload drivers × one log manager × flush
//! array under the one event loop of this crate.
//!
//! [`SimModel`] is the only [`Simulate`] implementation in the harness.
//! A classic run ([`run`], probes, crash snapshots) is its one-tenant
//! instance; a serve run (`crate::serve`) is the same model with one
//! driver per tenant of [`RunConfig::tenants`]. Each driver works in its
//! own *local* tid and oid space; the loop namespaces both where driver
//! output crosses into the shared queue and manager — tid high bits carry
//! the tenant index (`serve::global_tid`), oids shift by the tenant's range
//! base — and translates back when events and manager effects (acks,
//! kills) return. Tenant 0's mapping is the identity, so at one tenant the
//! translation vanishes and there is nothing for the two kinds of run to
//! disagree on.

use crate::serve::{global_tid, split_tid, tenant_seed, MAX_TENANTS};
use elog_core::{
    AdaptiveController, AdaptiveStats, Effects, ElConfig, ElManager, LmMetrics, LmTimer, LogManager,
};
use elog_model::{CommittedOracle, Oid, Tid};
use elog_sim::{Engine, EventQueue, PerfStats, SimRng, SimTime, Simulate};
use elog_workload::{
    ArrivalProcess, PhaseSchedule, TxMix, WorkloadDriver, WorkloadEvent, WorkloadStats,
    WorkloadTrace,
};
use std::ops::{Deref, DerefMut, Index, IndexMut};
use std::sync::Arc;
use std::time::Instant;

/// Composite event alphabet of a run. Record writes carry *shared-space*
/// tids (tenant index in the high bits), so only arrivals need an explicit
/// tenant tag.
#[derive(Clone, Copy, Debug)]
pub enum Ev {
    /// The next arrival of one tenant's workload.
    Arrival(u16),
    /// A transaction writes its `seq`-th data record.
    WriteData {
        /// The writing transaction (shared-space tid).
        tid: Tid,
        /// 1-based record index within the transaction.
        seq: u32,
    },
    /// A transaction writes its COMMIT record.
    WriteCommit {
        /// The committing transaction (shared-space tid).
        tid: Tid,
    },
    /// Log-manager timer.
    Lm(LmTimer),
    /// Adaptive-controller window tick (present only when the run has a
    /// controller; reschedules itself until the horizon). On a static
    /// workload the tick observes and mutates nothing, so its only
    /// footprint is engine event counts — which no report prints.
    Adaptive,
}

// Every queue slot holds one `Ev`; a per-event tenant tag would grow it to
// 32 bytes for every run to serve the multi-tenant ones.
const _: () = assert!(std::mem::size_of::<Ev>() == 24);

impl Ev {
    /// Lifts one driver event of `tenant` into the shared alphabet.
    fn of(tenant: u16, ev: WorkloadEvent) -> Ev {
        match ev {
            WorkloadEvent::Arrival => Ev::Arrival(tenant),
            WorkloadEvent::WriteData { tid, seq } => Ev::WriteData {
                tid: global_tid(tenant, tid),
                seq,
            },
            WorkloadEvent::WriteCommit { tid } => Ev::WriteCommit {
                tid: global_tid(tenant, tid),
            },
        }
    }
}

/// Per-tenant oid partition of the shared database (multi-tenant runs,
/// see `crate::serve`). Each tenant owns the
/// contiguous range `[base, base + len)`; ranges are disjoint, and because
/// the flush array assigns drives by contiguous oid stripes, a tenant's
/// range maps onto a contiguous span of the shared drive array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantLayout {
    /// `(base, len)` per tenant.
    pub ranges: Vec<(u64, u64)>,
}

impl TenantLayout {
    /// An even partition of `[0, num_objects)` into `tenants` contiguous
    /// ranges (the last tenant absorbs the remainder).
    ///
    /// # Panics
    /// Panics when `tenants` is zero or exceeds `num_objects`.
    pub fn even(num_objects: u64, tenants: usize) -> Self {
        assert!(tenants > 0, "at least one tenant");
        assert!(
            tenants as u64 <= num_objects,
            "more tenants than objects to partition"
        );
        let per = num_objects / tenants as u64;
        let ranges = (0..tenants as u64)
            .map(|t| {
                let base = t * per;
                let len = if t + 1 == tenants as u64 {
                    num_objects - base
                } else {
                    per
                };
                (base, len)
            })
            .collect();
        TenantLayout { ranges }
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.ranges.len()
    }
}

/// Everything one simulation run needs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Transaction mix.
    pub mix: TxMix,
    /// Arrival process (paper: deterministic 100 TPS).
    pub arrivals: ArrivalProcess,
    /// Simulated span during which transactions arrive. Paper: 500 s.
    pub runtime: SimTime,
    /// Log-manager configuration (geometry, flush array, memory model).
    pub el: ElConfig,
    /// Random seed (one seed ⇒ one deterministic run).
    pub seed: u64,
    /// Abort the run at the first kill (fast minimum-space probes).
    pub stop_on_kill: bool,
    /// Maintain the committed-state oracle (recovery verification needs
    /// it; measurement sweeps skip the cost).
    pub track_oracle: bool,
    /// §6 lifetime hints: place each transaction's records directly in the
    /// generation whose wrap time exceeds its expected duration.
    pub lifetime_hints: bool,
    /// Piecewise update-mix/rate schedule over the horizon (`None` = the
    /// static `mix` for the whole run). Live generation is the only kind
    /// there is, so every probe of a search draws the same phased stream
    /// from its seed.
    pub phases: Option<PhaseSchedule>,
    /// Run the online adaptive generation controller
    /// (`elog_core::adaptive`). Ignored by stop-on-kill probes: a probe
    /// measures a fixed geometry by definition, and re-shaping under it
    /// would corrupt every search verdict. Off in [`RunConfig::paper`].
    pub adaptive: bool,
    /// Multi-tenant oid partition: the run drives one live workload per
    /// range, tenant `t` seeded by `crate::serve::tenant_seed` (`None` =
    /// the classic single workload over the whole oid space). It lives on
    /// the config because [`SimModel`] builds one driver per range: a
    /// serve run is the T-tenant instance of the one run loop.
    pub tenants: Option<TenantLayout>,
}

impl RunConfig {
    /// The paper's standard setup: `frac_long` 10 s transactions at
    /// 100 TPS for 500 s, against the given manager configuration.
    pub fn paper(frac_long: f64, el: ElConfig) -> Self {
        RunConfig {
            mix: TxMix::paper_mix(frac_long),
            arrivals: ArrivalProcess::Deterministic { rate_tps: 100.0 },
            runtime: SimTime::from_secs(500),
            el,
            seed: 0x5EED_1993,
            stop_on_kill: false,
            track_oracle: false,
            lifetime_hints: false,
            phases: None,
            adaptive: false,
            tenants: None,
        }
    }

    // Builder-style modifiers, so experiments read as one expression:
    // `RunConfig::paper(0.05, el).runtime_secs(60).stop_on_kill(true)`.

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the arrival horizon in simulated seconds.
    pub fn runtime_secs(mut self, secs: u64) -> Self {
        self.runtime = SimTime::from_secs(secs);
        self
    }

    /// Sets whether the run aborts at the first kill.
    pub fn stop_on_kill(mut self, on: bool) -> Self {
        self.stop_on_kill = on;
        self
    }

    /// Sets whether the committed-state oracle is kept.
    pub fn track_oracle(mut self, on: bool) -> Self {
        self.track_oracle = on;
        self
    }

    /// Sets §6 lifetime-hint placement.
    pub fn lifetime_hints(mut self, on: bool) -> Self {
        self.lifetime_hints = on;
        self
    }

    /// Replaces the transaction mix.
    pub fn with_mix(mut self, mix: TxMix) -> Self {
        self.mix = mix;
        self
    }

    /// Replaces the arrival process.
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Replaces the log geometry (blocks per generation).
    pub fn geometry(mut self, blocks: Vec<u32>) -> Self {
        self.el.log.generation_blocks = blocks;
        self
    }

    /// Frozen name, owed to the next benchmark re-record: `benchmark/`
    /// pins its protocol with `.shards(1)`, and one event queue is the only
    /// configuration there is.
    #[doc(hidden)]
    pub fn shards(self, n: u32) -> Self {
        assert_eq!(n, 1, "there is one event queue; nothing to shard");
        self
    }

    /// Sets (or clears) the phase schedule.
    pub fn with_phases(mut self, phases: Option<PhaseSchedule>) -> Self {
        self.phases = phases;
        self
    }

    /// Sets whether the adaptive controller runs.
    pub fn adaptive(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Sets (or clears) the multi-tenant oid partition.
    pub fn with_tenants(mut self, tenants: Option<TenantLayout>) -> Self {
        self.tenants = tenants;
        self
    }
}

/// The run's workload drivers, one per tenant, indexed by tenant.
///
/// Dereferences to *the* driver of a single-workload run, so classic
/// callers keep reading `model.driver.stats()`; multi-tenant code indexes.
#[derive(Clone, Debug)]
pub struct Drivers(Vec<WorkloadDriver>);

impl Drivers {
    /// All drivers, in tenant order.
    pub fn all(&self) -> &[WorkloadDriver] {
        &self.0
    }
}

impl Deref for Drivers {
    type Target = WorkloadDriver;

    /// # Panics
    /// Panics on a multi-tenant model, where "the driver" would silently
    /// mean tenant 0.
    fn deref(&self) -> &WorkloadDriver {
        assert_eq!(self.0.len(), 1, "single-workload view of a tenant model");
        &self.0[0]
    }
}

impl DerefMut for Drivers {
    fn deref_mut(&mut self) -> &mut WorkloadDriver {
        assert_eq!(self.0.len(), 1, "single-workload view of a tenant model");
        &mut self.0[0]
    }
}

impl Index<usize> for Drivers {
    type Output = WorkloadDriver;

    fn index(&self, tenant: usize) -> &WorkloadDriver {
        &self.0[tenant]
    }
}

impl IndexMut<usize> for Drivers {
    fn index_mut(&mut self, tenant: usize) -> &mut WorkloadDriver {
        &mut self.0[tenant]
    }
}

/// The composite model driven by the event engine.
///
/// Generic over the log manager: [`ElManager`] (the default, EL or FW) or
/// any substitute [`LogManager`] — a test recorder, a timing wrapper —
/// plugs into the same workload drivers and event loop.
///
/// Cloning a model mid-run snapshots the entire simulation state.
#[derive(Clone)]
pub struct SimModel<L: LogManager = ElManager> {
    /// Workload side: one driver per tenant.
    pub driver: Drivers,
    /// Log-manager side.
    pub lm: L,
    /// Ground truth of acknowledged commits (when tracked).
    pub oracle: CommittedOracle,
    /// Per-tenant oid range base: local oid + base = shared-space oid.
    oid_base: Vec<u64>,
    /// Admission budget: a tenant whose live-record footprint reaches this
    /// many records has new arrivals refused (0 = unlimited). Refusal keeps
    /// the arrival chain alive, so the tenant resumes as soon as flushes
    /// drain its footprint — other tenants never see the difference.
    pub(crate) budget: u64,
    /// Arrivals refused per tenant.
    pub(crate) throttled: Vec<u64>,
    /// Scratch buffer `on_arrival` fills (no per-arrival allocation).
    wl_events: Vec<(SimTime, WorkloadEvent)>,
    stop_on_kill: bool,
    track_oracle: bool,
    lifetime_hints: bool,
    kills: u64,
    acks: u64,
    /// The online generation controller, when this run has one. Public so
    /// experiments can read its stats after a run and so the soundness
    /// tests can swap in a scripted controller before one.
    pub adaptive: Option<AdaptiveController>,
}

impl<L: LogManager> SimModel<L> {
    fn apply(&mut self, now: SimTime, mut fx: Effects, queue: &mut EventQueue<Ev>) {
        for (at, timer) in fx.timers.drain(..) {
            queue.schedule(at, Ev::Lm(timer));
        }
        for tid in fx.acks.drain(..) {
            self.acks += 1;
            let (tenant, local) = split_tid(tid);
            let t = tenant as usize;
            let updates = self.driver[t].on_commit_ack(now, local);
            if self.track_oracle {
                let base = self.oid_base[t];
                self.oracle.commit(
                    tid,
                    updates.iter().map(|u| (Oid(base + u.oid.0), u.seq, u.ts)),
                );
            }
        }
        // A killed transaction's writes stay queued: the driver retires its
        // slot here and turns each of them into a no-op when it arrives.
        for tid in fx.kills.drain(..) {
            self.kills += 1;
            let (tenant, local) = split_tid(tid);
            self.driver[tenant as usize].on_kill(local);
        }
        self.lm.recycle(fx);
    }

    /// Kills observed so far.
    pub fn kills(&self) -> u64 {
        self.kills
    }

    /// Acks observed so far.
    pub fn acks(&self) -> u64 {
        self.acks
    }
}

impl<L: LogManager> Simulate for SimModel<L> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
        match event {
            Ev::Arrival(tenant) => {
                let t = tenant as usize;
                let mut events = std::mem::take(&mut self.wl_events);
                if let Some(new) = self.driver[t].on_arrival(now, &mut events) {
                    if self.budget != 0 && self.lm.tenant_live_records(t) >= self.budget {
                        // Refused: keep only the chained next-arrival event
                        // so the tenant's stream continues, and retire the
                        // transaction driver-side. The manager never saw
                        // it, so no other tenant's state is touched.
                        self.throttled[t] += 1;
                        for &(at, ev) in &events {
                            if ev == WorkloadEvent::Arrival {
                                queue.schedule(at, Ev::Arrival(tenant));
                            }
                        }
                        self.driver[t].on_kill(new.tid);
                    } else {
                        let tid = global_tid(tenant, new.tid);
                        // The controller owns hint placement while it runs
                        // (it may toggle hints mid-run); otherwise the
                        // static flag decides.
                        let hinted = self
                            .adaptive
                            .as_ref()
                            .map_or(self.lifetime_hints, |c| c.placement_hints());
                        let fx = if hinted {
                            let duration = self.driver[t].mix().types()[new.type_idx].duration;
                            self.lm.begin_hinted(now, tid, duration)
                        } else {
                            self.lm.begin(now, tid)
                        };
                        self.apply(now, fx, queue);
                        for &(at, ev) in &events {
                            queue.schedule(at, Ev::of(tenant, ev));
                        }
                    }
                }
                self.wl_events = events;
            }
            Ev::WriteData { tid, seq } => {
                let (tenant, local) = split_tid(tid);
                let t = tenant as usize;
                if let Some((oid, size)) = self.driver[t].on_write_data(now, local, seq) {
                    let oid = Oid(self.oid_base[t] + oid.0);
                    let fx = self.lm.write_data(now, tid, oid, seq, size);
                    self.apply(now, fx, queue);
                }
            }
            Ev::WriteCommit { tid } => {
                let (tenant, local) = split_tid(tid);
                if self.driver[tenant as usize].on_write_commit(now, local) {
                    let fx = self.lm.commit_request(now, tid);
                    self.apply(now, fx, queue);
                }
            }
            Ev::Lm(timer) => {
                let fx = self.lm.handle_timer(now, timer);
                self.apply(now, fx, queue);
            }
            Ev::Adaptive => {
                if let Some(ctl) = self.adaptive.as_mut() {
                    self.lm.adaptive_window(now, ctl);
                    let next = now + ctl.window();
                    if next <= self.driver[0].horizon() {
                        queue.schedule(next, Ev::Adaptive);
                    }
                }
            }
        }
    }

    fn should_stop(&self, _now: SimTime) -> bool {
        self.stop_on_kill && self.kills > 0
    }
}

/// Result of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Log-manager metrics captured at the measurement horizon.
    pub metrics: LmMetrics,
    /// Transactions started / committed / killed.
    pub started: u64,
    /// Commit acknowledgements.
    pub committed: u64,
    /// Kills, as the drivers count them: under a serve admission budget
    /// this includes refused arrivals, which never reach the manager.
    pub killed: u64,
    /// Median (p50) commit-ack latency in milliseconds, as the histogram's
    /// bucket upper bound, if any commits happened.
    pub p50_commit_latency_ms: Option<f64>,
    /// Virtual time at which the run ended (= horizon unless stopped
    /// early by a kill).
    pub ended_at: SimTime,
    /// Data records the workload driver emitted.
    pub data_records: u64,
    /// The measurement horizon all rates were computed over.
    pub horizon: SimTime,
    /// Host-side performance of the run (events, wall clock, queue
    /// counters). Observational only — never feeds back into results.
    pub perf: PerfStats,
    /// Adaptive-controller counters and action timeline, when the run had
    /// a controller (`None` on plain static runs).
    pub adaptive: Option<AdaptiveStats>,
}

/// Builds the composite model around a caller-supplied log manager
/// (a pre-warmed `ElManager`, a test recorder, …). The workload side comes
/// from `cfg` as usual: one driver over the whole oid space, or one per
/// range of [`RunConfig::tenants`].
pub fn build_model_with<L: LogManager>(cfg: &RunConfig, lm: L) -> Engine<SimModel<L>> {
    let whole = [(0, cfg.el.db.num_objects)];
    let ranges = cfg.tenants.as_ref().map_or(&whole[..], |l| &l.ranges);
    assert!(
        (1..=MAX_TENANTS).contains(&ranges.len()),
        "a run has 1..={MAX_TENANTS} tenants, got {}",
        ranges.len()
    );
    let drivers = ranges
        .iter()
        .enumerate()
        .map(|(t, &(_, len))| {
            WorkloadDriver::new(
                cfg.mix.clone(),
                cfg.arrivals,
                len,
                cfg.runtime,
                &SimRng::new(tenant_seed(cfg.seed, t)),
            )
            .with_phases(cfg.phases.clone())
        })
        .collect();
    // Stop-on-kill probes measure one fixed geometry; re-shaping under
    // them would corrupt the verdict, so the controller never engages.
    let adaptive = (cfg.adaptive && !cfg.stop_on_kill).then(|| {
        let last = *cfg
            .el
            .log
            .generation_blocks
            .last()
            .expect("validated configs have a generation");
        AdaptiveController::new(last, cfg.lifetime_hints)
    });
    let model = SimModel {
        driver: Drivers(drivers),
        lm,
        oracle: CommittedOracle::new(),
        oid_base: ranges.iter().map(|r| r.0).collect(),
        budget: 0,
        throttled: vec![0; ranges.len()],
        wl_events: Vec::new(),
        stop_on_kill: cfg.stop_on_kill,
        track_oracle: cfg.track_oracle,
        lifetime_hints: cfg.lifetime_hints,
        kills: 0,
        acks: 0,
        adaptive,
    };
    let mut engine = Engine::new(model);
    // Tenants bootstrap in index order: simultaneous arrivals tie-break by
    // schedule sequence, which realises the (time, tenant, seq) merge.
    for t in 0..ranges.len() {
        let boot = engine.model().driver[t].bootstrap(SimTime::ZERO);
        for (at, ev) in boot {
            engine.queue_mut().schedule(at, Ev::of(t as u16, ev));
        }
    }
    // The controller's first window tick; each tick reschedules the next
    // until the horizon. Scheduled after bootstrap so a controller run's
    // event sequence is the static run's plus one uniform tick stream.
    let first_tick = engine.model().adaptive.as_ref().map(|c| c.window());
    if let Some(at) = first_tick {
        engine.queue_mut().schedule(at, Ev::Adaptive);
    }
    engine
}

/// Builds the composite model for a run (exposed so recovery tests and
/// examples can crash a run midway and inspect the pieces).
///
/// # Panics
/// Panics when `cfg.el` fails [`ElConfig::validate`]; configurations built
/// from outside input go through [`crate::cli`], which checks first.
pub fn build_model(cfg: &RunConfig) -> Engine<SimModel> {
    build_model_with(
        cfg,
        ElManager::new(cfg.el.clone()).expect("validated configuration"),
    )
}

/// Runs a configuration to its horizon and snapshots the results.
///
/// Events still pending past the horizon (stragglers of transactions that
/// started before it) are not delivered; all rates are computed over the
/// horizon, exactly as the paper computes them over its 500 s window.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut engine = build_model(cfg);
    let wall_start = Instant::now();
    let ended_at = engine.run_until(cfg.runtime);
    snapshot(&engine, cfg, ended_at, wall_start)
}

/// Frozen name, owed to the next benchmark re-record: `benchmark/` times
/// a capture run. Nothing captures a workload any more, so this is [`run`]
/// with no trace.
#[doc(hidden)]
pub fn run_capture(cfg: &RunConfig) -> (RunResult, Option<Arc<WorkloadTrace>>) {
    (run(cfg), None)
}

/// The results of a finished (or stopped) run, summed over its tenants.
pub(crate) fn snapshot(
    engine: &Engine<SimModel>,
    cfg: &RunConfig,
    ended_at: SimTime,
    wall_start: Instant,
) -> RunResult {
    let perf = PerfStats {
        events: engine.events_processed(),
        wall: wall_start.elapsed(),
        queue: engine.queue().perf(),
        ..PerfStats::default()
    };
    let model = engine.model();
    let drivers = model.driver.all();
    let sum = |f: fn(&WorkloadStats) -> u64| drivers.iter().map(|d| f(d.stats())).sum();
    let mut ack_latency = drivers[0].stats().commit_latency_ms.clone();
    for d in &drivers[1..] {
        ack_latency.merge(&d.stats().commit_latency_ms);
    }
    RunResult {
        metrics: model.lm.metrics(cfg.runtime),
        started: sum(|s| s.started),
        committed: sum(|s| s.committed),
        killed: sum(|s| s.killed),
        p50_commit_latency_ms: ack_latency.quantile(0.5),
        ended_at,
        data_records: sum(|s| s.data_records),
        horizon: cfg.runtime,
        perf,
        adaptive: model.adaptive.as_ref().map(|c| c.stats().clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_model::{FlushConfig, LogConfig};

    fn quick_cfg(frac_long: f64, blocks: Vec<u32>, recirc: bool, secs: u64) -> RunConfig {
        let log = LogConfig {
            generation_blocks: blocks,
            recirculation: recirc,
            ..LogConfig::default()
        };
        let mut cfg = RunConfig::paper(frac_long, ElConfig::ephemeral(log, FlushConfig::default()));
        cfg.runtime = SimTime::from_secs(secs);
        cfg
    }

    #[test]
    fn short_run_commits_transactions() {
        let r = run(&quick_cfg(0.05, vec![18, 16], false, 10));
        assert!(
            r.started >= 990 && r.started <= 1001,
            "100 TPS × 10 s, got {}",
            r.started
        );
        assert!(r.committed > 800, "most must commit, got {}", r.committed);
        assert_eq!(r.killed, 0, "paper geometry must not kill at 5%");
        assert_eq!(r.metrics.stats.unsafe_drops, 0);
        assert_eq!(r.metrics.stats.durability_violations, 0);
        assert!(r.metrics.log_write_rate > 5.0 && r.metrics.log_write_rate < 25.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&quick_cfg(0.2, vec![18, 16], false, 5));
        let b = run(&quick_cfg(0.2, vec![18, 16], false, 5));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.metrics.log_writes, b.metrics.log_writes);
        assert_eq!(a.metrics.peak_memory_bytes, b.metrics.peak_memory_bytes);
    }

    #[test]
    fn different_seeds_differ() {
        let mut c1 = quick_cfg(0.2, vec![18, 16], false, 5);
        let mut c2 = quick_cfg(0.2, vec![18, 16], false, 5);
        c1.seed = 1;
        c2.seed = 2;
        let a = run(&c1);
        let b = run(&c2);
        // Same deterministic arrivals, but different type draws and oids.
        assert_ne!(
            (a.metrics.peak_memory_bytes, a.metrics.log_writes),
            (b.metrics.peak_memory_bytes, b.metrics.log_writes)
        );
    }

    #[test]
    fn tiny_log_kills_and_stops_early() {
        let mut cfg = quick_cfg(0.4, vec![3, 3], false, 60);
        cfg.stop_on_kill = true;
        let r = run(&cfg);
        assert!(r.killed > 0, "3+3 blocks cannot hold 40% long transactions");
        assert!(
            r.ended_at < SimTime::from_secs(60),
            "must stop at first kill"
        );
    }

    /// A killed transaction's writes stay queued and are delivered, and the
    /// driver drops every one of them: the manager never sees a write or
    /// COMMIT of a dead tid, and nothing is cancelled.
    #[test]
    fn a_killing_run_forwards_no_write_of_a_killed_transaction() {
        let overload = quick_cfg(0.05, vec![60, 50], false, 60)
            .with_arrivals(ArrivalProcess::Deterministic { rate_tps: 400.0 });
        let short_log = quick_cfg(0.4, vec![8, 6], false, 60);
        for cfg in [overload, short_log] {
            let mut engine = build_model(&cfg);
            engine.run_until(cfg.runtime);
            let (model, blocks) = (engine.model(), &cfg.el.log.generation_blocks);
            assert!(model.kills() > 0, "{blocks:?} must kill");
            assert_eq!(model.lm.stats().ignored_writes, 0);
            assert_eq!(engine.queue().perf().cancelled, 0);
        }
    }

    #[test]
    fn adaptive_on_static_workload_is_inert() {
        let base = quick_cfg(0.05, vec![18, 16], false, 30);
        let plain = run(&base);
        assert!(plain.adaptive.is_none(), "no controller unless requested");
        let adaptive = run(&base.clone().adaptive(true));
        let ad = adaptive.adaptive.expect("controller ran");
        assert!(ad.window_decisions > 0, "ticks must fire over 30 s");
        assert_eq!(ad.reshapes, 0, "static paper workload never re-shapes");
        assert_eq!(ad.hint_toggles, 0);
        assert_eq!(plain.committed, adaptive.committed);
        assert_eq!(plain.killed, adaptive.killed);
        assert_eq!(plain.metrics.log_writes, adaptive.metrics.log_writes);
        assert_eq!(
            plain.metrics.peak_memory_bytes,
            adaptive.metrics.peak_memory_bytes
        );
    }

    #[test]
    fn adaptive_grows_under_a_drifting_workload() {
        let schedule = elog_workload::PhaseSchedule::paper(&[(0, 0.05), (10, 0.4)]);
        let base = quick_cfg(0.05, vec![18, 6], false, 60).with_phases(Some(schedule));
        assert!(!base.adaptive, "paper() configs are controller-free");
        let frozen = run(&base);
        assert!(
            frozen.killed > 0,
            "6 last-gen blocks cannot hold the 40% phase"
        );
        let adapted = run(&base.clone().adaptive(true));
        let ad = adapted.adaptive.expect("controller ran");
        assert!(ad.reshapes >= 1, "kill pressure must trigger a grow");
        assert!(ad.grows >= 1);
        assert!(
            adapted.killed < frozen.killed,
            "re-shaping must shed kills: {} vs {}",
            adapted.killed,
            frozen.killed
        );
        let last = *adapted.metrics.per_gen_blocks.last().unwrap();
        assert!(last > 6, "final geometry must have grown, got {last}");
    }

    #[test]
    fn stop_on_kill_probe_never_runs_the_controller() {
        let mut cfg = quick_cfg(0.4, vec![3, 3], false, 60).adaptive(true);
        cfg.stop_on_kill = true;
        let r = run(&cfg);
        assert!(r.killed > 0);
        assert!(r.adaptive.is_none(), "probes measure fixed geometries");
    }

    #[test]
    fn run_drives_one_workload_per_tenant_range() {
        let base = quick_cfg(0.05, vec![36, 32], false, 6);
        let layout = TenantLayout::even(base.el.db.num_objects, 2);
        let split = run(&base.clone().with_tenants(Some(layout)));
        let served = crate::serve::serve_run(&crate::serve::ServeConfig::new(base.clone(), 2));
        assert_eq!(split.committed, served.aggregate.committed);
        assert_eq!(split.metrics.log_writes, served.metrics.log_writes);
        assert_eq!(split.perf.events, served.perf.events);
        let whole = run(&base);
        assert!(
            split.started > whole.started * 3 / 2,
            "two tenants offer twice the load: {} vs {}",
            split.started,
            whole.started
        );
    }

    #[test]
    #[should_panic(expected = "single-workload view")]
    fn the_single_driver_view_refuses_a_tenant_model() {
        let base = quick_cfg(0.05, vec![36, 32], false, 1);
        let layout = TenantLayout::even(base.el.db.num_objects, 2);
        let engine = build_model(&base.with_tenants(Some(layout)));
        let _ = engine.model().driver.stats();
    }

    #[test]
    fn even_layout_partitions_exactly() {
        let l = TenantLayout::even(10, 3);
        assert_eq!(l.ranges, vec![(0, 3), (3, 3), (6, 4)]);
        assert_eq!(l.tenants(), 3);
        let covered: u64 = l.ranges.iter().map(|&(_, len)| len).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn oracle_tracking_runs() {
        let mut cfg = quick_cfg(0.05, vec![18, 16], false, 5);
        cfg.track_oracle = true;
        let mut engine = build_model(&cfg);
        engine.run_until(cfg.runtime);
        let m = engine.model();
        assert_eq!(m.oracle.committed_txns(), m.acks());
        assert!(!m.oracle.is_empty());
    }
}
