//! The six workloads: what a pass is, what it is made from, and what is
//! checked about its outputs. README.md records why each exists.
//!
//! The library only ever sees a `RunConfig`/`ServeConfig`/encoded image
//! built here from `--seed`; it never learns the workload's name.

use crate::trace::{CallFolds, Timed, Tracer, NONE};
use elog_core::{ElConfig, ElManager, LmMetrics};
use elog_harness::crashpoint::{snapshot_run, CrashSnapshot, DEFAULT_POINTS};
use elog_harness::experiments::{fig_tenants, recovery_time};
use elog_harness::latsearch::LatticeLimits;
use elog_harness::minspace::{paper_base, MinSpaceResult};
use elog_harness::runner::{build_model_with, run, RunConfig, RunResult};
use elog_harness::serve::{serve_run, ServeConfig, ServeOutcome};
use elog_harness::sweep::derive_seed;
use elog_harness::SearchRequest;
use elog_model::{FlushConfig, LogConfig};
use elog_recovery::{
    check_against_oracle, estimate_recovery_time, recover, scan_bytes, RecoveryTimeModel,
};
use elog_sim::QueueStats;
use elog_storage::surface_bytes;
use elog_workload::ArrivalProcess;
use std::hint::black_box;

/// `--seed` when none is given: the paper runs' own seed.
pub const DEFAULT_SEED: u64 = 0x5EED_1993;

/// A workload of the benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Steady,
    Churn,
    Backlog,
    Search,
    Recover,
    Tenants,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Steady,
        Kind::Churn,
        Kind::Backlog,
        Kind::Search,
        Kind::Recover,
        Kind::Tenants,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady",
            Kind::Churn => "churn",
            Kind::Backlog => "backlog",
            Kind::Search => "search",
            Kind::Recover => "recover",
            Kind::Tenants => "tenants",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Full size, or the `--smoke` size `check.sh` gates on: one input per
/// pass, a fifth of the simulated horizon, a twentieth of the sweeps.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    fn inputs(self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    fn secs(self, full: u64) -> u64 {
        if self.smoke {
            full / 5
        } else {
            full
        }
    }
}

/// Output checks, counted: `failed ÷ attempted` is `ops_failed_frac`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` is only built when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// FNV-1a over little-endian words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What the benchmark keeps of one simulated run, whichever loop ran it
/// (`run`, a `Timed<ElManager>` engine, or `serve_run`).
#[derive(Clone, Debug)]
pub struct RunView {
    pub started: u64,
    pub committed: u64,
    pub killed: u64,
    pub data_records: u64,
    pub events: u64,
    pub queue: QueueStats,
    pub metrics: LmMetrics,
}

impl From<RunResult> for RunView {
    fn from(r: RunResult) -> Self {
        RunView {
            started: r.started,
            committed: r.committed,
            killed: r.killed,
            data_records: r.data_records,
            events: r.perf.events,
            queue: r.perf.queue,
            metrics: r.metrics,
        }
    }
}

impl From<ServeOutcome> for RunView {
    fn from(o: ServeOutcome) -> Self {
        RunView {
            started: o.aggregate.started,
            committed: o.aggregate.committed,
            killed: o.aggregate.killed,
            data_records: o.aggregate.data_records,
            events: o.perf.events,
            queue: o.perf.queue,
            metrics: o.metrics,
        }
    }
}

impl RunView {
    /// Digest of the run's simulated results. Host-side numbers (events,
    /// queue counters, wall) stay out: the same simulation through
    /// another loop must digest the same.
    pub fn digest(&self) -> u64 {
        let m = &self.metrics;
        let mut h = Fnv::new();
        h.word(self.started)
            .word(self.committed)
            .word(self.killed)
            .word(m.log_writes);
        for &w in &m.per_gen_writes {
            h.word(w);
        }
        h.word(m.peak_memory_bytes)
            .word(m.flushes)
            .word(m.stats.forwarded_records)
            .word(m.stats.recirculated_records);
        h.finish()
    }
}

/// The simulated-time results of a workload (paper Figs. 4–6): they
/// repeat bit-for-bit for a seed, so any movement is model drift.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sim {
    /// Log block writes per simulated second, mean over the inputs.
    pub log_bw: f64,
    /// Peak bytes under the paper's memory pricing, max over the inputs.
    pub peak_mem_bytes: u64,
    /// Total log blocks (set by the caller: configured or found).
    pub space_blocks: u64,
    pub killed: u64,
    pub started: u64,
}

impl Sim {
    fn of_runs(views: &[RunView], space_blocks: u64) -> Sim {
        Sim {
            log_bw: views.iter().map(|v| v.metrics.log_write_rate).sum::<f64>()
                / views.len() as f64,
            peak_mem_bytes: views
                .iter()
                .map(|v| v.metrics.peak_memory_bytes)
                .max()
                .unwrap_or(0),
            space_blocks,
            killed: views.iter().map(|v| v.killed).sum(),
            started: views.iter().map(|v| v.started).sum(),
        }
    }

    pub fn killed_frac(&self) -> f64 {
        if self.started == 0 {
            0.0
        } else {
            self.killed as f64 / self.started as f64
        }
    }
}

/// Counts of one recovery sweep over the six images.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoverCounts {
    pub blocks: u64,
    pub corrupt_blocks: u64,
    pub records: u64,
    pub bytes: u64,
    pub redone: u64,
    pub recovered_objects: u64,
    /// `estimate_recovery_time` summed over the images (simulated 1993
    /// hardware, not host time).
    pub modelled_ms: f64,
    /// Sweeps the pass made.
    pub sweeps: u64,
}

/// What one pass produced beyond its digest.
#[derive(Clone, Debug)]
pub enum Detail {
    /// `steady`, `churn`, `backlog`, `tenants`: one view per input.
    Runs(Vec<RunView>),
    /// `search`: one found minimum per base.
    Search(Vec<MinSpaceResult>),
    Recover(RecoverCounts),
}

#[derive(Clone, Debug)]
pub struct PassOut {
    pub digest: u64,
    /// Simulated events the pass delivered (probe events for `search`,
    /// none for `recover`).
    pub events: u64,
    pub detail: Detail,
}

/// The generated inputs of a workload.
pub enum Inputs {
    Forward {
        cfgs: Vec<RunConfig>,
        /// The paper's parameters: no crash-window anomaly may occur.
        anomaly_free: bool,
    },
    Tenants(Vec<ServeConfig>),
    Search(Vec<RunConfig>),
    Recover {
        snaps: Vec<CrashSnapshot>,
        sweeps: u64,
    },
}

/// What a pass needs besides its inputs.
pub struct Ctx<'a> {
    pub tracer: &'a mut Tracer,
    pub checks: &'a mut Checks,
    /// Route forward runs through `Timed<ElManager>` and fold the call
    /// spans into `folds[input]` (traced timed passes only; warm-up passes
    /// run the plain manager so they give the untraced reference).
    pub core_timing: bool,
    pub folds: &'a mut Vec<CallFolds>,
    pub pass: u32,
}

/// Everything set-up leaves behind for the timed passes.
pub struct Setup {
    pub inputs: Inputs,
    /// The warm-up pass: every timed pass must digest the same.
    pub reference: PassOut,
    pub sim: Sim,
    /// Host seconds of the warm-up pass (tracing off).
    pub warm_wall_s: f64,
}

/// The protocol's library settings, pinned on every input rather than
/// inherited from process-wide defaults: one queue shard, no controller.
fn pinned(cfg: RunConfig, seed: u64) -> RunConfig {
    cfg.seed(seed).shards(1).adaptive(false)
}

const SEARCH_LIMITS: (u32, u32) = (48, 1024);
const SEARCH_MIXES: [f64; 2] = [0.05, 0.2];
const TENANTS: usize = 8;

fn forward_cfgs(kind: Kind, seed: u64, scale: Scale) -> Vec<RunConfig> {
    // (geometry, recirculation, long-transaction share, TPS, inputs)
    let (geometry, recirculation, frac_long, tps, inputs) = match kind {
        Kind::Steady => ([18, 16], false, 0.05, 100.0, 10),
        Kind::Churn => ([18, 32], true, 0.40, 100.0, 5),
        Kind::Backlog => ([60, 50], false, 0.05, 400.0, 1),
        _ => unreachable!("not a forward workload"),
    };
    (0..scale.inputs(inputs) as u64)
        .map(|k| {
            let log = LogConfig {
                generation_blocks: geometry.to_vec(),
                recirculation,
                ..LogConfig::default()
            };
            let cfg = RunConfig::paper(frac_long, ElConfig::ephemeral(log, FlushConfig::default()))
                .with_arrivals(ArrivalProcess::Deterministic { rate_tps: tps })
                .runtime_secs(scale.secs(500));
            pinned(cfg, derive_seed(seed, k))
        })
        .collect()
}

fn tenant_cfgs(seed: u64, scale: Scale) -> Vec<ServeConfig> {
    let c = fig_tenants::Config::paper();
    (0..scale.inputs(10) as u64)
        .map(|k| {
            let el = ElConfig::ephemeral(LogConfig::default(), FlushConfig::default());
            let base = RunConfig::paper(c.frac_long, el)
                .geometry(c.geometry.clone())
                .with_arrivals(ArrivalProcess::Deterministic {
                    rate_tps: c.per_tenant_tps,
                })
                .runtime_secs(scale.secs(c.runtime_secs));
            ServeConfig::new(pinned(base, derive_seed(seed, k)), TENANTS).with_budget(c.budget)
        })
        .collect()
}

fn search_bases(seed: u64, scale: Scale) -> Vec<RunConfig> {
    SEARCH_MIXES[..scale.inputs(SEARCH_MIXES.len())]
        .iter()
        .zip(0u64..)
        .map(|(&frac_long, k)| {
            pinned(
                paper_base(frac_long, false, scale.secs(200)),
                derive_seed(seed, k),
            )
        })
        .collect()
}

/// The two crashed subjects of `recovery_time::Config::paper()`; they
/// share an input seed so both crash the same transaction stream.
fn recover_subjects(seed: u64, scale: Scale) -> [(&'static str, RunConfig); 2] {
    let mut c = recovery_time::Config::paper();
    c.runtime_secs = scale.secs(c.runtime_secs);
    let seed = derive_seed(seed, 0);
    [
        ("el", pinned(c.el_run(), seed)),
        ("fw", pinned(c.fw_run(), seed)),
    ]
}

/// The same simulation as `runner::run`, with the manager wrapped in
/// [`Timed`]; the view is assembled from the same public accessors
/// `run`'s own snapshot reads.
pub fn run_timed(cfg: &RunConfig) -> (RunView, CallFolds) {
    let lm = Timed::new(ElManager::new(cfg.el.clone()).expect("validated configuration"));
    let mut engine = build_model_with(cfg, lm);
    engine.run_until(cfg.runtime);
    let model = engine.model();
    let stats = model.driver.stats();
    let view = RunView {
        started: stats.started,
        committed: stats.committed,
        killed: stats.killed,
        data_records: stats.data_records,
        events: engine.events_processed(),
        queue: engine.queue().perf(),
        metrics: model.lm.inner.metrics(cfg.runtime),
    };
    (view, model.lm.folds)
}

/// Checks on one run's outputs. The driver's and the manager's books
/// must agree on any run. The two crash-window anomaly counters must be
/// zero only where the model promises it — at the paper's parameters
/// (`anomaly_free`); `churn` and `backlog` overload the log on purpose,
/// the counters are then results (reported under `core.*`), not failures.
fn check_run(view: &RunView, ctx: &mut Ctx, input: usize, anomaly_free: bool) {
    let s = &view.metrics.stats;
    ctx.checks.check(
        s.acks == view.committed
            && s.kills == view.killed
            && view.committed + view.killed <= view.started,
        || {
            format!(
                "input {input}: manager acked {} / killed {}, driver saw {} / {} of {} started",
                s.acks, s.kills, view.committed, view.killed, view.started
            )
        },
    );
    if anomaly_free {
        ctx.checks.check(s.unsafe_drops == 0, || {
            format!("input {input}: {} unsafe drops", s.unsafe_drops)
        });
        ctx.checks.check(s.durability_violations == 0, || {
            format!(
                "input {input}: {} durability violations",
                s.durability_violations
            )
        });
    }
}

fn digest_runs(views: &[RunView]) -> u64 {
    let mut h = Fnv::new();
    for v in views {
        h.word(v.digest());
    }
    h.finish()
}

fn runs_out(views: Vec<RunView>) -> PassOut {
    PassOut {
        digest: digest_runs(&views),
        events: views.iter().map(|v| v.events).sum(),
        detail: Detail::Runs(views),
    }
}

fn forward_pass(cfgs: &[RunConfig], anomaly_free: bool, ctx: &mut Ctx) -> PassOut {
    if ctx.core_timing {
        ctx.folds.resize(cfgs.len(), CallFolds::default());
    }
    let mut views = Vec::with_capacity(cfgs.len());
    for (i, cfg) in cfgs.iter().enumerate() {
        ctx.tracer.open("harness.run", ctx.pass, i as u32);
        let view = if ctx.core_timing {
            let (view, folds) = run_timed(cfg);
            for (acc, f) in ctx.folds[i].iter_mut().zip(&folds) {
                acc.merge(f);
            }
            view
        } else {
            RunView::from(run(cfg))
        };
        ctx.tracer.close();
        check_run(&view, ctx, i, anomaly_free);
        views.push(view);
    }
    runs_out(views)
}

fn tenants_pass(cfgs: &[ServeConfig], ctx: &mut Ctx) -> PassOut {
    let mut views = Vec::with_capacity(cfgs.len());
    for (i, cfg) in cfgs.iter().enumerate() {
        ctx.tracer.open("harness.serve_run", ctx.pass, i as u32);
        let out = serve_run(cfg);
        ctx.tracer.close();
        let committed: u64 = out.per_tenant.iter().map(|t| t.committed).sum();
        ctx.checks.check(
            out.per_tenant.len() == TENANTS && committed == out.aggregate.committed,
            || {
                format!(
                    "input {i}: per-tenant commits sum to {committed}, aggregate says {}",
                    out.aggregate.committed
                )
            },
        );
        let view = RunView::from(out);
        check_run(&view, ctx, i, false);
        views.push(view);
    }
    runs_out(views)
}

fn search_pass(bases: &[RunConfig], ctx: &mut Ctx) -> PassOut {
    let mut found = Vec::with_capacity(bases.len());
    let mut h = Fnv::new();
    for (i, base) in bases.iter().enumerate() {
        let limits = LatticeLimits {
            prefix_max: vec![SEARCH_LIMITS.0],
            last_limit: SEARCH_LIMITS.1,
        };
        ctx.tracer.open("harness.search", ctx.pass, i as u32);
        let out = SearchRequest::lattice(base, limits)
            .jobs(1)
            .probe_jobs(1)
            .run();
        ctx.tracer.close();
        let (min, s) = (&out.min, &out.min.search);
        for &b in &min.generation_blocks {
            h.word(u64::from(b));
        }
        h.word(u64::from(min.probes))
            .word(s.sim_probes)
            .word(s.replay_probes)
            .word(s.memo_hits)
            .word(s.probe_events)
            .word(s.pruned_volume)
            .word(s.analytic_rejections)
            .word(s.cert_verdicts)
            .word(s.resume_probes)
            .word(s.resume_saved_events);
        found.push(out.min);
    }
    PassOut {
        digest: h.finish(),
        events: found.iter().map(|m| m.search.probe_events).sum(),
        detail: Detail::Search(found),
    }
}

fn recover_pass(snaps: &[CrashSnapshot], sweeps: u64, ctx: &mut Ctx) -> PassOut {
    let mut counts = RecoverCounts {
        sweeps,
        ..RecoverCounts::default()
    };
    let mut h = Fnv::new();
    let mut torn_ok = true;
    for sweep in 0..sweeps {
        let mut corrupt = 0;
        for (i, snap) in snaps.iter().enumerate() {
            ctx.tracer.open("recovery.scan", ctx.pass, i as u32);
            let (image, _errors) = scan_bytes(snap.encoded.iter().map(Vec::as_slice));
            ctx.tracer.close();
            ctx.tracer.open("recovery.redo", ctx.pass, i as u32);
            let state = recover(&image, &snap.stable);
            ctx.tracer.close();
            corrupt += image.stats.corrupt_blocks;
            if sweep == 0 {
                // Every sweep rebuilds the same state: verify and count once.
                ctx.tracer.open("recovery.verify", ctx.pass, i as u32);
                let report = check_against_oracle(&snap.oracle, &state);
                ctx.tracer.close();
                ctx.checks.check(report.is_ok(), || {
                    format!(
                        "{}: {} missing, {} stale after recovery",
                        snap.label,
                        report.missing.len(),
                        report.stale.len()
                    )
                });
                let objects = state.versions.len() as u64;
                counts.blocks += image.stats.blocks;
                counts.corrupt_blocks += image.stats.corrupt_blocks;
                counts.records += image.stats.records;
                counts.bytes += surface_bytes(&snap.encoded);
                counts.redone += state.redone;
                counts.recovered_objects += objects;
                counts.modelled_ms += estimate_recovery_time(
                    &RecoveryTimeModel::default(),
                    &snap.per_gen_blocks,
                    image.stats.records,
                )
                .as_secs_f64()
                    * 1e3;
                h.word(image.stats.blocks)
                    .word(image.stats.records)
                    .word(state.redone)
                    .word(objects);
            }
            black_box(&state);
        }
        // The two mid-flush images each carry one torn duplicate.
        torn_ok &= corrupt == 2;
    }
    ctx.checks.check(torn_ok, || {
        "a sweep did not reject exactly two corrupt blocks".to_string()
    });
    PassOut {
        digest: h.finish(),
        events: 0,
        detail: Detail::Recover(counts),
    }
}

/// One pass: the fixed unit of work `wall_s` and `allocs` are per.
pub fn pass(inputs: &Inputs, ctx: &mut Ctx) -> PassOut {
    match inputs {
        Inputs::Forward { cfgs, anomaly_free } => forward_pass(cfgs, *anomaly_free, ctx),
        Inputs::Tenants(cfgs) => tenants_pass(cfgs, ctx),
        Inputs::Search(bases) => search_pass(bases, ctx),
        Inputs::Recover { snaps, sweeps } => recover_pass(snaps, *sweeps, ctx),
    }
}

fn warm_up(inputs: &Inputs, ctx: &mut Ctx) -> (PassOut, f64) {
    ctx.tracer.open("warmup", NONE, NONE);
    let t = std::time::Instant::now();
    let out = pass(inputs, ctx);
    let wall = t.elapsed().as_secs_f64();
    ctx.tracer.close();
    (out, wall)
}

/// The rest of set-up for a workload whose pass is a list of simulated
/// runs at one configured geometry: warm up, and read the simulated
/// results off the warm-up pass itself.
fn setup_runs(inputs: Inputs, ctx: &mut Ctx) -> Setup {
    let (reference, warm_wall_s) = warm_up(&inputs, ctx);
    let Detail::Runs(views) = &reference.detail else {
        unreachable!("pass of a run workload")
    };
    Setup {
        sim: Sim::of_runs(views, views[0].metrics.total_blocks),
        inputs,
        reference,
        warm_wall_s,
    }
}

/// Set-up: build the inputs from `seed`, make one untraced warm-up pass,
/// and do the once-only checks. The caller times the whole of it as
/// `setup_s`.
pub fn setup(kind: Kind, seed: u64, scale: Scale, ctx: &mut Ctx) -> Setup {
    assert!(!ctx.core_timing, "warm-up passes run the plain manager");
    match kind {
        Kind::Steady | Kind::Churn | Kind::Backlog => setup_runs(
            Inputs::Forward {
                cfgs: forward_cfgs(kind, seed, scale),
                anomaly_free: kind == Kind::Steady,
            },
            ctx,
        ),
        Kind::Tenants => {
            let cfgs = tenant_cfgs(seed, scale);
            // The serve loop with one tenant is the classic run.
            let solo = cfgs[0].base.clone().with_tenants(None);
            let served = RunView::from(serve_run(&ServeConfig::new(solo.clone(), 1)));
            let classic = RunView::from(run(&solo));
            ctx.checks.check(
                served.digest() == classic.digest() && served.data_records == classic.data_records,
                || "1-tenant serve_run and run disagree".to_string(),
            );
            setup_runs(Inputs::Tenants(cfgs), ctx)
        }
        Kind::Search => {
            let bases = search_bases(seed, scale);
            let inputs = Inputs::Search(bases.clone());
            let (reference, warm_wall_s) = warm_up(&inputs, ctx);
            let Detail::Search(found) = &reference.detail else {
                unreachable!("pass of the search workload")
            };
            // A found minimum is a minimum: it kills nothing, and one
            // block less in the last generation kills.
            let mut at_minima = Vec::with_capacity(bases.len());
            for (i, (base, min)) in bases.iter().zip(found).enumerate() {
                let blocks = &min.generation_blocks;
                let at_min = RunView::from(run(&base.clone().geometry(blocks.clone())));
                ctx.checks.check(at_min.killed == 0, || {
                    format!("base {i}: found minimum {blocks:?} kills {}", at_min.killed)
                });
                let mut below = blocks.clone();
                *below.last_mut().expect("a geometry has a generation") -= 1;
                if below.iter().all(|&b| b > base.el.log.gap_blocks) {
                    let r = run(&base.clone().geometry(below.clone()));
                    ctx.checks.check(r.killed > 0, || {
                        format!("base {i}: {below:?}, below the found minimum, kills nothing")
                    });
                }
                at_minima.push(at_min);
            }
            let space = found.iter().map(|m| u64::from(m.total_blocks)).sum();
            Setup {
                sim: Sim::of_runs(&at_minima, space),
                inputs,
                reference,
                warm_wall_s,
            }
        }
        Kind::Recover => {
            let subjects = recover_subjects(seed, scale);
            let mut snaps = Vec::new();
            let mut views = Vec::new();
            for (label, cfg) in &subjects {
                snaps.extend(snapshot_run(label, cfg, &DEFAULT_POINTS));
                views.push(RunView::from(run(cfg)));
            }
            let space = views.iter().map(|v| v.metrics.total_blocks).sum();
            let inputs = Inputs::Recover {
                snaps,
                sweeps: if scale.smoke { 10 } else { 200 },
            };
            let (reference, warm_wall_s) = warm_up(&inputs, ctx);
            Setup {
                sim: Sim::of_runs(&views, space),
                inputs,
                reference,
                warm_wall_s,
            }
        }
    }
}

/// The configuration the forward-path drills take apart: the workload's
/// first input — for `search`, its first base at the default geometry;
/// for `tenants`, the tenants' combined arrival rate as one stream, so the
/// drills see the event volume the shared log sees. `recover` runs no
/// event loop.
pub fn drill_cfg(inputs: &Inputs) -> Option<RunConfig> {
    match inputs {
        Inputs::Forward { cfgs, .. } | Inputs::Search(cfgs) => Some(cfgs[0].clone()),
        Inputs::Tenants(cfgs) => {
            let c = fig_tenants::Config::paper();
            let rate_tps = c.per_tenant_tps * TENANTS as f64;
            Some(
                cfgs[0]
                    .base
                    .clone()
                    .with_tenants(None)
                    .with_arrivals(ArrivalProcess::Deterministic { rate_tps }),
            )
        }
        Inputs::Recover { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NullLm;
    use elog_core::LogManager;
    use elog_sim::SimTime;

    fn short(kind: Kind) -> RunConfig {
        forward_cfgs(kind, 7, Scale { smoke: true })
            .remove(0)
            .runtime_secs(5)
    }

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn input_seeds_are_a_pure_function_of_the_seed() {
        let seeds = |s| -> Vec<u64> {
            forward_cfgs(Kind::Steady, s, Scale { smoke: false })
                .iter()
                .map(|c| c.seed)
                .collect()
        };
        let a = seeds(11);
        assert_eq!(a, seeds(11));
        assert_eq!(a.len(), 10);
        assert_eq!(a[3], derive_seed(11, 3));
        assert_ne!(a, seeds(12));
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len());
        let t = |s| -> Vec<u64> {
            tenant_cfgs(s, Scale { smoke: false })
                .iter()
                .map(|c| c.base.seed)
                .collect()
        };
        assert_eq!(t(11), t(11));
        assert_ne!(t(11), t(12));
        assert_eq!(
            search_bases(11, Scale { smoke: false })[1].seed,
            derive_seed(11, 1)
        );
        let [el, fw] = recover_subjects(11, Scale { smoke: false });
        assert_eq!(el.1.seed, fw.1.seed);
    }

    #[test]
    fn timed_leaves_a_short_runs_digest_and_events_unchanged() {
        for kind in [Kind::Steady, Kind::Churn] {
            let cfg = short(kind);
            let plain = RunView::from(run(&cfg));
            let (timed, folds) = run_timed(&cfg);
            assert_eq!(plain.digest(), timed.digest());
            assert_eq!(plain.events, timed.events);
            assert_eq!(plain.data_records, timed.data_records);
            assert_eq!(folds[0].calls, plain.started, "one begin per transaction");
            assert_eq!(folds[1].calls, plain.data_records);
            assert!(folds[3].calls > 0 && folds[4].calls > 0);
        }
    }

    #[test]
    fn null_lm_satisfies_log_manager_and_commits_everything() {
        fn takes(_: &impl LogManager) {}
        takes(&NullLm::default());
        takes(&Timed::new(NullLm::default()));
        let cfg = short(Kind::Steady);
        let mut engine = build_model_with(&cfg, NullLm::default());
        engine.run_until(SimTime::MAX);
        let stats = engine.model().driver.stats();
        assert!(stats.started > 400);
        assert_eq!(stats.committed, stats.started);
        assert_eq!(stats.killed, 0);
    }

    #[test]
    fn checks_count_and_keep_the_first_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        for i in 0..10 {
            c.check(false, || format!("f{i}"));
        }
        assert_eq!((c.attempted, c.failed), (11, 10));
        assert_eq!(c.failures.len(), 8);
    }
}
