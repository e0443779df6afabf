//! The parallel sweep executor and the unified experiment API.
//!
//! Every experiment in this harness reduces to the same shape: enumerate
//! independent simulation jobs, run them, aggregate tables. This module
//! makes that shape explicit —
//!
//! * [`Scenario`] — one unit of work: a label, a machine-readable variant
//!   tag, a seed index and a [`Job`] describing what to simulate;
//! * [`run_scenarios`] — the work-queue executor: a fixed pool of scoped
//!   threads pulls scenarios off an atomic cursor, with per-run panic
//!   isolation, deterministic per-scenario seeding and results returned
//!   in scenario order, so output is byte-identical for any `--jobs N`;
//! * [`Experiment`] — the trait each experiment module implements
//!   (`name` / `scenarios` / `tables` / `notes`), letting `repro` iterate
//!   a registry instead of dispatching per experiment.
//!
//! # Determinism
//!
//! Each scenario's run seeds from `derive_seed(cfg.seed, seed_index)`,
//! never from thread identity or completion order. Scenarios that form a
//! paired comparison (FW vs EL at the same mix, ablation variants against
//! their baseline) share a `seed_index`, so they see the same workload.
//! The executor writes each result into the slot of the scenario that
//! produced it; aggregation reads the slots in order. Progress lines go
//! to stderr only.

use crate::crashpoint::{crash, restart, Restart};
use crate::latsearch::{SearchMode, SearchRequest};
use crate::minspace::MinSpaceResult;
use crate::report::Table;
use crate::runner::{build_model, run, RunConfig, RunResult};
use elog_sim::{splitmix64, PerfStats};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Derives the seed for one scenario from the configuration's base seed
/// and the scenario's seed index (splitmix64 finalisation — consecutive
/// indices give statistically independent streams).
pub fn derive_seed(base_seed: u64, seed_index: u64) -> u64 {
    // The state sits `seed_index` golden-ratio steps past the base: index
    // 0 is splitmix64's first draw from `base_seed`.
    let mut state = base_seed.wrapping_add(seed_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state)
}

/// What one scenario simulates.
#[derive(Clone, Debug)]
pub enum Job {
    /// One full measured run.
    Measure(RunConfig),
    /// One minimum-space search of any [`SearchMode`], then a measured
    /// run at the minimum. A search that ends at a search limit
    /// ([`crate::SearchLimit`]) fails the scenario: the geometry it
    /// stopped at is not a row.
    MinSpace {
        /// Base configuration (the search overwrites the geometry,
        /// dimensionality included).
        base: RunConfig,
        /// What to search over.
        mode: SearchMode,
    },
    /// The paper's recirculation procedure: size gen0 by the
    /// no-recirculation minimum, then shrink the last generation with
    /// recirculation on, then measure at the minimum. `base` must have
    /// recirculation enabled.
    ElRecircMin {
        /// Base configuration, recirculation on.
        base: RunConfig,
    },
    /// Run to the horizon, then [`crate::crashpoint::crash`] and
    /// [`crate::crashpoint::restart`]: byte-level scan, single-pass REDO,
    /// verify against the oracle.
    CrashRecover(RunConfig),
    /// One measured multi-tenant serve run (`crate::serve`). Seeding
    /// rewrites the base seed, from which the per-tenant streams derive.
    Serve(crate::serve::ServeConfig),
}

/// One unit of sweep work.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable label (progress lines, failure reports).
    pub label: String,
    /// Machine-readable variant tag for aggregation (a mix fraction, a
    /// generation size, a technique name — whatever the experiment keys
    /// its tables on).
    pub variant: String,
    /// Seed-derivation index. Scenarios forming a paired comparison share
    /// one index so they face the same workload.
    pub seed_index: u64,
    /// The work itself.
    pub job: Job,
}

impl Scenario {
    /// Shorthand constructor.
    pub fn new(
        label: impl Into<String>,
        variant: impl Into<String>,
        seed_index: u64,
        job: Job,
    ) -> Self {
        Scenario {
            label: label.into(),
            variant: variant.into(),
            seed_index,
            job,
        }
    }
}

/// What a scenario produced.
#[derive(Clone, Debug)]
pub enum Output {
    /// A measured run.
    Measured(RunResult),
    /// A minimum-space search plus the measured run at the minimum.
    MinSpace {
        /// The search result.
        min: MinSpaceResult,
        /// Full measured run at the minimum geometry.
        measured: RunResult,
    },
    /// A crash-recovery outcome: the crashed run's configured blocks and
    /// its restart. Wall time is absent: output is the same at any `--jobs`.
    Recovery(u64, Restart),
    /// A multi-tenant serve measurement.
    Serve(crate::serve::ServeOutcome),
    /// The scenario panicked, or its search ended at a search limit; the
    /// payload is the message.
    Failed(String),
}

impl Output {
    /// Host-side perf counters of the scenario's measured run, when it
    /// had one (progress lines and `repro`'s closing totals read this).
    pub fn perf(&self) -> Option<&PerfStats> {
        match self {
            Output::Measured(r) => Some(&r.perf),
            Output::MinSpace { measured, .. } => Some(&measured.perf),
            Output::Serve(o) => Some(&o.perf),
            _ => None,
        }
    }
}

/// One scenario's outcome, labelled.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The scenario's label.
    pub label: String,
    /// The scenario's variant tag.
    pub variant: String,
    /// What it produced.
    pub output: Output,
}

impl RunOutcome {
    /// The measured run, if this was a [`Job::Measure`] that succeeded.
    pub fn measured(&self) -> Option<&RunResult> {
        match &self.output {
            Output::Measured(r) => Some(r),
            _ => None,
        }
    }

    /// Search minimum and measured run, for min-space jobs.
    pub fn min_space(&self) -> Option<(&MinSpaceResult, &RunResult)> {
        match &self.output {
            Output::MinSpace { min, measured } => Some((min, measured)),
            _ => None,
        }
    }

    /// Configured blocks and restart, for [`Job::CrashRecover`] jobs.
    pub fn recovery(&self) -> Option<(u64, &Restart)> {
        match &self.output {
            Output::Recovery(blocks, r) => Some((*blocks, r)),
            _ => None,
        }
    }

    /// The serve outcome, for [`Job::Serve`] jobs.
    pub fn serve(&self) -> Option<&crate::serve::ServeOutcome> {
        match &self.output {
            Output::Serve(o) => Some(o),
            _ => None,
        }
    }

    /// The panic message, if the scenario failed.
    pub fn failure(&self) -> Option<&str> {
        match &self.output {
            Output::Failed(msg) => Some(msg),
            _ => None,
        }
    }
}

/// Executor settings.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Worker threads (≥ 1). Output is identical for every value.
    pub jobs: usize,
    /// Emit a stderr line as each scenario completes.
    pub progress: bool,
    /// Consumption certificates in every search a scenario launches
    /// (`--no-cert` clears it: every probe is simulated). Output is
    /// identical either way; only the simulated probe volume differs.
    pub certificates: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            jobs: default_jobs(),
            progress: false,
            certificates: true,
        }
    }
}

/// The machine's available parallelism (≥ 1).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Applies `f` to every item on a work-queue of `jobs` scoped threads.
///
/// Results come back in item order regardless of completion order. A
/// panicking call is isolated to its item and reported as `Err` with the
/// panic message; remaining items still run.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = jobs.max(1).min(items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(i, item)))
                    .map_err(|p| panic_message(p.as_ref()));
                *slots[i].lock().expect("result slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Re-runs the search's minimal geometry without `stop_on_kill`, and
/// folds the search counters into the measured run's perf stats.
fn measure_minimum(base: &RunConfig, min: MinSpaceResult) -> Output {
    let mut measured = run(&base
        .clone()
        .geometry(min.generation_blocks.clone())
        .stop_on_kill(false));
    measured.perf.search = min.search;
    Output::MinSpace { min, measured }
}

/// Runs one scenario's job with its derived seed; `certificates` reaches
/// every search the job launches.
fn run_job(scenario: &Scenario, certificates: bool) -> Output {
    let seeded = |cfg: &RunConfig| cfg.clone().seed(derive_seed(cfg.seed, scenario.seed_index));
    match &scenario.job {
        Job::Measure(cfg) => Output::Measured(run(&seeded(cfg))),
        Job::MinSpace { base, mode } => {
            let base = seeded(base);
            // Parallelism belongs to the scenario level (`--jobs`, which
            // already defaults to the machine's width): a search is one
            // sequential scan, each column capped by the ones before it.
            let out = SearchRequest::with_mode(&base, mode.clone())
                .certificates(certificates)
                .run();
            // A value, not a panic: release builds abort on panic, so
            // only a returned failure reaches the notes there.
            if let Some(limit) = out.limit {
                return Output::Failed(limit.to_string());
            }
            measure_minimum(&base, out.min)
        }
        Job::ElRecircMin { base } => {
            let base = seeded(base);
            assert!(
                base.el.log.recirculation,
                "ElRecircMin needs recirculation on"
            );
            // The paper's procedure: generation 0 is sized by the
            // no-recirculation minimum (short transactions must become
            // garbage before its head), then the last generation shrinks
            // with recirculation on. A joint minimum would pick a
            // degenerate tiny generation 0 that recirculates everything.
            let mut norec = base.clone();
            norec.el.log.recirculation = false;
            let norec_out = SearchRequest::min_space(&norec, 2)
                .certificates(certificates)
                .run();
            if let Some(limit) = norec_out.limit {
                return Output::Failed(format!("no-recirculation step: {limit}"));
            }
            let g0 = norec_out.min.generation_blocks[0];
            let recirc_out = SearchRequest::fixed_prefix(&base, vec![g0])
                .certificates(certificates)
                .run();
            if let Some(limit) = recirc_out.limit {
                return Output::Failed(format!("recirculation step: {limit}"));
            }
            let mut min = recirc_out.min;
            min.search.merge(&norec_out.min.search);
            measure_minimum(&base, min)
        }
        Job::CrashRecover(cfg) => {
            let cfg = seeded(cfg).track_oracle(true);
            let mut engine = build_model(&cfg);
            engine.run_until(cfg.runtime);
            let snap = crash(&scenario.label, engine.model(), cfg.runtime);
            Output::Recovery(snap.per_gen_blocks.iter().sum(), restart(&snap))
        }
        Job::Serve(cfg) => {
            let mut cfg = cfg.clone();
            cfg.base = seeded(&cfg.base);
            Output::Serve(crate::serve::serve_run(&cfg))
        }
    }
}

/// Runs scenarios on the executor; outcomes come back in scenario order.
pub fn run_scenarios(scenarios: &[Scenario], opts: &ExecOptions) -> Vec<RunOutcome> {
    let total = scenarios.len();
    let done = AtomicUsize::new(0);
    let results = parallel_map(scenarios, opts.jobs, |_, s| {
        let started = Instant::now();
        let out = run_job(s, opts.certificates);
        if opts.progress {
            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            let wall = started.elapsed();
            // Stderr only: stdout is the byte-stable report surface.
            match out.perf() {
                Some(p) => eprintln!(
                    "[sweep {d}/{total}] {} ({wall:.2?}, {:.2} Mev/s, pending peak {})",
                    s.label,
                    p.events_per_sec() / 1e6,
                    p.queue.heap_peak,
                ),
                None => eprintln!("[sweep {d}/{total}] {} ({wall:.2?})", s.label),
            }
        }
        out
    });
    scenarios
        .iter()
        .zip(results)
        .map(|(s, r)| RunOutcome {
            label: s.label.clone(),
            variant: s.variant.clone(),
            output: match r {
                Ok(output) => output,
                Err(msg) => Output::Failed(msg),
            },
        })
        .collect()
}

/// One `FAILED label: message` line per failed outcome (for `notes`).
pub fn failure_notes(outcomes: &[RunOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .filter_map(|o| o.failure().map(|msg| format!("FAILED {}: {msg}", o.label)))
        .collect()
}

/// One experiment: a named scenario enumerator plus its aggregation.
pub trait Experiment {
    /// Short name for progress lines and reports.
    fn name(&self) -> &'static str;

    /// The scenarios to run (`quick` shrinks runtimes and sweeps).
    fn scenarios(&self, quick: bool) -> Vec<Scenario>;

    /// Aggregates outcomes (in scenario order) into `(slug, table)` pairs;
    /// the slug names the CSV file.
    fn tables(&self, outcomes: &[RunOutcome]) -> Vec<(String, Table)>;

    /// Free-form summary lines printed after the tables.
    fn notes(&self, _outcomes: &[RunOutcome]) -> Vec<String> {
        Vec::new()
    }
}

/// One experiment's aggregated output.
pub struct ExperimentReport {
    /// The experiment's name.
    pub name: &'static str,
    /// `(slug, table)` pairs in print order.
    pub tables: Vec<(String, Table)>,
    /// Summary lines to print after the tables.
    pub notes: Vec<String>,
    /// Host-side perf counters summed over the experiment's outcomes.
    pub perf: PerfStats,
}

impl ExperimentReport {
    /// Aggregates `e`'s outcomes (in scenario order) into its report.
    pub fn new(e: &dyn Experiment, outcomes: &[RunOutcome]) -> Self {
        let mut perf = PerfStats::default();
        outcomes
            .iter()
            .filter_map(|o| o.output.perf())
            .for_each(|p| perf.merge(p));
        ExperimentReport {
            name: e.name(),
            tables: e.tables(outcomes),
            notes: e.notes(outcomes),
            perf,
        }
    }
}

/// Runs every experiment's scenarios through one shared executor pool
/// (scenarios from different experiments interleave freely — seeding is
/// per-scenario, so grouping does not affect results) and aggregates
/// per experiment, preserving registry order.
pub fn run_experiments(
    experiments: &[Box<dyn Experiment>],
    quick: bool,
    opts: &ExecOptions,
) -> Vec<ExperimentReport> {
    let mut all = Vec::new();
    let mut spans = Vec::new();
    for e in experiments {
        let scenarios = e.scenarios(quick);
        spans.push(all.len()..all.len() + scenarios.len());
        all.extend(scenarios);
    }
    let outcomes = run_scenarios(&all, opts);
    experiments
        .iter()
        .zip(spans)
        .map(|(e, span)| ExperimentReport::new(e.as_ref(), &outcomes[span]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_deterministic_and_spread() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        // No short-cycle collisions across a realistic sweep width.
        let mut seen = std::collections::HashSet::new();
        for base in [0x5EED_1993u64, 7, u64::MAX] {
            for idx in 0..256 {
                assert!(
                    seen.insert(derive_seed(base, idx)),
                    "collision at {base}/{idx}"
                );
            }
        }
    }

    #[test]
    fn parallel_map_preserves_order_and_isolates_panics() {
        let items: Vec<u64> = (0..40).collect();
        let out = parallel_map(&items, 4, |i, &x| {
            assert_eq!(i as u64, x);
            if x == 17 {
                panic!("boom at {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), 40);
        for (i, r) in out.iter().enumerate() {
            if i == 17 {
                assert_eq!(r.as_ref().unwrap_err(), "boom at 17");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64 * 2);
            }
        }
    }

    #[test]
    fn infeasible_min_space_is_a_failure_note_not_a_row() {
        // 20 000 TPS of 40 % long transactions outgrow a 1 024-block
        // firewall log; the geometry the search stopped at must not reach
        // a table as a "minimum".
        let arrivals = elog_workload::ArrivalProcess::Deterministic { rate_tps: 20_000.0 };
        let job = Job::MinSpace {
            base: crate::minspace::paper_base(0.4, false, 5).with_arrivals(arrivals),
            mode: SearchMode::MinSpace { gens: 1 },
        };
        let outcomes = run_scenarios(
            &[Scenario::new("tiny fw", "0.4", 0, job)],
            &ExecOptions {
                jobs: 1,
                progress: false,
                ..Default::default()
            },
        );
        assert!(outcomes[0].min_space().is_none());
        let notes = failure_notes(&outcomes);
        assert_eq!(notes.len(), 1);
        assert!(
            notes[0].starts_with("FAILED tiny fw: search limit reached"),
            "{notes:?}"
        );
    }

    #[test]
    fn executor_output_is_independent_of_job_count() {
        let scenarios: Vec<Scenario> = (0..6)
            .map(|i| {
                Scenario::new(
                    format!("probe {i}"),
                    i.to_string(),
                    i,
                    Job::Measure(
                        crate::minspace::paper_base(0.05, false, 5).geometry(vec![18, 16]),
                    ),
                )
            })
            .collect();
        let serial = run_scenarios(
            &scenarios,
            &ExecOptions {
                jobs: 1,
                progress: false,
                ..Default::default()
            },
        );
        let parallel = run_scenarios(
            &scenarios,
            &ExecOptions {
                jobs: 4,
                progress: false,
                ..Default::default()
            },
        );
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            let (ra, rb) = (a.measured().unwrap(), b.measured().unwrap());
            assert_eq!(ra.committed, rb.committed);
            assert_eq!(ra.metrics.log_writes, rb.metrics.log_writes);
            assert_eq!(ra.metrics.peak_memory_bytes, rb.metrics.peak_memory_bytes);
        }
        // Distinct seed indices actually produced distinct workload draws.
        let writes: std::collections::HashSet<u64> = serial
            .iter()
            .map(|o| o.measured().unwrap().metrics.log_writes)
            .collect();
        assert!(
            writes.len() > 1,
            "seed derivation must vary across scenarios"
        );
    }
}
