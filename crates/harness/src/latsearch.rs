//! Lattice minimum-space search for N-generation geometries.
//!
//! The paper's §5 extension evaluates ephemeral logs with more than two
//! generations. The two-generation search (scan gen0, binary-search gen1)
//! is one slice of a more general problem: a geometry is a point in an
//! N-dimensional lattice, kill-freedom is monotone along every single
//! axis, but the *total* is not jointly monotone — growing an early
//! generation changes what reaches the later ones. This module walks that
//! lattice as nested scans over generations `0..N-2` (the *prefix* axes)
//! with a binary search on the last axis, exactly the shape the
//! two-generation search pioneered, which is its one-prefix-axis case.
//!
//! # Dominance rules and their trust boundary
//!
//! The verdict memo generalises the two-generation rules component-wise:
//!
//! * **Kill dominance** — a killing geometry dominates every
//!   component-wise smaller-or-equal point. Shrinking any generation can
//!   only advance head arrivals (less room before records reach a head),
//!   so if `k` kills, every `g ≤ k` (component-wise) kills too. This rule
//!   is trusted across the whole lattice.
//! * **Survive dominance** — a surviving geometry dominates larger values
//!   *only along the last axis within a fixed prefix*: if
//!   `[p₀…p_{N-2}, s]` survives, so does `[p₀…p_{N-2}, s' ≥ s]`. Growing
//!   the last generation only delays its own head; the traffic it
//!   receives from the fixed prefix is unchanged. We deliberately do
//!   *not* trust survive dominance across prefix axes: growing an early
//!   generation changes the batching and timing of forwarded traffic
//!   downstream, so `[g0+1, g1]` surviving does not follow from
//!   `[g0, g1]` surviving (see the ROADMAP's trust-boundary note).
//!
//! # Jobs invariance
//!
//! Like the two-generation search, the memo is populated only during the
//! serial anchor pass and *frozen* before the parallel prefix scan, so
//! probe counts — and therefore every derived statistic — are identical
//! for every `jobs` setting. One [`Prober`] captures the workload trace
//! on the first kill-free probe; every later probe replays it.

use crate::analytic::AnalyticModel;
use crate::minspace::MinSpaceResult;
use crate::runner::{build_model, run_capture, RunConfig};
use elog_core::{CertVerdict, ConsumptionCert};
use elog_sim::SearchStats;
use elog_workload::WorkloadTrace;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Most generation axes a lattice search supports. The simulator itself
/// allows up to 64 generations; searches beyond a handful of axes are
/// combinatorially pointless, so the inline [`Geometry`] stays small.
pub const MAX_AXES: usize = 8;

/// One lattice point: per-generation sizes in blocks, youngest first.
///
/// An inline fixed-capacity vector (`Copy`, no heap) shared by the 2-gen
/// and N-gen searches — memo entries and audit records are made of these.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    len: u8,
    axes: [u32; MAX_AXES],
}

impl Geometry {
    /// Builds a point from per-generation sizes.
    ///
    /// # Panics
    /// Panics when `blocks` is empty or longer than [`MAX_AXES`].
    pub fn from_slice(blocks: &[u32]) -> Self {
        assert!(
            !blocks.is_empty() && blocks.len() <= MAX_AXES,
            "geometry needs 1..={MAX_AXES} generations, got {}",
            blocks.len()
        );
        let mut axes = [0u32; MAX_AXES];
        axes[..blocks.len()].copy_from_slice(blocks);
        Geometry {
            len: blocks.len() as u8,
            axes,
        }
    }

    /// The per-generation sizes.
    pub fn as_slice(&self) -> &[u32] {
        &self.axes[..self.len as usize]
    }

    /// Number of generations.
    #[allow(clippy::len_without_is_empty)] // never empty by construction
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Total blocks.
    pub fn total(&self) -> u32 {
        self.as_slice().iter().sum()
    }

    /// The sizes of every generation but the last (the fixed prefix the
    /// survive-dominance rule is scoped to).
    pub fn prefix(&self) -> &[u32] {
        &self.axes[..self.len as usize - 1]
    }

    /// The last generation's size.
    pub fn last(&self) -> u32 {
        self.axes[self.len as usize - 1]
    }

    /// This point with one more axis appended.
    pub fn with_last(&self, last: u32) -> Geometry {
        let mut g = *self;
        assert!(g.len() < MAX_AXES, "geometry axis overflow");
        g.axes[g.len as usize] = last;
        g.len += 1;
        g
    }

    /// The sizes as an owned vector (for [`MinSpaceResult`]).
    pub fn to_vec(&self) -> Vec<u32> {
        self.as_slice().to_vec()
    }

    /// Component-wise `self ≤ other` (same dimension).
    fn dominated_by(&self, other: &Geometry) -> bool {
        self.len == other.len
            && self
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .all(|(&a, &b)| a <= b)
    }
}

impl fmt::Debug for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// One memo-answered verdict, for soundness audits: the probed geometry
/// and the verdict the memo derived for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoHit {
    /// The geometry the verdict was derived for.
    pub geometry: Geometry,
    /// `true` = survives (no kills), `false` = kills.
    pub survived: bool,
}

/// Verdicts observed by the anchor pass, queried under the dominance
/// rules (see module docs for the rules and their trust boundary).
#[derive(Clone, Debug, Default)]
pub(crate) struct Memo {
    /// Geometries that killed: dominate everything component-wise smaller.
    kills: Vec<Geometry>,
    /// Geometries that survived: dominate the same prefix at a larger
    /// last generation.
    survives: Vec<Geometry>,
}

impl Memo {
    pub(crate) fn record(&mut self, g: Geometry, survived: bool) {
        if survived {
            self.survives.push(g);
        } else {
            self.kills.push(g);
        }
    }

    pub(crate) fn lookup(&self, g: &Geometry) -> Option<bool> {
        if self.kills.iter().any(|k| g.dominated_by(k)) {
            return Some(false);
        }
        if self
            .survives
            .iter()
            .any(|s| s.len == g.len && g.prefix() == s.prefix() && g.last() >= s.last())
        {
            return Some(true);
        }
        None
    }
}

/// Per-column probe state, reset whenever the prober moves to a different
/// prefix.
struct ColumnState {
    /// The column's fixed prefix (empty for single-generation searches).
    prefix: Vec<u32>,
    /// Largest last-generation capacity the analytic certificate rejects
    /// under this prefix (0 when no certificate is available).
    threshold: u32,
    /// Consumption certificate extracted from the column's first
    /// surviving full-horizon probe: answers smaller capacities exactly,
    /// with zero simulation (see [`elog_core::ConsumptionCert`]).
    cert: Option<ConsumptionCert>,
}

/// Runs geometry probes for one search: a reusable scratch configuration
/// plus the capture/replay machinery (see module docs; the first
/// kill-free probe captures the workload, every later probe replays it).
///
/// [`Prober::verdict`] is the whole pipeline. When analytic acceleration
/// is on, two engines answer verdicts without simulating and without
/// changing any of them: the [`AnalyticModel`] certificate rejects
/// certainly-infeasible last-generation capacities, and the column's
/// [`ConsumptionCert`] answers every capacity below its first surviving
/// replay.
pub(crate) struct Prober {
    cfg: RunConfig,
    trace: Option<Arc<WorkloadTrace>>,
    /// Probe verdicts requested, simulated or memoised.
    probes: u32,
    stats: SearchStats,
    /// Memo-derived verdicts, recorded for soundness audits.
    memo_trail: Vec<MemoHit>,
    /// Analytic pruning + consumption certificates enabled for this search.
    analytic_on: bool,
    model: Option<Arc<AnalyticModel>>,
    column: Option<ColumnState>,
}

impl Prober {
    /// A prober over `base` replaying `trace` (or capturing one on its
    /// first kill-free probe).
    pub(crate) fn new(
        base: &RunConfig,
        trace: Option<Arc<WorkloadTrace>>,
        analytic_on: bool,
    ) -> Self {
        let mut cfg = base.clone();
        cfg.stop_on_kill = true;
        cfg.track_oracle = false;
        cfg.trace = None;
        Prober {
            cfg,
            trace,
            probes: 0,
            stats: SearchStats::default(),
            memo_trail: Vec::new(),
            analytic_on,
            model: None,
            column: None,
        }
    }

    /// A fresh-countered sibling for a scan worker: same configuration,
    /// trace and (shared, not re-derived) analytic certificate.
    fn worker(&self) -> Prober {
        let mut p = Prober::new(&self.cfg, self.trace.clone(), self.analytic_on);
        p.model = self.model.clone();
        p
    }

    /// Builds the certificate from the captured trace if allowed and not
    /// yet present.
    fn ensure_model(&mut self) {
        if self.analytic_on && self.model.is_none() {
            if let Some(t) = &self.trace {
                self.model = AnalyticModel::from_run(&self.cfg, t).map(Arc::new);
            }
        }
    }

    /// Whether the consumption certificate is sound: §6 lifetime hints
    /// consult capacities at BEGIN time (early state then depends on the
    /// last generation's capacity), and the last generation's
    /// deterministic `alloc j ⇒ consume j − (cap − gap)` law is broken by
    /// recirculation (re-appends compete for the same tail) and by a zero
    /// gap (desperate one-block allocations).
    fn cert_ok(&self) -> bool {
        self.analytic_on
            && !self.cfg.lifetime_hints
            && !self.cfg.el.log.recirculation
            && self.cfg.el.log.gap_blocks >= 1
    }

    /// The per-column state for `prefix`, (re)initialised when it differs
    /// from the current column's.
    fn column(&mut self, prefix: &[u32]) -> &mut ColumnState {
        if self.column.as_ref().is_none_or(|c| c.prefix != prefix) {
            self.column = Some(ColumnState {
                prefix: prefix.to_vec(),
                threshold: self
                    .model
                    .as_ref()
                    .map_or(0, |m| m.reject_threshold(prefix)),
                cert: None,
            });
        }
        self.column.as_mut().expect("column set above")
    }

    /// The verdict for `g` — `true` when it survives the whole horizon
    /// without kills — from the cheapest source that has one: the frozen
    /// dominance `memo`, the analytic threshold, the column's consumption
    /// certificate, and only then a simulation
    /// (capturing the workload when no trace exists yet, replaying it
    /// otherwise). Every source returns the verdict the simulation would,
    /// and every non-memo verdict counts as the probe it replaced, so
    /// printed probe counts never depend on which source answered.
    pub(crate) fn verdict(&mut self, memo: Option<&Memo>, g: Geometry) -> bool {
        self.probes += 1;
        let survived = 'answer: {
            if let Some(v) = memo.and_then(|m| m.lookup(&g)) {
                self.stats.memo_hits += 1;
                self.memo_trail.push(MemoHit {
                    geometry: g,
                    survived: v,
                });
                break 'answer v;
            }
            self.stats.sim_probes += 1;
            // A trace in hand makes this a replay probe, whichever source
            // ends up answering it. (No trace also means no certificate of
            // either kind yet: both are derived from replays.)
            let replay = self.trace.clone();
            self.stats.replay_probes += u64::from(replay.is_some());
            let col = self.column(g.prefix());
            if g.last() <= col.threshold {
                self.stats.analytic_rejections += 1;
                break 'answer false;
            }
            let certified = col
                .cert
                .as_ref()
                .map_or(CertVerdict::Unknown, |c| c.verdict(g.last()));
            if certified != CertVerdict::Unknown {
                self.stats.cert_verdicts += 1;
                break 'answer certified == CertVerdict::Survives;
            }
            let blocks = &mut self.cfg.el.log.generation_blocks;
            blocks.clear();
            blocks.extend_from_slice(g.as_slice());
            let Some(trace) = replay else {
                // First live probe(s); the first kill-free one hands back
                // the trace every later probe replays, and with it the
                // analytic certificate — mid-column, so drop the column
                // and let the next probe re-derive its threshold.
                let (r, trace) = run_capture(&self.cfg);
                self.trace = trace;
                self.ensure_model();
                self.column = None;
                self.stats.probe_events += r.perf.events;
                break 'answer r.killed == 0;
            };
            let cert_ok = self.cert_ok();
            self.cfg.trace = Some(trace);
            let mut engine = build_model(&self.cfg);
            self.cfg.trace = None;
            if cert_ok {
                // Record a consumption certificate so this run, if it
                // survives, answers the column's smaller capacities
                // without simulation.
                engine.model_mut().lm.start_cert_recording();
            }
            engine.run_until(self.cfg.runtime);
            self.stats.probe_events += engine.events_processed();
            let survived = engine.model().kills() == 0;
            if survived && cert_ok {
                // A surviving run's certificate is complete; later probes
                // of this column are strictly smaller capacities (the
                // bisection only descends), for which it stays valid.
                self.column(g.prefix()).cert = engine.model_mut().lm.take_consumption_cert();
            }
            survived
        };
        survived
    }

    /// Folds a scan worker's counters into this prober (order-independent,
    /// so parallel scans stay deterministic).
    fn absorb(&mut self, other: Prober) {
        self.probes += other.probes;
        self.stats.merge(&other.stats);
        self.memo_trail.extend(other.memo_trail);
    }

    /// Ends the search and packages the outcome. `blocks` is the minimum,
    /// or the clamped ceilings when nothing was `feasible`.
    fn finish(self, blocks: Vec<u32>, feasible: bool) -> SearchOutcome {
        SearchOutcome {
            min: MinSpaceResult {
                total_blocks: blocks.iter().sum(),
                generation_blocks: blocks,
                probes: self.probes,
                search: self.stats,
            },
            trace: self.trace,
            memo_trail: self.memo_trail,
            feasible,
        }
    }
}

/// Search ceilings for one lattice search.
#[derive(Clone, Debug)]
pub struct LatticeLimits {
    /// Scan ceiling per prefix axis (generations `0..N-2`); its length
    /// fixes the dimensionality: `prefix_max.len() + 1` generations.
    pub prefix_max: Vec<u32>,
    /// Binary-search ceiling for the last generation.
    pub last_limit: u32,
}

impl LatticeLimits {
    /// Limits for an N-generation search with a uniform prefix ceiling.
    pub fn uniform(gens: usize, prefix_max: u32, last_limit: u32) -> Self {
        assert!(gens >= 2, "a lattice search needs at least 2 generations");
        LatticeLimits {
            prefix_max: vec![prefix_max; gens - 1],
            last_limit,
        }
    }

    /// Number of generations the search covers.
    pub fn gens(&self) -> usize {
        self.prefix_max.len() + 1
    }
}

/// One step of a last-axis search: the deterministic automaton behind
/// every column bisection and the firewall search's doubling bracket.
///
/// This *is* the serial control flow of both searches: [`drive_last_axis`]
/// steps it one authoritative probe at a time, and the `plan_*` unit tests
/// pin it step by step against the hand-written loops it replaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Plan {
    /// The opening ceiling probe of a bisection: probing `hi` over the
    /// floor `lo`; a kill here means nothing within the ceiling fits.
    Ceiling {
        /// Bisection floor (`gap + 1`).
        lo: u32,
        /// The ceiling being probed.
        hi: u32,
    },
    /// The bisection loop on `[lo, hi]` (invariant `lo < hi`, `hi`
    /// survives): probing the midpoint.
    Bisect {
        /// Smallest capacity still possible.
        lo: u32,
        /// Smallest capacity known to survive.
        hi: u32,
    },
    /// The firewall search's doubling bracket: probing `upper` over the
    /// floor `lo`, capped at `limit`.
    Double {
        /// Smallest capacity still possible.
        lo: u32,
        /// The doubling candidate being probed.
        upper: u32,
        /// Search ceiling.
        limit: u32,
    },
    /// No more probes; `found` is the answer (`None` = nothing within
    /// the ceiling survived).
    Done {
        /// The minimal surviving capacity, if any.
        found: Option<u32>,
    },
}

impl Plan {
    /// The capacity the next authoritative probe tests (`None` when the
    /// search is finished).
    fn target(self) -> Option<u32> {
        match self {
            Plan::Ceiling { hi, .. } => Some(hi),
            Plan::Bisect { lo, hi } => Some(lo + (hi - lo) / 2),
            Plan::Double { upper, .. } => Some(upper),
            Plan::Done { .. } => None,
        }
    }

    /// The state after the current target's verdict.
    fn after(self, survived: bool) -> Plan {
        match self {
            Plan::Ceiling { lo, hi } => {
                if !survived {
                    Plan::Done { found: None }
                } else if lo < hi {
                    Plan::Bisect { lo, hi }
                } else {
                    Plan::Done { found: Some(hi) }
                }
            }
            Plan::Bisect { lo, hi } => {
                let mid = lo + (hi - lo) / 2;
                if survived {
                    if lo < mid {
                        Plan::Bisect { lo, hi: mid }
                    } else {
                        Plan::Done { found: Some(mid) }
                    }
                } else if mid + 1 < hi {
                    Plan::Bisect { lo: mid + 1, hi }
                } else {
                    Plan::Done { found: Some(hi) }
                }
            }
            Plan::Double { lo, upper, limit } => {
                if survived {
                    if lo < upper {
                        Plan::Bisect { lo, hi: upper }
                    } else {
                        Plan::Done { found: Some(upper) }
                    }
                } else if upper >= limit {
                    Plan::Done { found: None }
                } else {
                    Plan::Double {
                        lo: upper + 1,
                        upper: (upper * 2).min(limit),
                        limit,
                    }
                }
            }
            Plan::Done { found } => Plan::Done { found },
        }
    }

    /// The answer once `target()` is `None`.
    fn found(self) -> Option<u32> {
        match self {
            Plan::Done { found } => found,
            other => unreachable!("found() before Done: {other:?}"),
        }
    }
}

/// Runs a last-axis search plan to completion on `p`: for a fixed prefix,
/// the smallest last generation with no kills, or `None` if nothing
/// within the plan's ceiling survives. `on_verdict` observes each verdict
/// (the anchor pass records them into the dominance memo).
fn drive_last_axis(
    p: &mut Prober,
    memo: Option<&Memo>,
    prefix: &[u32],
    mut plan: Plan,
    mut on_verdict: impl FnMut(Geometry, bool),
) -> Option<u32> {
    let mut buf = [0u32; MAX_AXES];
    buf[..prefix.len()].copy_from_slice(prefix);
    while let Some(target) = plan.target() {
        buf[prefix.len()] = target;
        let g = Geometry::from_slice(&buf[..=prefix.len()]);
        let v = p.verdict(memo, g);
        on_verdict(g, v);
        plan = plan.after(v);
    }
    plan.found()
}

/// Most columns a lattice scan will enumerate.
pub(crate) const MAX_PREFIX_COLUMNS: u64 = 1 << 20;

/// Columns in the scan lattice: axis `i` ranges over `[gap+1,
/// prefix_max[i]]` (saturating, so hostile ceilings compare as "too many").
pub(crate) fn prefix_volume(gap: u32, prefix_max: &[u32]) -> u64 {
    prefix_max.iter().fold(1u64, |v, &m| {
        v.saturating_mul(u64::from(m.saturating_sub(gap)))
    })
}

/// Every prefix point of the scan lattice in lexicographic ascending
/// order. The all-maxima corner (the anchor) is excluded — the anchor
/// pass already probed it.
fn enumerate_prefixes(gap: u32, prefix_max: &[u32]) -> Vec<Geometry> {
    let lo = gap + 1;
    let volume = prefix_volume(gap, prefix_max);
    assert!(
        volume <= MAX_PREFIX_COLUMNS,
        "prefix lattice has {volume} columns; tighten the ceilings"
    );
    let mut out = Vec::with_capacity(volume.saturating_sub(1) as usize);
    let mut point: Vec<u32> = vec![lo; prefix_max.len()];
    loop {
        let g = Geometry::from_slice(&point);
        // Odometer increment (last axis fastest) before the push decision
        // would reorder; push first, then advance.
        let is_anchor = point.iter().zip(prefix_max).all(|(&v, &m)| v == m);
        if !is_anchor {
            out.push(g);
        }
        let mut axis = point.len();
        loop {
            if axis == 0 {
                return out;
            }
            axis -= 1;
            if point[axis] < prefix_max[axis] {
                point[axis] += 1;
                break;
            }
            point[axis] = lo;
        }
    }
}

/// The lattice search: the anchor column at the all-maxima prefix, then
/// every other column in parallel, each capped strictly below the best
/// total the anchor proved.
fn run_lattice(
    mut anchor: Prober,
    limits: &LatticeLimits,
    jobs: usize,
    use_memo: bool,
) -> SearchOutcome {
    let k = anchor.cfg.el.log.gap_blocks;
    assert!(
        !limits.prefix_max.is_empty(),
        "lattice search needs at least one prefix axis (2 generations); \
         use SearchRequest::firewall for single-generation logs"
    );
    assert!(
        limits.gens() <= MAX_AXES,
        "lattice search supports at most {MAX_AXES} generations, got {}",
        limits.gens()
    );
    assert!(
        limits.prefix_max.iter().all(|&m| m > k) && limits.last_limit > k,
        "every ceiling must exceed the gap threshold ({k})"
    );
    let mut memo = Memo::default();
    let anchor_prefix = Geometry::from_slice(&limits.prefix_max);
    let ceiling = |hi| Plan::Ceiling { lo: k + 1, hi };
    let anchor_last = drive_last_axis(
        &mut anchor,
        None,
        anchor_prefix.as_slice(),
        ceiling(limits.last_limit),
        |g, v| memo.record(g, v),
    );
    // The memo is frozen here: the scan reads the anchor pass's verdicts
    // but records none of its own (within one prefix's binary search no
    // probe ever dominates a later one), keeping probe counts independent
    // of `jobs`. When even the all-maxima prefix cannot fit, the scan is
    // exhaustive instead — no bound, and no memo either: the minimal last
    // generation need not be monotone in the prefix, so a smaller prefix
    // may still be feasible, which is exactly the corner where
    // cross-prefix dominance is distrusted.
    let memo = (use_memo && anchor_last.is_some()).then_some(&memo);
    let bound = anchor_last.map(|last| anchor_prefix.total() + last);
    let prefixes = enumerate_prefixes(k, &limits.prefix_max);
    // Workers draw scratch probers from a pool instead of cloning the
    // configuration per prefix; every prober already replays the anchor's
    // trace and shares the anchor's analytic certificate.
    let pool: Mutex<Vec<Prober>> = Mutex::new(Vec::new());
    let results = crate::sweep::parallel_map(&prefixes, jobs, |_, prefix| {
        let mut p = pool
            .lock()
            .expect("prober pool")
            .pop()
            .unwrap_or_else(|| anchor.worker());
        // Any last generation above `cap` would tie or exceed the bound:
        // that part of the column (all of it, when `cap` is below the
        // floor) is pruned probe-free.
        let cap = bound.map_or(limits.last_limit, |b| {
            (b.saturating_sub(prefix.total()).saturating_sub(1)).min(limits.last_limit)
        });
        p.stats.pruned_volume += u64::from(limits.last_limit - cap.max(k));
        let last = if cap > k {
            drive_last_axis(&mut p, memo, prefix.as_slice(), ceiling(cap), |_, _| {})
        } else {
            None
        };
        pool.lock().expect("prober pool").push(p);
        last
    });
    for p in pool.into_inner().expect("prober pool") {
        anchor.absorb(p);
    }
    // Prefer the smaller total; on ties the larger prefix (less forwarded
    // traffic, lower bandwidth). Every capped candidate beats the anchor.
    let mut best = anchor_last.map(|last| anchor_prefix.with_last(last));
    for (prefix, r) in prefixes.iter().zip(results) {
        if let Some(last) = r.expect("probe simulation panicked") {
            let cand = prefix.with_last(last);
            if best.is_none_or(|b| {
                cand.total() < b.total()
                    || (cand.total() == b.total() && cand.prefix() > b.prefix())
            }) {
                best = Some(cand);
            }
        }
    }
    let clamped = anchor_prefix.with_last(limits.last_limit);
    anchor.finish(best.unwrap_or(clamped).to_vec(), best.is_some())
}

/// Smallest single-generation log: doubling to bracket, then bisection.
fn run_firewall(mut p: Prober, limit: u32) -> SearchOutcome {
    let lo = p.cfg.el.log.gap_blocks + 1; // smallest valid geometry
    let plan = Plan::Double {
        lo,
        upper: (lo * 2).min(limit),
        limit,
    };
    let found = drive_last_axis(&mut p, None, &[], plan, |_, _| {});
    p.finish(vec![found.unwrap_or(limit)], found.is_some())
}

/// Smallest last generation under a fixed prefix.
fn run_fixed_prefix(mut p: Prober, prefix: Vec<u32>, last_limit: u32) -> SearchOutcome {
    let plan = Plan::Ceiling {
        lo: p.cfg.el.log.gap_blocks + 1,
        hi: last_limit,
    };
    let last = drive_last_axis(&mut p, None, &prefix, plan, |_, _| {});
    let mut blocks = prefix;
    blocks.push(last.unwrap_or(last_limit));
    p.finish(blocks, last.is_some())
}

/// What a [`SearchRequest`] searches over.
#[derive(Clone, Debug)]
pub enum SearchMode {
    /// Single-generation (FW baseline) minimum: doubling + bisection,
    /// capped at `limit`.
    Firewall {
        /// Search ceiling; the result clamps here when nothing survives.
        limit: u32,
    },
    /// Full N-generation lattice minimum (anchor pass, memoised prefix
    /// scan, anchor-bound pruning).
    Lattice {
        /// Per-axis ceilings; their shape fixes the dimensionality.
        limits: LatticeLimits,
    },
    /// Fixed prefix, bisect only the last generation (Figure 7's
    /// "progressively decreased its size" protocol).
    FixedPrefix {
        /// The frozen sizes of every generation but the last.
        prefix: Vec<u32>,
        /// Bisection ceiling for the last generation.
        last_limit: u32,
    },
}

/// One minimum-space search, any shape: the single entry point of the
/// minimum-space machinery.
///
/// ```no_run
/// # use elog_harness::{SearchRequest, LatticeLimits, minspace::paper_base};
/// let base = paper_base(0.05, false, 500);
/// let out = SearchRequest::lattice(&base, LatticeLimits::uniform(3, 12, 256))
///     .jobs(4)
///     .run();
/// assert!(out.feasible);
/// ```
#[derive(Clone, Debug)]
pub struct SearchRequest {
    base: RunConfig,
    mode: SearchMode,
    jobs: usize,
    memo: bool,
    analytic: bool,
    seed_trace: Option<Arc<WorkloadTrace>>,
}

/// What a [`SearchRequest`] found.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The minimum geometry and the probe-engine counters.
    pub min: MinSpaceResult,
    /// The workload trace the probes captured (or were seeded with), for
    /// the caller's measured run.
    pub trace: Option<Arc<WorkloadTrace>>,
    /// Memo-derived verdicts, for soundness audits (lattice mode only).
    pub memo_trail: Vec<MemoHit>,
    /// `false` when nothing survived within the ceilings; `min` then
    /// holds the ceilings themselves, not a minimum.
    pub feasible: bool,
}

impl SearchRequest {
    /// A request for `mode` at the defaults every builder starts from.
    pub(crate) fn with_mode(base: &RunConfig, mode: SearchMode) -> Self {
        SearchRequest {
            base: base.clone(),
            mode,
            jobs: 1,
            memo: true,
            analytic: true,
            seed_trace: None,
        }
    }

    /// Single-generation (FW) minimum-space search capped at `limit`.
    pub fn firewall(base: &RunConfig, limit: u32) -> Self {
        Self::with_mode(base, SearchMode::Firewall { limit })
    }

    /// N-generation lattice search over `limits` (the 2-generation search
    /// is the one-prefix-axis case).
    pub fn lattice(base: &RunConfig, limits: LatticeLimits) -> Self {
        Self::with_mode(base, SearchMode::Lattice { limits })
    }

    /// Fixed-prefix search: bisect only the last generation.
    pub fn fixed_prefix(base: &RunConfig, prefix: Vec<u32>, last_limit: u32) -> Self {
        assert!(!prefix.is_empty(), "use firewall() for one generation");
        Self::with_mode(base, SearchMode::FixedPrefix { prefix, last_limit })
    }

    /// Worker threads for the lattice prefix scan (default 1; results are
    /// invariant in this).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Enables/disables the dominance memo (lattice mode; default on).
    pub fn memo(mut self, on: bool) -> Self {
        self.memo = on;
        self
    }

    /// Enables/disables the analytic threshold and the consumption
    /// certificates (default on; results are invariant in this, only the
    /// number of simulated probe events changes).
    pub fn analytic(mut self, on: bool) -> Self {
        self.analytic = on;
        self
    }

    /// Seeds the probes with an already-captured workload trace (must
    /// match the base's seed, mix, arrivals and horizon); without one the
    /// first kill-free probe captures its own.
    pub fn seed_trace(mut self, trace: Option<Arc<WorkloadTrace>>) -> Self {
        self.seed_trace = trace;
        self
    }

    /// Frozen name, owed to the next benchmark re-record: `benchmark/`
    /// pins its protocol with `.probe_jobs(1)`, and serial probing is the
    /// only kind there is.
    #[doc(hidden)]
    pub fn probe_jobs(self, n: usize) -> Self {
        assert_eq!(n, 1, "probes are serial; there is no width to set");
        self
    }

    /// Runs the search.
    pub fn run(self) -> SearchOutcome {
        let mut p = Prober::new(&self.base, self.seed_trace, self.analytic);
        p.ensure_model();
        match self.mode {
            SearchMode::Firewall { limit } => run_firewall(p, limit),
            SearchMode::Lattice { limits } => run_lattice(p, &limits, self.jobs, self.memo),
            SearchMode::FixedPrefix { prefix, last_limit } => {
                run_fixed_prefix(p, prefix, last_limit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minspace::{paper_base, survives};
    use elog_core::{Effects, LmTimer};
    use elog_model::{Oid, StableDb, Tid};
    use elog_sim::SimTime;

    fn geom(blocks: &[u32]) -> Geometry {
        Geometry::from_slice(blocks)
    }

    #[test]
    fn geometry_accessors() {
        let g = geom(&[18, 16, 8]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.total(), 42);
        assert_eq!(g.prefix(), &[18, 16]);
        assert_eq!(g.last(), 8);
        assert_eq!(g.as_slice(), &[18, 16, 8]);
        assert_eq!(format!("{g:?}"), "[18, 16, 8]");
        assert_eq!(geom(&[18, 16]).with_last(8), g);
        assert_eq!(g.to_vec(), vec![18, 16, 8]);
    }

    #[test]
    fn memo_dominance_rules_two_gen() {
        // The exact rules the old 2-gen memo encoded.
        let mut m = Memo::default();
        m.record(geom(&[24, 9]), false); // kill at [24, 9]
        m.record(geom(&[24, 10]), true); // survive at [24, 10]
                                         // Kill dominance: component-wise smaller geometries also kill.
        assert_eq!(m.lookup(&geom(&[20, 9])), Some(false));
        assert_eq!(m.lookup(&geom(&[24, 8])), Some(false));
        assert_eq!(m.lookup(&geom(&[10, 3])), Some(false));
        // Survive dominance: same gen0, bigger gen1.
        assert_eq!(m.lookup(&geom(&[24, 11])), Some(true));
        assert_eq!(m.lookup(&geom(&[24, 10])), Some(true));
        // No dominance: different gen0 above the kill, or bigger g1.
        assert_eq!(m.lookup(&geom(&[23, 10])), None);
        assert_eq!(m.lookup(&geom(&[25, 9])), None);
    }

    #[test]
    fn memo_dominance_rules_three_gen() {
        let mut m = Memo::default();
        m.record(geom(&[12, 8, 6]), false);
        m.record(geom(&[12, 8, 7]), true);
        // Kill dominance is fully component-wise.
        assert_eq!(m.lookup(&geom(&[12, 8, 6])), Some(false));
        assert_eq!(m.lookup(&geom(&[10, 8, 5])), Some(false));
        assert_eq!(m.lookup(&geom(&[12, 7, 6])), Some(false));
        // Survive dominance holds only within the fixed [12, 8] prefix.
        assert_eq!(m.lookup(&geom(&[12, 8, 9])), Some(true));
        assert_eq!(m.lookup(&geom(&[12, 9, 7])), None, "prefix differs");
        assert_eq!(m.lookup(&geom(&[13, 8, 7])), None, "prefix differs");
        // Dimension mismatch never matches either rule.
        assert_eq!(m.lookup(&geom(&[12, 8])), None);
    }

    #[test]
    fn prefix_enumeration_is_lexicographic_and_skips_anchor() {
        // One axis: k+1..max, anchor (the max) excluded — exactly the
        // 2-gen scan's gen0 range.
        let one = enumerate_prefixes(2, &[6]);
        assert_eq!(
            one,
            vec![geom(&[3]), geom(&[4]), geom(&[5])],
            "one-axis enumeration"
        );
        // Two axes: lexicographic, all-maxima corner excluded.
        let two = enumerate_prefixes(2, &[4, 5]);
        let expect: Vec<Geometry> = (3..=4)
            .flat_map(|a| (3..=5).map(move |b| geom(&[a, b])))
            .filter(|g| g.as_slice() != [4, 5])
            .collect();
        assert_eq!(two, expect);
        assert_eq!(two.len(), 2 * 3 - 1);
    }

    #[test]
    fn three_gen_search_finds_feasible_minimum() {
        let base = paper_base(0.05, false, 20);
        let limits = LatticeLimits {
            prefix_max: vec![14, 10],
            last_limit: 64,
        };
        let out = SearchRequest::lattice(&base, limits).jobs(2).run();
        assert!(out.feasible);
        assert!(out.trace.is_some(), "search must capture a trace");
        let r = out.min;
        assert_eq!(r.generation_blocks.len(), 3);
        assert!(survives(&base, &r.generation_blocks));
        assert_eq!(
            r.search.sim_probes + r.search.memo_hits,
            u64::from(r.probes),
            "every verdict is either simulated or memoised"
        );
        assert!(
            r.search.pruned_volume > 0,
            "the anchor bound must prune part of the lattice"
        );
        // The boundary really is a boundary: shrinking the last
        // generation at the chosen prefix must kill (when legal).
        let g = &r.generation_blocks;
        if g[2] > base.el.log.gap_blocks + 1 {
            assert!(!survives(&base, &[g[0], g[1], g[2] - 1]));
        }
    }

    #[test]
    fn lattice_search_is_jobs_invariant() {
        let base = paper_base(0.05, false, 15);
        let limits = LatticeLimits {
            prefix_max: vec![8, 8],
            last_limit: 48,
        };
        let search = |jobs| {
            let req = SearchRequest::lattice(&base, limits.clone());
            req.jobs(jobs).run().min
        };
        let (serial, parallel) = (search(1), search(4));
        assert_eq!(serial.generation_blocks, parallel.generation_blocks);
        assert_eq!(serial.probes, parallel.probes);
        assert_eq!(serial.search.sim_probes, parallel.search.sim_probes);
        assert_eq!(serial.search.memo_hits, parallel.search.memo_hits);
        assert_eq!(serial.search.pruned_volume, parallel.search.pruned_volume);
        // The analytic engines are column-local, so their counters are
        // jobs-invariant too — event volume included.
        assert_eq!(
            serial.search.analytic_rejections,
            parallel.search.analytic_rejections
        );
        assert_eq!(serial.search.cert_verdicts, parallel.search.cert_verdicts);
        assert_eq!(serial.search.probe_events, parallel.search.probe_events);
    }

    #[test]
    fn analytic_path_matches_probe_only_path() {
        // The accelerators' soundness contract: with the analytic
        // pre-filter and certificates on, every probe verdict — and
        // therefore the chosen geometry, the probe counts, and the memo
        // trail — is identical to the exhaustive probe path; only the
        // event volume may shrink.
        let base = paper_base(0.05, false, 20);
        let limits = LatticeLimits {
            prefix_max: vec![10, 8],
            last_limit: 64,
        };
        let lattice = |analytic| {
            let req = SearchRequest::lattice(&base, limits.clone()).jobs(2);
            req.analytic(analytic).run()
        };
        let (on, off) = (lattice(true), lattice(false));
        let (on_trail, off_trail) = (on.memo_trail, off.memo_trail);
        let (on, off) = (on.min, off.min);
        assert_eq!(on.generation_blocks, off.generation_blocks);
        assert_eq!(on.probes, off.probes);
        assert_eq!(on.search.sim_probes, off.search.sim_probes);
        assert_eq!(on.search.replay_probes, off.search.replay_probes);
        assert_eq!(on.search.memo_hits, off.search.memo_hits);
        assert_eq!(on.search.pruned_volume, off.search.pruned_volume);
        assert_eq!(on_trail, off_trail);
        assert_eq!(off.search.analytic_rejections, 0);
        assert_eq!(off.search.cert_verdicts, 0);
        assert!(
            on.search.probe_events <= off.search.probe_events,
            "the pre-filter must not add events: {} vs {}",
            on.search.probe_events,
            off.search.probe_events
        );
    }

    #[test]
    fn cert_answers_fixed_prefix_bisection() {
        // Fixed-prefix bisection: once a replay probe survives the whole
        // horizon, its consumption certificate answers every smaller
        // capacity in the column probe-free — changing nothing but the
        // event count.
        let base = paper_base(0.05, false, 30);
        let run = |analytic| {
            let out = SearchRequest::fixed_prefix(&base, vec![14], 96)
                .analytic(analytic)
                .run();
            assert!(out.feasible);
            out.min
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on.generation_blocks, off.generation_blocks);
        assert_eq!(on.probes, off.probes);
        assert_eq!(on.search.replay_probes, off.search.replay_probes);
        assert!(
            on.search.cert_verdicts > 0,
            "bisection under one prefix must use the certificate"
        );
        assert_eq!(off.search.cert_verdicts, 0);
        assert!(
            on.search.probe_events < off.search.probe_events,
            "certified probes must actually skip events: {} vs {}",
            on.search.probe_events,
            off.search.probe_events
        );
    }

    #[test]
    fn infeasible_anchor_falls_back_to_exhaustive_scan() {
        // A 40% mix cannot fit the tiny ceilings at the anchor, so the
        // scan turns exhaustive (no bound, no memo) — and at these
        // ceilings still finds nothing: the outcome says so and hands
        // back the ceilings, not a "minimum".
        let base = paper_base(0.4, false, 20);
        let limits = LatticeLimits {
            prefix_max: vec![4, 4],
            last_limit: 5,
        };
        let out = SearchRequest::lattice(&base, limits).jobs(2).run();
        assert!(!out.feasible);
        assert_eq!(out.min.generation_blocks, vec![4, 4, 5]);
        assert_eq!(out.min.total_blocks, 13);
        assert_eq!(out.min.search.memo_hits, 0, "fallback scan is memo-free");
        assert_eq!(out.min.search.pruned_volume, 0, "and unbounded");
        // 2 × 2 prefixes (axes 3..=4 over the gap of 2), each killed at
        // its ceiling probe.
        assert_eq!(out.min.probes, 4);
    }

    #[test]
    fn every_mode_reports_infeasible_with_clamped_ceilings() {
        let base = paper_base(0.4, false, 20);
        let requests = [
            SearchRequest::firewall(&base, 5),
            SearchRequest::lattice(&base, LatticeLimits::uniform(2, 4, 5)),
            SearchRequest::fixed_prefix(&base, vec![4], 5),
        ];
        for (req, ceilings) in requests.into_iter().zip([vec![5], vec![4, 5], vec![4, 5]]) {
            let mode = format!("{:?}", req.mode);
            let out = req.run();
            assert!(!out.feasible, "{mode}");
            assert_eq!(out.min.generation_blocks, ceilings, "{mode}");
            assert!(out.min.probes > 0, "{mode}");
        }
    }

    #[test]
    fn uniform_limits_shape() {
        let l = LatticeLimits::uniform(4, 12, 64);
        assert_eq!(l.prefix_max, vec![12, 12, 12]);
        assert_eq!(l.gens(), 4);
        assert_eq!(l.last_limit, 64);
    }

    /// The pre-`Plan` serial bisection (the old `min_last_for`),
    /// recording every capacity it probes.
    fn ref_min_last(
        oracle: &mut impl FnMut(u32) -> bool,
        probes: &mut Vec<u32>,
        floor: u32,
        hi_limit: u32,
    ) -> Option<u32> {
        let mut lo = floor;
        let mut hi = hi_limit;
        probes.push(hi);
        if !oracle(hi) {
            return None;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes.push(mid);
            if oracle(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(hi)
    }

    /// The pre-`Plan` firewall loop: doubling bracket, then bisection.
    fn ref_firewall(
        oracle: &mut impl FnMut(u32) -> bool,
        probes: &mut Vec<u32>,
        floor: u32,
        hi_limit: u32,
    ) -> Option<u32> {
        let mut lo = floor;
        let mut hi = hi_limit;
        let mut upper = (lo * 2).min(hi);
        loop {
            probes.push(upper);
            if oracle(upper) {
                hi = upper;
                break;
            }
            if upper >= hi_limit {
                return None;
            }
            lo = upper + 1;
            upper = (upper * 2).min(hi_limit);
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes.push(mid);
            if oracle(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(hi)
    }

    /// Drives a [`Plan`] against the oracle, recording probes identically.
    fn drive_plan(
        oracle: &mut impl FnMut(u32) -> bool,
        probes: &mut Vec<u32>,
        mut plan: Plan,
    ) -> Option<u32> {
        loop {
            let Some(t) = plan.target() else {
                return plan.found();
            };
            probes.push(t);
            plan = plan.after(oracle(t));
        }
    }

    #[test]
    fn plan_bisection_matches_serial_reference() {
        // Monotone oracles (survives iff cap ≥ threshold), exhaustively
        // over small floors/limits; threshold > limit = infeasible.
        for floor in 1..=4u32 {
            for limit in floor..=floor + 12 {
                for thresh in floor..=limit + 2 {
                    let (mut p_ref, mut p_plan) = (Vec::new(), Vec::new());
                    let want = ref_min_last(&mut |c| c >= thresh, &mut p_ref, floor, limit);
                    let got = drive_plan(
                        &mut |c| c >= thresh,
                        &mut p_plan,
                        Plan::Ceiling {
                            lo: floor,
                            hi: limit,
                        },
                    );
                    assert_eq!(got, want, "floor {floor} limit {limit} thresh {thresh}");
                    assert_eq!(
                        p_plan, p_ref,
                        "probe sequence diverged at floor {floor} limit {limit} \
                         thresh {thresh}"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_doubling_matches_firewall_reference() {
        for floor in 1..=4u32 {
            for limit in floor..=floor + 20 {
                for thresh in floor..=limit + 2 {
                    let (mut p_ref, mut p_plan) = (Vec::new(), Vec::new());
                    let want = ref_firewall(&mut |c| c >= thresh, &mut p_ref, floor, limit);
                    let got = drive_plan(
                        &mut |c| c >= thresh,
                        &mut p_plan,
                        Plan::Double {
                            lo: floor,
                            upper: (floor * 2).min(limit),
                            limit,
                        },
                    );
                    assert_eq!(got, want, "floor {floor} limit {limit} thresh {thresh}");
                    assert_eq!(
                        p_plan, p_ref,
                        "probe sequence diverged at floor {floor} limit {limit} \
                         thresh {thresh}"
                    );
                }
            }
        }
    }

    #[test]
    fn frozen_benchmark_builders_accept_only_one() {
        let base = paper_base(0.05, false, 15);
        assert_eq!(
            format!("{:?}", base.clone().shards(1)),
            format!("{base:?}"),
            "shards(1) is the identity"
        );
        let req = SearchRequest::firewall(&base, 64);
        assert_eq!(
            format!("{:?}", req.clone().probe_jobs(1)),
            format!("{req:?}"),
            "probe_jobs(1) is the identity"
        );
        let err = std::panic::catch_unwind(|| paper_base(0.05, false, 15).shards(2));
        assert!(err.is_err(), "shards(2) must panic");

        // The three names prefix resume left behind: `benchmark/`'s tracing
        // manager overrides `last_gen_allocated`, its `search` workload
        // hashes the two counters — which no search increments any more,
        // not even the recirculating fixed-prefix one resume existed for.
        struct Overrides;
        #[rustfmt::skip]
        impl elog_core::LogManager for Overrides {
            fn begin(&mut self, _: SimTime, _: Tid) -> Effects { unreachable!() }
            fn write_data(&mut self, _: SimTime, _: Tid, _: Oid, _: u32, _: u32) -> Effects { unreachable!() }
            fn commit_request(&mut self, _: SimTime, _: Tid) -> Effects { unreachable!() }
            fn abort(&mut self, _: SimTime, _: Tid) -> Effects { unreachable!() }
            fn handle_timer(&mut self, _: SimTime, _: LmTimer) -> Effects { unreachable!() }
            fn quiesce(&mut self, _: SimTime) -> Effects { unreachable!() }
            fn peak_memory_bytes(&self) -> u64 { unreachable!() }
            fn log_writes(&self) -> u64 { unreachable!() }
            fn log_write_rate(&self, _: SimTime) -> f64 { unreachable!() }
            fn stable_db(&self) -> &StableDb { unreachable!() }
            fn last_gen_allocated(&self) -> u64 { 7 }
        }
        assert_eq!(elog_core::LogManager::last_gen_allocated(&Overrides), 7);
        let recirc = paper_base(0.05, true, 15);
        let s = SearchRequest::fixed_prefix(&recirc, vec![14], 96)
            .run()
            .min
            .search;
        assert!(s.replay_probes > 0);
        assert_eq!((s.resume_probes, s.resume_saved_events), (0, 0));
    }
}
