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
//! # One accelerator
//!
//! `Prober::verdict` is two steps: the column's [`ConsumptionCert`], else
//! simulate. The certificate's correctness argument is local to one column
//! — with the prefix fixed, only the last ring's head advance depends on
//! the last capacity (`alloc j ⇒ consume j − (cap − gap)`, see
//! [`elog_core::cert`]) — and `tests/search_oracle.rs` holds it, and the
//! search around it, to plain simulation of every lattice point.
//!
//! # Jobs invariance
//!
//! One `Prober` captures the workload trace on the first kill-free
//! probe; every later probe replays it. Scan workers share that trace and
//! nothing else — a certificate never outlives its column — so probe
//! counts, and every statistic derived from them, are identical for every
//! `jobs` setting.

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
/// An inline fixed-capacity vector (`Copy`, no heap): scan columns and
/// candidate minima are made of these.
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

    /// The sizes of every generation but the last.
    pub fn prefix(&self) -> &[u32] {
        &self.axes[..self.len as usize - 1]
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
}

impl fmt::Debug for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Runs geometry probes for one search: a reusable scratch configuration
/// plus the capture/replay machinery (see module docs; the first
/// kill-free probe captures the workload, every later probe replays it).
pub(crate) struct Prober {
    cfg: RunConfig,
    trace: Option<Arc<WorkloadTrace>>,
    /// Probe verdicts requested, certified or simulated.
    probes: u32,
    stats: SearchStats,
    /// Consumption certificates enabled for this search.
    certificates: bool,
    /// The prefix of the column probed last and the certificate its latest
    /// surviving replay left: answers that column's smaller capacities
    /// exactly, with zero simulation (see [`elog_core::ConsumptionCert`]).
    cert: Option<(Vec<u32>, ConsumptionCert)>,
}

impl Prober {
    /// A prober over `base` replaying `trace` (or capturing one on its
    /// first kill-free probe).
    pub(crate) fn new(
        base: &RunConfig,
        trace: Option<Arc<WorkloadTrace>>,
        certificates: bool,
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
            certificates,
            cert: None,
        }
    }

    /// A fresh-countered sibling for a scan worker: same configuration
    /// and trace, nothing else shared.
    fn worker(&self) -> Prober {
        Prober::new(&self.cfg, self.trace.clone(), self.certificates)
    }

    /// Whether the consumption certificate is sound: §6 lifetime hints
    /// consult capacities at BEGIN time (early state then depends on the
    /// last generation's capacity), and the last generation's
    /// deterministic `alloc j ⇒ consume j − (cap − gap)` law is broken by
    /// recirculation (re-appends compete for the same tail) and by a zero
    /// gap (desperate one-block allocations).
    fn cert_ok(&self) -> bool {
        self.certificates
            && !self.cfg.lifetime_hints
            && !self.cfg.el.log.recirculation
            && self.cfg.el.log.gap_blocks >= 1
    }

    /// The verdict for the geometry `prefix + [last]` — `true` when it
    /// survives the whole horizon without kills — from the column's
    /// consumption certificate when it has one, else from a simulation
    /// (capturing the workload when no trace exists yet, replaying it
    /// otherwise). The certificate returns the verdict the simulation
    /// would and counts as the probe it replaced, so printed probe counts
    /// never depend on which of the two answered.
    pub(crate) fn verdict(&mut self, prefix: &[u32], last: u32) -> bool {
        self.probes += 1;
        self.stats.sim_probes += 1;
        // A trace in hand makes this a replay probe, whichever source
        // ends up answering it. (No trace also means no certificate yet:
        // certificates are recorded by replays.)
        let replay = self.trace.clone();
        self.stats.replay_probes += u64::from(replay.is_some());
        let column_cert = self.cert.as_ref().filter(|(p, _)| p == prefix);
        let certified = column_cert.map_or(CertVerdict::Unknown, |(_, c)| c.verdict(last));
        if certified != CertVerdict::Unknown {
            self.stats.cert_verdicts += 1;
            return certified == CertVerdict::Survives;
        }
        let blocks = &mut self.cfg.el.log.generation_blocks;
        blocks.clear();
        blocks.extend_from_slice(prefix);
        blocks.push(last);
        let Some(trace) = replay else {
            // First live probe(s); the first kill-free one hands back the
            // trace every later probe replays.
            let (r, trace) = run_capture(&self.cfg);
            self.trace = trace;
            self.stats.probe_events += r.perf.events;
            return r.killed == 0;
        };
        let cert_ok = self.cert_ok();
        self.cfg.trace = Some(trace);
        let mut engine = build_model(&self.cfg);
        self.cfg.trace = None;
        if cert_ok {
            // Record a consumption certificate so this run, if it
            // survives, answers the column's smaller capacities without
            // simulation.
            engine.model_mut().lm.start_cert_recording();
        }
        engine.run_until(self.cfg.runtime);
        self.stats.probe_events += engine.events_processed();
        let survived = engine.model().kills() == 0;
        if survived && cert_ok {
            // A surviving run's certificate is complete; later probes of
            // this column are strictly smaller capacities (the bisection
            // only descends), for which it stays valid.
            let cert = engine.model_mut().lm.take_consumption_cert();
            self.cert = cert.map(|c| (prefix.to_vec(), c));
        }
        survived
    }

    /// Folds a scan worker's counters into this prober (order-independent,
    /// so parallel scans stay deterministic).
    fn absorb(&mut self, other: Prober) {
        self.probes += other.probes;
        self.stats.merge(&other.stats);
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

/// The smallest capacity in `[lo, hi]` that `survives`, given that `hi`
/// does and that survival is monotone in the capacity.
fn bisect(mut lo: u32, mut hi: u32, mut survives: impl FnMut(u32) -> bool) -> u32 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if survives(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// A column's search: the smallest capacity in `[floor, ceiling]` that
/// `survives`, or `None` when even the ceiling does not.
fn min_under_ceiling(
    floor: u32,
    ceiling: u32,
    mut survives: impl FnMut(u32) -> bool,
) -> Option<u32> {
    survives(ceiling).then(|| bisect(floor, ceiling, survives))
}

/// The firewall search: doubles up from `floor` until a capacity
/// `survives` (or `limit` does not), then bisects the bracket.
fn min_by_doubling(floor: u32, limit: u32, mut survives: impl FnMut(u32) -> bool) -> Option<u32> {
    let mut lo = floor;
    let mut upper = floor.saturating_mul(2).min(limit);
    while !survives(upper) {
        if upper >= limit {
            return None;
        }
        lo = upper + 1;
        upper = upper.saturating_mul(2).min(limit);
    }
    Some(bisect(lo, upper, survives))
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
fn run_lattice(mut anchor: Prober, limits: &LatticeLimits, jobs: usize) -> SearchOutcome {
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
    let anchor_prefix = Geometry::from_slice(&limits.prefix_max);
    let anchor_last = min_under_ceiling(k + 1, limits.last_limit, |c| {
        anchor.verdict(&limits.prefix_max, c)
    });
    // When even the all-maxima prefix cannot fit, the scan is exhaustive
    // instead — no bound: the minimal last generation need not be
    // monotone in the prefix, so a smaller prefix may still be feasible.
    let bound = anchor_last.map(|last| anchor_prefix.total() + last);
    let prefixes = enumerate_prefixes(k, &limits.prefix_max);
    // Workers draw scratch probers from a pool instead of cloning the
    // configuration per prefix; every prober replays the anchor's trace.
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
            min_under_ceiling(k + 1, cap, |c| p.verdict(prefix.as_slice(), c))
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
    let floor = p.cfg.el.log.gap_blocks + 1; // smallest valid geometry
    let found = min_by_doubling(floor, limit, |c| p.verdict(&[], c));
    p.finish(vec![found.unwrap_or(limit)], found.is_some())
}

/// Smallest last generation under a fixed prefix.
fn run_fixed_prefix(mut p: Prober, prefix: Vec<u32>, last_limit: u32) -> SearchOutcome {
    let floor = p.cfg.el.log.gap_blocks + 1;
    let last = min_under_ceiling(floor, last_limit, |c| p.verdict(&prefix, c));
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
    /// Full N-generation lattice minimum (anchor pass, prefix scan,
    /// anchor-bound pruning).
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
    certificates: bool,
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
            certificates: true,
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

    /// Enables/disables the consumption certificates (default on; off
    /// simulates every probe — results are invariant in this, only the
    /// number of simulated probe events changes).
    pub fn certificates(mut self, on: bool) -> Self {
        self.certificates = on;
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
        let p = Prober::new(&self.base, self.seed_trace, self.certificates);
        match self.mode {
            SearchMode::Firewall { limit } => run_firewall(p, limit),
            SearchMode::Lattice { limits } => run_lattice(p, &limits, self.jobs),
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
    use crate::runner::run_capture;
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
        assert_eq!(g.as_slice(), &[18, 16, 8]);
        assert_eq!(format!("{g:?}"), "[18, 16, 8]");
        assert_eq!(geom(&[18, 16]).with_last(8), g);
        assert_eq!(g.to_vec(), vec![18, 16, 8]);
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
            r.search.sim_probes,
            u64::from(r.probes),
            "every verdict is a probe, certified or simulated"
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
        // Certificates are column-local and workers share nothing but the
        // trace, so every counter is jobs-invariant — event volume included.
        assert_eq!(serial.search, parallel.search);
    }

    #[test]
    fn analytic_path_matches_probe_only_path() {
        // The certificate's soundness contract: with it on, every probe
        // verdict — and therefore the chosen geometry and the probe
        // counts — is identical to the simulate-everything path; only the
        // event volume may shrink.
        let base = paper_base(0.05, false, 20);
        let limits = LatticeLimits {
            prefix_max: vec![10, 8],
            last_limit: 64,
        };
        let lattice = |certificates| {
            let req = SearchRequest::lattice(&base, limits.clone()).jobs(2);
            req.certificates(certificates).run()
        };
        let (on, off) = (lattice(true).min, lattice(false).min);
        assert_eq!(on.generation_blocks, off.generation_blocks);
        assert_eq!(on.probes, off.probes);
        assert_eq!(on.search.sim_probes, off.search.sim_probes);
        assert_eq!(on.search.replay_probes, off.search.replay_probes);
        assert_eq!(on.search.pruned_volume, off.search.pruned_volume);
        assert_eq!(off.search.cert_verdicts, 0);
        assert!(
            on.search.probe_events <= off.search.probe_events,
            "the certificate must not add events: {} vs {}",
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
        let run = |certificates| {
            let out = SearchRequest::fixed_prefix(&base, vec![14], 96)
                .certificates(certificates)
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
        // scan turns exhaustive (no bound) — and at these
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
        assert_eq!(out.min.search.pruned_volume, 0, "fallback is unbounded");
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

    /// The smallest surviving capacity in `[floor, limit]` by linear scan.
    fn linear_min(floor: u32, limit: u32, thresh: u32) -> Option<u32> {
        (floor..=limit).find(|&c| c >= thresh)
    }

    /// The certificate's precondition on a probe sequence: once a probe
    /// has survived (`c ≥ thresh`), every later one is strictly smaller.
    fn assert_descends_below_survivors(probes: &[u32], thresh: u32, at: &str) {
        let mut least_survivor = u32::MAX;
        for &c in probes {
            assert!(c < least_survivor, "{at}: {probes:?} re-ascends");
            if c >= thresh {
                least_survivor = c;
            }
        }
    }

    #[test]
    fn column_search_finds_the_linear_scan_minimum() {
        // Monotone oracles (survives iff cap ≥ threshold), exhaustively
        // over small floors/limits; threshold > limit = infeasible.
        for floor in 1..=4u32 {
            for limit in floor..=floor + 12 {
                for thresh in floor..=limit + 2 {
                    let mut probes = Vec::new();
                    let got = min_under_ceiling(floor, limit, |c| {
                        probes.push(c);
                        c >= thresh
                    });
                    let at = format!("floor {floor} limit {limit} thresh {thresh}");
                    assert_eq!(got, linear_min(floor, limit, thresh), "{at}");
                    assert_eq!(probes[0], limit, "the ceiling is probed first: {at}");
                    assert!(
                        probes[1..].windows(2).all(|w| w[0] != w[1]) && probes.len() <= 6,
                        "ceiling + ⌈log₂ 13⌉ probes at most, none repeated: {at} {probes:?}"
                    );
                    assert_descends_below_survivors(&probes, thresh, &at);
                }
            }
        }
    }

    #[test]
    fn doubling_search_finds_the_linear_scan_minimum() {
        for floor in 1..=4u32 {
            for limit in floor..=floor + 20 {
                for thresh in floor..=limit + 2 {
                    let mut probes = Vec::new();
                    let got = min_by_doubling(floor, limit, |c| {
                        probes.push(c);
                        c >= thresh
                    });
                    let at = format!("floor {floor} limit {limit} thresh {thresh}");
                    assert_eq!(got, linear_min(floor, limit, thresh), "{at}");
                    assert_eq!(probes[0], (floor * 2).min(limit), "{at}");
                    assert!(probes.iter().all(|c| (floor..=limit).contains(c)), "{at}");
                    assert_descends_below_survivors(&probes, thresh, &at);
                }
            }
        }
        // A ceiling near u32::MAX brackets without overflow.
        assert_eq!(
            min_by_doubling(3, u32::MAX, |c| c >= u32::MAX - 1),
            Some(u32::MAX - 1)
        );
    }

    #[test]
    fn first_surviving_replay_certifies_its_column_exactly() {
        // The certificate against ground truth, one column at a time: the
        // ceiling probe is the column's first surviving replay, and every
        // verdict its certificate gives for a smaller capacity — the only
        // ones the search ever asks it — must equal a plain simulation of
        // that exact geometry (`survives`: live driver, no trace, no
        // certificate), at loads light enough that 16 blocks hold the
        // last generation.
        let (mut kills, mut survivals, mut unknown) = (0, 0, 0);
        let ceiling = 16;
        for (mix, rate_tps, secs, prefixes) in [
            (0.05, 40.0, 25, &[&[8u32][..], &[12], &[6, 7], &[7, 5]][..]),
            (0.40, 20.0, 20, &[&[10u32][..], &[7, 7]][..]),
        ] {
            let arrivals = elog_workload::ArrivalProcess::Deterministic { rate_tps };
            let base = paper_base(mix, false, secs).with_arrivals(arrivals);
            let (_, trace) = run_capture(&base);
            let trace = trace.expect("the paper geometry is kill-free here");
            for &prefix in prefixes {
                let at = format!("mix {mix} prefix {prefix:?}");
                let mut p = Prober::new(&base, Some(trace.clone()), true);
                assert!(p.verdict(prefix, ceiling), "{at}: ceiling {ceiling} kills");
                let (_, cert) = p.cert.take().expect("a surviving replay certifies");
                for c in base.el.log.gap_blocks + 1..ceiling {
                    let truth = survives(&base, &[prefix, &[c]].concat());
                    match cert.verdict(c) {
                        CertVerdict::Unknown => unknown += 1,
                        v => {
                            assert_eq!(v == CertVerdict::Survives, truth, "{at} last {c}");
                            *(if truth { &mut survivals } else { &mut kills }) += 1;
                        }
                    }
                }
            }
        }
        assert!(
            kills > 0 && survivals > 0 && kills + survivals > unknown,
            "vacuous: {kills} kills and {survivals} survivals certified, {unknown} passed on"
        );
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
        // And the two the memo and the analytic threshold left behind,
        // hashed by the same workload.
        assert_eq!((s.memo_hits, s.analytic_rejections), (0, 0));
    }
}
