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
use crate::runner::{build_model, run_capture, RunConfig, SimModel};
use elog_core::{CertVerdict, ConsumptionCert};
use elog_sim::{Engine, SearchStats};
use elog_workload::WorkloadTrace;
use std::fmt;
use std::path::{Path, PathBuf};
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

/// A mid-run simulator state captured at a last-generation fill depth, for
/// resuming later probes of the same column past their shared prefix.
struct Snapshot {
    /// Blocks the last generation had allocated when the state was taken.
    depth: u64,
    engine: Engine<SimModel>,
}

/// Per-column probe state: the analytic rejection threshold for the
/// column's prefix, plus the resume-snapshot ladder. Reset whenever the
/// prober moves to a different prefix.
struct ColumnState {
    /// The column's fixed prefix (empty for single-generation searches).
    prefix: Vec<u32>,
    /// Largest last-generation capacity the analytic certificate rejects
    /// under this prefix (0 when no certificate is available).
    threshold: u32,
    /// Snapshots at increasing fill depths, accumulated across the
    /// column's probes. Any state below head-advance depth is identical
    /// for every capacity in the column, so a probe at capacity `c`
    /// resumes from the deepest rung with `depth + gap ≤ c`.
    snaps: Vec<Snapshot>,
    /// Consumption certificate extracted from the column's first
    /// surviving full-horizon probe: answers smaller capacities exactly,
    /// with zero simulation (see [`elog_core::ConsumptionCert`]).
    cert: Option<ConsumptionCert>,
}

/// Runs geometry probes for one search: a reusable scratch configuration
/// plus the capture/replay machinery (see module docs; the first
/// kill-free probe captures the workload, every later probe replays it).
///
/// When analytic acceleration is on, two further engines cut probe work
/// without changing any verdict:
///
/// * the [`AnalyticModel`] certificate rejects certainly-infeasible
///   last-generation capacities with zero simulated events;
/// * within one column, each replay probe arms a fill watch along a
///   ladder of rung depths — the bisection's possible future capacities —
///   snapshotting the simulator at each rung it passes; later probes of
///   the column resume from the deepest valid snapshot instead of
///   replaying from `t = 0`. A snapshot at depth `d` is
///   capacity-independent for any last generation of `c ≥ d + gap`
///   blocks: below that fill the ring has never advanced its head, so
///   the simulation state is identical for every such `c`.
pub(crate) struct Prober {
    cfg: RunConfig,
    pub(crate) trace: Option<Arc<WorkloadTrace>>,
    /// Probe verdicts requested, simulated or memoised.
    pub(crate) probes: u32,
    pub(crate) stats: SearchStats,
    /// Memo-derived verdicts, recorded for soundness audits.
    pub(crate) memo_trail: Vec<MemoHit>,
    /// Analytic pruning + snapshot-resume enabled for this search.
    analytic_on: bool,
    model: Option<Arc<AnalyticModel>>,
    column: Option<ColumnState>,
    /// Persistent probe-verdict cache handle (`--probe-cache`), shared by
    /// every prober of one search.
    cache: Option<Arc<crate::probecache::CacheHandle>>,
    /// Verdicts this prober produced that the cache seed did not already
    /// hold, collected for the end-of-search persist.
    pub(crate) cache_new: Vec<(Vec<u32>, bool)>,
}

impl Prober {
    pub(crate) fn new(base: &RunConfig, trace: Option<Arc<WorkloadTrace>>) -> Self {
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
            analytic_on: false,
            model: None,
            column: None,
            cache: None,
            cache_new: Vec::new(),
        }
    }

    /// Attaches the search's persistent verdict cache.
    pub(crate) fn with_cache(mut self, cache: Option<Arc<crate::probecache::CacheHandle>>) -> Self {
        self.cache = cache;
        self
    }

    /// Enables (or disables) analytic acceleration for this prober. The
    /// certificate itself is built lazily once a trace exists (or shared
    /// via [`Prober::share_model`]).
    pub(crate) fn with_analytic(mut self, on: bool) -> Self {
        self.analytic_on = on;
        self
    }

    /// Adopts an already-built certificate (pool probers share the anchor
    /// prober's instead of re-deriving it per worker).
    pub(crate) fn share_model(mut self, model: Option<Arc<AnalyticModel>>) -> Self {
        if self.analytic_on {
            self.model = model;
        }
        self
    }

    /// The certificate, for sharing with pool probers.
    pub(crate) fn model(&self) -> Option<Arc<AnalyticModel>> {
        self.model.clone()
    }

    /// Builds the certificate from the captured trace if allowed and not
    /// yet present.
    pub(crate) fn ensure_model(&mut self) {
        if self.analytic_on && self.model.is_none() {
            if let Some(t) = &self.trace {
                self.model = AnalyticModel::from_run(&self.cfg, t).map(Arc::new);
            }
        }
    }

    /// True when `blocks` survives the whole horizon without kills.
    /// No next-probe hint: never arms the resume watch.
    pub(crate) fn survives(&mut self, blocks: &[u32]) -> bool {
        self.survives_at(blocks, None)
    }

    /// Whether prefix resume is sound for this configuration (§6 lifetime
    /// hints consult capacities at BEGIN time, breaking the last
    /// generation's capacity-independence of early state).
    fn resume_ok(&self) -> bool {
        self.analytic_on && !self.cfg.lifetime_hints
    }

    /// Whether the consumption certificate is sound: it additionally
    /// needs the last generation's deterministic `alloc j ⇒ consume
    /// j − (cap − gap)` law, which recirculation (re-appends compete for
    /// the same tail) and a zero gap (desperate one-block allocations)
    /// both break.
    fn cert_ok(&self) -> bool {
        self.resume_ok() && !self.cfg.el.log.recirculation && self.cfg.el.log.gap_blocks >= 1
    }

    /// (Re)initialises the per-column state when `prefix` differs from
    /// the current column's.
    fn ensure_column(&mut self, prefix: &[u32]) {
        if self.column.as_ref().is_some_and(|c| c.prefix == prefix) {
            return;
        }
        let threshold = match &self.model {
            Some(m) => m.reject_threshold(prefix),
            None => 0,
        };
        self.column = Some(ColumnState {
            prefix: prefix.to_vec(),
            threshold,
            snaps: Vec::new(),
            cert: None,
        });
    }

    /// Records a fresh verdict for the persist pass when the cache is on
    /// and the seed didn't already hold it. Free-standing over fields so
    /// call sites holding a `column` borrow can use it too.
    fn note_cache_parts(
        cache: &Option<Arc<crate::probecache::CacheHandle>>,
        cache_new: &mut Vec<(Vec<u32>, bool)>,
        blocks: &[u32],
        survived: bool,
    ) {
        if let Some(c) = cache {
            if c.lookup(blocks).is_none() {
                cache_new.push((blocks.to_vec(), survived));
            }
        }
    }

    /// Probe verdict for `blocks`, with `next_lo` the smallest
    /// last-generation capacity the column's next probe could use (arms
    /// the snapshot watch; `None` for one-shot probes).
    pub(crate) fn survives_at(&mut self, blocks: &[u32], next_lo: Option<u32>) -> bool {
        self.probes += 1;
        self.stats.sim_probes += 1;
        let (prefix, last) = blocks.split_at(blocks.len() - 1);
        let last = last[0];
        self.ensure_column(prefix);
        if self.trace.is_some() && self.model.is_some() {
            let col = self.column.as_ref().expect("column set above");
            if last <= col.threshold {
                // Certain kill: the verdict a replay probe would return,
                // with zero simulated events. Counted exactly as the
                // replay probe would have been so every derived statistic
                // matches the probe-only path.
                self.stats.replay_probes += 1;
                self.stats.analytic_rejections += 1;
                Self::note_cache_parts(&self.cache, &mut self.cache_new, blocks, false);
                return false;
            }
        }
        self.cfg.el.log.generation_blocks.clear();
        self.cfg.el.log.generation_blocks.extend_from_slice(blocks);
        match self.trace.clone() {
            Some(trace) => {
                self.stats.replay_probes += 1;
                self.replay_probe(&trace, last, next_lo)
            }
            None => {
                // No trace yet (cold search start, or a fully warm cached
                // rerun): the cache can still answer exactly, keeping a
                // warm rerun at zero live probes.
                if let Some(c) = &self.cache {
                    if let Some(v) = c.lookup(blocks) {
                        self.stats.cache_hits += 1;
                        return v;
                    }
                    self.stats.cache_misses += 1;
                }
                // First live probe(s); the first kill-free one hands
                // back the trace every later probe replays.
                let (r, trace) = run_capture(&self.cfg);
                self.trace = trace;
                self.ensure_model();
                if let (Some(m), Some(col)) = (&self.model, self.column.as_mut()) {
                    // The certificate arrived mid-column (the capture
                    // probe): backfill the column's threshold.
                    col.threshold = m.reject_threshold(&col.prefix);
                }
                self.stats.probe_events += r.perf.events;
                let survived = r.killed == 0;
                Self::note_cache_parts(&self.cache, &mut self.cache_new, blocks, survived);
                survived
            }
        }
    }

    /// One replay probe with snapshot-resume: resumes from the deepest
    /// valid ladder snapshot, snapshots at each rung depth a future probe
    /// of this column could resume from, and runs to the first kill or
    /// the horizon.
    fn replay_probe(
        &mut self,
        trace: &Arc<WorkloadTrace>,
        last_cap: u32,
        next_lo: Option<u32>,
    ) -> bool {
        let k = self.cfg.el.log.gap_blocks;
        let horizon = self.cfg.runtime;
        // Resume is sound whenever early simulation state is independent
        // of the last generation's capacity (see [`Prober::resume_ok`]);
        // the certificate needs the stricter [`Prober::cert_ok`].
        let resume_ok = self.resume_ok();
        let cert_ok = self.cert_ok();
        let g_full = Geometry::from_slice(&self.cfg.el.log.generation_blocks);
        let col = self.column.as_mut().expect("column set by survives_at");
        if cert_ok {
            if let Some(cert) = &col.cert {
                match cert.verdict(last_cap) {
                    CertVerdict::Survives => {
                        self.stats.cert_verdicts += 1;
                        Self::note_cache_parts(
                            &self.cache,
                            &mut self.cache_new,
                            g_full.as_slice(),
                            true,
                        );
                        return true;
                    }
                    CertVerdict::Kills => {
                        self.stats.cert_verdicts += 1;
                        Self::note_cache_parts(
                            &self.cache,
                            &mut self.cache_new,
                            g_full.as_slice(),
                            false,
                        );
                        return false;
                    }
                    CertVerdict::Unknown => {}
                }
            }
        }
        // Persistent verdict cache, last before simulating: an exact
        // entry for this geometry under this workload fingerprint.
        if let Some(c) = &self.cache {
            if let Some(v) = c.lookup(g_full.as_slice()) {
                self.stats.cache_hits += 1;
                return v;
            }
            self.stats.cache_misses += 1;
        }
        let own_max = u64::from(last_cap.saturating_sub(k));
        let mut start_events = 0u64;
        let mut resumed = None;
        if resume_ok {
            // Deepest rung still below this capacity's head-advance depth.
            if let Some(snap) = col
                .snaps
                .iter()
                .filter(|s| s.depth + u64::from(k) <= u64::from(last_cap))
                .max_by_key(|s| s.depth)
            {
                let mut e = snap.engine.clone();
                e.model_mut().lm.set_last_gen_capacity(last_cap);
                start_events = e.events_processed();
                self.stats.resume_probes += 1;
                self.stats.resume_saved_events += start_events;
                resumed = Some(e);
            }
        }
        let mut engine = resumed.unwrap_or_else(|| {
            self.cfg.trace = Some(trace.clone());
            let mut e = build_model(&self.cfg);
            self.cfg.trace = None;
            if cert_ok {
                // Record a consumption certificate so this run, if it
                // survives, answers the column's smaller capacities
                // without simulation. Resumed engines inherit recording
                // from their snapshot (taken before any consumption).
                e.model_mut().lm.start_cert_recording();
            }
            e
        });
        // Rung depths future probes of this column can resume from. While
        // the bisection floor stays at `gap+1`, its surviving branch
        // probes exactly the chain that halves `next_lo` toward the
        // floor, so one full-depth run seeds every later resume point;
        // the own-capacity rung serves later, larger capacities (after a
        // kill raises the floor). A rung below one of these depths is
        // never optimal, and a stale rung is merely unused — never
        // unsound — because validity is re-checked against each resuming
        // capacity.
        let mut rungs: Vec<u64> = Vec::new();
        if resume_ok {
            let floor = k + 1;
            if let Some(mut nl) = next_lo {
                loop {
                    let d = u64::from(nl.saturating_sub(k));
                    if d > 0 {
                        rungs.push(d);
                    }
                    if nl <= floor {
                        break;
                    }
                    nl = floor + (nl - floor) / 2;
                }
            }
            if own_max > 0 {
                rungs.push(own_max);
            }
            let fill = engine.model().lm.last_gen_allocated();
            rungs.retain(|&d| d <= own_max && d > fill);
            rungs.sort_unstable();
            rungs.dedup();
        }
        let mut next_rung = 0usize;
        engine
            .model_mut()
            .set_last_gen_watch(rungs.first().copied());
        loop {
            engine.run_until(horizon);
            let m = engine.model();
            if m.kills() > 0 {
                self.stats.probe_events += engine.events_processed() - start_events;
                Self::note_cache_parts(&self.cache, &mut self.cache_new, g_full.as_slice(), false);
                return false;
            }
            let fired = m
                .last_gen_watch()
                .is_some_and(|w| m.lm.last_gen_allocated() >= w);
            if fired {
                // Snapshot for the column's later probes, then keep going.
                let depth = engine.model().lm.last_gen_allocated();
                // A single event can open several blocks, overshooting the
                // watch past later rungs; skip every rung the fill already
                // covered.
                while next_rung < rungs.len() && rungs[next_rung] <= depth {
                    next_rung += 1;
                }
                engine
                    .model_mut()
                    .set_last_gen_watch(rungs.get(next_rung).copied());
                // Keep the state only while it is still
                // capacity-independent for this run's own capacity.
                if depth + u64::from(k) <= u64::from(last_cap) {
                    col.snaps.retain(|s| s.depth != depth);
                    col.snaps.push(Snapshot {
                        depth,
                        engine: engine.clone(),
                    });
                }
                continue;
            }
            self.stats.probe_events += engine.events_processed() - start_events;
            if cert_ok {
                // A surviving run's certificate is complete; later probes
                // of this column are strictly smaller capacities (the
                // bisection only descends), for which it stays valid.
                if let Some(c) = engine.model_mut().lm.take_consumption_cert() {
                    col.cert = Some(c);
                }
            }
            Self::note_cache_parts(&self.cache, &mut self.cache_new, g_full.as_slice(), true);
            return true;
        }
    }

    /// Memo-aware probe: consults `memo` first, simulating only on a miss.
    pub(crate) fn survives_memo(&mut self, memo: &Memo, g: Geometry, next_lo: u32) -> bool {
        match memo.lookup(&g) {
            Some(verdict) => {
                self.probes += 1;
                self.stats.memo_hits += 1;
                self.memo_trail.push(MemoHit {
                    geometry: g,
                    survived: verdict,
                });
                // Dominance-derived verdicts are sound verdicts: persist
                // them too, deepening the seed for future warm runs.
                Self::note_cache_parts(&self.cache, &mut self.cache_new, g.as_slice(), verdict);
                verdict
            }
            None => self.survives_at(g.as_slice(), Some(next_lo)),
        }
    }

    /// Folds another prober's counters into this one (order-independent,
    /// so parallel scans stay deterministic).
    pub(crate) fn absorb(&mut self, other: Prober) {
        self.probes += other.probes;
        self.stats.merge(&other.stats);
        self.memo_trail.extend(other.memo_trail);
        self.cache_new.extend(other.cache_new);
    }

    /// Writes every verdict the search produced (and the seed lacked)
    /// back to the cache file. Called once per search, after all probers
    /// are absorbed; write failures only warn.
    fn persist_cache(&self) {
        if let Some(c) = &self.cache {
            c.persist(
                &self.cache_new,
                self.trace.as_ref().map(|t| t.fingerprint()),
            );
        }
    }

    pub(crate) fn into_result(self, generation_blocks: Vec<u32>) -> MinSpaceResult {
        MinSpaceResult {
            total_blocks: generation_blocks.iter().sum(),
            generation_blocks,
            probes: self.probes,
            search: self.stats,
        }
    }
}

/// Resolved probe-acceleration settings for one search: the persistent
/// verdict cache (default off; see [`SearchRequest::probe_cache_dir`] and
/// the process-wide [`crate::probecache::set_dir`] knob `--probe-cache`
/// sets).
#[derive(Clone, Default)]
pub(crate) struct ProbeTuning {
    cache: Option<Arc<crate::probecache::CacheHandle>>,
}

impl ProbeTuning {
    /// Resolves the per-request override against the process-wide knob
    /// and opens the cache file (validating it against the seed trace's
    /// fingerprint when one exists).
    fn resolve(
        base: &RunConfig,
        cache_dir: Option<&Path>,
        seed_trace: Option<&Arc<WorkloadTrace>>,
    ) -> Self {
        let fp = seed_trace.map(|t| t.fingerprint());
        let cache = match cache_dir {
            Some(d) => Some(Arc::new(crate::probecache::open_in(d, base, fp))),
            None => crate::probecache::open(base, fp).map(Arc::new),
        };
        ProbeTuning { cache }
    }

    /// A prober wired with these settings; `seed_stats` additionally
    /// stamps the cache's seed size (once per search, on the prober whose
    /// stats the result reports).
    fn prober(
        &self,
        base: &RunConfig,
        trace: Option<Arc<WorkloadTrace>>,
        analytic_on: bool,
        seed_stats: bool,
    ) -> Prober {
        let mut p = Prober::new(base, trace)
            .with_analytic(analytic_on)
            .with_cache(self.cache.clone());
        if seed_stats {
            if let Some(c) = &p.cache {
                p.stats.cache_seeded = c.seeded() as u64;
            }
        }
        p
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

    /// The smallest capacity any *later* probe could use — the surviving
    /// branch's next midpoint, handed to the resume machinery as its
    /// snapshot-watch depth (identical to the serial loops' hints).
    fn hint(self) -> u32 {
        match self {
            Plan::Ceiling { lo, hi } => lo + (hi - lo) / 2,
            Plan::Bisect { lo, hi } => {
                let mid = lo + (hi - lo) / 2;
                lo + (mid - lo) / 2
            }
            Plan::Double { lo, upper, .. } => lo + (upper - lo) / 2,
            Plan::Done { .. } => 0,
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
    loop {
        let Some(target) = plan.target() else {
            return plan.found();
        };
        buf[prefix.len()] = target;
        let g = Geometry::from_slice(&buf[..prefix.len() + 1]);
        let v = match memo {
            Some(m) => p.survives_memo(m, g, plan.hint()),
            None => p.survives_at(g.as_slice(), Some(plan.hint())),
        };
        on_verdict(g, v);
        plan = plan.after(v);
    }
}

/// Every prefix point of the scan lattice in lexicographic ascending
/// order: axis `i` ranges over `[gap+1, prefix_max[i]]`. The all-maxima
/// corner (the anchor) is excluded — the anchor pass already probed it.
fn enumerate_prefixes(gap: u32, prefix_max: &[u32]) -> Vec<Geometry> {
    let lo = gap + 1;
    let volume: u64 = prefix_max
        .iter()
        .map(|&m| u64::from(m.saturating_sub(gap)))
        .product();
    assert!(
        volume <= 1 << 20,
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

/// What the private search drivers hand back: the minimum, the captured
/// (or seeded) trace, and the memo audit trail.
type LatticeRun = (MinSpaceResult, Option<Arc<WorkloadTrace>>, Vec<MemoHit>);

/// The lattice search proper, with the analytic toggle resolved and an
/// optional pre-captured trace to seed the anchor pass with.
fn run_lattice(
    base: &RunConfig,
    limits: &LatticeLimits,
    jobs: usize,
    use_memo: bool,
    analytic_on: bool,
    seed_trace: Option<Arc<WorkloadTrace>>,
    tuning: &ProbeTuning,
) -> LatticeRun {
    let k = base.el.log.gap_blocks;
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
    let mut anchor_prober = tuning.prober(base, seed_trace, analytic_on, true);
    anchor_prober.ensure_model();
    let mut memo = Memo::default();
    let anchor_prefix = Geometry::from_slice(&limits.prefix_max);
    let anchor = drive_last_axis(
        &mut anchor_prober,
        None,
        anchor_prefix.as_slice(),
        Plan::Ceiling {
            lo: k + 1,
            hi: limits.last_limit,
        },
        |g, v| memo.record(g, v),
    );
    let Some(anchor_last) = anchor else {
        // Even the all-maxima prefix cannot fit: fall back to the
        // exhaustive scan (the minimal last generation need not be
        // monotone in the prefix, so a smaller prefix may still be
        // feasible). No memo there — the fallback exists precisely for
        // the corner where cross-prefix monotonicity is distrusted.
        return lattice_scan(base, limits, jobs, anchor_prober);
    };
    // The memo is frozen here: the scan reads the anchor pass's verdicts
    // but records none of its own (within one prefix's binary search no
    // probe ever dominates a later one), keeping probe counts independent
    // of `jobs`.
    let memo = memo;
    let trace = anchor_prober.trace.clone();
    let model = anchor_prober.model();
    let bound = anchor_prefix.total() + anchor_last;
    let prefixes = enumerate_prefixes(k, &limits.prefix_max);
    // Workers draw scratch probers from a pool instead of cloning the
    // configuration per prefix; every prober already replays the anchor's
    // trace and shares the anchor's analytic certificate.
    let pool: Mutex<Vec<Prober>> = Mutex::new(Vec::new());
    let results = crate::sweep::parallel_map(&prefixes, jobs, |_, prefix| {
        let mut p = pool.lock().expect("prober pool").pop().unwrap_or_else(|| {
            tuning
                .prober(base, trace.clone(), analytic_on, false)
                .share_model(model.clone())
        });
        let cap = bound
            .saturating_sub(prefix.total())
            .saturating_sub(1)
            .min(limits.last_limit);
        let last = if cap < k + 1 {
            // Any feasible last generation would already tie or exceed
            // the bound: the whole column is pruned probe-free.
            p.stats.pruned_volume += u64::from(limits.last_limit - k);
            None
        } else {
            p.stats.pruned_volume += u64::from(limits.last_limit - cap);
            drive_last_axis(
                &mut p,
                use_memo.then_some(&memo),
                prefix.as_slice(),
                Plan::Ceiling { lo: k + 1, hi: cap },
                |_, _| {},
            )
        };
        pool.lock().expect("prober pool").push(p);
        last
    });
    for p in pool.into_inner().expect("prober pool") {
        anchor_prober.absorb(p);
    }
    let mut best = anchor_prefix.with_last(anchor_last);
    let mut best_is_anchor = true;
    for (prefix, r) in prefixes.iter().zip(results) {
        let last = r.expect("probe simulation panicked");
        if let Some(last) = last {
            // Capped strictly below the bound, so this beats the anchor;
            // among the capped candidates the usual rule applies.
            let cand = prefix.with_last(last);
            if best_is_anchor
                || cand.total() < best.total()
                || (cand.total() == best.total() && cand.prefix() > best.prefix())
            {
                best = cand;
                best_is_anchor = false;
            }
        }
    }
    let trace = anchor_prober.trace.clone();
    anchor_prober.persist_cache();
    let trail = std::mem::take(&mut anchor_prober.memo_trail);
    (anchor_prober.into_result(best.to_vec()), trace, trail)
}

/// The exhaustive prefix scan (no pruning bound, no memo); used when the
/// all-maxima anchor prefix is infeasible.
fn lattice_scan(
    base: &RunConfig,
    limits: &LatticeLimits,
    jobs: usize,
    mut acc: Prober,
) -> LatticeRun {
    let k = base.el.log.gap_blocks;
    let trace = acc.trace.clone();
    let analytic_on = acc.analytic_on;
    let model = acc.model();
    let tuning = ProbeTuning {
        cache: acc.cache.clone(),
    };
    let prefixes = enumerate_prefixes(k, &limits.prefix_max);
    let pool: Mutex<Vec<Prober>> = Mutex::new(Vec::new());
    let results = crate::sweep::parallel_map(&prefixes, jobs, |_, prefix| {
        let mut p = pool.lock().expect("prober pool").pop().unwrap_or_else(|| {
            tuning
                .prober(base, trace.clone(), analytic_on, false)
                .share_model(model.clone())
        });
        let last = drive_last_axis(
            &mut p,
            None,
            prefix.as_slice(),
            Plan::Ceiling {
                lo: k + 1,
                hi: limits.last_limit,
            },
            |_, _| {},
        );
        pool.lock().expect("prober pool").push(p);
        last
    });
    for p in pool.into_inner().expect("prober pool") {
        acc.absorb(p);
    }
    // Persist before the feasibility check below: even an infeasible
    // lattice's (all-kill) verdicts are worth seeding the next run with.
    acc.persist_cache();
    let mut best: Option<Geometry> = None;
    for (prefix, r) in prefixes.iter().zip(results) {
        let last = r.expect("probe simulation panicked");
        if let Some(last) = last {
            let cand = prefix.with_last(last);
            let better = match &best {
                None => true,
                // Prefer smaller total; on ties prefer the larger prefix
                // (less forwarded traffic, lower bandwidth).
                Some(b) => {
                    cand.total() < b.total()
                        || (cand.total() == b.total() && cand.prefix() > b.prefix())
                }
            };
            if better {
                best = Some(cand);
            }
        }
    }
    let best = best.expect("no feasible geometry within the lattice limits");
    let trace = acc.trace.clone();
    let trail = std::mem::take(&mut acc.memo_trail);
    (acc.into_result(best.to_vec()), trace, trail)
}

/// What the single-column drivers hand back: the (possibly clamped)
/// minimum, the trace, and feasibility.
type ColumnRun = (MinSpaceResult, Option<Arc<WorkloadTrace>>, bool);

/// Persists the cache and packages a finished single-column prober.
fn finish_column(p: Prober, blocks: Vec<u32>, feasible: bool) -> ColumnRun {
    let trace = p.trace.clone();
    p.persist_cache();
    (p.into_result(blocks), trace, feasible)
}

/// Smallest single-generation log: doubling to bracket, then bisection.
/// `feasible = false` means even `hi_limit` killed (result clamps there).
fn run_firewall(
    base: &RunConfig,
    hi_limit: u32,
    analytic_on: bool,
    seed_trace: Option<Arc<WorkloadTrace>>,
    tuning: &ProbeTuning,
) -> ColumnRun {
    let mut p = tuning.prober(base, seed_trace, analytic_on, true);
    p.ensure_model();
    let k = base.el.log.gap_blocks;
    let lo = k + 1; // smallest valid geometry
    let found = drive_last_axis(
        &mut p,
        None,
        &[],
        Plan::Double {
            lo,
            upper: (lo * 2).min(hi_limit),
            limit: hi_limit,
        },
        |_, _| {},
    );
    finish_column(p, vec![found.unwrap_or(hi_limit)], found.is_some())
}

/// Smallest last generation under a fixed prefix. `feasible = false`
/// means even `last_limit` killed (result clamps the last axis there).
fn run_fixed_prefix(
    base: &RunConfig,
    prefix: &[u32],
    last_limit: u32,
    analytic_on: bool,
    seed_trace: Option<Arc<WorkloadTrace>>,
    tuning: &ProbeTuning,
) -> ColumnRun {
    let mut p = tuning.prober(base, seed_trace, analytic_on, true);
    p.ensure_model();
    let k = base.el.log.gap_blocks;
    let last = drive_last_axis(
        &mut p,
        None,
        prefix,
        Plan::Ceiling {
            lo: k + 1,
            hi: last_limit,
        },
        |_, _| {},
    );
    let mut blocks = prefix.to_vec();
    blocks.push(last.unwrap_or(last_limit));
    finish_column(p, blocks, last.is_some())
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
    analytic: Option<bool>,
    seed_trace: Option<Arc<WorkloadTrace>>,
    cache_dir: Option<PathBuf>,
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
    /// holds the clamped upper bound probed last. Lattice mode panics
    /// instead (its callers treat an infeasible lattice as a setup bug).
    pub feasible: bool,
}

impl SearchRequest {
    fn with_mode(base: &RunConfig, mode: SearchMode) -> Self {
        SearchRequest {
            base: base.clone(),
            mode,
            jobs: 1,
            memo: true,
            analytic: None,
            seed_trace: None,
            cache_dir: None,
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

    /// Overrides the process-wide analytic toggle for this search
    /// ([`crate::analytic::set_enabled`]); unset inherits it.
    pub fn analytic(mut self, on: bool) -> Self {
        self.analytic = Some(on);
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

    /// Stores/loads probe verdicts in a persistent cache under `dir` for
    /// this search, overriding the process-wide directory
    /// ([`crate::probecache::set_dir`], the `--probe-cache` flag). A warm
    /// rerun of an identical search answers every probe from the cache —
    /// zero live simulation — with identical results.
    pub fn probe_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Runs the search.
    pub fn run(self) -> SearchOutcome {
        let analytic_on = self.analytic.unwrap_or_else(crate::analytic::enabled);
        let tuning = ProbeTuning::resolve(
            &self.base,
            self.cache_dir.as_deref(),
            self.seed_trace.as_ref(),
        );
        match self.mode {
            SearchMode::Firewall { limit } => {
                let (min, trace, feasible) =
                    run_firewall(&self.base, limit, analytic_on, self.seed_trace, &tuning);
                SearchOutcome {
                    min,
                    trace,
                    memo_trail: Vec::new(),
                    feasible,
                }
            }
            SearchMode::Lattice { limits } => {
                let (min, trace, memo_trail) = run_lattice(
                    &self.base,
                    &limits,
                    self.jobs,
                    self.memo,
                    analytic_on,
                    self.seed_trace,
                    &tuning,
                );
                SearchOutcome {
                    min,
                    trace,
                    memo_trail,
                    feasible: true,
                }
            }
            SearchMode::FixedPrefix { prefix, last_limit } => {
                let (min, trace, feasible) = run_fixed_prefix(
                    &self.base,
                    &prefix,
                    last_limit,
                    analytic_on,
                    self.seed_trace,
                    &tuning,
                );
                SearchOutcome {
                    min,
                    trace,
                    memo_trail: Vec::new(),
                    feasible,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minspace::{paper_base, survives};

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
        let t = ProbeTuning::default();
        let (r, trace, _) = run_lattice(&base, &limits, 2, true, true, None, &t);
        assert_eq!(r.generation_blocks.len(), 3);
        assert!(trace.is_some(), "search must capture a trace");
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
        let t = ProbeTuning::default();
        let (serial, _, _) = run_lattice(&base, &limits, 1, true, true, None, &t);
        let (parallel, _, _) = run_lattice(&base, &limits, 4, true, true, None, &t);
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
        assert_eq!(serial.search.resume_probes, parallel.search.resume_probes);
        assert_eq!(
            serial.search.resume_saved_events,
            parallel.search.resume_saved_events
        );
        assert_eq!(serial.search.probe_events, parallel.search.probe_events);
    }

    #[test]
    fn analytic_path_matches_probe_only_path() {
        // The tentpole's soundness contract: with the analytic pre-filter
        // and prefix resume on, every probe verdict — and therefore the
        // chosen geometry, the probe counts, and the memo trail — is
        // identical to the exhaustive probe path; only the event volume
        // may shrink.
        let base = paper_base(0.05, false, 20);
        let limits = LatticeLimits {
            prefix_max: vec![10, 8],
            last_limit: 64,
        };
        let t = ProbeTuning::default();
        let (on, _, on_trail) = run_lattice(&base, &limits, 2, true, true, None, &t);
        let (off, _, off_trail) = run_lattice(&base, &limits, 2, true, false, None, &t);
        assert_eq!(on.generation_blocks, off.generation_blocks);
        assert_eq!(on.probes, off.probes);
        assert_eq!(on.search.sim_probes, off.search.sim_probes);
        assert_eq!(on.search.replay_probes, off.search.replay_probes);
        assert_eq!(on.search.memo_hits, off.search.memo_hits);
        assert_eq!(on.search.pruned_volume, off.search.pruned_volume);
        assert_eq!(on_trail, off_trail);
        assert_eq!(off.search.analytic_rejections, 0);
        assert_eq!(off.search.resume_probes, 0);
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
        let t = ProbeTuning::default();
        let (on, _, feasible_on) = run_fixed_prefix(&base, &[14], 96, true, None, &t);
        let (off, _, feasible_off) = run_fixed_prefix(&base, &[14], 96, false, None, &t);
        assert!(feasible_on && feasible_off);
        assert_eq!(on.generation_blocks, off.generation_blocks);
        assert_eq!(on.probes, off.probes);
        assert_eq!(on.search.replay_probes, off.search.replay_probes);
        assert!(
            on.search.cert_verdicts > 0,
            "bisection under one prefix must use the certificate"
        );
        assert_eq!(off.search.cert_verdicts, 0);
        assert!(
            on.search.probe_events + on.search.resume_saved_events <= off.search.probe_events,
            "certified probes must actually skip the events they claim: \
             {} + {} saved vs {}",
            on.search.probe_events,
            on.search.resume_saved_events,
            off.search.probe_events
        );
    }

    #[test]
    fn resume_probes_match_fresh_replays() {
        // Recirculation breaks the certificate's consumption law (§4
        // re-appends compete for the last generation's tail) but not the
        // prefix-independence snapshots rely on, so bisection under one
        // prefix falls back to snapshot-resume: it must fire — and change
        // nothing but the event count.
        let mut base = paper_base(0.05, false, 30);
        base.el.log.recirculation = true;
        let t = ProbeTuning::default();
        let (on, _, feasible_on) = run_fixed_prefix(&base, &[14], 96, true, None, &t);
        let (off, _, feasible_off) = run_fixed_prefix(&base, &[14], 96, false, None, &t);
        assert!(feasible_on && feasible_off);
        assert_eq!(on.generation_blocks, off.generation_blocks);
        assert_eq!(on.probes, off.probes);
        assert_eq!(on.search.replay_probes, off.search.replay_probes);
        assert_eq!(on.search.cert_verdicts, 0);
        assert!(
            on.search.resume_probes > 0,
            "bisection under one prefix must resume at least once"
        );
        assert_eq!(off.search.resume_probes, 0);
        assert!(
            on.search.probe_events + on.search.resume_saved_events <= off.search.probe_events,
            "resumed probes must actually skip the events they claim: \
             {} + {} saved vs {}",
            on.search.probe_events,
            on.search.resume_saved_events,
            off.search.probe_events
        );
    }

    #[test]
    fn infeasible_anchor_falls_back_to_exhaustive_scan() {
        // A 40% mix cannot fit the tiny ceilings at the anchor, but the
        // scan must still either find a survivor or panic helpfully; at
        // these ceilings nothing fits, so expect the panic.
        let base = paper_base(0.4, false, 20);
        let limits = LatticeLimits {
            prefix_max: vec![4, 4],
            last_limit: 5,
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            SearchRequest::lattice(&base, limits).jobs(2).run()
        }))
        .expect_err("nothing feasible within these limits");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("no feasible geometry"), "{msg}");
    }

    #[test]
    fn uniform_limits_shape() {
        let l = LatticeLimits::uniform(4, 12, 64);
        assert_eq!(l.prefix_max, vec![12, 12, 12]);
        assert_eq!(l.gens(), 4);
        assert_eq!(l.last_limit, 64);
    }

    /// The pre-`Plan` serial bisection (the old `min_last_for`),
    /// recording every `(target, hint)` probe it issues.
    fn ref_min_last(
        oracle: &mut impl FnMut(u32) -> bool,
        probes: &mut Vec<(u32, u32)>,
        floor: u32,
        hi_limit: u32,
    ) -> Option<u32> {
        let mut lo = floor;
        let mut hi = hi_limit;
        probes.push((hi, lo + (hi - lo) / 2));
        if !oracle(hi) {
            return None;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes.push((mid, lo + (mid - lo) / 2));
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
        probes: &mut Vec<(u32, u32)>,
        floor: u32,
        hi_limit: u32,
    ) -> Option<u32> {
        let mut lo = floor;
        let mut hi = hi_limit;
        let mut upper = (lo * 2).min(hi);
        loop {
            probes.push((upper, lo + (upper - lo) / 2));
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
            probes.push((mid, lo + (mid - lo) / 2));
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
        probes: &mut Vec<(u32, u32)>,
        mut plan: Plan,
    ) -> Option<u32> {
        loop {
            let Some(t) = plan.target() else {
                return plan.found();
            };
            probes.push((t, plan.hint()));
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
                        "probe/hint sequence diverged at floor {floor} limit {limit} \
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
                        "probe/hint sequence diverged at floor {floor} limit {limit} \
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
    }
}
