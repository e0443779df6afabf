//! Minimum-space search for N-generation geometries.
//!
//! §4 sizes a log by continuing to "reduce the disk space until we
//! observed transactions being killed", with no box around the procedure. A
//! geometry is a point in an N-dimensional lattice; kill-freedom is
//! monotone along every single axis, but the *total* is not jointly
//! monotone — growing an early generation changes what reaches the later
//! ones. This module walks that lattice as a scan over generations
//! `0..N-2` (the *prefix* axes) with a bisection on the last axis. One
//! generation (the firewall log) is the zero-prefix-axis case of the same
//! code, and a fixed prefix ([`SearchRequest::fixed_prefix`]) is its
//! one-column case.
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
//! # Running bound, no box
//!
//! The search has no caller-set ceiling. It finds a *first bound* by
//! doubling a uniform geometry `[s; N]` from `s = gap+1` until it
//! survives, then bisecting that geometry's last axis. It then walks the
//! prefix columns in ascending lexicographic order with a lazy odometer,
//! bisecting each below the best geometry found so far — a smaller total,
//! or an equal one under a larger prefix. A column with no room under that
//! bound cannot win, and neither can any larger value of the axis that
//! just turned, so the odometer carries at once and the walk ends when the
//! first axis carries out. Survival is monotone along the last axis, so
//! the result is the exhaustive minimum and does not depend on any box.
//! Two crate constants, [`DOUBLING_STOP`] and [`MAX_PREFIX_COLUMNS`], can
//! end a search early, and then only without a minimum
//! ([`SearchOutcome::feasible`] is `false`): neither can change an
//! answer. Every probe generates its own workload from the base seed, so
//! a verdict depends on its geometry alone and a search is deterministic.

use crate::minspace::MinSpaceResult;
use crate::runner::{build_model, RunConfig};
use elog_core::{CertVerdict, ConsumptionCert};
use elog_sim::SearchStats;
use std::fmt;

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
        let (&last, prefix) = blocks.split_last().expect("a geometry has a generation");
        Geometry::column(prefix, last)
    }

    /// The point `prefix + [last]`.
    ///
    /// # Panics
    /// Panics when `prefix` has [`MAX_AXES`] or more axes.
    pub fn column(prefix: &[u32], last: u32) -> Self {
        assert!(
            prefix.len() < MAX_AXES,
            "geometry needs 1..={MAX_AXES} generations, got {}",
            prefix.len() + 1
        );
        let mut axes = [0u32; MAX_AXES];
        axes[..prefix.len()].copy_from_slice(prefix);
        axes[prefix.len()] = last;
        Geometry {
            len: prefix.len() as u8 + 1,
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
/// plus the column's consumption certificate.
pub(crate) struct Prober {
    cfg: RunConfig,
    /// Probe verdicts requested, certified or simulated.
    probes: u32,
    stats: SearchStats,
    /// Consumption certificates enabled for this search.
    certificates: bool,
    /// The prefix of the column probed last and the certificate its latest
    /// surviving probe left: answers that column's smaller capacities
    /// exactly, with zero simulation (see [`elog_core::ConsumptionCert`]).
    cert: Option<(Vec<u32>, ConsumptionCert)>,
}

impl Prober {
    /// A prober over `base`.
    pub(crate) fn new(base: &RunConfig, certificates: bool) -> Self {
        let mut cfg = base.clone();
        cfg.stop_on_kill = true;
        cfg.track_oracle = false;
        Prober {
            cfg,
            probes: 0,
            stats: SearchStats::default(),
            certificates,
            cert: None,
        }
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
    /// consumption certificate when it has one, else from a simulation that
    /// generates its own workload. The certificate returns the verdict the
    /// simulation would and counts as the probe it replaced, so printed
    /// probe counts never depend on which of the two answered.
    pub(crate) fn verdict(&mut self, prefix: &[u32], last: u32) -> bool {
        self.probes += 1;
        self.stats.sim_probes += 1;
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
        let cert_ok = self.cert_ok();
        let mut engine = build_model(&self.cfg);
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

    /// The smallest valid capacity: one block above the gap threshold.
    fn floor(&self) -> u32 {
        self.cfg.el.log.gap_blocks + 1
    }

    /// Ends the search and packages the outcome: `found` is the minimum,
    /// or the geometry the search stopped at and the limit that stopped it.
    fn finish(self, found: Result<Geometry, (Geometry, SearchLimit)>) -> SearchOutcome {
        let (blocks, limit) = match found {
            Ok(min) => (min, None),
            Err((stopped, limit)) => (stopped, Some(limit)),
        };
        SearchOutcome {
            min: MinSpaceResult {
                total_blocks: blocks.total(),
                generation_blocks: blocks.to_vec(),
                probes: self.probes,
                search: self.stats,
            },
            limit,
        }
    }
}

/// Largest per-generation size the first bound's uniform doubling tries.
/// A search whose doubled geometry still kills here ends without a
/// minimum ([`SearchLimit::Doubling`]).
pub const DOUBLING_STOP: u32 = 1024;

/// Most prefix columns a search walks: one whose first bound admits more
/// ends without a minimum ([`SearchLimit::Columns`]) before its walk.
pub const MAX_PREFIX_COLUMNS: u64 = 1 << 20;

/// The search limit that ended a search without a minimum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchLimit {
    /// The doubled geometry still kills with [`DOUBLING_STOP`] blocks in
    /// every generation it doubles.
    Doubling,
    /// The first bound admits this many prefix columns, more than
    /// [`MAX_PREFIX_COLUMNS`].
    Columns(u64),
}

impl fmt::Display for SearchLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchLimit::Doubling => write!(
                f,
                "search limit reached: still kills at {DOUBLING_STOP} blocks per generation"
            ),
            SearchLimit::Columns(n) => write!(
                f,
                "search limit reached: the first bound admits {n} prefix columns \
                 (at most {MAX_PREFIX_COLUMNS})"
            ),
        }
    }
}

/// Frozen name, owed to the next benchmark re-record: `benchmark/` builds
/// one for [`SearchRequest::lattice`], which reads only the number of
/// generations, `prefix_max.len() + 1`.
#[doc(hidden)]
#[derive(Clone, Debug)]
pub struct LatticeLimits {
    /// One entry per prefix axis; the values are ignored.
    pub prefix_max: Vec<u32>,
    /// Ignored.
    pub last_limit: u32,
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

/// The first bound: the geometry `at(s)` (whose last axis is `s`) at the
/// first `s` of the doubling `floor, 2·floor, …`, stopped at
/// [`DOUBLING_STOP`], that `survives`, with its last axis then bisected.
/// A kill raises the bisection's floor only when the next geometry keeps
/// its column. `Err` holds the stop geometry when even that kills.
fn first_bound(
    floor: u32,
    at: impl Fn(u32) -> Geometry,
    mut survives: impl FnMut(&[u32], u32) -> bool,
) -> Result<Geometry, (Geometry, SearchLimit)> {
    let (mut lo, mut s) = (floor, floor);
    loop {
        let g = at(s);
        if survives(g.prefix(), s) {
            let last = bisect(lo, s, |c| survives(g.prefix(), c));
            return Ok(Geometry::column(g.prefix(), last));
        }
        if s >= DOUBLING_STOP {
            return Err((g, SearchLimit::Doubling));
        }
        let next = s.saturating_mul(2).min(DOUBLING_STOP);
        if at(next).prefix() == g.prefix() {
            lo = s + 1;
        }
        s = next;
    }
}

/// The largest last capacity under `prefix` that would replace `bound`: a
/// smaller total, or an equal one under a larger prefix (less forwarded
/// traffic, lower bandwidth).
fn room(bound: Geometry, prefix: &[u32]) -> u32 {
    let room = bound.total().saturating_sub(prefix.iter().sum());
    if prefix > bound.prefix() {
        room
    } else {
        room.saturating_sub(1)
    }
}

/// Prefix columns with at least `floor` blocks of room under `bound`, the
/// tie-break aside (so an upper bound): every prefix axis at least
/// `floor`, with `t` blocks of slack over the all-floor geometry shared
/// among `m` axes, is `C(t + m, m)` columns.
fn admitted_columns(bound: Geometry, floor: u32) -> u64 {
    let m = bound.len() as u128 - 1;
    let slack = u128::from(bound.total().saturating_sub(floor * bound.len() as u32));
    let count = (1..=m).fold(1u128, |c, i| c * (slack + i) / i);
    u64::try_from(count).unwrap_or(u64::MAX)
}

/// The walk's lazy odometer: prefix columns in ascending lexicographic
/// order, the last axis turning fastest. A column that does not fit
/// carries at once — every axis after the one that just turned sits at the
/// floor, so every larger value of that axis leaves less room still.
struct Odometer {
    axes: [u32; MAX_AXES],
    len: usize,
    floor: u32,
    started: bool,
}

impl Odometer {
    fn new(len: usize, floor: u32) -> Self {
        Odometer {
            axes: [floor; MAX_AXES],
            len,
            floor,
            started: false,
        }
    }

    /// The next column that `fits`; `None` (the first axis carried out)
    /// ends the walk.
    fn next(&mut self, fits: impl Fn(&[u32]) -> bool) -> Option<&[u32]> {
        let mut turned = if self.started {
            self.turn(self.len.checked_sub(1)?)
        } else {
            self.started = true;
            0
        };
        while !fits(&self.axes[..self.len]) {
            turned = self.turn(turned.checked_sub(1)?);
        }
        Some(&self.axes[..self.len])
    }

    /// Advances `axis` and resets every later one to the floor.
    fn turn(&mut self, axis: usize) -> usize {
        self.axes[axis] += 1;
        self.axes[axis + 1..self.len].fill(self.floor);
        axis
    }
}

/// The walk from the first bound: every prefix column with room under the
/// running bound, in ascending order, bisected below it.
fn walk(p: &mut Prober, first: Geometry) -> Result<Geometry, (Geometry, SearchLimit)> {
    let floor = p.floor();
    let columns = admitted_columns(first, floor);
    if columns > MAX_PREFIX_COLUMNS {
        return Err((first, SearchLimit::Columns(columns)));
    }
    let mut best = first;
    let mut odometer = Odometer::new(first.len() - 1, floor);
    while let Some(prefix) = odometer.next(|prefix| room(best, prefix) >= floor) {
        if prefix == first.prefix() {
            continue; // the first bound bisected this column
        }
        let cap = room(best, prefix);
        p.stats.pruned_volume += u64::from(room(first, prefix) - cap);
        if let Some(last) = min_under_ceiling(floor, cap, |c| p.verdict(prefix, c)) {
            best = Geometry::column(prefix, last);
        }
    }
    Ok(best)
}

/// What a [`SearchRequest`] searches over.
#[derive(Clone, Debug)]
pub enum SearchMode {
    /// The minimum over every geometry of `gens` generations (first bound,
    /// then the running-bound walk); one generation is the firewall log.
    MinSpace {
        /// Number of generations, `1..=MAX_AXES`.
        gens: usize,
    },
    /// Fixed prefix, minimise only the last generation (Figure 7's
    /// "progressively decreased its size" protocol): the first bound
    /// doubles the last axis alone.
    FixedPrefix {
        /// The frozen sizes of every generation but the last.
        prefix: Vec<u32>,
    },
}

/// One minimum-space search, any shape: the single entry point of the
/// minimum-space machinery.
///
/// ```no_run
/// # use elog_harness::{SearchRequest, minspace::paper_base};
/// let base = paper_base(0.05, false, 500);
/// let out = SearchRequest::min_space(&base, 3).run();
/// assert!(out.feasible());
/// ```
#[derive(Clone, Debug)]
pub struct SearchRequest {
    base: RunConfig,
    mode: SearchMode,
    certificates: bool,
}

/// What a [`SearchRequest`] found.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The minimum geometry and the probe-engine counters; after a search
    /// limit, the geometry the search stopped at, which is no minimum.
    pub min: MinSpaceResult,
    /// The search limit that ended the search, if one did.
    pub limit: Option<SearchLimit>,
}

impl SearchOutcome {
    /// `true` when the search found the minimum; `false` only when a
    /// search limit ([`SearchLimit`]) ended it first.
    pub fn feasible(&self) -> bool {
        self.limit.is_none()
    }
}

impl SearchRequest {
    /// A request for `mode` at the defaults every builder starts from.
    pub(crate) fn with_mode(base: &RunConfig, mode: SearchMode) -> Self {
        SearchRequest {
            base: base.clone(),
            mode,
            certificates: true,
        }
    }

    /// The minimum over every geometry of `gens` generations (1 is the
    /// firewall log).
    ///
    /// # Panics
    /// Panics unless `gens` is in `1..=MAX_AXES`.
    pub fn min_space(base: &RunConfig, gens: usize) -> Self {
        assert!(
            (1..=MAX_AXES).contains(&gens),
            "a search covers 1..={MAX_AXES} generations, got {gens}"
        );
        Self::with_mode(base, SearchMode::MinSpace { gens })
    }

    /// Frozen name, owed to the next benchmark re-record: `benchmark/`
    /// calls it; it is [`SearchRequest::min_space`] at
    /// `limits.prefix_max.len() + 1` generations.
    #[doc(hidden)]
    pub fn lattice(base: &RunConfig, limits: LatticeLimits) -> Self {
        Self::min_space(base, limits.prefix_max.len() + 1)
    }

    /// Fixed-prefix search: minimise only the last generation.
    pub fn fixed_prefix(base: &RunConfig, prefix: Vec<u32>) -> Self {
        assert!(
            (1..MAX_AXES).contains(&prefix.len()),
            "a fixed prefix has 1..{MAX_AXES} axes, got {}",
            prefix.len()
        );
        Self::with_mode(base, SearchMode::FixedPrefix { prefix })
    }

    /// Enables/disables the consumption certificates (default on; off
    /// simulates every probe — results are invariant in this, only the
    /// number of simulated probe events changes).
    pub fn certificates(mut self, on: bool) -> Self {
        self.certificates = on;
        self
    }

    /// Frozen name, owed to the next benchmark re-record: `benchmark/`
    /// pins its protocol with `.jobs(1)`, and the walk is one sequential
    /// pass — each column's cap depends on the columns before it.
    #[doc(hidden)]
    pub fn jobs(self, n: usize) -> Self {
        assert_eq!(n, 1, "the walk is sequential; there is no width to set");
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
        let mut p = Prober::new(&self.base, self.certificates);
        let floor = p.floor();
        let found = match &self.mode {
            SearchMode::MinSpace { gens } => {
                let uniform = |s| Geometry::column(&[s; MAX_AXES][..gens - 1], s);
                first_bound(floor, uniform, |prefix, c| p.verdict(prefix, c))
                    .and_then(|first| walk(&mut p, first))
            }
            SearchMode::FixedPrefix { prefix } => first_bound(
                floor,
                |s| Geometry::column(prefix, s),
                |prefix, c| p.verdict(prefix, c),
            ),
        };
        p.finish(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minspace::{paper_base, survives};
    use crate::runner::{run, run_capture};
    use elog_core::{Effects, LmTimer};
    use elog_model::{Oid, StableDb, Tid};
    use elog_sim::SimTime;
    use std::cell::Cell;

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
        assert_eq!(Geometry::column(&[18, 16], 8), g);
        assert_eq!(Geometry::column(&[], 5).as_slice(), &[5]);
        assert_eq!(g.to_vec(), vec![18, 16, 8]);
    }

    #[test]
    fn odometer_walks_ascending_and_carries_when_a_column_has_no_room() {
        // A column fits while its total stays under a bound that tightens
        // every third visit, as the running bound does. The walk must visit
        // exactly what a pass over a box holding every fitting column
        // visits under the same rule, in the same order, while asking
        // `fits` at most `len + 1` times per visit: it carries instead of
        // running an axis out to a box's edge.
        let floor = 2;
        for len in 1..=3usize {
            for start in [6u32, 11, 15] {
                let mut bound = start;
                let mut want: Vec<Vec<u32>> = Vec::new();
                let mut point = vec![floor; len];
                'boxed: loop {
                    if point.iter().sum::<u32>() <= bound {
                        want.push(point.clone());
                        if want.len().is_multiple_of(3) {
                            bound -= 1;
                        }
                    }
                    for axis in (0..len).rev() {
                        if point[axis] < start {
                            point[axis] += 1;
                            point[axis + 1..].fill(floor);
                            continue 'boxed;
                        }
                    }
                    break;
                }

                let (bound, asked) = (Cell::new(start), Cell::new(0));
                let mut odometer = Odometer::new(len, floor);
                let mut got: Vec<Vec<u32>> = Vec::new();
                while let Some(prefix) = odometer.next(|p| {
                    asked.set(asked.get() + 1);
                    p.iter().sum::<u32>() <= bound.get()
                }) {
                    got.push(prefix.to_vec());
                    if got.len().is_multiple_of(3) {
                        bound.set(bound.get() - 1);
                    }
                }
                let at = format!("len {len}, bound {start}");
                assert_eq!(got, want, "{at}");
                assert!(!got.is_empty(), "{at}: vacuous");
                assert!(
                    asked.get() <= (got.len() + 1) * (len + 1),
                    "{at}: {}",
                    asked.get()
                );
            }
        }
        // No prefix axes: the one empty column, then the end.
        let mut odometer = Odometer::new(0, floor);
        assert_eq!(odometer.next(|_| true), Some(&[][..]));
        assert_eq!(odometer.next(|_| true), None);
    }

    #[test]
    fn three_gen_search_finds_feasible_minimum() {
        let base = paper_base(0.05, false, 20);
        let out = SearchRequest::min_space(&base, 3).run();
        assert!(out.feasible());
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
            "the running bound must prune past the first bound"
        );
        // The boundary really is a boundary: shrinking the last
        // generation at the chosen prefix must kill (when legal).
        let g = &r.generation_blocks;
        if g[2] > base.el.log.gap_blocks + 1 {
            assert!(!survives(&base, &[g[0], g[1], g[2] - 1]));
        }
    }

    #[test]
    fn running_bound_prunes_past_the_anchor_bound() {
        // The first bound alone caps every column at the room it leaves
        // it; the running bound tightens that cap as smaller geometries
        // turn up, so it prunes capacities the first bound admits
        // (`pruned_volume`) and still finds the exhaustive minimum.
        let base = paper_base(0.05, false, 30);
        let k = base.el.log.gap_blocks;
        let out = SearchRequest::min_space(&base, 2).run();
        assert!(out.feasible());
        let r = out.min;
        assert!(
            r.search.pruned_volume > 0,
            "the running bound pruned nothing past the first bound"
        );
        assert_eq!(r.generation_blocks, vec![21, 12]);

        // Exhaustive over columns: columns are monotone along the last
        // axis (`tests/search_oracle.rs`), so no geometry beats the minimum
        // iff no column survives at the largest last generation that would
        // — a smaller total, or an equal one under a larger prefix. Every
        // column with room is checked, not a box of them.
        assert!(survives(&base, &r.generation_blocks));
        let (min_g0, total) = (r.generation_blocks[0], r.total_blocks);
        for g0 in k + 1..total {
            let beats = total.saturating_sub(g0 + u32::from(g0 <= min_g0));
            if beats > k {
                assert!(
                    !survives(&base, &[g0, beats]),
                    "[{g0}, {beats}] beats {total}"
                );
            }
        }
    }

    #[test]
    fn certificate_path_matches_probe_only_path() {
        // The certificate's soundness contract: with it on, every probe
        // verdict — and therefore the chosen geometry and the probe
        // counts — is identical to the simulate-everything path; only the
        // event volume may shrink.
        let base = paper_base(0.05, false, 20);
        let search = |certificates| {
            let req = SearchRequest::min_space(&base, 3);
            req.certificates(certificates).run()
        };
        let (on, off) = (search(true).min, search(false).min);
        assert_eq!(on.generation_blocks, off.generation_blocks);
        assert_eq!(on.probes, off.probes);
        assert_eq!(on.search.sim_probes, off.search.sim_probes);
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
        // Fixed-prefix bisection: once a probe survives the whole
        // horizon, its consumption certificate answers every smaller
        // capacity in the column probe-free — changing nothing but the
        // event count.
        let base = paper_base(0.05, false, 30);
        let run = |certificates| {
            let out = SearchRequest::fixed_prefix(&base, vec![14])
                .certificates(certificates)
                .run();
            assert!(out.feasible());
            out.min
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on.generation_blocks, off.generation_blocks);
        assert_eq!(on.probes, off.probes);
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
    fn every_mode_reports_infeasible_at_the_search_limit() {
        // 20 000 TPS of 40 % long transactions outgrow 1 024 blocks in
        // every generation: each mode stops at the doubling stop, says so,
        // and hands back the geometry it stopped at, not a "minimum".
        let arrivals = elog_workload::ArrivalProcess::Deterministic { rate_tps: 20_000.0 };
        let base = paper_base(0.4, false, 5).with_arrivals(arrivals);
        let s = DOUBLING_STOP;
        let requests = [
            (SearchRequest::min_space(&base, 1), vec![s]),
            (SearchRequest::min_space(&base, 3), vec![s, s, s]),
            (SearchRequest::fixed_prefix(&base, vec![4]), vec![4, s]),
        ];
        for (req, stopped) in requests {
            let mode = format!("{:?}", req.mode);
            let out = req.run();
            assert!(!out.feasible(), "{mode}");
            assert_eq!(out.limit, Some(SearchLimit::Doubling), "{mode}");
            assert_eq!(out.min.generation_blocks, stopped, "{mode}");
            // 3, 6, …, 768, then the stop itself.
            assert_eq!(out.min.probes, 10, "{mode}");
        }
        assert!(SearchLimit::Doubling
            .to_string()
            .contains("search limit reached"));
    }

    #[test]
    fn column_guard_counts_the_columns_the_first_bound_admits() {
        // `admitted_columns` against a count over a box holding every
        // prefix with room for a last axis under the bound.
        for floor in [1u32, 3] {
            for m in 1..=3usize {
                for slack in 0..12u32 {
                    let total = floor * (m as u32 + 1) + slack;
                    let bound = Geometry::column(&vec![floor; m], floor + slack);
                    let mut count = 0u64;
                    let mut point = vec![floor; m];
                    'boxed: loop {
                        count += u64::from(point.iter().sum::<u32>() + floor <= total);
                        for axis in (0..m).rev() {
                            if point[axis] < total {
                                point[axis] += 1;
                                point[axis + 1..].fill(floor);
                                continue 'boxed;
                            }
                        }
                        break;
                    }
                    assert_eq!(
                        admitted_columns(bound, floor),
                        count,
                        "floor {floor}, {m} prefix axes, total {total}"
                    );
                }
            }
        }
        // A first bound that admits more columns than the guard allows
        // ends the search before the walk spends a probe.
        let base = paper_base(0.05, false, 5);
        let mut p = Prober::new(&base, true);
        let first = geom(&[DOUBLING_STOP; MAX_AXES]);
        let columns = admitted_columns(first, p.floor());
        assert!(columns > MAX_PREFIX_COLUMNS, "{columns}");
        assert_eq!(
            walk(&mut p, first),
            Err((first, SearchLimit::Columns(columns)))
        );
        assert_eq!(p.probes, 0);
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
        // One axis (the firewall log and a fixed prefix): the doubling
        // bracket, then a bisection above the last kill.
        for floor in 1..=4u32 {
            for thresh in floor..=floor + 40 {
                let mut probes = Vec::new();
                let got = first_bound(
                    floor,
                    |s| Geometry::column(&[], s),
                    |_, c| {
                        probes.push(c);
                        c >= thresh
                    },
                );
                let at = format!("floor {floor} thresh {thresh}");
                assert_eq!(got, Ok(geom(&[thresh])), "{at}");
                assert_eq!(probes[0], floor, "{at}");
                assert!(probes.iter().all(|&c| c >= floor), "{at}");
                assert_descends_below_survivors(&probes, thresh, &at);
                let mut sorted = probes.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(
                    sorted.len(),
                    probes.len(),
                    "{at}: a probe repeated {probes:?}"
                );
            }
        }
        // A uniform geometry doubles every axis; each step is a new column,
        // so the bisection of the surviving one starts from the floor.
        let mut probes = Vec::new();
        let got = first_bound(
            3,
            |s| Geometry::column(&[s, s], s),
            |prefix, c| {
                probes.push(Geometry::column(prefix, c));
                prefix.iter().sum::<u32>() + c >= 40
            },
        );
        assert_eq!(got, Ok(geom(&[24, 24, 3])));
        assert_eq!(
            probes[..4],
            [
                geom(&[3, 3, 3]),
                geom(&[6, 6, 6]),
                geom(&[12, 12, 12]),
                geom(&[24, 24, 24])
            ]
        );
    }

    #[test]
    fn doubling_stops_at_the_per_generation_limit() {
        // A geometry that kills at every size stops at `DOUBLING_STOP`,
        // whatever the floor: the doubling is clamped to the stop, never
        // past it, and the stop geometry comes back with the limit.
        for (floor, probes_want) in [(3u32, 10), (1, 11), (1000, 2), (1024, 1)] {
            let mut probes = Vec::new();
            let got = first_bound(
                floor,
                |s| Geometry::column(&[s], s),
                |prefix, c| {
                    probes.push((prefix.to_vec(), c));
                    false
                },
            );
            let stop = DOUBLING_STOP;
            assert_eq!(got, Err((geom(&[stop, stop]), SearchLimit::Doubling)));
            assert_eq!(probes.len(), probes_want, "floor {floor}: {probes:?}");
            assert_eq!(probes.last(), Some(&(vec![stop], stop)));
            assert!(probes.iter().all(|&(_, c)| c <= stop));
        }
    }

    #[test]
    fn first_surviving_probe_certifies_its_column_exactly() {
        // The certificate against ground truth, one column at a time: the
        // ceiling probe is the column's first surviving probe — a fresh
        // prober's very first simulation — and every verdict its
        // certificate gives for a smaller capacity — the only ones the
        // search ever asks it — must equal a plain simulation of that
        // exact geometry (`survives`: no certificate), at loads light
        // enough that 16 blocks hold the last generation.
        let (mut kills, mut survivals, mut unknown) = (0, 0, 0);
        let ceiling = 16;
        for (mix, rate_tps, secs, prefixes) in [
            (0.05, 40.0, 25, &[&[8u32][..], &[12], &[6, 7], &[7, 5]][..]),
            (0.40, 20.0, 20, &[&[10u32][..], &[7, 7]][..]),
        ] {
            let arrivals = elog_workload::ArrivalProcess::Deterministic { rate_tps };
            let base = paper_base(mix, false, secs).with_arrivals(arrivals);
            for &prefix in prefixes {
                let at = format!("mix {mix} prefix {prefix:?}");
                let mut p = Prober::new(&base, true);
                assert!(p.verdict(prefix, ceiling), "{at}: ceiling {ceiling} kills");
                let (_, cert) = p.cert.take().expect("a surviving probe certifies");
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
        let req = SearchRequest::min_space(&base, 2);
        assert_eq!(
            format!("{:?}", req.clone().probe_jobs(1)),
            format!("{req:?}"),
            "probe_jobs(1) is the identity"
        );
        assert_eq!(
            format!("{:?}", req.clone().jobs(1)),
            format!("{req:?}"),
            "jobs(1) is the identity"
        );
        let err = std::panic::catch_unwind(|| paper_base(0.05, false, 15).shards(2));
        assert!(err.is_err(), "shards(2) must panic");
        let err = std::panic::catch_unwind(|| SearchRequest::min_space(&base, 1).jobs(2));
        assert!(err.is_err(), "jobs(2) must panic");
        // `benchmark/`'s lattice request is the minimum-space search at its
        // generation count; the values in its limits are ignored.
        let limits = LatticeLimits {
            prefix_max: vec![48],
            last_limit: 1024,
        };
        assert_eq!(
            format!("{:?}", SearchRequest::lattice(&base, limits)),
            format!("{req:?}"),
            "lattice(limits) is min_space(limits.prefix_max.len() + 1)"
        );

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
        let s = SearchRequest::fixed_prefix(&recirc, vec![14])
            .run()
            .min
            .search;
        assert_eq!((s.resume_probes, s.resume_saved_events), (0, 0));
        // And the two the memo and the analytic threshold left behind,
        // hashed by the same workload.
        assert_eq!((s.memo_hits, s.analytic_rejections), (0, 0));

        // The three trace replay left behind: the search workload hashes
        // `replay_probes`, and the forward drill times `run_capture` and
        // replays what it returns — which is nothing.
        assert_eq!(s.replay_probes, 0);
        let (captured, trace) = run_capture(&base);
        assert!(trace.is_none(), "nothing captures a workload");
        let plain = run(&base);
        assert_eq!(
            format!(
                "{:?}",
                (captured.metrics, captured.started, captured.committed)
            ),
            format!("{:?}", (plain.metrics, plain.started, plain.committed)),
        );
        assert_eq!(
            (captured.killed, captured.ended_at, captured.data_records),
            (plain.killed, plain.ended_at, plain.data_records)
        );
        assert_eq!(captured.perf.events, plain.perf.events);
    }
}
