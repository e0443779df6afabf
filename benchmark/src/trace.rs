//! Tracing, from the benchmark's side of the crates' public functions.
//!
//! Two grains. *Coarse* spans — set-up, each pass, each whole simulated
//! run, each recovery call, each drill — are few, so each is kept as a
//! record. *Call* spans — one per `LogManager` entry, up to a million per
//! run — are folded on the fly into count / total / max / log2 histogram
//! per (input, name), because storing them would cost more than the work
//! they time. Both are written out only when the benchmark ends.

use elog_core::{AdaptiveController, Effects, LmTimer, LogManager};
use elog_model::{Oid, StableDb, Tid};
use elog_sim::SimTime;
use std::time::Instant;

/// "No parent" / "no input" marker in a [`Span`].
pub const NONE: u32 = u32::MAX;

/// One coarse span. Spans of one simulated run share its (pass, input).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub pass: u32,
    pub input: u32,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Disabled (the untraced run) it records
/// nothing and `open`/`close` cost one branch.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            // Preallocated for the busiest workload (`recover`: ~2.4 k
            // call spans a pass), so recording does not allocate mid-pass.
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            open: Vec::with_capacity(8),
        }
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::close`] in LIFO order.
    pub fn open(&mut self, name: &'static str, pass: u32, input: u32) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            pass,
            input,
            parent: self.open.last().copied().unwrap_or(NONE),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("close without an open span");
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// (calls, total ns) of every closed span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(c, t), s| (c + 1, t + s.ns()))
    }

    /// [`Tracer::total`] over the timed passes only: a span of a set-up's
    /// warm-up pass carries no pass id and stays out.
    pub fn total_in_passes(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.pass != NONE)
            .fold((0, 0), |(c, t), s| (c + 1, t + s.ns()))
    }
}

/// Folded call spans of one name: no per-call record survives, only this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fold {
    pub calls: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    /// `hist[b]` counts calls with `floor(log2(ns)) == b` (0 ns in bucket
    /// 0; everything ≥ 2³¹ ns in the last).
    pub hist: [u64; 32],
}

impl Fold {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        let bucket = (63 - (ns | 1).leading_zeros() as usize).min(31);
        self.hist[bucket] += 1;
    }

    pub fn merge(&mut self, other: &Fold) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// The `LogManager` entry points [`Timed`] folds, in [`CallFolds`] order.
/// `other` is everything the paper workloads barely touch (group-commit
/// timeouts, abort, quiesce, adaptive ticks), kept so the fold totals sum
/// to all time spent inside the manager.
pub const CORE_CALLS: [&str; 6] = [
    "core.begin",
    "core.write_data",
    "core.commit_request",
    "core.buffer_write",
    "core.flush_done",
    "core.other",
];

/// One [`Fold`] per [`CORE_CALLS`] name.
pub type CallFolds = [Fold; 6];

/// Sum of the folds' total time.
pub fn folds_total_ns(folds: &CallFolds) -> u64 {
    folds.iter().map(|f| f.total_ns).sum()
}

/// A delegating [`LogManager`] that times every trait entry point into a
/// [`Fold`]. It adds nothing to and hides nothing from the simulation:
/// a run through `Timed<ElManager>` must produce the digest and event
/// count of the plain run (checked on every traced pass).
pub struct Timed<L> {
    pub inner: L,
    pub folds: CallFolds,
}

impl<L> Timed<L> {
    pub fn new(inner: L) -> Self {
        Timed {
            inner,
            folds: CallFolds::default(),
        }
    }

    #[inline]
    fn timed<R>(&mut self, slot: usize, f: impl FnOnce(&mut L) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.folds[slot].record(t.elapsed().as_nanos() as u64);
        r
    }
}

impl<L: LogManager> LogManager for Timed<L> {
    fn begin(&mut self, now: SimTime, tid: Tid) -> Effects {
        self.timed(0, |lm| lm.begin(now, tid))
    }

    fn begin_hinted(&mut self, now: SimTime, tid: Tid, expected_duration: SimTime) -> Effects {
        self.timed(0, |lm| lm.begin_hinted(now, tid, expected_duration))
    }

    fn write_data(&mut self, now: SimTime, tid: Tid, oid: Oid, seq: u32, size: u32) -> Effects {
        self.timed(1, |lm| lm.write_data(now, tid, oid, seq, size))
    }

    fn commit_request(&mut self, now: SimTime, tid: Tid) -> Effects {
        self.timed(2, |lm| lm.commit_request(now, tid))
    }

    fn abort(&mut self, now: SimTime, tid: Tid) -> Effects {
        self.timed(5, |lm| lm.abort(now, tid))
    }

    fn handle_timer(&mut self, now: SimTime, timer: LmTimer) -> Effects {
        let slot = match timer {
            LmTimer::BufferWrite { .. } => 3,
            LmTimer::FlushDone { .. } => 4,
            LmTimer::GroupCommitTimeout { .. } => 5,
        };
        self.timed(slot, |lm| lm.handle_timer(now, timer))
    }

    fn quiesce(&mut self, now: SimTime) -> Effects {
        self.timed(5, |lm| lm.quiesce(now))
    }

    fn adaptive_window(&mut self, now: SimTime, ctl: &mut AdaptiveController) {
        self.timed(5, |lm| lm.adaptive_window(now, ctl))
    }

    // `recycle` hands a buffer back and the accessors below read a field:
    // timing them would cost more than they do.
    fn recycle(&mut self, fx: Effects) {
        self.inner.recycle(fx)
    }

    fn peak_memory_bytes(&self) -> u64 {
        self.inner.peak_memory_bytes()
    }

    fn last_gen_allocated(&self) -> u64 {
        self.inner.last_gen_allocated()
    }

    fn log_writes(&self) -> u64 {
        self.inner.log_writes()
    }

    fn log_write_rate(&self, now: SimTime) -> f64 {
        self.inner.log_write_rate(now)
    }

    fn stable_db(&self) -> &StableDb {
        self.inner.stable_db()
    }
}

/// A log manager that is not there: every commit is acknowledged by the
/// `commit_request` call itself and nothing is ever logged, flushed or
/// killed. A run through it is event queue + workload driver + `SimModel`
/// glue — the floor under `wall_s` on the forward workloads.
#[derive(Default)]
pub struct NullLm {
    spare: Effects,
    stable: StableDb,
}

impl LogManager for NullLm {
    fn begin(&mut self, _: SimTime, _: Tid) -> Effects {
        std::mem::take(&mut self.spare)
    }

    fn write_data(&mut self, _: SimTime, _: Tid, _: Oid, _: u32, _: u32) -> Effects {
        std::mem::take(&mut self.spare)
    }

    fn commit_request(&mut self, _: SimTime, tid: Tid) -> Effects {
        let mut fx = std::mem::take(&mut self.spare);
        fx.acks.push(tid);
        fx
    }

    fn abort(&mut self, _: SimTime, _: Tid) -> Effects {
        std::mem::take(&mut self.spare)
    }

    fn handle_timer(&mut self, _: SimTime, _: LmTimer) -> Effects {
        std::mem::take(&mut self.spare)
    }

    fn quiesce(&mut self, _: SimTime) -> Effects {
        std::mem::take(&mut self.spare)
    }

    fn recycle(&mut self, mut fx: Effects) {
        fx.clear();
        self.spare = fx;
    }

    fn peak_memory_bytes(&self) -> u64 {
        0
    }

    fn log_writes(&self) -> u64 {
        0
    }

    fn log_write_rate(&self, _: SimTime) -> f64 {
        0.0
    }

    fn stable_db(&self) -> &StableDb {
        &self.stable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_buckets_by_log2_and_merges() {
        let mut f = Fold::default();
        for ns in [0, 1, 2, 3, 1024, 1 << 40] {
            f.record(ns);
        }
        assert_eq!(f.calls, 6);
        assert_eq!(f.max_ns, 1 << 40);
        assert_eq!(f.hist[0], 2, "0 and 1 ns");
        assert_eq!(f.hist[1], 2, "2 and 3 ns");
        assert_eq!(f.hist[10], 1);
        assert_eq!(f.hist[31], 1, "clamped");
        let mut g = Fold::default();
        g.record(5);
        g.merge(&Fold {
            calls: 1,
            total_ns: 7,
            max_ns: 7,
            hist: [0; 32],
        });
        assert_eq!((g.calls, g.total_ns, g.max_ns), (2, 12, 7));
        assert_eq!(g.mean_ns(), 6.0);
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::new(true);
        t.open("pass", 0, NONE);
        t.open("run", 0, 3);
        t.close();
        t.open("run", 0, 4);
        t.close();
        t.close();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, NONE);
        assert_eq!((s[1].parent, s[1].input), (0, 3));
        assert_eq!(s[2].parent, 0);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(t.total("run").0, 2);
        assert!(t.total("pass").1 >= t.total("run").1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("pass", 0, NONE);
        t.close();
        assert!(t.spans().is_empty());
    }
}
