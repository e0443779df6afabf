//! Hot-path performance counters.
//!
//! The simulator's worth is measured in delivered events per wall-clock
//! second, so the kernel exposes the raw material for that number here:
//! per-queue counters ([`QueueStats`], snapshotted via
//! [`crate::EventQueue::perf`]), a per-run aggregate ([`PerfStats`]) the
//! harness assembles around a timed run, and an optional counting
//! allocator ([`CountingAlloc`]) the binaries install to price the
//! allocation traffic of the commit path.
//!
//! Everything here is observational: no counter feeds back into the
//! simulation, so enabling or ignoring them cannot change results.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Lifetime counters of one [`crate::EventQueue`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// `schedule` calls.
    pub scheduled: u64,
    /// Frozen name, owed to the next benchmark re-record: `benchmark/`
    /// reports it. Nothing cancels an event, so it is always 0.
    #[doc(hidden)]
    pub cancelled: u64,
    /// Frozen name, like `cancelled`: the queue holds no tombstones, so it
    /// is always 0.
    #[doc(hidden)]
    pub tombstones_discarded: u64,
    /// Frozen name, like `cancelled`: nothing is compacted, so it is
    /// always 0.
    #[doc(hidden)]
    pub compactions: u64,
    /// Greatest number of events the queue ever held pending.
    pub heap_peak: usize,
}

impl QueueStats {
    /// Accumulates another queue's counters (the peak takes the max).
    pub fn merge(&mut self, other: &QueueStats) {
        self.scheduled += other.scheduled;
        self.heap_peak = self.heap_peak.max(other.heap_peak);
    }
}

/// Counters of one minimum-space search: how many geometry probes ran,
/// how many a consumption certificate answered, and how much simulation
/// the probes cost. Carried inside [`PerfStats`] so a
/// measured run can account for the search that produced its geometry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Probe verdicts the search consumed: simulated, or answered by a
    /// consumption certificate in a simulation's place.
    pub sim_probes: u64,
    /// Frozen name, owed to the next benchmark re-record: `benchmark/`
    /// hashes it. Every probe generates its own workload, so it is
    /// always 0.
    #[doc(hidden)]
    pub replay_probes: u64,
    /// Frozen name, like `resume_probes`: the dominance memo is gone
    /// (PR 24) and this is always 0.
    #[doc(hidden)]
    pub memo_hits: u64,
    /// Events delivered across all probe simulations.
    pub probe_events: u64,
    /// Last-axis capacities the search's running bound skipped without a
    /// probe below what its first bound alone would admit: each scanned
    /// column's range between its cap (set by the best geometry found
    /// before it) and the first bound's room, summed over the columns.
    pub pruned_volume: u64,
    /// Frozen name, like `resume_probes`: the analytic threshold is gone
    /// (PR 24) and this is always 0.
    #[doc(hidden)]
    pub analytic_rejections: u64,
    /// Frozen name, owed to the next benchmark re-record: `benchmark/`
    /// hashes and reports it, and it is always 0.
    #[doc(hidden)]
    pub resume_probes: u64,
    /// Frozen name, like `resume_probes`: always 0.
    #[doc(hidden)]
    pub resume_saved_events: u64,
    /// Probe verdicts answered by a column's consumption certificate (one
    /// instrumented surviving probe certifies every smaller capacity of
    /// its column exactly). Counted in `sim_probes` too, so
    /// the verdict sequence — and every printed probe count — matches the
    /// probe-only search; only `probe_events` shrinks.
    pub cert_verdicts: u64,
}

impl SearchStats {
    /// Accumulates another search's counters.
    pub fn merge(&mut self, other: &SearchStats) {
        self.sim_probes += other.sim_probes;
        self.probe_events += other.probe_events;
        self.pruned_volume += other.pruned_volume;
        self.cert_verdicts += other.cert_verdicts;
    }
}

/// One run's performance aggregate: how much simulation happened and how
/// fast the host executed it.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfStats {
    /// Events delivered by the engine.
    pub events: u64,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Event-queue counters.
    pub queue: QueueStats,
    /// Min-space search counters, when a search produced this run's
    /// geometry (zero for plain measured runs).
    pub search: SearchStats,
}

impl PerfStats {
    /// Delivered events per wall-clock second (0 for an unmeasured run).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.events as f64 / secs
        }
    }

    /// Accumulates another run (wall times add: serial composition).
    pub fn merge(&mut self, other: &PerfStats) {
        self.events += other.events;
        self.wall += other.wall;
        self.queue.merge(&other.queue);
        self.search.merge(&other.search);
    }
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations observed by the installed [`CountingAlloc`], if any.
///
/// Returns 0 when no counting allocator is installed (library users and
/// unit tests pay nothing).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A counting wrapper around any global allocator.
///
/// Binaries that want allocation counts in their perf reports install it:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: CountingAlloc<std::alloc::System> = CountingAlloc(std::alloc::System);
/// ```
///
/// Cost: one relaxed atomic increment per allocation — negligible next to
/// the allocation itself, and zero for code that never allocates.
pub struct CountingAlloc<A>(pub A);

// SAFETY: defers entirely to the wrapped allocator; the counter has no
// effect on the returned memory.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        self.0.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.0.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        self.0.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        self.0.alloc_zeroed(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = PerfStats {
            events: 10,
            wall: Duration::from_millis(5),
            queue: QueueStats {
                scheduled: 12,
                heap_peak: 7,
                ..QueueStats::default()
            },
            ..PerfStats::default()
        };
        let b = PerfStats {
            events: 30,
            wall: Duration::from_millis(15),
            queue: QueueStats {
                scheduled: 40,
                heap_peak: 3,
                ..QueueStats::default()
            },
            search: SearchStats {
                sim_probes: 4,
                probe_events: 900,
                pruned_volume: 11,
                cert_verdicts: 5,
                ..SearchStats::default()
            },
        };
        a.merge(&b);
        assert_eq!(a.events, 40);
        assert_eq!(a.wall, Duration::from_millis(20));
        assert_eq!(a.queue.scheduled, 52);
        assert_eq!(a.queue.heap_peak, 7);
        assert!((a.events_per_sec() - 2000.0).abs() < 1e-6);
        assert_eq!(a.search.sim_probes, 4);
        assert_eq!(a.search.pruned_volume, 11);
        assert_eq!(a.search.cert_verdicts, 5);
    }
}
