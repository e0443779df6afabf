#![warn(missing_docs)]

//! The stable-database disk array that services flushes.
//!
//! §3 of the paper: "the user specifies some number of disk drives and the
//! time required to write a block to any of these drives. We assume that
//! there can be at most one request at a time for any particular drive. …
//! The objects are range partitioned evenly over these drives. … Each disk
//! drive attempts to service pending flush requests in a manner that
//! minimizes access time. In our simulator, we assume that the difference
//! between two objects' oids corresponds to their locality on disk. When
//! calculating the difference between two oids, we assume that the range of
//! integers assigned to their disk drive wraps around."
//!
//! [`FlushArray`] reproduces that model: D drives, each owning a contiguous
//! `num_objects / D` slice of the oid space, each serving one request at a
//! time with a fixed transfer latency, each choosing its next request by
//! minimum wraparound oid-distance from the last oid it served. The mean of
//! those distances is the locality statistic of the scarce-bandwidth
//! experiment in §4 (109 000 at 45 ms vs 235 000 at 25 ms).
//!
//! The array owns one [`PendingIndex`] holding every drive's queued
//! requests; a [`Drive`] keeps its range, urgent FIFO, request in service,
//! seek origin and pending count, and asks the index for the nearest oid
//! inside its own range. A request submitted to an idle drive starts at
//! once without entering the index: an idle drive has nothing pending,
//! because every completion starts the next request.

pub mod drive;
pub mod scheduler;

pub use drive::{Drive, DriveStats};
pub use scheduler::PendingIndex;

use elog_model::{FlushConfig, ObjectVersion, Oid};
use elog_sim::SimTime;

/// Outcome of submitting a flush request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Submitted {
    /// The drive was idle; service began and completes at the given time.
    /// The caller must schedule a completion event and call
    /// [`FlushArray::complete`] when it fires.
    Started {
        /// Index of the servicing drive.
        drive: usize,
        /// Completion time of the transfer.
        done_at: SimTime,
    },
    /// The drive is busy; the request was queued.
    Queued {
        /// Index of the owning drive.
        drive: usize,
    },
    /// A pending request for the same oid was replaced by a newer version
    /// (no extra I/O will happen for the superseded one).
    Replaced {
        /// Index of the owning drive.
        drive: usize,
        /// The version whose pending write was cancelled. Callers tracking
        /// per-transaction flush counts must account for it.
        superseded: ObjectVersion,
    },
}

/// The array of flush drives.
#[derive(Debug)]
pub struct FlushArray {
    drives: Vec<Drive>,
    /// The pending requests of every drive.
    index: PendingIndex,
    objects_per_drive: u64,
    transfer_time: SimTime,
    /// Sum and count of the recorded seek distances.
    distance_sum: f64,
    seeks: u64,
}

impl FlushArray {
    /// Creates an array per `cfg`, partitioning `num_objects` oids evenly.
    ///
    /// As in the paper (§3 footnote), `num_objects` is assumed to be a
    /// multiple of the drive count; a remainder is absorbed by the last
    /// drive.
    pub fn new(cfg: &FlushConfig, num_objects: u64) -> Self {
        let d = u64::from(cfg.drives);
        assert!(
            d > 0 && num_objects >= d,
            "need at least one object per drive"
        );
        let per = num_objects / d;
        let drives = (0..cfg.drives as usize)
            .map(|i| {
                let lo = per * i as u64;
                let hi = if i as u64 == d - 1 {
                    num_objects
                } else {
                    lo + per
                };
                Drive::new(i, lo, hi)
            })
            .collect();
        FlushArray {
            drives,
            index: PendingIndex::new(num_objects),
            objects_per_drive: per,
            transfer_time: cfg.transfer_time,
            distance_sum: 0.0,
            seeks: 0,
        }
    }

    /// Number of drives.
    pub fn drives(&self) -> usize {
        self.drives.len()
    }

    /// The drive that owns `oid` under the range partitioning.
    pub fn drive_for(&self, oid: Oid) -> usize {
        ((oid.get() / self.objects_per_drive) as usize).min(self.drives.len() - 1)
    }

    /// Submits a flush for `oid` at `version`.
    ///
    /// If a request for the same oid is already pending, it is replaced
    /// (the old version's write would be wasted work — §2.3: a newer commit
    /// makes the earlier committed update garbage).
    pub fn submit(&mut self, now: SimTime, oid: Oid, version: ObjectVersion) -> Submitted {
        let di = self.drive_for(oid);
        let drive = &mut self.drives[di];
        if !drive.is_busy() {
            // Nothing is pending on an idle drive: the request is the pick.
            let dist = drive.start(now, oid, version);
            let done_at = self.started(now, dist);
            return Submitted::Started { drive: di, done_at };
        }
        if let Some(superseded) = drive.replace_pending(&mut self.index, oid, version) {
            return Submitted::Replaced {
                drive: di,
                superseded,
            };
        }
        drive.enqueue(&mut self.index, oid, version, false);
        Submitted::Queued { drive: di }
    }

    /// Marks a pending request urgent: the drive serves it next, after
    /// those expedited earlier, regardless of distance. Hot under overload,
    /// not only in the ForceFlush ablation: the default policy expedites
    /// every committed-unflushed record it drops at the last head. No-op
    /// when the oid has no pending request (it may already be in service).
    pub fn expedite(&mut self, oid: Oid) -> bool {
        let di = self.drive_for(oid);
        self.drives[di].expedite(&mut self.index, oid)
    }

    /// Handles a transfer-completion event on `drive`.
    ///
    /// Returns the flushed `(oid, version)` and, when more work is pending,
    /// the completion time of the next transfer (which the caller must
    /// schedule).
    pub fn complete(
        &mut self,
        now: SimTime,
        drive: usize,
    ) -> ((Oid, ObjectVersion), Option<SimTime>) {
        let finished = self.drives[drive].finish_service(now);
        let next = self.start_next(now, drive);
        (finished, next)
    }

    fn start_next(&mut self, now: SimTime, drive: usize) -> Option<SimTime> {
        let dist = self.drives[drive].start_nearest(&mut self.index, now)?;
        Some(self.started(now, dist))
    }

    /// Records a started transfer's seek distance; returns its completion
    /// time.
    fn started(&mut self, now: SimTime, dist: Option<u64>) -> SimTime {
        if let Some(dist) = dist {
            self.distance_sum += dist as f64;
            self.seeks += 1;
        }
        now + self.transfer_time
    }

    /// Panics unless the index is consistent ([`PendingIndex::check_invariants`]),
    /// every drive agrees with it ([`Drive::check_invariants`]), no idle
    /// drive has work pending, and every entry lies in some drive's range.
    pub fn check_invariants(&self) {
        self.index.check_invariants();
        for d in &self.drives {
            d.check_invariants(&self.index);
            assert!(
                d.is_busy() || d.pending_len() == 0,
                "idle drive {} has requests pending",
                d.id()
            );
        }
        let pending: usize = self.drives.iter().map(Drive::pending_len).sum();
        assert_eq!(
            pending,
            self.index.len(),
            "index entries outside every drive's range"
        );
    }

    /// Mean wraparound distance between successively flushed oids, across
    /// all drives. `None` before the second flush on every drive.
    pub fn mean_seek_distance(&self) -> Option<f64> {
        (self.seeks > 0).then(|| self.distance_sum / self.seeks as f64)
    }

    /// Total completed flushes across drives.
    pub fn total_flushes(&self) -> u64 {
        self.drives.iter().map(|d| d.stats().completed).sum()
    }

    /// Total requests currently pending (not in service) across drives.
    pub fn total_pending(&self) -> usize {
        self.index.len()
    }

    /// The request in transfer on `drive`: what its next
    /// [`FlushArray::complete`] will return.
    pub fn in_service(&self, drive: usize) -> Option<(Oid, ObjectVersion)> {
        self.drives[drive].in_service()
    }

    /// Aggregate utilisation: busy time across drives / (elapsed × drives).
    pub fn utilisation(&self, elapsed: SimTime) -> f64 {
        let span = elapsed.as_secs_f64() * self.drives.len() as f64;
        if span == 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .drives
            .iter()
            .map(|d| d.stats().busy.as_secs_f64())
            .sum();
        busy / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_model::Tid;

    fn cfg(drives: u32, ms: u64) -> FlushConfig {
        FlushConfig {
            drives,
            transfer_time: SimTime::from_millis(ms),
        }
    }

    fn ver(ms: u64) -> ObjectVersion {
        ObjectVersion {
            tid: Tid(1),
            seq: 1,
            ts: SimTime::from_millis(ms),
        }
    }

    #[test]
    fn partitioning_matches_paper() {
        let a = FlushArray::new(&cfg(10, 25), 10_000_000);
        assert_eq!(a.drives(), 10);
        assert_eq!(a.drive_for(Oid(0)), 0);
        assert_eq!(a.drive_for(Oid(999_999)), 0);
        assert_eq!(a.drive_for(Oid(1_000_000)), 1);
        assert_eq!(a.drive_for(Oid(9_999_999)), 9);
    }

    #[test]
    fn remainder_goes_to_last_drive() {
        let a = FlushArray::new(&cfg(3, 25), 10);
        // per = 3; drive 2 owns [6, 10)
        assert_eq!(a.drive_for(Oid(5)), 1);
        assert_eq!(a.drive_for(Oid(6)), 2);
        assert_eq!(a.drive_for(Oid(9)), 2);
    }

    #[test]
    fn idle_drive_starts_immediately() {
        let mut a = FlushArray::new(&cfg(2, 25), 100);
        let s = a.submit(SimTime::ZERO, Oid(10), ver(1));
        assert_eq!(
            s,
            Submitted::Started {
                drive: 0,
                done_at: SimTime::from_millis(25)
            }
        );
        // Second request on the same drive queues.
        let s2 = a.submit(SimTime::from_millis(1), Oid(20), ver(2));
        assert_eq!(s2, Submitted::Queued { drive: 0 });
        // Other drive is independent.
        let s3 = a.submit(SimTime::from_millis(1), Oid(60), ver(3));
        assert!(matches!(s3, Submitted::Started { drive: 1, .. }));
    }

    #[test]
    fn completion_chains_to_next_request() {
        let mut a = FlushArray::new(&cfg(1, 10), 100);
        a.submit(SimTime::ZERO, Oid(50), ver(1));
        a.submit(SimTime::ZERO, Oid(70), ver(2));
        a.submit(SimTime::ZERO, Oid(10), ver(3));
        let ((oid, _), next) = a.complete(SimTime::from_millis(10), 0);
        assert_eq!(oid, Oid(50));
        assert_eq!(next, Some(SimTime::from_millis(20)));
        // Nearest to 50 among {70, 10}: |70-50|=20 vs wrap(10,50)=40 → 70.
        let ((oid, _), next) = a.complete(SimTime::from_millis(20), 0);
        assert_eq!(oid, Oid(70));
        assert!(next.is_some());
        let ((oid, _), next) = a.complete(SimTime::from_millis(30), 0);
        assert_eq!(oid, Oid(10));
        assert_eq!(next, None);
        assert_eq!(a.total_flushes(), 3);
    }

    #[test]
    fn wraparound_distance_preferred() {
        let mut a = FlushArray::new(&cfg(1, 10), 100);
        a.submit(SimTime::ZERO, Oid(95), ver(1));
        a.submit(SimTime::ZERO, Oid(40), ver(2));
        a.submit(SimTime::ZERO, Oid(5), ver(3));
        a.complete(SimTime::from_millis(10), 0); // served 95
                                                 // From 95: wrap distance to 5 is 10, to 40 is 45 → 5 first.
        let ((oid, _), _) = a.complete(SimTime::from_millis(20), 0);
        assert_eq!(oid, Oid(5));
    }

    #[test]
    fn replace_pending_version() {
        let mut a = FlushArray::new(&cfg(1, 10), 100);
        a.submit(SimTime::ZERO, Oid(1), ver(1)); // in service
        a.submit(SimTime::ZERO, Oid(2), ver(2)); // pending
        let s = a.submit(SimTime::ZERO, Oid(2), ver(5));
        assert!(matches!(
            s,
            Submitted::Replaced { drive: 0, superseded } if superseded.ts == SimTime::from_millis(2)
        ));
        a.complete(SimTime::from_millis(10), 0);
        let ((oid, v), _) = a.complete(SimTime::from_millis(20), 0);
        assert_eq!(oid, Oid(2));
        assert_eq!(v.ts, SimTime::from_millis(5));
    }

    #[test]
    fn expedited_request_served_first() {
        let mut a = FlushArray::new(&cfg(1, 10), 1000);
        a.submit(SimTime::ZERO, Oid(500), ver(1)); // in service at pos 500
        a.submit(SimTime::ZERO, Oid(501), ver(2)); // nearest
        a.submit(SimTime::ZERO, Oid(900), ver(3)); // far
        assert!(a.expedite(Oid(900)));
        assert!(!a.expedite(Oid(777)), "nothing pending for 777");
        a.complete(SimTime::from_millis(10), 0);
        let ((oid, _), _) = a.complete(SimTime::from_millis(20), 0);
        assert_eq!(oid, Oid(900), "urgent request jumps the distance order");
    }

    #[test]
    fn seek_distance_statistic() {
        let mut a = FlushArray::new(&cfg(1, 10), 1000);
        a.submit(SimTime::ZERO, Oid(100), ver(1));
        a.submit(SimTime::ZERO, Oid(200), ver(2));
        a.submit(SimTime::ZERO, Oid(400), ver(3));
        assert_eq!(a.mean_seek_distance(), None, "first service has no origin");
        a.complete(SimTime::from_millis(10), 0); // 100 → 200: d=100
        a.complete(SimTime::from_millis(20), 0); // 200 → 400: d=200
        a.complete(SimTime::from_millis(30), 0);
        assert_eq!(a.mean_seek_distance(), Some(150.0));
    }

    #[test]
    fn utilisation_reflects_busy_time() {
        let mut a = FlushArray::new(&cfg(2, 100), 100);
        a.submit(SimTime::ZERO, Oid(0), ver(1));
        a.complete(SimTime::from_millis(100), 0);
        // Drive 0 busy 100 ms of 200 ms, drive 1 idle → 25 %.
        assert!((a.utilisation(SimTime::from_millis(200)) - 0.25).abs() < 1e-9);
        assert_eq!(a.utilisation(SimTime::ZERO), 0.0);
    }

    #[test]
    fn pending_count() {
        let mut a = FlushArray::new(&cfg(1, 10), 100);
        assert_eq!(a.total_pending(), 0);
        a.submit(SimTime::ZERO, Oid(1), ver(1));
        a.submit(SimTime::ZERO, Oid(2), ver(2));
        a.submit(SimTime::ZERO, Oid(3), ver(3));
        assert_eq!(a.total_pending(), 2, "one in service, two queued");
    }
}
