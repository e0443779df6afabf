//! One flush drive.
//!
//! A drive owns the oid range `[lo, hi)`, serves at most one transfer at a
//! time (§3), and between transfers picks its next request from the
//! array's [`PendingIndex`], clipped to its range. The drive itself keeps
//! only what is its own: the range, the urgent FIFO, the request in
//! service, the seek origin, its statistics and its pending count. Urgent
//! requests (every committed-unflushed record the log manager drops at the
//! last head, and the ForceFlush ablation) pre-empt the distance order but
//! not the transfer in progress.

use crate::scheduler::PendingIndex;
use elog_model::{ObjectVersion, Oid};
use elog_sim::SimTime;
use std::collections::VecDeque;

/// Lifetime statistics for one drive.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriveStats {
    /// Transfers completed.
    pub completed: u64,
    /// Total time spent transferring.
    pub busy: SimTime,
    /// Greatest pending-queue depth observed.
    pub peak_queue: usize,
    /// Requests that were replaced by a newer version before service.
    pub superseded: u64,
    /// Requests served out of the urgent queue.
    pub urgent_served: u64,
}

/// A single flush drive.
#[derive(Debug)]
pub struct Drive {
    id: usize,
    lo: u64,
    hi: u64,
    /// Entries of the index inside `[lo, hi)`.
    pending: usize,
    /// Service order of the pending oids flagged urgent, one marker each.
    urgent: VecDeque<u64>,
    in_service: Option<(Oid, ObjectVersion, SimTime)>,
    /// The last oid whose service *started*; the seek origin for the next
    /// pick.
    position: Option<u64>,
    stats: DriveStats,
}

impl Drive {
    /// Creates a drive owning oids `[lo, hi)`.
    pub fn new(id: usize, lo: u64, hi: u64) -> Self {
        assert!(hi > lo, "drive range must be non-empty");
        Drive {
            id,
            lo,
            hi,
            pending: 0,
            urgent: VecDeque::new(),
            in_service: None,
            position: None,
            stats: DriveStats::default(),
        }
    }

    /// Drive index within the array.
    pub fn id(&self) -> usize {
        self.id
    }

    /// True while a transfer is in progress.
    pub fn is_busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// The request whose transfer is in progress: what the next
    /// [`Drive::finish_service`] will return.
    pub fn in_service(&self) -> Option<(Oid, ObjectVersion)> {
        self.in_service.map(|(oid, version, _)| (oid, version))
    }

    /// Pending (queued, not in-service) request count.
    pub fn pending_len(&self) -> usize {
        self.pending
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &DriveStats {
        &self.stats
    }

    fn owns(&self, oid: Oid) -> bool {
        (self.lo..self.hi).contains(&oid.get())
    }

    /// Replaces the version of an already-pending request, returning the
    /// superseded version. Returns `None` when no request is pending.
    pub fn replace_pending(
        &mut self,
        index: &mut PendingIndex,
        oid: Oid,
        version: ObjectVersion,
    ) -> Option<ObjectVersion> {
        debug_assert!(self.owns(oid), "oid {oid} outside drive {}", self.id);
        let old = index.replace(oid, version)?;
        self.stats.superseded += 1;
        Some(old)
    }

    /// Adds a request to the queue (the caller has checked it is not a
    /// replacement). `urgent` requests are expedited at once.
    pub fn enqueue(
        &mut self,
        index: &mut PendingIndex,
        oid: Oid,
        version: ObjectVersion,
        urgent: bool,
    ) {
        debug_assert!(self.owns(oid), "oid {oid} outside drive {}", self.id);
        index.insert(oid, version);
        self.pending += 1;
        if urgent {
            self.expedite(index, oid);
        }
        self.stats.peak_queue = self.stats.peak_queue.max(self.pending);
    }

    /// Promotes a pending request to urgent (again: keeps its place).
    /// Returns `false` when nothing is pending for the oid.
    pub fn expedite(&mut self, index: &mut PendingIndex, oid: Oid) -> bool {
        debug_assert!(self.owns(oid), "oid {oid} outside drive {}", self.id);
        let newly = index.expedite(oid);
        if newly == Some(true) {
            self.urgent.push_back(oid.get());
        }
        newly.is_some()
    }

    /// Starts service of a request that was never queued, on an idle drive
    /// with nothing pending: the pick among one request, without the
    /// index. Returns the seek distance, `None` on the first service.
    pub(crate) fn start(&mut self, now: SimTime, oid: Oid, version: ObjectVersion) -> Option<u64> {
        debug_assert!(self.owns(oid), "oid {oid} outside drive {}", self.id);
        debug_assert!(
            !self.is_busy() && self.pending == 0,
            "drive {} busy",
            self.id
        );
        // The request counts as queued for the instant before it starts.
        self.stats.peak_queue = self.stats.peak_queue.max(1);
        self.begin(now, oid, version)
    }

    /// Starts service on the best next request, if the drive is idle and
    /// work is pending. Returns `Some(seek_distance)` on start — `None`
    /// inside means "first ever service, no origin". Returns `None` when
    /// nothing starts.
    pub fn start_nearest(&mut self, index: &mut PendingIndex, now: SimTime) -> Option<Option<u64>> {
        if self.is_busy() || self.pending == 0 {
            return None;
        }
        // Urgent queue first, in FIFO order.
        let (oid, version) = match self.urgent.pop_front() {
            Some(oid) => {
                let version = index
                    .remove(Oid(oid))
                    .expect("every urgent marker names exactly one flagged pending entry");
                self.stats.urgent_served += 1;
                (Oid(oid), version)
            }
            None => index.take_nearest(self.lo, self.hi, self.position)?,
        };
        self.pending -= 1;
        Some(self.begin(now, oid, version))
    }

    /// Puts a request in service and moves the seek origin to it; returns
    /// the wraparound seek distance, `None` on the first service.
    fn begin(&mut self, now: SimTime, oid: Oid, version: ObjectVersion) -> Option<u64> {
        let dist = self.position.map(|p| {
            let d = oid.get().abs_diff(p);
            d.min((self.hi - self.lo) - d)
        });
        self.position = Some(oid.get());
        self.in_service = Some((oid, version, now));
        dist
    }

    /// Completes the transfer in progress, returning what was flushed.
    ///
    /// # Panics
    /// Panics if the drive is idle.
    pub fn finish_service(&mut self, now: SimTime) -> (Oid, ObjectVersion) {
        let (oid, version, started) = self.in_service.take().expect("completion on idle drive");
        self.stats.completed += 1;
        self.stats.busy += now.saturating_sub(started);
        (oid, version)
    }

    /// Panics unless the drive's pending count is the number of index
    /// entries in its range, and its urgent markers and the entries in its
    /// range flagged urgent are in bijection (`expedite` trusts the flag,
    /// `start_nearest` a marker).
    pub fn check_invariants(&self, index: &PendingIndex) {
        let mine = Vec::from_iter(index.iter().filter(|&(oid, _)| self.owns(oid)));
        assert_eq!(
            mine.len(),
            self.pending,
            "drive {}: index entries in range != pending count",
            self.id
        );
        let mut markers = Vec::from_iter(self.urgent.iter().copied());
        markers.sort_unstable();
        let mut flagged = Vec::from_iter(mine.iter().filter(|e| e.1).map(|e| e.0.get()));
        flagged.sort_unstable();
        assert_eq!(markers, flagged, "drive {}: markers != flags", self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_model::Tid;

    /// An index over the oids every test drive below owns.
    fn index() -> PendingIndex {
        PendingIndex::new(1000)
    }

    fn ver(n: u64) -> ObjectVersion {
        ObjectVersion {
            tid: Tid(n),
            seq: 1,
            ts: SimTime::from_micros(n),
        }
    }

    #[test]
    fn service_lifecycle_and_busy_time() {
        let (mut d, mut ix) = (Drive::new(0, 0, 100), index());
        d.enqueue(&mut ix, Oid(10), ver(1), false);
        assert!(!d.is_busy());
        let dist = d.start_nearest(&mut ix, SimTime::ZERO).unwrap();
        assert_eq!(dist, None, "first service has no seek origin");
        assert!(d.is_busy());
        assert!(d.start_nearest(&mut ix, SimTime::ZERO).is_none());
        let (oid, _) = d.finish_service(SimTime::from_millis(25));
        assert_eq!(oid, Oid(10));
        assert_eq!(d.stats().busy, SimTime::from_millis(25));
        assert_eq!(d.stats().completed, 1);
    }

    #[test]
    fn seek_distance_from_last_start() {
        let (mut d, mut ix) = (Drive::new(0, 0, 100), index());
        d.enqueue(&mut ix, Oid(10), ver(1), false);
        d.start_nearest(&mut ix, SimTime::ZERO);
        d.finish_service(SimTime::ZERO);
        d.enqueue(&mut ix, Oid(30), ver(2), false);
        let dist = d.start_nearest(&mut ix, SimTime::ZERO).unwrap();
        assert_eq!(dist, Some(20));
    }

    #[test]
    fn urgent_queue_preempts_distance_order() {
        let (mut d, mut ix) = (Drive::new(0, 0, 1000), index());
        d.enqueue(&mut ix, Oid(500), ver(1), false);
        d.start_nearest(&mut ix, SimTime::ZERO);
        d.finish_service(SimTime::ZERO); // position = 500
        d.enqueue(&mut ix, Oid(501), ver(2), false);
        d.enqueue(&mut ix, Oid(900), ver(3), true);
        d.start_nearest(&mut ix, SimTime::ZERO);
        let (oid, _) = d.finish_service(SimTime::ZERO);
        assert_eq!(oid, Oid(900));
        assert_eq!(d.stats().urgent_served, 1);
    }

    #[test]
    fn replacement_keeps_urgency() {
        // Regression guard: with the urgent bit stored in the pending
        // entry, a replace that re-inserted the entry would clear it.
        let (mut d, mut ix) = (Drive::new(0, 0, 1000), index());
        d.enqueue(&mut ix, Oid(500), ver(1), false);
        d.start_nearest(&mut ix, SimTime::ZERO); // position = 500, busy
        d.enqueue(&mut ix, Oid(501), ver(2), false);
        d.enqueue(&mut ix, Oid(900), ver(3), false);
        assert!(d.expedite(&mut ix, Oid(900)));
        assert_eq!(d.replace_pending(&mut ix, Oid(900), ver(4)), Some(ver(3)));
        assert_eq!(
            d.replace_pending(&mut ix, Oid(7), ver(5)),
            None,
            "nothing pending"
        );
        d.check_invariants(&ix);
        d.finish_service(SimTime::ZERO);
        d.start_nearest(&mut ix, SimTime::ZERO);
        assert_eq!(d.finish_service(SimTime::ZERO), (Oid(900), ver(4)));
        assert_eq!(d.stats().urgent_served, 1);
        assert_eq!(d.stats().superseded, 1);
    }

    #[test]
    fn repeated_expedite_queues_one_marker() {
        let (mut d, mut ix) = (Drive::new(0, 0, 100), index());
        d.enqueue(&mut ix, Oid(5), ver(1), true);
        assert!(d.expedite(&mut ix, Oid(5)));
        assert!(d.expedite(&mut ix, Oid(5)));
        assert!(!d.expedite(&mut ix, Oid(6)), "nothing pending for 6");
        d.check_invariants(&ix);
        d.start_nearest(&mut ix, SimTime::ZERO);
        d.finish_service(SimTime::ZERO);
        assert!(
            d.start_nearest(&mut ix, SimTime::ZERO).is_none(),
            "served once"
        );
        assert_eq!(d.stats().urgent_served, 1);
    }

    #[test]
    fn idle_start_matches_a_one_request_pick() {
        // `start` skips the index, as `FlushArray::submit` does on an idle
        // drive; distance, origin and statistics are those of a request
        // queued and then picked.
        let (mut d, mut ix) = (Drive::new(0, 0, 100), index());
        let (mut e, mut ex) = (Drive::new(0, 0, 100), index());
        for (n, oid) in [(1, Oid(90)), (2, Oid(5)), (3, Oid(60))] {
            let dist = d.start(SimTime::ZERO, oid, ver(n));
            e.enqueue(&mut ex, oid, ver(n), false);
            assert_eq!(Some(dist), e.start_nearest(&mut ex, SimTime::ZERO));
            assert_eq!(
                d.finish_service(SimTime::ZERO),
                e.finish_service(SimTime::ZERO)
            );
        }
        assert_eq!(format!("{:?}", d.stats()), format!("{:?}", e.stats()));
        assert_eq!(d.stats().peak_queue, 1);
        d.check_invariants(&ix);
        assert!(ix.is_empty() && ex.is_empty());
        d.enqueue(&mut ix, Oid(7), ver(4), false);
        assert_eq!(d.start_nearest(&mut ix, SimTime::ZERO), Some(Some(47)));
    }

    #[test]
    fn peak_queue_tracked() {
        let (mut d, mut ix) = (Drive::new(0, 0, 100), index());
        for i in 0..5 {
            d.enqueue(&mut ix, Oid(i), ver(i), false);
        }
        assert_eq!(d.stats().peak_queue, 5);
    }

    #[test]
    fn offsets_respect_drive_base() {
        let (mut d, mut ix) = (Drive::new(3, 300, 400), index());
        d.enqueue(&mut ix, Oid(399), ver(1), false);
        d.start_nearest(&mut ix, SimTime::ZERO);
        d.finish_service(SimTime::ZERO);
        d.enqueue(&mut ix, Oid(301), ver(2), false);
        // position local 99, target local 1: wrap distance 2 (range 100).
        let dist = d.start_nearest(&mut ix, SimTime::ZERO).unwrap();
        assert_eq!(dist, Some(2));
    }

    #[test]
    #[should_panic]
    fn finish_on_idle_panics() {
        let mut d = Drive::new(0, 0, 10);
        d.finish_service(SimTime::ZERO);
    }
}
