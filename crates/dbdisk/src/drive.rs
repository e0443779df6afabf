//! One flush drive.
//!
//! A drive owns the oid range `[lo, hi)`, serves at most one transfer at a
//! time (§3), and between transfers picks its next request with the
//! [`NearestOid`] scheduler. Urgent requests (every committed-unflushed
//! record the log manager drops at the last head, and the ForceFlush
//! ablation) pre-empt the distance order but not the transfer in progress.

use crate::scheduler::NearestOid;
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
#[derive(Clone, Debug)]
pub struct Drive {
    id: usize,
    lo: u64,
    hi: u64,
    pending: NearestOid,
    /// Service order of the pending entries flagged urgent, one marker each.
    urgent: VecDeque<u64>,
    in_service: Option<(Oid, ObjectVersion, SimTime)>,
    /// Local offset of the last oid whose service *started*; the seek
    /// origin for the next pick.
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
            pending: NearestOid::new(hi - lo),
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
        self.pending.len()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &DriveStats {
        &self.stats
    }

    fn local(&self, oid: Oid) -> u64 {
        debug_assert!(
            (self.lo..self.hi).contains(&oid.get()),
            "oid {oid} outside drive {} range [{}, {})",
            self.id,
            self.lo,
            self.hi
        );
        oid.get() - self.lo
    }

    /// Replaces the version of an already-pending request, returning the
    /// superseded version. Returns `None` when no request is pending.
    pub fn replace_pending(&mut self, oid: Oid, version: ObjectVersion) -> Option<ObjectVersion> {
        let old = self.pending.replace(self.local(oid), version)?;
        self.stats.superseded += 1;
        Some(old)
    }

    /// Adds a request to the queue (the caller has checked it is not a
    /// replacement). `urgent` requests are expedited at once.
    pub fn enqueue(&mut self, oid: Oid, version: ObjectVersion, urgent: bool) {
        self.pending.insert(self.local(oid), oid, version);
        if urgent {
            self.expedite(oid);
        }
        self.stats.peak_queue = self.stats.peak_queue.max(self.pending.len());
    }

    /// Promotes a pending request to urgent (again: keeps its place).
    /// Returns `false` when nothing is pending for the oid.
    pub fn expedite(&mut self, oid: Oid) -> bool {
        let local = self.local(oid);
        let newly = self.pending.expedite(local);
        if newly == Some(true) {
            self.urgent.push_back(local);
        }
        newly.is_some()
    }

    /// Starts service on the best next request, if the drive is idle and
    /// work is pending. Returns `Some(seek_distance)` on start — `None`
    /// inside means "first ever service, no origin". Returns `None` when
    /// nothing starts.
    pub fn start_nearest(&mut self, now: SimTime) -> Option<Option<u64>> {
        if self.is_busy() {
            return None;
        }
        // Urgent queue first, in FIFO order.
        let (local, oid, version, dist) = match self.urgent.pop_front() {
            Some(local) => {
                let (oid, v) = self
                    .pending
                    .remove(local)
                    .expect("every urgent marker names exactly one flagged pending entry");
                self.stats.urgent_served += 1;
                let dist = self.position.map(|p| {
                    let d = local.abs_diff(p);
                    d.min((self.hi - self.lo) - d)
                });
                (local, oid, v, dist)
            }
            None => self.pending.take_nearest(self.position)?,
        };
        self.position = Some(local);
        self.in_service = Some((oid, version, now));
        Some(dist)
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

    /// Panics unless the urgent markers and the pending entries flagged
    /// urgent are in bijection (`expedite` trusts the flag, `start_nearest`
    /// a marker).
    pub fn check_invariants(&self) {
        let mut markers = Vec::from_iter(self.urgent.iter().copied());
        markers.sort_unstable();
        let flagged = Vec::from_iter(self.pending.urgent_offsets());
        assert_eq!(markers, flagged, "drive {}: markers != flags", self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_model::Tid;

    fn ver(n: u64) -> ObjectVersion {
        ObjectVersion {
            tid: Tid(n),
            seq: 1,
            ts: SimTime::from_micros(n),
        }
    }

    #[test]
    fn service_lifecycle_and_busy_time() {
        let mut d = Drive::new(0, 0, 100);
        d.enqueue(Oid(10), ver(1), false);
        assert!(!d.is_busy());
        let dist = d.start_nearest(SimTime::ZERO).unwrap();
        assert_eq!(dist, None, "first service has no seek origin");
        assert!(d.is_busy());
        assert!(d.start_nearest(SimTime::ZERO).is_none());
        let (oid, _) = d.finish_service(SimTime::from_millis(25));
        assert_eq!(oid, Oid(10));
        assert_eq!(d.stats().busy, SimTime::from_millis(25));
        assert_eq!(d.stats().completed, 1);
    }

    #[test]
    fn seek_distance_from_last_start() {
        let mut d = Drive::new(0, 0, 100);
        d.enqueue(Oid(10), ver(1), false);
        d.start_nearest(SimTime::ZERO);
        d.finish_service(SimTime::ZERO);
        d.enqueue(Oid(30), ver(2), false);
        let dist = d.start_nearest(SimTime::ZERO).unwrap();
        assert_eq!(dist, Some(20));
    }

    #[test]
    fn urgent_queue_preempts_distance_order() {
        let mut d = Drive::new(0, 0, 1000);
        d.enqueue(Oid(500), ver(1), false);
        d.start_nearest(SimTime::ZERO);
        d.finish_service(SimTime::ZERO); // position = 500
        d.enqueue(Oid(501), ver(2), false);
        d.enqueue(Oid(900), ver(3), true);
        d.start_nearest(SimTime::ZERO);
        let (oid, _) = d.finish_service(SimTime::ZERO);
        assert_eq!(oid, Oid(900));
        assert_eq!(d.stats().urgent_served, 1);
    }

    #[test]
    fn replacement_keeps_urgency() {
        // Regression guard: with the urgent bit stored in the pending
        // entry, a replace that re-inserted the entry would clear it.
        let mut d = Drive::new(0, 0, 1000);
        d.enqueue(Oid(500), ver(1), false);
        d.start_nearest(SimTime::ZERO); // position = 500, busy
        d.enqueue(Oid(501), ver(2), false);
        d.enqueue(Oid(900), ver(3), false);
        assert!(d.expedite(Oid(900)));
        assert_eq!(d.replace_pending(Oid(900), ver(4)), Some(ver(3)));
        assert_eq!(d.replace_pending(Oid(7), ver(5)), None, "nothing pending");
        d.check_invariants();
        d.finish_service(SimTime::ZERO);
        d.start_nearest(SimTime::ZERO);
        assert_eq!(d.finish_service(SimTime::ZERO), (Oid(900), ver(4)));
        assert_eq!(d.stats().urgent_served, 1);
        assert_eq!(d.stats().superseded, 1);
    }

    #[test]
    fn repeated_expedite_queues_one_marker() {
        let mut d = Drive::new(0, 0, 100);
        d.enqueue(Oid(5), ver(1), true);
        assert!(d.expedite(Oid(5)));
        assert!(d.expedite(Oid(5)));
        assert!(!d.expedite(Oid(6)), "nothing pending for 6");
        d.check_invariants();
        d.start_nearest(SimTime::ZERO);
        d.finish_service(SimTime::ZERO);
        assert!(d.start_nearest(SimTime::ZERO).is_none(), "served once");
        assert_eq!(d.stats().urgent_served, 1);
    }

    #[test]
    fn peak_queue_tracked() {
        let mut d = Drive::new(0, 0, 100);
        for i in 0..5 {
            d.enqueue(Oid(i), ver(i), false);
        }
        assert_eq!(d.stats().peak_queue, 5);
    }

    #[test]
    fn offsets_respect_drive_base() {
        let mut d = Drive::new(3, 300, 400);
        d.enqueue(Oid(399), ver(1), false);
        d.start_nearest(SimTime::ZERO);
        d.finish_service(SimTime::ZERO);
        d.enqueue(Oid(301), ver(2), false);
        // position local 99, target local 1: wrap distance 2 (range 100).
        let dist = d.start_nearest(SimTime::ZERO).unwrap();
        assert_eq!(dist, Some(2));
    }

    #[test]
    #[should_panic]
    fn finish_on_idle_panics() {
        let mut d = Drive::new(0, 0, 10);
        d.finish_service(SimTime::ZERO);
    }
}
