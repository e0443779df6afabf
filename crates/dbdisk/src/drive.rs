//! One flush drive.
//!
//! A drive owns the oid range `[lo, hi)`, serves at most one transfer at a
//! time (§3), and between transfers picks its next request with the
//! [`NearestOid`](crate::scheduler::NearestOid) scheduler. Urgent requests
//! (the ForceFlush ablation) pre-empt the distance order but not the
//! transfer in progress.

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
        let local = self.local(oid);
        if self.pending.contains(local) {
            let old = self.pending.insert(local, oid, version);
            self.stats.superseded += 1;
            old
        } else {
            None
        }
    }

    /// Adds a request to the queue (the caller has checked it is not a
    /// replacement). `urgent` requests are also appended to the urgent list.
    pub fn enqueue(&mut self, oid: Oid, version: ObjectVersion, urgent: bool) {
        let local = self.local(oid);
        debug_assert!(!self.pending.contains(local), "duplicate enqueue for {oid}");
        self.pending.insert(local, oid, version);
        if urgent {
            self.urgent.push_back(local);
        }
        self.stats.peak_queue = self.stats.peak_queue.max(self.pending.len());
    }

    /// Promotes a pending request to urgent. Returns `false` when nothing
    /// is pending for the oid.
    pub fn expedite(&mut self, oid: Oid) -> bool {
        let local = self.local(oid);
        if self.pending.contains(local) {
            if !self.urgent.contains(&local) {
                self.urgent.push_back(local);
            }
            true
        } else {
            false
        }
    }

    /// Withdraws a pending request. Returns `true` if one was removed.
    pub fn retract(&mut self, oid: Oid) -> bool {
        let local = self.local(oid);
        let removed = self.pending.remove(local).is_some();
        if removed {
            self.urgent.retain(|&l| l != local);
        }
        removed
    }

    /// Starts service on the best next request, if the drive is idle and
    /// work is pending. Returns `Some(seek_distance)` on start — `None`
    /// inside means "first ever service, no origin". Returns `None` when
    /// nothing starts.
    pub fn start_nearest(&mut self, now: SimTime, _transfer: SimTime) -> Option<Option<u64>> {
        if self.is_busy() {
            return None;
        }
        // Urgent queue first, in FIFO order.
        let picked = loop {
            match self.urgent.pop_front() {
                Some(local) => {
                    if let Some((oid, v)) = self.pending.remove(local) {
                        self.stats.urgent_served += 1;
                        let dist = self.position.map(|p| {
                            let d = local.abs_diff(p);
                            d.min((self.hi - self.lo) - d)
                        });
                        break Some((local, oid, v, dist));
                    }
                    // Stale urgent marker (request was retracted): skip.
                }
                None => break None,
            }
        };
        let (local, oid, version, dist) = match picked {
            Some(p) => p,
            None => {
                let (local, oid, v, dist) = self.pending.take_nearest(self.position)?;
                (local, oid, v, dist)
            }
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
        let dist = d
            .start_nearest(SimTime::ZERO, SimTime::from_millis(25))
            .unwrap();
        assert_eq!(dist, None, "first service has no seek origin");
        assert!(d.is_busy());
        assert!(d
            .start_nearest(SimTime::ZERO, SimTime::from_millis(25))
            .is_none());
        let (oid, _) = d.finish_service(SimTime::from_millis(25));
        assert_eq!(oid, Oid(10));
        assert_eq!(d.stats().busy, SimTime::from_millis(25));
        assert_eq!(d.stats().completed, 1);
    }

    #[test]
    fn seek_distance_from_last_start() {
        let mut d = Drive::new(0, 0, 100);
        d.enqueue(Oid(10), ver(1), false);
        d.start_nearest(SimTime::ZERO, SimTime::ZERO);
        d.finish_service(SimTime::ZERO);
        d.enqueue(Oid(30), ver(2), false);
        let dist = d.start_nearest(SimTime::ZERO, SimTime::ZERO).unwrap();
        assert_eq!(dist, Some(20));
    }

    #[test]
    fn urgent_queue_preempts_distance_order() {
        let mut d = Drive::new(0, 0, 1000);
        d.enqueue(Oid(500), ver(1), false);
        d.start_nearest(SimTime::ZERO, SimTime::ZERO);
        d.finish_service(SimTime::ZERO); // position = 500
        d.enqueue(Oid(501), ver(2), false);
        d.enqueue(Oid(900), ver(3), true);
        d.start_nearest(SimTime::ZERO, SimTime::ZERO);
        let (oid, _) = d.finish_service(SimTime::ZERO);
        assert_eq!(oid, Oid(900));
        assert_eq!(d.stats().urgent_served, 1);
    }

    #[test]
    fn retract_clears_urgent_marker() {
        let mut d = Drive::new(0, 0, 100);
        d.enqueue(Oid(5), ver(1), true);
        assert!(d.retract(Oid(5)));
        assert!(d.start_nearest(SimTime::ZERO, SimTime::ZERO).is_none());
    }

    #[test]
    fn stale_urgent_marker_skipped() {
        let mut d = Drive::new(0, 0, 100);
        d.enqueue(Oid(5), ver(1), false);
        d.expedite(Oid(5));
        // Manually retract via the pending set path that keeps the marker:
        // expedite again after retract should fail.
        assert!(d.retract(Oid(5)));
        d.enqueue(Oid(7), ver(2), false);
        // No urgent entries survive; normal pick happens.
        assert!(d.start_nearest(SimTime::ZERO, SimTime::ZERO).is_some());
        let (oid, _) = d.finish_service(SimTime::ZERO);
        assert_eq!(oid, Oid(7));
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
        d.start_nearest(SimTime::ZERO, SimTime::ZERO);
        d.finish_service(SimTime::ZERO);
        d.enqueue(Oid(301), ver(2), false);
        // position local 99, target local 1: wrap distance 2 (range 100).
        let dist = d.start_nearest(SimTime::ZERO, SimTime::ZERO).unwrap();
        assert_eq!(dist, Some(2));
    }

    #[test]
    #[should_panic]
    fn finish_on_idle_panics() {
        let mut d = Drive::new(0, 0, 10);
        d.finish_service(SimTime::ZERO);
    }
}
