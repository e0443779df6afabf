//! Differential test for [`Drive`]: random enqueue / replace / expedite /
//! start / finish sequences against a deliberately naive reference that
//! keeps the rule the drive had before the urgent bit moved into the
//! pending entry — a linear pending list, and `VecDeque::contains`
//! deciding whether an expedite queues a marker. Every return value, pick,
//! distance and statistic must agree. The offset range is tiny so that
//! collisions, replacements of expedited requests and repeated expedites
//! are the common case rather than the rare one.

use elog_dbdisk::{Drive, DriveStats};
use elog_model::{ObjectVersion, Oid, Tid};
use elog_sim::{cases, SimRng, SimTime};
use std::collections::VecDeque;
use std::fmt::Debug;

const LO: u64 = 1_000;
const RANGE: u64 = 64;
const CASES: usize = 300;
const STEPS: u64 = 600;

/// The reference: O(n) everything, no flag.
#[derive(Default)]
struct NaiveDrive {
    pending: Vec<(u64, ObjectVersion)>,
    markers: VecDeque<u64>,
    in_service: Option<(u64, ObjectVersion, SimTime)>,
    position: Option<u64>,
    stats: DriveStats,
}

impl NaiveDrive {
    fn index_of(&self, local: u64) -> Option<usize> {
        self.pending.iter().position(|&(l, _)| l == local)
    }

    fn replace_pending(&mut self, local: u64, v: ObjectVersion) -> Option<ObjectVersion> {
        let i = self.index_of(local)?;
        self.stats.superseded += 1;
        Some(std::mem::replace(&mut self.pending[i].1, v))
    }

    fn enqueue(&mut self, local: u64, v: ObjectVersion, urgent: bool) {
        self.pending.push((local, v));
        if urgent {
            self.markers.push_back(local);
        }
        self.stats.peak_queue = self.stats.peak_queue.max(self.pending.len());
    }

    fn expedite(&mut self, local: u64) -> bool {
        let pending = self.index_of(local).is_some();
        if pending && !self.markers.contains(&local) {
            self.markers.push_back(local);
        }
        pending
    }

    fn start_nearest(&mut self, now: SimTime) -> Option<Option<u64>> {
        if self.in_service.is_some() {
            return None;
        }
        let wrap = |l: u64, p: u64| l.abs_diff(p).min(RANGE - l.abs_diff(p));
        let i = match self.markers.pop_front() {
            Some(local) => {
                self.stats.urgent_served += 1;
                self.index_of(local).expect("naive markers are never stale")
            }
            // Nearest by wraparound distance; ties go forward (>= origin),
            // then to the straight-line side. No origin yet: lowest offset.
            None => (0..self.pending.len()).min_by_key(|&i| {
                let l = self.pending[i].0;
                self.position
                    .map_or((0, false, l), |p| (wrap(l, p), l < p, l.abs_diff(p)))
            })?,
        };
        let (local, v) = self.pending.swap_remove(i);
        let dist = self.position.map(|p| wrap(local, p));
        self.position = Some(local);
        self.in_service = Some((local, v, now));
        Some(dist)
    }

    fn finish_service(&mut self, now: SimTime) -> (Oid, ObjectVersion) {
        let (local, v, started) = self.in_service.take().expect("busy");
        self.stats.completed += 1;
        self.stats.busy += now.saturating_sub(started);
        (Oid(LO + local), v)
    }
}

fn agree<T: PartialEq + Debug>(step: u64, what: &str, got: T, want: T) {
    assert!(
        got == want,
        "step {step}, {what}: drive {got:?}, reference {want:?}"
    );
}

fn run_case(rng: &mut SimRng) {
    let mut drive = Drive::new(3, LO, LO + RANGE);
    let mut naive = NaiveDrive::default();
    let mut now = SimTime::ZERO;
    for step in 0..STEPS {
        now += SimTime::from_micros(rng.next_u64() % 1_000);
        let local = rng.next_u64() % RANGE;
        let oid = Oid(LO + local);
        match rng.next_u64() % 8 {
            // Submit, as `FlushArray::submit` does: replace or enqueue.
            0..=2 => {
                let v = ObjectVersion {
                    tid: Tid(step),
                    seq: 1,
                    ts: now,
                };
                let (got, want) = (
                    drive.replace_pending(oid, v),
                    naive.replace_pending(local, v),
                );
                agree(step, "replace_pending", got, want);
                if want.is_none() {
                    let urgent = rng.next_u64().is_multiple_of(8);
                    drive.enqueue(oid, v, urgent);
                    naive.enqueue(local, v, urgent);
                }
            }
            3..=5 => agree(step, "expedite", drive.expedite(oid), naive.expedite(local)),
            6 => agree(
                step,
                "start_nearest (seek distance)",
                drive.start_nearest(now),
                naive.start_nearest(now),
            ),
            _ => {
                agree(step, "is_busy", drive.is_busy(), naive.in_service.is_some());
                if drive.is_busy() {
                    agree(
                        step,
                        "finish_service (pick)",
                        drive.finish_service(now),
                        naive.finish_service(now),
                    );
                }
            }
        }
        agree(
            step,
            "pending_len",
            drive.pending_len(),
            naive.pending.len(),
        );
        agree(
            step,
            "stats",
            format!("{:?}", drive.stats()),
            format!("{:?}", naive.stats),
        );
        drive.check_invariants();
    }
    assert!(
        naive.stats.urgent_served > 0 && naive.stats.superseded > 0,
        "the case never exercised the urgent queue"
    );
}

#[test]
fn drive_matches_naive_reference() {
    // A panic inside the drive (a broken invariant) names its case too.
    cases::run("drive_matches_naive_reference", CASES, run_case);
}
