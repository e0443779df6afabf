//! Differential tests for [`Drive`] and [`FlushArray`]: random enqueue /
//! replace / expedite / start / finish sequences against a deliberately
//! naive reference per drive — a linear pending list, and
//! `VecDeque::contains` deciding whether an expedite queues a marker.
//! Every return value, pick, distance and statistic must agree.
//!
//! The drive ranges are table-driven to cross every level of the
//! [`PendingIndex`] bitmap (one word, two words, a whole level-1 word and
//! more, up to three levels), each starting off a 64-bit word boundary.
//! Oids are drawn two ways: densely, from a 48-oid window at either end of
//! the range or inside it (collisions, replacements of expedited requests
//! and wrap picks are the common case), and sparsely, from the whole range
//! (successor and predecessor scans climb the upper levels).
//! Half of all draws re-use a pending oid so that both ways replace and
//! expedite. The index holds entries just outside the drive's range, and
//! the array case shares one index between drives, so a successor or
//! predecessor taken from a neighbour's range fails the test.

use elog_dbdisk::{Drive, DriveStats, FlushArray, PendingIndex, Submitted};
use elog_model::{FlushConfig, ObjectVersion, Oid, Tid};
use elog_sim::{cases, SimRng, SimTime};
use std::collections::VecDeque;
use std::fmt::Debug;

const CASES: usize = 40;
const STEPS: u64 = 600;
const TRANSFER: SimTime = SimTime::from_millis(25);

/// Drive range sizes: 1 word, 2 words, under and over one level-1 word
/// (64 × 64 oids), over one level-2 word, and the paper's 10⁶ per drive.
const RANGES: [u64; 6] = [64, 65, 4_095, 4_097, 262_145, 1_000_000];

/// `(drives, num_objects)` of the array cases: the last drive takes the
/// remainder, so it is larger than the others.
const ARRAYS: [(u32, u64); 3] = [(3, 3 * 64 + 5), (4, 4 * 4_097 + 63), (3, 3 * 262_145 + 100)];

/// The reference: O(n) everything, no flag, local offsets in `[0, range)`.
struct NaiveDrive {
    lo: u64,
    range: u64,
    pending: Vec<(u64, ObjectVersion)>,
    markers: VecDeque<u64>,
    in_service: Option<(u64, ObjectVersion, SimTime)>,
    position: Option<u64>,
    stats: DriveStats,
}

impl NaiveDrive {
    fn new(lo: u64, hi: u64) -> Self {
        NaiveDrive {
            lo,
            range: hi - lo,
            pending: Vec::new(),
            markers: VecDeque::new(),
            in_service: None,
            position: None,
            stats: DriveStats::default(),
        }
    }

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
        let range = self.range;
        let wrap = |l: u64, p: u64| l.abs_diff(p).min(range - l.abs_diff(p));
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
        (Oid(self.lo + local), v)
    }
}

fn agree<T: PartialEq + Debug>(at: &str, step: u64, what: &str, got: T, want: T) {
    assert!(
        got == want,
        "{at}, step {step}, {what}: got {got:?}, reference {want:?}"
    );
}

/// Draws an oid in `[lo, hi)`: half the time a pending one (from `pending`,
/// local offsets), else densely from a small window or sparsely from the
/// whole range.
fn draw(rng: &mut SimRng, lo: u64, hi: u64, dense: bool, pending: &[u64]) -> u64 {
    let range = hi - lo;
    if !pending.is_empty() && rng.next_u64().is_multiple_of(2) {
        return lo + pending[(rng.next_u64() % pending.len() as u64) as usize];
    }
    if !dense {
        return lo + rng.next_u64() % range;
    }
    // Windows of 48 offsets at either end of the range, so that wrap
    // picks and cyclic extremes are exercised, or anywhere inside it.
    let w = range.min(48);
    let start = match rng.next_u64() % 3 {
        0 => 0,
        1 => range - w,
        _ => rng.next_u64() % (range - w + 1),
    };
    lo + start + rng.next_u64() % w
}

fn version(step: u64, now: SimTime) -> ObjectVersion {
    ObjectVersion {
        tid: Tid(step),
        seq: 1,
        ts: now,
    }
}

fn run_drive(rng: &mut SimRng, range: u64, dense: bool) {
    // Off a word boundary, with room for decoys on both sides.
    let lo = 64 * (1 + rng.next_u64() % 64) + 1 + rng.next_u64() % 63;
    let hi = lo + range;
    let at = format!("drive [{lo}, {hi}) dense {dense}");
    let mut index = PendingIndex::new(hi + 64);
    // Neighbours' requests beside the range, each nearer in a straight
    // line to one of its ends than the other end is.
    for decoy in [lo - 64, lo - 1, hi, hi + 63] {
        index.insert(Oid(decoy), version(0, SimTime::ZERO));
    }
    let mut drive = Drive::new(3, lo, hi);
    let mut naive = NaiveDrive::new(lo, hi);
    let mut now = SimTime::ZERO;
    for step in 0..STEPS {
        now += SimTime::from_micros(rng.next_u64() % 1_000);
        let locals = Vec::from_iter(naive.pending.iter().map(|&(l, _)| l));
        let oid = Oid(draw(rng, lo, hi, dense, &locals));
        let local = oid.get() - lo;
        match rng.next_u64() % 8 {
            // Submit, as `FlushArray::submit` does: replace or enqueue.
            0..=2 => {
                let v = version(step, now);
                let (got, want) = (
                    drive.replace_pending(&mut index, oid, v),
                    naive.replace_pending(local, v),
                );
                agree(&at, step, "replace_pending", got, want);
                if want.is_none() {
                    let urgent = rng.next_u64().is_multiple_of(8);
                    drive.enqueue(&mut index, oid, v, urgent);
                    naive.enqueue(local, v, urgent);
                }
            }
            3..=5 => agree(
                &at,
                step,
                "expedite",
                drive.expedite(&mut index, oid),
                naive.expedite(local),
            ),
            6 => agree(
                &at,
                step,
                "start_nearest (seek distance)",
                drive.start_nearest(&mut index, now),
                naive.start_nearest(now),
            ),
            _ => {
                let busy = naive.in_service.is_some();
                agree(&at, step, "is_busy", drive.is_busy(), busy);
                if busy {
                    agree(
                        &at,
                        step,
                        "finish_service (pick)",
                        drive.finish_service(now),
                        naive.finish_service(now),
                    );
                }
            }
        }
        agree(
            &at,
            step,
            "pending_len",
            drive.pending_len(),
            naive.pending.len(),
        );
        agree(
            &at,
            step,
            "stats",
            format!("{:?}", drive.stats()),
            format!("{:?}", naive.stats),
        );
        index.check_invariants();
        drive.check_invariants(&index);
    }
    agree(&at, STEPS, "decoys", index.len(), naive.pending.len() + 4);
    assert!(
        naive.stats.urgent_served > 0 && naive.stats.superseded > 0,
        "{at}: the case never exercised the urgent queue"
    );
}

#[test]
fn drive_matches_naive_reference() {
    // A panic inside the drive (a broken invariant) names its case too.
    cases::run("drive_matches_naive_reference", CASES, |rng| {
        for range in RANGES {
            for dense in [true, false] {
                run_drive(rng, range, dense);
            }
        }
    });
}

fn run_array(rng: &mut SimRng, drives: u32, num_objects: u64, dense: bool) {
    let at = format!("array {drives} × {num_objects} dense {dense}");
    let cfg = FlushConfig {
        drives,
        transfer_time: TRANSFER,
    };
    let mut array = FlushArray::new(&cfg, num_objects);
    // The paper's partition, restated: even ranges, remainder to the last.
    let per = num_objects / u64::from(drives);
    let mut naive = Vec::from_iter((0..u64::from(drives)).map(|d| {
        let hi = if d + 1 == u64::from(drives) {
            num_objects
        } else {
            (d + 1) * per
        };
        NaiveDrive::new(d * per, hi)
    }));
    let mut now = SimTime::ZERO;
    let (mut seeks, mut seek_sum) = (0u64, 0u64);
    for step in 0..STEPS * 2 {
        now += SimTime::from_micros(rng.next_u64() % 1_000);
        let di = (rng.next_u64() % u64::from(drives)) as usize;
        let (lo, range) = (naive[di].lo, naive[di].range);
        let locals = Vec::from_iter(naive[di].pending.iter().map(|&(l, _)| l));
        let oid = Oid(draw(rng, lo, lo + range, dense, &locals));
        let local = oid.get() - lo;
        let n = &mut naive[di];
        match rng.next_u64() % 8 {
            0..=3 => {
                let v = version(step, now);
                let want = if n.in_service.is_none() {
                    n.enqueue(local, v, false);
                    let dist = n.start_nearest(now).expect("an idle drive starts");
                    seeks += u64::from(dist.is_some());
                    seek_sum += dist.unwrap_or(0);
                    Submitted::Started {
                        drive: di,
                        done_at: now + TRANSFER,
                    }
                } else if let Some(superseded) = n.replace_pending(local, v) {
                    Submitted::Replaced {
                        drive: di,
                        superseded,
                    }
                } else {
                    n.enqueue(local, v, false);
                    Submitted::Queued { drive: di }
                };
                agree(&at, step, "submit", array.submit(now, oid, v), want);
            }
            4 | 5 => agree(
                &at,
                step,
                "expedite",
                array.expedite(oid),
                n.expedite(local),
            ),
            _ => {
                if n.in_service.is_some() {
                    let finished = n.finish_service(now);
                    let next = n.start_nearest(now).map(|dist| {
                        seeks += u64::from(dist.is_some());
                        seek_sum += dist.unwrap_or(0);
                        now + TRANSFER
                    });
                    agree(
                        &at,
                        step,
                        "complete (pick)",
                        array.complete(now, di),
                        (finished, next),
                    );
                }
            }
        }
        for (d, n) in naive.iter().enumerate() {
            let want = n.in_service.map(|(l, v, _)| (Oid(n.lo + l), v));
            agree(&at, step, "in_service", array.in_service(d), want);
        }
        let pending = naive.iter().map(|n| n.pending.len()).sum::<usize>();
        agree(&at, step, "total_pending", array.total_pending(), pending);
        let flushes = naive.iter().map(|n| n.stats.completed).sum::<u64>();
        agree(&at, step, "total_flushes", array.total_flushes(), flushes);
        array.check_invariants();
    }
    let mean = array.mean_seek_distance().expect("seeks happened");
    let want = seek_sum as f64 / seeks as f64;
    assert!(
        (mean - want).abs() <= 1e-9 * want.max(1.0),
        "{at}: mean seek {mean}, reference {want}"
    );
}

#[test]
fn flush_array_matches_per_drive_references() {
    cases::run("flush_array_matches_per_drive_references", CASES, |rng| {
        for (drives, num_objects) in ARRAYS {
            for dense in [true, false] {
                run_array(rng, drives, num_objects, dense);
            }
        }
    });
}
