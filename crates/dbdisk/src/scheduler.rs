//! Nearest-oid selection with wraparound.
//!
//! Each drive owns a contiguous range of the oid space and picks its next
//! flush to minimise the wraparound distance from the last oid it served —
//! the paper's stand-in for a seek-minimising disk scheduler. [`NearestOid`]
//! is the ordered set underneath: a B-tree keyed on the oid's offset
//! within the drive's range, with nearest-neighbour queries using the two
//! straight-line candidates (predecessor and successor of the seek origin)
//! plus the two cyclic extremes which cover the wrap paths. Every
//! operation is O(log n): the scarce-flush-bandwidth regime (§4) drives
//! per-drive backlogs into the tens of thousands, where the sorted-vector
//! predecessor of this structure spent microseconds per submit/complete
//! memmoving half the queue. That held for the set, not for the drive,
//! until each entry carried its own urgent bit: asking the drive's marker
//! list "already urgent?" was an O(n) scan per expedite (DESIGN §5h).

use elog_model::{ObjectVersion, Oid};
use std::collections::BTreeMap;

/// Ordered pending set for one drive.
#[derive(Clone, Debug, Default)]
pub struct NearestOid {
    /// Keyed by local offset (oid − range start); the flag is the urgent bit.
    entries: BTreeMap<u64, (Oid, ObjectVersion, bool)>,
    /// Size of the drive's cyclic range.
    range: u64,
}

impl NearestOid {
    /// Creates an empty set over a cyclic range of `range` offsets.
    pub fn new(range: u64) -> Self {
        assert!(range > 0);
        NearestOid {
            entries: BTreeMap::new(),
            range,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds a (non-urgent) entry at a vacant local offset.
    pub fn insert(&mut self, local: u64, oid: Oid, version: ObjectVersion) {
        debug_assert!(local < self.range);
        let old = self.entries.insert(local, (oid, version, false));
        debug_assert!(
            old.is_none(),
            "offset {local} already pending: use `replace`"
        );
    }

    /// Swaps in a newer version for the entry at a local offset, keeping
    /// its urgent flag. Returns the superseded version, `None` when
    /// nothing is pending there.
    pub fn replace(&mut self, local: u64, version: ObjectVersion) -> Option<ObjectVersion> {
        let entry = self.entries.get_mut(&local)?;
        Some(std::mem::replace(&mut entry.1, version))
    }

    /// Flags the entry at a local offset urgent. Returns whether the flag
    /// was newly set, `None` when nothing is pending there.
    pub fn expedite(&mut self, local: u64) -> Option<bool> {
        let entry = self.entries.get_mut(&local)?;
        Some(!std::mem::replace(&mut entry.2, true))
    }

    /// Offsets of the entries flagged urgent, ascending.
    pub fn urgent_offsets(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().filter_map(|(&k, e)| e.2.then_some(k))
    }

    /// Removes the entry at a local offset.
    pub fn remove(&mut self, local: u64) -> Option<(Oid, ObjectVersion)> {
        self.entries.remove(&local).map(|(oid, v, _)| (oid, v))
    }

    /// Removes and returns the entry nearest to `pos` by wraparound
    /// distance, together with that distance. Ties prefer the forward
    /// (≥ `pos`) candidate, which gives the scheduler a mild elevator bias.
    ///
    /// With `pos = None` (drive has not served anything yet) the lowest
    /// offset is taken and no distance is reported.
    pub fn take_nearest(
        &mut self,
        pos: Option<u64>,
    ) -> Option<(u64, Oid, ObjectVersion, Option<u64>)> {
        let pos = match pos {
            None => {
                let (k, (oid, v, _)) = self.entries.pop_first()?;
                return Some((k, oid, v, None));
            }
            Some(p) => p,
        };
        if self.entries.is_empty() {
            return None;
        }
        let dist = |k: u64| -> u64 {
            let d = k.abs_diff(pos);
            d.min(self.range - d)
        };
        // Straight-line candidates on both sides of pos, plus the cyclic
        // extremes which cover the wrap paths. Candidate order and the
        // forward-on-tie rule must match the sorted-vector predecessor
        // exactly: the pick decides simulated flush order.
        let successor = self.entries.range(pos..).next().map(|(&k, _)| k);
        let predecessor = self.entries.range(..pos).next_back().map(|(&k, _)| k);
        let first = self.entries.first_key_value().map(|(&k, _)| k);
        let last = self.entries.last_key_value().map(|(&k, _)| k);
        let mut best: Option<(u64, u64)> = None; // (key, distance)
        for k in [successor, predecessor, first, last].into_iter().flatten() {
            let d = dist(k);
            let better = match best {
                None => true,
                Some((bk, bd)) => d < bd || (d == bd && k >= pos && bk < pos),
            };
            if better {
                best = Some((k, d));
            }
        }
        let (k, d) = best.expect("non-empty set yields a candidate");
        let (oid, v) = self.remove(k).expect("candidate key is present");
        Some((k, oid, v, Some(d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_model::Tid;
    use elog_sim::SimTime;

    fn ver(n: u64) -> ObjectVersion {
        ObjectVersion {
            tid: Tid(n),
            seq: 1,
            ts: SimTime::from_micros(n),
        }
    }

    fn set(range: u64, keys: &[u64]) -> NearestOid {
        let mut s = NearestOid::new(range);
        for &k in keys {
            s.insert(k, Oid(k), ver(k));
        }
        s
    }

    #[test]
    fn empty_yields_nothing() {
        let mut s = NearestOid::new(100);
        assert!(s.take_nearest(Some(50)).is_none());
        assert!(s.take_nearest(None).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn no_position_takes_lowest() {
        let mut s = set(100, &[30, 10, 70]);
        let (k, oid, _, d) = s.take_nearest(None).unwrap();
        assert_eq!((k, oid, d), (10, Oid(10), None));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn straight_line_nearest() {
        let mut s = set(1000, &[100, 240, 260]);
        let (k, _, _, d) = s.take_nearest(Some(250)).unwrap();
        assert_eq!((k, d), (260, Some(10))); // forward tie-bias irrelevant here
        let (k, _, _, d) = s.take_nearest(Some(250)).unwrap();
        assert_eq!((k, d), (240, Some(10)));
        let (k, _, _, d) = s.take_nearest(Some(250)).unwrap();
        assert_eq!((k, d), (100, Some(150)));
    }

    #[test]
    fn forward_bias_on_tie() {
        let mut s = set(1000, &[240, 260]);
        let (k, _, _, _) = s.take_nearest(Some(250)).unwrap();
        assert_eq!(k, 260, "tie prefers the forward candidate");
    }

    #[test]
    fn wraparound_beats_straight_line() {
        let mut s = set(100, &[5, 40]);
        // pos 95: wrap to 5 costs 10, straight to 40 costs 55.
        let (k, _, _, d) = s.take_nearest(Some(95)).unwrap();
        assert_eq!((k, d), (5, Some(10)));
    }

    #[test]
    fn wraparound_other_direction() {
        let mut s = set(100, &[95, 40]);
        // pos 5: wrap back to 95 costs 10, straight to 40 costs 35.
        let (k, _, _, d) = s.take_nearest(Some(5)).unwrap();
        assert_eq!((k, d), (95, Some(10)));
    }

    #[test]
    fn insert_replaces_and_reports() {
        let mut s = NearestOid::new(10);
        assert_eq!(s.replace(3, ver(1)), None, "nothing to replace yet");
        s.insert(3, Oid(3), ver(1));
        let old = s.replace(3, ver(2));
        assert_eq!(old.unwrap().tid, Tid(1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(3).unwrap().1.tid, Tid(2));
        assert!(s.remove(3).is_none());
    }

    #[test]
    fn exhaustive_agreement_with_linear_scan() {
        // Cross-check the binary-search candidates against brute force on
        // many random-ish configurations.
        let range = 97u64;
        for salt in 0..50u64 {
            let keys: Vec<u64> = (0..12).map(|i| (i * 37 + salt * 13) % range).collect();
            let pos = (salt * 29) % range;
            let mut s = NearestOid::new(range);
            let mut uniq: Vec<u64> = keys.clone();
            uniq.sort_unstable();
            uniq.dedup();
            for &k in &uniq {
                s.insert(k, Oid(k), ver(k));
            }
            let brute = uniq
                .iter()
                .map(|&k| {
                    let d = k.abs_diff(pos);
                    (d.min(range - d), k)
                })
                .min()
                .unwrap();
            let (_, _, _, d) = s.take_nearest(Some(pos)).unwrap();
            assert_eq!(d, Some(brute.0), "salt {salt}: distance mismatch");
        }
    }
}
