//! Nearest-oid selection with wraparound, over one index for the array.
//!
//! Each drive owns a contiguous range of the oid space and picks its next
//! flush to minimise the wraparound distance from the last oid it served —
//! the paper's stand-in for a seek-minimising disk scheduler. [`PendingIndex`]
//! holds every drive's pending requests in one structure: a hash map from
//! oid to its version and urgent bit, and a hierarchical occupancy bitmap
//! over `[0, num_objects)`. Level 0 keeps only its non-zero 64-bit words,
//! keyed by word index; the levels above are dense, one bit per child word
//! (2 442 + 39 + 1 words for 10⁷ oids). A successor or predecessor is a
//! trailing- or leading-zero scan that climbs only as far as the nearest
//! occupied word, and never past the asking drive's `[lo, hi)`.
//!
//! The pick weighs the two straight-line candidates (successor and
//! predecessor of the seek origin) and the drive's two cyclic extremes,
//! which cover the wrap paths; a wrap candidate is looked up only when the
//! straight-line best leaves it room. Under the scarce flush bandwidth of
//! §4 a drive's backlog runs into the tens of thousands; an ordered tree
//! per drive paid for that in cache misses and node splits on every
//! insert (DESIGN §5h).

use elog_model::{ObjectVersion, Oid};
use elog_sim::FxHashMap;

/// The pending flush requests of every drive in the array.
#[derive(Debug)]
pub struct PendingIndex {
    /// Keyed by oid; the flag is the urgent bit.
    entries: FxHashMap<u64, (ObjectVersion, bool)>,
    /// Level 0 of the occupancy bitmap: the non-zero words, by word index.
    words: FxHashMap<u64, u64>,
    /// Levels 1.. of the bitmap, dense; bit `i` of level `l` is set iff
    /// word `i` of level `l − 1` is non-zero. The last level is one word.
    upper: Vec<Vec<u64>>,
}

/// Word index and bit mask of bit `i`.
fn split(i: u64) -> (u64, u64) {
    (i / 64, 1 << (i % 64))
}

impl PendingIndex {
    /// Creates an empty index over oids `[0, universe)`.
    pub fn new(universe: u64) -> Self {
        assert!(universe > 0);
        let mut upper = Vec::new();
        let mut words = universe.div_ceil(64);
        while words > 1 {
            words = words.div_ceil(64);
            upper.push(vec![0; words as usize]);
        }
        PendingIndex {
            entries: FxHashMap::default(),
            words: FxHashMap::default(),
            upper,
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

    /// Adds a (non-urgent) entry for a vacant oid.
    pub fn insert(&mut self, oid: Oid, version: ObjectVersion) {
        let old = self.entries.insert(oid.get(), (version, false));
        debug_assert!(old.is_none(), "oid {oid} already pending: use `replace`");
        let (w, bit) = split(oid.get());
        let word = self.words.entry(w).or_insert(0);
        let was = *word;
        *word |= bit;
        if was != 0 {
            return;
        }
        let mut child = w;
        for level in &mut self.upper {
            let (w, bit) = split(child);
            let was = level[w as usize];
            level[w as usize] |= bit;
            if was != 0 {
                return;
            }
            child = w;
        }
    }

    /// Swaps in a newer version for a pending oid, keeping its urgent
    /// flag. Returns the superseded version, `None` when nothing is
    /// pending there.
    pub(crate) fn replace(&mut self, oid: Oid, version: ObjectVersion) -> Option<ObjectVersion> {
        let entry = self.entries.get_mut(&oid.get())?;
        Some(std::mem::replace(&mut entry.0, version))
    }

    /// Flags a pending oid urgent. Returns whether the flag was newly set,
    /// `None` when nothing is pending there.
    pub(crate) fn expedite(&mut self, oid: Oid) -> Option<bool> {
        let entry = self.entries.get_mut(&oid.get())?;
        Some(!std::mem::replace(&mut entry.1, true))
    }

    /// The pending oids and their urgent flags, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Oid, bool)> + '_ {
        self.entries
            .iter()
            .map(|(&oid, &(_, urgent))| (Oid(oid), urgent))
    }

    /// Removes a pending oid.
    pub(crate) fn remove(&mut self, oid: Oid) -> Option<ObjectVersion> {
        let (version, _) = self.entries.remove(&oid.get())?;
        let (w, bit) = split(oid.get());
        let word = self.words.get_mut(&w).expect("a pending oid has its bit");
        *word &= !bit;
        if *word != 0 {
            return Some(version);
        }
        self.words.remove(&w);
        let mut child = w;
        for level in &mut self.upper {
            let (w, bit) = split(child);
            level[w as usize] &= !bit;
            if level[w as usize] != 0 {
                break;
            }
            child = w;
        }
        Some(version)
    }

    /// Word `w` of bitmap `level` (zero past the end).
    fn word(&self, level: usize, w: u64) -> u64 {
        match level {
            0 => self.words.get(&w).copied().unwrap_or(0),
            _ => self.upper[level - 1].get(w as usize).copied().unwrap_or(0),
        }
    }

    /// The least set bit of bitmap `level` in `[i, end]`. The climb stops
    /// at `end`, so a drive never scans its neighbours' words.
    fn next(&self, level: usize, i: u64, end: u64) -> Option<u64> {
        if i > end {
            return None;
        }
        let (w, bit) = split(i);
        let here = self.word(level, w) & !(bit - 1);
        let k = if here != 0 {
            w * 64 + u64::from(here.trailing_zeros())
        } else if level == self.upper.len() {
            return None;
        } else {
            let w = self.next(level + 1, w + 1, end / 64)?;
            w * 64 + u64::from(self.word(level, w).trailing_zeros())
        };
        (k <= end).then_some(k)
    }

    /// The greatest set bit of bitmap `level` in `[start, i]`.
    fn prev(&self, level: usize, i: u64, start: u64) -> Option<u64> {
        if i < start {
            return None;
        }
        let (w, bit) = split(i);
        let here = self.word(level, w) & (bit | (bit - 1));
        let k = if here != 0 {
            w * 64 + 63 - u64::from(here.leading_zeros())
        } else if level == self.upper.len() || w == 0 {
            return None;
        } else {
            let w = self.prev(level + 1, w - 1, start / 64)?;
            w * 64 + 63 - u64::from(self.word(level, w).leading_zeros())
        };
        (k >= start).then_some(k)
    }

    /// Removes and returns the pending oid in `[lo, hi)` nearest to `pos`
    /// by wraparound distance within that range. Ties prefer the forward
    /// (≥ `pos`) candidate, which gives the scheduler a mild elevator bias.
    ///
    /// With `pos = None` (the drive has not served anything yet) the
    /// lowest oid is taken.
    pub(crate) fn take_nearest(
        &mut self,
        lo: u64,
        hi: u64,
        pos: Option<u64>,
    ) -> Option<(Oid, ObjectVersion)> {
        debug_assert!(lo < hi && pos.is_none_or(|p| (lo..hi).contains(&p)));
        let Some(pos) = pos else {
            let k = self.next(0, lo, hi - 1)?;
            let version = self.remove(Oid(k)).expect("a set bit is pending");
            return Some((Oid(k), version));
        };
        let range = hi - lo;
        let dist = |k: u64| {
            let d = k.abs_diff(pos);
            d.min(range - d)
        };
        // Candidate order and the forward-on-tie rule decide simulated
        // flush order: changing either moves the model's results.
        let consider = |best: &mut Option<(u64, u64)>, k: u64| {
            let d = dist(k);
            if best.is_none_or(|(bk, bd)| d < bd || (d == bd && k >= pos && bk < pos)) {
                *best = Some((k, d));
            }
        };
        let mut best = None; // (oid, distance)
        if let Some(successor) = self.next(0, pos, hi - 1) {
            consider(&mut best, successor);
        }
        if pos > lo {
            if let Some(predecessor) = self.prev(0, pos - 1, lo) {
                consider(&mut best, predecessor);
            }
        }
        // The range holds an entry, so its extremes lie inside it. With
        // `offset` the origin's place in the range: through the wrap the
        // first costs at least range − offset and wins only outright (it
        // lies behind), the last at least offset + 1 (it lies ahead, so
        // would take a tie). Look either up only when the best leaves room.
        let offset = pos - lo;
        if best?.1 > range - offset {
            let first = self.next(0, lo, hi - 1).expect("the range holds an entry");
            consider(&mut best, first);
        }
        if best?.1 > offset {
            let last = self.prev(0, hi - 1, lo).expect("the range holds an entry");
            consider(&mut best, last);
        }
        let (k, _) = best?;
        let version = self.remove(Oid(k)).expect("candidate oid is pending");
        Some((Oid(k), version))
    }

    /// Panics unless the bitmap describes exactly the pending oids: no
    /// zero word stored at level 0, every upper bit set iff its child word
    /// is non-zero, and level 0's popcount equal to the entry count with
    /// every entry's bit set.
    pub fn check_invariants(&self) {
        assert!(
            self.words.values().all(|&w| w != 0),
            "zero word stored at level 0"
        );
        let ones: u64 = self.words.values().map(|w| u64::from(w.count_ones())).sum();
        assert_eq!(
            ones,
            self.entries.len() as u64,
            "level-0 popcount != entries"
        );
        for &oid in self.entries.keys() {
            let (w, bit) = split(oid);
            assert!(self.word(0, w) & bit != 0, "pending oid {oid} has no bit");
        }
        // Each non-zero child word has its parent bit, and the parent level
        // sets no other bit: its popcount equals the non-zero child count.
        let mut children = Vec::from_iter(self.words.keys().copied());
        for (l, level) in self.upper.iter().enumerate() {
            for &w in &children {
                let (pw, bit) = split(w);
                assert!(
                    level[pw as usize] & bit != 0,
                    "level {} bit {w} clear",
                    l + 1
                );
            }
            let ones: u64 = level.iter().map(|w| u64::from(w.count_ones())).sum();
            assert_eq!(
                ones,
                children.len() as u64,
                "level {} has stray bits",
                l + 1
            );
            children = (0..level.len() as u64)
                .filter(|&w| level[w as usize] != 0)
                .collect();
        }
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

    fn set(range: u64, keys: &[u64]) -> PendingIndex {
        let mut s = PendingIndex::new(range);
        for &k in keys {
            s.insert(Oid(k), ver(k));
        }
        s.check_invariants();
        s
    }

    /// `take_nearest` over the whole universe `[0, range)`: the oid taken
    /// and its wraparound distance from `pos`.
    fn take(s: &mut PendingIndex, range: u64, pos: Option<u64>) -> Option<(u64, Option<u64>)> {
        let (oid, _) = s.take_nearest(0, range, pos)?;
        s.check_invariants();
        let k = oid.get();
        Some((k, pos.map(|p| k.abs_diff(p).min(range - k.abs_diff(p)))))
    }

    #[test]
    fn empty_yields_nothing() {
        let mut s = PendingIndex::new(100);
        assert!(take(&mut s, 100, Some(50)).is_none());
        assert!(take(&mut s, 100, None).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn no_position_takes_lowest() {
        let mut s = set(100, &[30, 10, 70]);
        assert_eq!(take(&mut s, 100, None), Some((10, None)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn straight_line_nearest() {
        let mut s = set(1000, &[100, 240, 260]);
        // forward tie-bias irrelevant here
        assert_eq!(take(&mut s, 1000, Some(250)), Some((260, Some(10))));
        assert_eq!(take(&mut s, 1000, Some(250)), Some((240, Some(10))));
        assert_eq!(take(&mut s, 1000, Some(250)), Some((100, Some(150))));
    }

    #[test]
    fn forward_bias_on_tie() {
        let mut s = set(1000, &[240, 260]);
        let (k, _) = take(&mut s, 1000, Some(250)).unwrap();
        assert_eq!(k, 260, "tie prefers the forward candidate");
    }

    #[test]
    fn wraparound_beats_straight_line() {
        let mut s = set(100, &[5, 40]);
        // pos 95: wrap to 5 costs 10, straight to 40 costs 55.
        assert_eq!(take(&mut s, 100, Some(95)), Some((5, Some(10))));
    }

    #[test]
    fn wraparound_other_direction() {
        let mut s = set(100, &[95, 40]);
        // pos 5: wrap back to 95 costs 10, straight to 40 costs 35.
        assert_eq!(take(&mut s, 100, Some(5)), Some((95, Some(10))));
    }

    #[test]
    fn insert_replaces_and_reports() {
        let mut s = PendingIndex::new(10);
        assert_eq!(s.replace(Oid(3), ver(1)), None, "nothing to replace yet");
        s.insert(Oid(3), ver(1));
        let old = s.replace(Oid(3), ver(2));
        assert_eq!(old.unwrap().tid, Tid(1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(Oid(3)).unwrap().tid, Tid(2));
        assert!(s.remove(Oid(3)).is_none());
        s.check_invariants();
    }

    #[test]
    fn neighbouring_ranges_stay_out_of_the_pick() {
        // Drive [100, 200) of a 300-oid index; its neighbours hold the
        // oids nearest to its own in a straight line.
        let mut s = set(300, &[99, 150, 200]);
        let (oid, _) = s.take_nearest(100, 200, Some(198)).unwrap();
        assert_eq!(oid, Oid(150));
        assert!(s.take_nearest(100, 200, Some(198)).is_none());
        assert!(s.take_nearest(100, 200, None).is_none());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn exhaustive_agreement_with_linear_scan() {
        // Cross-check the bitmap candidates against brute force on many
        // random-ish configurations.
        let range = 97u64;
        for salt in 0..50u64 {
            let keys: Vec<u64> = (0..12).map(|i| (i * 37 + salt * 13) % range).collect();
            let pos = (salt * 29) % range;
            let mut uniq: Vec<u64> = keys.clone();
            uniq.sort_unstable();
            uniq.dedup();
            let mut s = set(range, &uniq);
            let brute = uniq
                .iter()
                .map(|&k| {
                    let d = k.abs_diff(pos);
                    (d.min(range - d), k)
                })
                .min()
                .unwrap();
            let (_, d) = take(&mut s, range, Some(pos)).unwrap();
            assert_eq!(d, Some(brute.0), "salt {salt}: distance mismatch");
        }
    }
}
