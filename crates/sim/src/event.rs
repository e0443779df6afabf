//! The pending-event set of the simulator.
//!
//! A binary heap keyed on `(time, sequence)` gives O(log n) scheduling and a
//! *stable* order: two events scheduled for the same instant fire in the
//! order they were scheduled. Stability matters for reproducibility — the
//! paper's workload writes a COMMIT record exactly ε after the final data
//! record, and several log-manager actions can legitimately coincide.
//!
//! Cancellation uses *generation-stamped slots* instead of an auxiliary
//! tombstone set: every scheduled event borrows a slot from a free list and
//! stamps its heap entry with the slot's current generation. Cancelling (or
//! firing) bumps the generation, so a stale heap entry is recognised at pop
//! time by a single array compare — no hashing, no allocation, O(1). Dead
//! entries are discarded lazily as the heap drains past them; when they
//! outnumber the live ones the heap is compacted in place, so a workload
//! that mass-cancels (the killed-transaction retract path) cannot leave the
//! heap dominated by corpses.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifies a scheduled event so it can later be cancelled.
///
/// A token is a `(slot, generation)` pair: cancelling checks that the slot
/// still carries the token's generation, which makes cancellation of an
/// already-fired (or already-cancelled) event a harmless no-op even after
/// the slot has been reused by later events.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventToken {
    slot: u32,
    generation: u32,
}

#[derive(Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    generation: u32,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn is_live(&self, generations: &[u32]) -> bool {
        generations[self.slot as usize] == self.generation
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest-seq)
        // entry surfaces first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Below this heap size compaction is pointless — the lazy pop-time discard
/// clears a handful of tombstones for free.
const COMPACT_MIN_HEAP: usize = 64;

/// Priority queue of future events.
///
/// `Clone` (for `E: Clone`) deep-copies the pending set, slot generations
/// and counters; outstanding [`EventToken`]s remain valid against the copy,
/// which is what lets a whole engine be snapshotted mid-run and resumed.
#[derive(Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Current generation per slot. An entry is live iff its stamped
    /// generation matches its slot's.
    generations: Vec<u32>,
    /// Slots available for reuse.
    free_slots: Vec<u32>,
    /// Live (scheduled, not fired, not cancelled) events.
    live: usize,
    next_seq: u64,
    scheduled_total: u64,
    cancelled_total: u64,
    tombstones_discarded: u64,
    compactions: u64,
    heap_peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            generations: Vec::new(),
            free_slots: Vec::new(),
            live: 0,
            next_seq: 0,
            scheduled_total: 0,
            cancelled_total: 0,
            tombstones_discarded: 0,
            compactions: 0,
            heap_peak: 0,
        }
    }

    /// Creates an empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            generations: Vec::with_capacity(cap),
            ..Self::new()
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Returns a token usable with [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = self.generations.len();
                assert!(s < u32::MAX as usize, "event queue slots exhausted");
                self.generations.push(0);
                s as u32
            }
        };
        let generation = self.generations[slot as usize];
        self.live += 1;
        self.heap.push(Entry {
            at,
            seq,
            slot,
            generation,
            event,
        });
        self.heap_peak = self.heap_peak.max(self.heap.len());
        EventToken { slot, generation }
    }

    /// Retires a slot: the generation bump invalidates every heap entry
    /// still stamped with the old generation, and the slot becomes
    /// reusable immediately (new entries carry the new generation).
    #[inline]
    fn retire_slot(&mut self, slot: u32) {
        self.generations[slot as usize] = self.generations[slot as usize].wrapping_add(1);
        self.free_slots.push(slot);
        self.live -= 1;
    }

    /// Cancels a previously scheduled event.
    ///
    /// Cancelling an event that already fired (or was already cancelled) is a
    /// harmless no-op. The heap entry becomes a tombstone that is discarded
    /// lazily on pop, or eagerly when tombstones outnumber live entries.
    pub fn cancel(&mut self, token: EventToken) {
        if self.generations[token.slot as usize] != token.generation {
            return; // already fired or cancelled
        }
        self.retire_slot(token.slot);
        self.cancelled_total += 1;
        self.maybe_compact();
    }

    /// Rebuilds the heap without its dead entries once they exceed half of
    /// it. Keeps mass cancellation (killed-transaction retraction) from
    /// letting the heap grow without bound while dead entries wait to
    /// drain past the pop.
    fn maybe_compact(&mut self) {
        let dead = self.heap.len() - self.live;
        if self.heap.len() >= COMPACT_MIN_HEAP && dead * 2 > self.heap.len() {
            let generations = &self.generations;
            self.heap.retain(|e| e.is_live(generations));
            self.tombstones_discarded += dead as u64;
            self.compactions += 1;
            debug_assert_eq!(self.heap.len(), self.live);
        }
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if entry.is_live(&self.generations) {
                self.retire_slot(entry.slot);
                return Some((entry.at, entry.event));
            }
            self.tombstones_discarded += 1; // cancelled event's corpse
        }
        None
    }

    /// Removes and returns the earliest live event at or before `horizon`;
    /// leaves the queue untouched (beyond discarding leading tombstones)
    /// when the earliest live event is after the horizon.
    ///
    /// This is the event loop's fused peek-then-pop: one heap traversal
    /// per delivered event instead of two.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        loop {
            let head = self.heap.peek()?;
            if !head.is_live(&self.generations) {
                self.heap.pop();
                self.tombstones_discarded += 1;
                continue;
            }
            if head.at > horizon {
                return None;
            }
            let entry = self.heap.pop().expect("peeked entry pops");
            self.retire_slot(entry.slot);
            return Some((entry.at, entry.event));
        }
    }

    /// Time of the earliest live event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if entry.is_live(&self.generations) {
                return Some(entry.at);
            }
            self.heap.pop();
            self.tombstones_discarded += 1;
        }
        None
    }

    /// Count of live (scheduled, not yet fired or cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical heap length, counting not-yet-discarded tombstones.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Greatest physical heap length ever reached.
    pub fn heap_peak(&self) -> usize {
        self.heap_peak
    }

    /// Total number of `schedule` calls over the queue's lifetime.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of effective `cancel` calls over the queue's lifetime.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// Dead heap entries discarded so far (lazily or by compaction).
    pub fn tombstones_discarded(&self) -> u64 {
        self.tombstones_discarded
    }

    /// Number of compaction passes performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Queue counters snapshot for performance reporting.
    pub fn perf(&self) -> crate::perfstats::QueueStats {
        crate::perfstats::QueueStats {
            scheduled: self.scheduled_total,
            cancelled: self.cancelled_total,
            tombstones_discarded: self.tombstones_discarded,
            compactions: self.compactions,
            heap_peak: self.heap_peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancellation_suppresses_delivery() {
        let mut q = EventQueue::new();
        let keep = q.schedule(t(1), "keep");
        let drop_ = q.schedule(t(2), "drop");
        q.cancel(drop_);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(1), "keep")));
        assert_eq!(q.pop(), None);
        // Cancelling after the fact is a no-op.
        q.cancel(keep);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let first = q.schedule(t(1), 1u32);
        q.schedule(t(2), 2u32);
        q.cancel(first);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), 2)));
    }

    #[test]
    fn counters_track_lifetime_activity() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.cancel(a);
        q.cancel(a); // double-cancel counted once
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.cancelled_total(), 1);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        q.pop();
        q.cancel(a); // event already fired: must not count or corrupt len
        assert_eq!(q.cancelled_total(), 0);
        let _b = q.schedule(t(2), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((t(2), ())));
    }

    #[test]
    fn cancel_after_slot_reuse_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1u32);
        q.cancel(a);
        // The freed slot is reused with a bumped generation; the stale
        // token must not touch the new event.
        let b = q.schedule(t(2), 2u32);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancelled_total(), 1);
        assert_eq!(q.pop(), Some((t(2), 2)));
        let _ = b;
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10u64);
        assert_eq!(q.pop(), Some((t(10), 10)));
        q.schedule(t(5), 5);
        q.schedule(t(15), 15);
        assert_eq!(q.pop(), Some((t(5), 5)));
        assert_eq!(q.peek_time(), Some(t(15)));
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        let dead = q.schedule(t(1), 1u32);
        q.schedule(t(2), 2u32);
        q.schedule(t(5), 5u32);
        q.cancel(dead);
        // Tombstone at the head is discarded, live head is within horizon.
        assert_eq!(q.pop_at_or_before(t(3)), Some((t(2), 2)));
        // Next live event is past the horizon: untouched.
        assert_eq!(q.pop_at_or_before(t(3)), None);
        assert_eq!(q.len(), 1);
        // Horizon is inclusive.
        assert_eq!(q.pop_at_or_before(t(5)), Some((t(5), 5)));
        assert_eq!(q.pop_at_or_before(SimTime::MAX), None);
    }

    #[test]
    fn mass_cancellation_compacts_heap() {
        let mut q = EventQueue::new();
        let tokens: Vec<EventToken> = (0..1000).map(|i| q.schedule(t(i), i)).collect();
        assert_eq!(q.heap_len(), 1000);
        // Kill-retraction pattern: cancel almost everything without popping.
        for tok in &tokens[..900] {
            q.cancel(*tok);
        }
        assert_eq!(q.len(), 100);
        assert!(
            q.heap_len() <= 2 * q.len().max(COMPACT_MIN_HEAP),
            "dead entries must not dominate the heap: {} physical for {} live",
            q.heap_len(),
            q.len()
        );
        assert!(q.compactions() >= 1, "compaction must have run");
        // Everything still pops in order.
        let survivors: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(survivors, (900..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn compaction_preserves_order_and_tokens() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        for i in 0..500u64 {
            let tok = q.schedule(t(1000 - i), i);
            if i % 5 == 0 {
                keep.push((tok, i));
            } else {
                q.cancel(tok);
            }
        }
        // Live tokens stay cancellable after compaction runs.
        let (tok, val) = keep.pop().unwrap();
        q.cancel(tok);
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert!(!popped.contains(&val));
        assert_eq!(popped.len(), keep.len());
        let mut sorted = popped.clone();
        sorted.sort_by_key(|v| std::cmp::Reverse(*v)); // scheduled at t(1000-i)
        assert_eq!(popped, sorted);
    }

    #[test]
    fn small_heaps_skip_compaction() {
        let mut q = EventQueue::new();
        let toks: Vec<EventToken> = (0..20).map(|i| q.schedule(t(i), i)).collect();
        for tok in toks {
            q.cancel(tok);
        }
        assert_eq!(q.compactions(), 0, "below the size floor");
        assert_eq!(q.pop(), None);
        assert_eq!(q.heap_len(), 0, "pop drained the corpses");
    }

    /// The naive oracle of the differential test: pending events in a
    /// `BTreeMap` keyed on `(time, sequence)`, cancellation by key removal.
    #[derive(Default)]
    struct Reference {
        pending: std::collections::BTreeMap<(SimTime, u64), u64>,
        next_seq: u64,
    }

    impl Reference {
        fn schedule(&mut self, at: SimTime, event: u64) -> (SimTime, u64) {
            let key = (at, self.next_seq);
            self.next_seq += 1;
            self.pending.insert(key, event);
            key
        }

        fn cancel(&mut self, key: (SimTime, u64)) {
            self.pending.remove(&key);
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.pending.keys().next().map(|&(at, _)| at)
        }

        fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, u64)> {
            let (&(at, seq), _) = self.pending.iter().next()?;
            (at <= horizon).then(|| (at, self.pending.remove(&(at, seq)).expect("peeked")))
        }
    }

    /// One splitmix64-driven schedule / cancel / cancel-after-fire / pop /
    /// peek interleaving, checked step by step against [`Reference`].
    fn differential_case(seed: u64) {
        let mut x = seed;
        let mut rng = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut reference = Reference::default();
        // Every token ever issued stays here, so later cancels also hit
        // fired and already-cancelled events whose slot has been reused.
        let mut tokens: Vec<(EventToken, (SimTime, u64))> = Vec::new();
        let mut now = 0u64; // µs
        for i in 0..20_000u64 {
            match rng() % 10 {
                // Schedule, with an occasional far-future delay and ties.
                0..=4 => {
                    let delay = match rng() % 100 {
                        0 => 20_000_000 + rng() % 1_000_000,
                        1..=10 => 25_000,
                        _ => rng() % 600_000,
                    };
                    let at = SimTime::from_micros(now + delay);
                    tokens.push((heap.schedule(at, i), reference.schedule(at, i)));
                }
                5..=6 if !tokens.is_empty() => {
                    let (tok, key) = tokens[(rng() % tokens.len() as u64) as usize];
                    heap.cancel(tok);
                    reference.cancel(key);
                }
                7 => assert_eq!(
                    heap.peek_time(),
                    reference.peek_time(),
                    "seed {seed:#x} step {i}"
                ),
                8 => assert_eq!(
                    heap.pop(),
                    reference.pop_at_or_before(SimTime::MAX),
                    "seed {seed:#x} step {i}"
                ),
                _ => {
                    let horizon = SimTime::from_micros(now + rng() % 400_000);
                    let popped = heap.pop_at_or_before(horizon);
                    assert_eq!(
                        popped,
                        reference.pop_at_or_before(horizon),
                        "seed {seed:#x} step {i}"
                    );
                    if let Some((at, _)) = popped {
                        now = now.max(at.as_micros());
                    }
                }
            }
            assert_eq!(
                heap.len(),
                reference.pending.len(),
                "seed {seed:#x} step {i}"
            );
        }
        while let Some(expected) = reference.pop_at_or_before(SimTime::MAX) {
            assert_eq!(heap.pop(), Some(expected), "seed {seed:#x} drain");
        }
        assert_eq!(heap.pop(), None, "seed {seed:#x} drain");
    }

    #[test]
    fn heap_matches_btreemap_reference_on_random_workload() {
        for case in 0..8u64 {
            differential_case(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case + 1));
        }
    }
}
