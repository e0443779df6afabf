//! The pending-event set of the simulator.
//!
//! A single-level *hashed timing wheel*: an event due at `at` belongs to
//! tick `at >> 12` (4.096 ms) and waits in bucket `tick mod 4096`, an
//! intrusive singly-linked list threaded through one node pool. Scheduling
//! is a push onto a list head and finding the next non-empty tick is a scan
//! of a 64-word occupancy bitmap, so neither grows with the number of
//! pending events. The tick being drained is held apart as one small array
//! sorted by `(time, sequence)`, which keeps delivery *stable*: two events
//! scheduled for the same instant fire in the order they were scheduled.
//! Stability matters for reproducibility — the paper's workload writes a
//! COMMIT record exactly ε after the final data record, and several
//! log-manager actions can legitimately coincide. Events more than a wheel
//! revolution (16.8 s) ahead wait in a small binary heap and move onto the
//! wheel as the cursor approaches them.
//!
//! Nothing is ever cancelled: every scheduled event is delivered. A model
//! whose state has moved on since an event was scheduled (a killed
//! transaction's remaining writes) recognises the stale event when it
//! arrives and ignores it.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// log₂ of the tick length in µs. Almost every schedule is a 10 ms arrival,
/// a 15 ms log write or a 25 ms flush transfer, so a 4.096 ms tick holds two
/// or three events and ordering one is a handful of compares.
const TICK_SHIFT: u32 = 12;
/// Buckets on the wheel; with the tick, a 16.8 s window, beyond the 10 s
/// the longest transaction body schedules ahead.
const WHEEL_SLOTS: usize = 4096;
/// End-of-list mark in `Node::next`, the bucket heads and the free list.
const NIL: u32 = u32::MAX;

/// A pending entry as the sorted regions hold it. The derived order is
/// delivery order, `(at, seq)`: sequence numbers are unique, so the pool
/// slot holding the payload never decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.as_micros() >> TICK_SHIFT
}

#[derive(Clone)]
struct Node<E> {
    at: SimTime,
    seq: u64,
    /// The next node of the same bucket or, once released, of the free list.
    next: u32,
    /// `Some` while the node is pending.
    event: Option<E>,
}

/// Priority queue of future events.
///
/// `Clone` (for `E: Clone`) deep-copies the pending set and counters,
/// which is what lets a whole engine be snapshotted mid-run and resumed.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Every entry, pending or free; a key's slot indexes it.
    nodes: Vec<Node<E>>,
    free_head: u32,
    /// The tick being drained. Everything pending at or before it is in
    /// `current`; `(cursor, cursor + WHEEL_SLOTS)` is on the wheel; the rest
    /// is in `overflow`.
    cursor: u64,
    /// Ascending by key; the front is the next entry to deliver.
    current: VecDeque<Key>,
    /// Head of each bucket's list; tick `t` hashes to `t % WHEEL_SLOTS`.
    buckets: Vec<u32>,
    /// One bit per bucket, set while its list is non-empty.
    occupied: [u64; WHEEL_SLOTS / 64],
    /// Entries a revolution or more ahead of the cursor, earliest on top.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Scheduled, not yet delivered events.
    pending: usize,
    next_seq: u64,
    scheduled_total: u64,
    pending_peak: usize,
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
            nodes: Vec::new(),
            free_head: NIL,
            cursor: 0,
            current: VecDeque::new(),
            buckets: vec![NIL; WHEEL_SLOTS],
            occupied: [0; WHEEL_SLOTS / 64],
            overflow: BinaryHeap::new(),
            pending: 0,
            next_seq: 0,
            scheduled_total: 0,
            pending_peak: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let slot = match self.free_head {
            NIL => {
                let slot = self.nodes.len();
                assert!(slot < NIL as usize, "event queue slots exhausted");
                self.nodes.push(Node {
                    at,
                    seq,
                    next: NIL,
                    event: None,
                });
                slot as u32
            }
            slot => {
                self.free_head = self.nodes[slot as usize].next;
                slot
            }
        };
        let node = &mut self.nodes[slot as usize];
        (node.at, node.seq, node.event) = (at, seq, Some(event));
        self.pending += 1;
        self.pending_peak = self.pending_peak.max(self.pending);
        self.place(Key { at, seq, slot });
    }

    /// Files a pending entry under the region its tick belongs to.
    #[inline]
    fn place(&mut self, key: Key) {
        let tick = tick_of(key.at);
        if tick <= self.cursor {
            // A same-tick chain, or — after a horizon stop left the cursor
            // ahead of the clock — anything up to the cursor's tick.
            self.insert_current(key);
        } else if tick - self.cursor < WHEEL_SLOTS as u64 {
            let bucket = tick as usize % WHEEL_SLOTS;
            self.nodes[key.slot as usize].next = self.buckets[bucket];
            self.buckets[bucket] = key.slot;
            self.occupied[bucket / 64] |= 1 << (bucket % 64);
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// Keeps `current` in order. A fresh entry carries the greatest sequence
    /// number and a tick holds few entries, so the scan from the back is short.
    #[inline]
    fn insert_current(&mut self, key: Key) {
        let mut index = self.current.len();
        while index > 0 && self.current[index - 1] > key {
            index -= 1;
        }
        self.current.insert(index, key);
    }

    /// The first occupied bucket at or cyclically after `from`.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let (word, bit) = (from / 64, from % 64);
        let ahead = self.occupied[word] & (!0 << bit);
        if ahead != 0 {
            return Some(word * 64 + ahead.trailing_zeros() as usize);
        }
        // The words after `from`'s, then round to it again: with nothing at
        // or above `bit`, whatever it holds is the wrapped-around low part.
        (1..=self.occupied.len())
            .map(|i| (word + i) % self.occupied.len())
            .find(|&w| self.occupied[w] != 0)
            .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    /// With `current` drained, moves the cursor to the next tick that holds
    /// anything and loads that tick, sorted. False when nothing is pending.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        // Every wheel tick precedes every overflow tick, so the overflow
        // names the next tick only when the wheel is empty.
        let from = (self.cursor + 1) as usize % WHEEL_SLOTS;
        self.cursor = match (self.next_occupied(from), self.overflow.peek()) {
            (Some(bucket), _) => {
                let ahead = bucket.wrapping_sub(from) % WHEEL_SLOTS;
                self.cursor + 1 + ahead as u64
            }
            (None, Some(Reverse(key))) => tick_of(key.at),
            (None, None) => return false,
        };
        // What the window now covers leaves the overflow.
        while let Some(&Reverse(key)) = self.overflow.peek() {
            if tick_of(key.at) - self.cursor >= WHEEL_SLOTS as u64 {
                break;
            }
            self.overflow.pop();
            self.place(key);
        }
        let bucket = self.cursor as usize % WHEEL_SLOTS;
        self.occupied[bucket / 64] &= !(1 << (bucket % 64));
        let mut slot = std::mem::replace(&mut self.buckets[bucket], NIL);
        while slot != NIL {
            let node = &self.nodes[slot as usize];
            let key = Key {
                at: node.at,
                seq: node.seq,
                slot,
            };
            slot = node.next;
            self.insert_current(key);
        }
        true
    }

    /// The earliest pending entry, left in place at the front of `current`.
    fn front(&mut self) -> Option<Key> {
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        self.current.front().copied()
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Removes and returns the earliest event at or before `horizon`;
    /// leaves the queue untouched when the earliest event is after the
    /// horizon.
    ///
    /// This is the event loop's fused peek-then-pop: one queue access per
    /// delivered event instead of two.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let Key { at, slot, .. } = self.front()?;
        if at > horizon {
            return None;
        }
        self.current.pop_front();
        let node = &mut self.nodes[slot as usize];
        let event = node.event.take().expect("a pending node holds its event");
        node.next = std::mem::replace(&mut self.free_head, slot);
        self.pending -= 1;
        Some((at, event))
    }

    /// Time of the earliest event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.front().map(|key| key.at)
    }

    /// Count of pending (scheduled, not yet delivered) events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue counters snapshot for performance reporting.
    pub fn perf(&self) -> crate::perfstats::QueueStats {
        crate::perfstats::QueueStats {
            scheduled: self.scheduled_total,
            heap_peak: self.pending_peak,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;
    use crate::perfstats::QueueStats;
    use crate::rng::SimRng;
    use std::collections::BTreeMap;

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
    fn counters_track_lifetime_activity() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.pop();
        assert_eq!(q.perf().scheduled, 2);
        assert_eq!(q.perf().heap_peak, 2);
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
        q.schedule(t(2), 2u32);
        q.schedule(t(5), 5u32);
        assert_eq!(q.pop_at_or_before(t(3)), Some((t(2), 2)));
        // Next event is past the horizon: untouched.
        assert_eq!(q.pop_at_or_before(t(3)), None);
        assert_eq!(q.len(), 1);
        // Horizon is inclusive.
        assert_eq!(q.pop_at_or_before(t(5)), Some((t(5), 5)));
        assert_eq!(q.pop_at_or_before(SimTime::MAX), None);
    }

    /// The naive oracle of the differential test: pending events in a
    /// `BTreeMap` keyed on `(time, sequence)`, with the queue's counters.
    #[derive(Default)]
    struct Reference {
        pending: BTreeMap<(SimTime, u64), u64>,
        next_seq: u64,
        stats: QueueStats,
    }

    impl Reference {
        fn schedule(&mut self, at: SimTime, event: u64) {
            self.pending.insert((at, self.next_seq), event);
            self.next_seq += 1;
            self.stats.scheduled += 1;
            self.stats.heap_peak = self.stats.heap_peak.max(self.pending.len());
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.pending.keys().next().map(|&(at, _)| at)
        }

        fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, u64)> {
            let entry = self.pending.first_entry()?;
            (entry.key().0 <= horizon).then(|| (entry.key().0, entry.remove()))
        }
    }

    /// The queue and the oracle driven in lockstep: every op compares its
    /// result, then `len()` and the counters, and names the step.
    struct Pair {
        queue: EventQueue<u64>,
        reference: Reference,
        step: u64,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                queue: EventQueue::new(),
                reference: Reference::default(),
                step: 0,
            }
        }

        fn checked<T: PartialEq + std::fmt::Debug>(&mut self, op: &str, got: T, want: T) -> T {
            let ctx = format!("step {} ({op})", self.step);
            assert_eq!(got, want, "{ctx}");
            assert_eq!(self.queue.len(), self.reference.pending.len(), "{ctx}");
            assert_eq!(self.queue.perf(), self.reference.stats, "{ctx}");
            self.step += 1;
            got
        }

        /// Schedules the step number at `at`.
        fn schedule(&mut self, at: SimTime) {
            self.queue.schedule(at, self.step);
            self.reference.schedule(at, self.step);
            self.checked("schedule", (), ());
        }

        fn peek_time(&mut self) -> Option<SimTime> {
            let (got, want) = (self.queue.peek_time(), self.reference.peek_time());
            self.checked("peek_time", got, want)
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let want = self.reference.pop_at_or_before(SimTime::MAX);
            let got = self.queue.pop();
            self.checked("pop", got, want)
        }

        fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, u64)> {
            let want = self.reference.pop_at_or_before(horizon);
            let got = self.queue.pop_at_or_before(horizon);
            self.checked("pop_at_or_before", got, want)
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert!(self.queue.is_empty(), "drain");
        }
    }

    /// `steps` ops of a random schedule / pop / peek interleaving.
    fn random_ops(pair: &mut Pair, rng: &mut SimRng, steps: u64) {
        let mut now = 0u64; // µs
        for _ in 0..steps {
            match rng.next_u64() % 8 {
                // Schedule, with an occasional far-future delay and ties.
                0..=3 => {
                    let delay = match rng.next_u64() % 100 {
                        0 => 20_000_000 + rng.next_u64() % 1_000_000,
                        1..=10 => 25_000,
                        _ => rng.next_u64() % 600_000,
                    };
                    pair.schedule(SimTime::from_micros(now + delay));
                }
                4 => {
                    pair.peek_time();
                }
                5 => {
                    pair.pop();
                }
                _ => {
                    let horizon = SimTime::from_micros(now + rng.next_u64() % 400_000);
                    if let Some((at, _)) = pair.pop_at_or_before(horizon) {
                        now = now.max(at.as_micros());
                    }
                }
            }
        }
    }

    fn differential_case(rng: &mut SimRng) {
        let mut pair = Pair::new();
        random_ops(&mut pair, rng, 20_000);
        pair.drain();
    }

    #[test]
    fn heap_matches_btreemap_reference_on_random_workload() {
        cases::run(
            "event::tests::heap_matches_btreemap_reference_on_random_workload",
            8,
            differential_case,
        );
    }

    const TICK: u64 = 1 << TICK_SHIFT; // µs
    const WINDOW: u64 = WHEEL_SLOTS as u64; // ticks

    /// A pair whose cursor stands on the tick of a random `now` (µs).
    fn pair_at_random_now(rng: &mut SimRng) -> (Pair, u64) {
        let mut pair = Pair::new();
        let now = rng.next_u64() % 100_000_000;
        pair.schedule(SimTime::from_micros(now));
        pair.pop();
        (pair, now)
    }

    /// Delays of exactly one window less a tick, one window and one window
    /// plus a tick — the last wheel bucket, the bucket that aliases the
    /// cursor's own, and the first overflow tick — then a jump of ten
    /// windows over an empty wheel.
    fn window_edges_case(rng: &mut SimRng) {
        let (mut pair, now) = pair_at_random_now(rng);
        let mut tick = now >> TICK_SHIFT;
        for _ in 0..4 {
            for delay in [WINDOW - 1, WINDOW, WINDOW + 1, 1, 1 + WINDOW, 0, 2 * WINDOW] {
                for _ in 0..2 {
                    let at = ((tick + delay) << TICK_SHIFT) + rng.next_u64() % TICK;
                    pair.schedule(SimTime::from_micros(at));
                }
            }
            // Move the cursor with the edges still pending, so the next
            // round's land among them and the overflow migrates in between.
            for _ in 0..rng.next_u64() % 8 {
                if let Some((at, _)) = pair.pop() {
                    tick = at.as_micros() >> TICK_SHIFT;
                }
            }
        }
        pair.drain();
        assert!(pair.queue.overflow.is_empty() && pair.queue.occupied == [0; WHEEL_SLOTS / 64]);
        for delay in [
            10 * WINDOW,
            10 * WINDOW + 1,
            11 * WINDOW - 1,
            11 * WINDOW,
            3,
        ] {
            let at = ((pair.queue.cursor + delay) << TICK_SHIFT) + rng.next_u64() % TICK;
            pair.schedule(SimTime::from_micros(at));
        }
        pair.peek_time();
        pair.drain();
    }

    #[test]
    fn window_edges_and_empty_wheel_jump_match_reference() {
        cases::run(
            "event::tests::window_edges_and_empty_wheel_jump_match_reference",
            16,
            window_edges_case,
        );
    }

    /// `SimTime::MAX` beside ordinary times: no tick arithmetic overflows,
    /// before or after the cursor itself stands on the last tick.
    fn time_max_case(rng: &mut SimRng) {
        let (mut pair, now) = pair_at_random_now(rng);
        pair.schedule(SimTime::MAX);
        pair.schedule(SimTime::from_micros(now + rng.next_u64() % 1_000_000));
        pair.schedule(SimTime::MAX);
        pair.schedule(SimTime::from_micros(u64::MAX - 1 - rng.next_u64() % TICK));
        assert_eq!(
            pair.pop_at_or_before(SimTime::MAX)
                .map(|(at, _)| at < SimTime::MAX),
            Some(true)
        );
        pair.peek_time();
        pair.pop_at_or_before(SimTime::from_micros(u64::MAX - 1));
        assert_eq!(
            pair.pop_at_or_before(SimTime::MAX).map(|(at, _)| at),
            Some(SimTime::MAX)
        );
        // The cursor is on the last tick there is: everything lands in
        // `current`, in order.
        pair.schedule(SimTime::MAX);
        pair.schedule(SimTime::from_micros(now));
        pair.schedule(SimTime::MAX);
        pair.drain();
    }

    #[test]
    fn time_max_matches_reference() {
        cases::run("event::tests::time_max_matches_reference", 8, time_max_case);
    }

    /// A horizon stop finds only a far event, which leaves the cursor on
    /// that event's tick, ahead of the clock; what is then scheduled at the
    /// clock, just after it and around the far event still pops in order.
    fn horizon_stop_case(rng: &mut SimRng) {
        let (mut pair, now) = pair_at_random_now(rng);
        let far = now + (1 + rng.next_u64() % (3 * WINDOW)) * TICK;
        pair.schedule(SimTime::from_micros(far));
        assert_eq!(pair.pop_at_or_before(SimTime::from_micros(now)), None);
        assert_eq!(pair.queue.cursor, far >> TICK_SHIFT);
        let cursor_tick = far >> TICK_SHIFT << TICK_SHIFT;
        for at in [
            now + 1,
            now,
            far,
            cursor_tick,
            now,
            far - 1,
            far + TICK,
            now + 1,
        ] {
            pair.schedule(SimTime::from_micros(at));
        }
        assert_eq!(
            pair.pop_at_or_before(SimTime::from_micros(now))
                .map(|(at, _)| at.as_micros()),
            Some(now)
        );
        pair.schedule(SimTime::from_micros(now));
        pair.drain();
    }

    #[test]
    fn horizon_stop_with_cursor_ahead_matches_reference() {
        cases::run(
            "event::tests::horizon_stop_with_cursor_ahead_matches_reference",
            16,
            horizon_stop_case,
        );
    }

    /// A clone taken mid-stream delivers what the original delivers, with
    /// schedules still arriving on both.
    fn clone_case(rng: &mut SimRng) {
        let mut pair = Pair::new();
        let steps = 2_000 + rng.next_u64() % 2_000;
        random_ops(&mut pair, rng, steps);
        let mut twin = pair.queue.clone();
        while !pair.queue.is_empty() {
            if rng.next_u64().is_multiple_of(3) {
                let at = SimTime::from_micros(rng.next_u64() % 30_000_000);
                twin.schedule(at, pair.step);
                pair.schedule(at);
            } else {
                assert_eq!(twin.pop(), pair.pop(), "step {}", pair.step);
            }
            assert_eq!(twin.len(), pair.queue.len(), "step {}", pair.step);
            assert_eq!(twin.perf(), pair.queue.perf(), "step {}", pair.step);
        }
        assert_eq!(twin.pop(), None);
    }

    #[test]
    fn clone_mid_stream_delivers_the_same_sequence() {
        cases::run(
            "event::tests::clone_mid_stream_delivers_the_same_sequence",
            8,
            clone_case,
        );
    }
}
