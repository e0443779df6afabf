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
//! Cancellation uses *generation-stamped slots* instead of an auxiliary
//! tombstone set: a token names its pool node and the generation the node
//! carried when the event was scheduled. Cancelling (or firing) bumps the
//! generation, so a stale token is recognised by a single compare — no
//! hashing, no allocation, O(1). A cancelled node stays linked where it is
//! as a tombstone and is discarded lazily when delivery order reaches it;
//! when tombstones outnumber the live entries every region is compacted, so
//! a workload that mass-cancels (the killed-transaction retract path)
//! cannot leave the queue dominated by corpses.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// log₂ of the tick length in µs. Almost every schedule is a 10 ms arrival,
/// a 15 ms log write or a 25 ms flush transfer, so a 4.096 ms tick holds two
/// or three events and ordering one is a handful of compares.
const TICK_SHIFT: u32 = 12;
/// Buckets on the wheel; with the tick, a 16.8 s window, beyond the 10 s
/// the longest transaction body schedules ahead.
const WHEEL_SLOTS: usize = 4096;
/// End-of-list mark in `Node::next`, the bucket heads and the free list.
const NIL: u32 = u32::MAX;

/// Below this many pending entries compaction is pointless — the lazy
/// pop-time discard clears a handful of tombstones for free.
const COMPACT_MIN_PENDING: usize = 64;

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
    /// Bumped when the event fires or is cancelled; a token is live iff it
    /// carries this value.
    generation: u32,
    /// The next node of the same bucket or, once released, of the free list.
    next: u32,
    /// `None` from firing or cancellation on: a node in that state that is
    /// still linked into a region is a tombstone.
    event: Option<E>,
}

/// Priority queue of future events.
///
/// `Clone` (for `E: Clone`) deep-copies the pending set, slot generations
/// and counters; outstanding [`EventToken`]s remain valid against the copy,
/// which is what lets a whole engine be snapshotted mid-run and resumed.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Every entry, pending or free; a token's slot indexes it.
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
    /// Live (scheduled, not fired, not cancelled) events.
    live: usize,
    /// Entries in the three regions: live ones and tombstones.
    pending: usize,
    next_seq: u64,
    scheduled_total: u64,
    cancelled_total: u64,
    tombstones_discarded: u64,
    compactions: u64,
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
            live: 0,
            pending: 0,
            next_seq: 0,
            scheduled_total: 0,
            cancelled_total: 0,
            tombstones_discarded: 0,
            compactions: 0,
            pending_peak: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Returns a token usable with [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventToken {
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
                    generation: 0,
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
        let generation = node.generation;
        self.live += 1;
        self.pending += 1;
        self.pending_peak = self.pending_peak.max(self.pending);
        self.place(Key { at, seq, slot });
        EventToken { slot, generation }
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

    /// Returns a node that left its region to the free list.
    #[inline]
    fn release(&mut self, slot: u32) {
        self.nodes[slot as usize].next = self.free_head;
        self.free_head = slot;
        self.pending -= 1;
    }

    /// The earliest live entry, left in place at the front of `current`;
    /// the tombstones ahead of it in delivery order are discarded.
    fn front(&mut self) -> Option<Key> {
        loop {
            let Some(&key) = self.current.front() else {
                if self.advance() {
                    continue;
                }
                return None;
            };
            if self.nodes[key.slot as usize].event.is_some() {
                return Some(key);
            }
            self.current.pop_front();
            self.release(key.slot);
            self.tombstones_discarded += 1; // cancelled event's corpse
        }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Cancelling an event that already fired (or was already cancelled) is a
    /// harmless no-op. The entry becomes a tombstone that is discarded
    /// lazily on pop, or eagerly when tombstones outnumber live entries.
    pub fn cancel(&mut self, token: EventToken) {
        let node = &mut self.nodes[token.slot as usize];
        if node.generation != token.generation {
            return; // already fired or cancelled
        }
        node.generation = node.generation.wrapping_add(1);
        node.event = None;
        self.live -= 1;
        self.cancelled_total += 1;
        self.maybe_compact();
    }

    /// Unlinks every tombstone once they exceed half of what is pending.
    /// Keeps mass cancellation (killed-transaction retraction) from letting
    /// the queue grow without bound while dead entries wait for delivery
    /// order to reach them.
    fn maybe_compact(&mut self) {
        let dead = self.pending - self.live;
        if self.pending < COMPACT_MIN_PENDING || dead * 2 <= self.pending {
            return;
        }
        // True for a live node; a dead one goes to the free list.
        fn keep<E>(nodes: &mut [Node<E>], free_head: &mut u32, slot: u32) -> bool {
            let node = &mut nodes[slot as usize];
            if node.event.is_none() {
                node.next = std::mem::replace(free_head, slot);
            }
            node.event.is_some()
        }
        let (nodes, free_head) = (&mut self.nodes[..], &mut self.free_head);
        self.current.retain(|key| keep(nodes, free_head, key.slot));
        self.overflow
            .retain(|Reverse(key)| keep(nodes, free_head, key.slot));
        for (bucket, head) in self.buckets.iter_mut().enumerate() {
            let mut slot = std::mem::replace(head, NIL);
            while slot != NIL {
                let next = nodes[slot as usize].next;
                if keep(nodes, free_head, slot) {
                    nodes[slot as usize].next = std::mem::replace(head, slot);
                }
                slot = next;
            }
            if *head == NIL {
                self.occupied[bucket / 64] &= !(1 << (bucket % 64));
            }
        }
        self.pending = self.live;
        self.tombstones_discarded += dead as u64;
        self.compactions += 1;
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Removes and returns the earliest live event at or before `horizon`;
    /// leaves the queue untouched (beyond discarding leading tombstones)
    /// when the earliest live event is after the horizon.
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
        node.generation = node.generation.wrapping_add(1);
        let event = node.event.take().expect("front() returns a live entry");
        self.live -= 1;
        self.release(slot);
        Some((at, event))
    }

    /// Time of the earliest live event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.front().map(|key| key.at)
    }

    /// Count of live (scheduled, not yet fired or cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue counters snapshot for performance reporting.
    pub fn perf(&self) -> crate::perfstats::QueueStats {
        crate::perfstats::QueueStats {
            scheduled: self.scheduled_total,
            cancelled: self.cancelled_total,
            tombstones_discarded: self.tombstones_discarded,
            compactions: self.compactions,
            heap_peak: self.pending_peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfstats::QueueStats;
    use std::collections::{BTreeMap, BTreeSet};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Entries physically held: the live ones plus the tombstones not yet
    /// discarded.
    fn pending<E>(q: &EventQueue<E>) -> usize {
        let perf = q.perf();
        q.len() + (perf.cancelled - perf.tombstones_discarded) as usize
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
        assert_eq!(q.perf().scheduled, 2);
        assert_eq!(q.perf().cancelled, 1);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        q.pop();
        q.cancel(a); // event already fired: must not count or corrupt len
        assert_eq!(q.perf().cancelled, 0);
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
        assert_eq!(q.perf().cancelled, 1);
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
        assert_eq!(pending(&q), 1000);
        // Kill-retraction pattern: cancel almost everything without popping.
        for tok in &tokens[..900] {
            q.cancel(*tok);
        }
        assert_eq!(q.len(), 100);
        assert!(
            pending(&q) <= 2 * q.len().max(COMPACT_MIN_PENDING),
            "dead entries must not dominate the heap: {} physical for {} live",
            pending(&q),
            q.len()
        );
        assert!(q.perf().compactions >= 1, "compaction must have run");
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
        assert_eq!(q.perf().compactions, 0, "below the size floor");
        assert_eq!(q.pop(), None);
        assert_eq!(pending(&q), 0, "pop drained the corpses");
    }

    /// The naive oracle of the differential test: pending events in a
    /// `BTreeMap` keyed on `(time, sequence)`, cancellation by key removal.
    /// So that the queue's counters can be checked too, a cancelled key
    /// waits in `dead` until delivery order reaches it or tombstones
    /// outnumber the live keys — the rule the queue documents.
    #[derive(Default)]
    struct Reference {
        pending: BTreeMap<(SimTime, u64), u64>,
        dead: BTreeSet<(SimTime, u64)>,
        next_seq: u64,
        stats: QueueStats,
    }

    impl Reference {
        fn schedule(&mut self, at: SimTime, event: u64) -> (SimTime, u64) {
            let key = (at, self.next_seq);
            self.next_seq += 1;
            self.pending.insert(key, event);
            self.stats.scheduled += 1;
            let held = self.pending.len() + self.dead.len();
            self.stats.heap_peak = self.stats.heap_peak.max(held);
            key
        }

        fn cancel(&mut self, key: (SimTime, u64)) {
            if self.pending.remove(&key).is_none() {
                return;
            }
            self.stats.cancelled += 1;
            self.dead.insert(key);
            let held = self.pending.len() + self.dead.len();
            if held >= COMPACT_MIN_PENDING && self.dead.len() * 2 > held {
                self.stats.tombstones_discarded += self.dead.len() as u64;
                self.stats.compactions += 1;
                self.dead.clear();
            }
        }

        /// The first live key; the tombstones ahead of it are discarded.
        fn first(&mut self) -> Option<(SimTime, u64)> {
            let first = self.pending.keys().next().copied();
            let later = first.map_or_else(BTreeSet::new, |key| self.dead.split_off(&key));
            self.stats.tombstones_discarded += self.dead.len() as u64;
            self.dead = later;
            first
        }

        fn peek_time(&mut self) -> Option<SimTime> {
            self.first().map(|(at, _)| at)
        }

        fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, u64)> {
            let (at, seq) = self.first()?;
            (at <= horizon).then(|| (at, self.pending.remove(&(at, seq)).expect("peeked")))
        }
    }

    fn splitmix64(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The queue and the oracle driven in lockstep: every op compares its
    /// result, then `len()` and the counters, and names seed and step.
    struct Pair {
        queue: EventQueue<u64>,
        reference: Reference,
        /// Every token ever issued stays here, so later cancels also hit
        /// fired and already-cancelled events whose slot has been reused.
        tokens: Vec<(EventToken, (SimTime, u64))>,
        seed: u64,
        step: u64,
    }

    impl Pair {
        fn new(seed: u64) -> Self {
            Pair {
                queue: EventQueue::new(),
                reference: Reference::default(),
                tokens: Vec::new(),
                seed,
                step: 0,
            }
        }

        fn checked<T: PartialEq + std::fmt::Debug>(&mut self, op: &str, got: T, want: T) -> T {
            let ctx = format!("seed {:#x} step {} ({op})", self.seed, self.step);
            assert_eq!(got, want, "{ctx}");
            assert_eq!(self.queue.len(), self.reference.pending.len(), "{ctx}");
            assert_eq!(self.queue.perf(), self.reference.stats, "{ctx}");
            self.step += 1;
            got
        }

        /// Schedules the step number at `at`; returns the index in `tokens`.
        fn schedule(&mut self, at: SimTime) -> usize {
            let token = self.queue.schedule(at, self.step);
            self.tokens
                .push((token, self.reference.schedule(at, self.step)));
            self.checked("schedule", (), ());
            self.tokens.len() - 1
        }

        fn cancel(&mut self, index: usize) {
            let (token, key) = self.tokens[index];
            self.queue.cancel(token);
            self.reference.cancel(key);
            self.checked("cancel", (), ());
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
            assert_eq!(pending(&self.queue), 0, "seed {:#x} drain", self.seed);
        }
    }

    /// Runs `case` on `cases` seeds — or only on the one in `EVENT_SEED`
    /// when a failure is being replayed.
    fn for_seeds(test: &str, cases: u64, case: fn(u64)) {
        if let Ok(seed) = std::env::var("EVENT_SEED") {
            let seed = u64::from_str_radix(seed.trim_start_matches("0x"), 16).expect("hex seed");
            return case(seed);
        }
        for k in 0..cases {
            let seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k + 1);
            assert!(
                std::panic::catch_unwind(|| case(seed)).is_ok(),
                "case seed {seed:#x} failed (panic above)\nrepro: EVENT_SEED={seed:#x} \
                 cargo test --offline -p elog-sim --lib event::tests::{test}"
            );
        }
    }

    /// `steps` ops of a splitmix64-driven schedule / cancel /
    /// cancel-after-fire / pop / peek interleaving.
    fn random_ops(pair: &mut Pair, rng: &mut impl FnMut() -> u64, steps: u64) {
        let mut now = 0u64; // µs
        for _ in 0..steps {
            match rng() % 10 {
                // Schedule, with an occasional far-future delay and ties.
                0..=4 => {
                    let delay = match rng() % 100 {
                        0 => 20_000_000 + rng() % 1_000_000,
                        1..=10 => 25_000,
                        _ => rng() % 600_000,
                    };
                    pair.schedule(SimTime::from_micros(now + delay));
                }
                5..=6 if !pair.tokens.is_empty() => {
                    pair.cancel((rng() % pair.tokens.len() as u64) as usize);
                }
                7 => {
                    pair.peek_time();
                }
                8 => {
                    pair.pop();
                }
                _ => {
                    let horizon = SimTime::from_micros(now + rng() % 400_000);
                    if let Some((at, _)) = pair.pop_at_or_before(horizon) {
                        now = now.max(at.as_micros());
                    }
                }
            }
        }
    }

    fn differential_case(seed: u64) {
        let mut pair = Pair::new(seed);
        random_ops(&mut pair, &mut splitmix64(seed), 20_000);
        pair.drain();
    }

    #[test]
    fn heap_matches_btreemap_reference_on_random_workload() {
        for_seeds(
            "heap_matches_btreemap_reference_on_random_workload",
            8,
            differential_case,
        );
    }

    const TICK: u64 = 1 << TICK_SHIFT; // µs
    const WINDOW: u64 = WHEEL_SLOTS as u64; // ticks

    /// A pair whose cursor stands on the tick of a random `now` (µs).
    fn pair_at_random_now(seed: u64, rng: &mut impl FnMut() -> u64) -> (Pair, u64) {
        let mut pair = Pair::new(seed);
        let now = rng() % 100_000_000;
        pair.schedule(SimTime::from_micros(now));
        pair.pop();
        (pair, now)
    }

    /// Delays of exactly one window less a tick, one window and one window
    /// plus a tick — the last wheel bucket, the bucket that aliases the
    /// cursor's own, and the first overflow tick — then a jump of ten
    /// windows over an empty wheel.
    fn window_edges_case(seed: u64) {
        let mut rng = splitmix64(seed);
        let (mut pair, now) = pair_at_random_now(seed, &mut rng);
        let mut tick = now >> TICK_SHIFT;
        for _ in 0..4 {
            for delay in [WINDOW - 1, WINDOW, WINDOW + 1, 1, 1 + WINDOW, 0, 2 * WINDOW] {
                for _ in 0..2 {
                    let at = ((tick + delay) << TICK_SHIFT) + rng() % TICK;
                    pair.schedule(SimTime::from_micros(at));
                }
            }
            // Move the cursor with the edges still pending, so the next
            // round's land among them and the overflow migrates in between.
            for _ in 0..rng() % 8 {
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
            let at = ((pair.queue.cursor + delay) << TICK_SHIFT) + rng() % TICK;
            pair.schedule(SimTime::from_micros(at));
        }
        pair.peek_time();
        pair.drain();
    }

    #[test]
    fn window_edges_and_empty_wheel_jump_match_reference() {
        for_seeds(
            "window_edges_and_empty_wheel_jump_match_reference",
            16,
            window_edges_case,
        );
    }

    /// `SimTime::MAX` beside ordinary times: no tick arithmetic overflows,
    /// before or after the cursor itself stands on the last tick.
    fn time_max_case(seed: u64) {
        let mut rng = splitmix64(seed);
        let (mut pair, now) = pair_at_random_now(seed, &mut rng);
        let never = pair.schedule(SimTime::MAX);
        pair.schedule(SimTime::from_micros(now + rng() % 1_000_000));
        pair.schedule(SimTime::MAX);
        pair.schedule(SimTime::from_micros(u64::MAX - 1 - rng() % TICK));
        assert_eq!(
            pair.pop_at_or_before(SimTime::MAX)
                .map(|(at, _)| at < SimTime::MAX),
            Some(true)
        );
        pair.cancel(never);
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
        for_seeds("time_max_matches_reference", 8, time_max_case);
    }

    /// A horizon stop finds only a far event, which leaves the cursor on
    /// that event's tick, ahead of the clock; what is then scheduled at the
    /// clock, just after it and around the far event still pops in order.
    fn horizon_stop_case(seed: u64) {
        let mut rng = splitmix64(seed);
        let (mut pair, now) = pair_at_random_now(seed, &mut rng);
        let far = now + (1 + rng() % (3 * WINDOW)) * TICK;
        pair.schedule(SimTime::from_micros(far));
        assert_eq!(pair.pop_at_or_before(SimTime::from_micros(now)), None);
        assert_eq!(pair.queue.cursor, far >> TICK_SHIFT, "seed {seed:#x}");
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
        for_seeds(
            "horizon_stop_with_cursor_ahead_matches_reference",
            16,
            horizon_stop_case,
        );
    }

    /// A cancel in each region — the tick being drained, a wheel bucket, the
    /// overflow — then cancels until tombstones are the majority of ≥ 64
    /// pending and every region is compacted, then a full drain.
    fn cancel_and_compact_case(seed: u64) {
        let mut rng = splitmix64(seed);
        let (mut pair, now) = pair_at_random_now(seed, &mut rng);
        let tick_start = now >> TICK_SHIFT << TICK_SHIFT;
        let mut region = |pair: &mut Pair, lo: u64, span: u64| -> Vec<usize> {
            (0..30 + rng() % 10)
                .map(|_| pair.schedule(SimTime::from_micros(tick_start + lo + rng() % span)))
                .collect()
        };
        let current = region(&mut pair, 0, TICK);
        let wheel = region(&mut pair, TICK, (WINDOW - 1) * TICK);
        let overflow = region(&mut pair, WINDOW * TICK, 3 * WINDOW * TICK);
        assert_eq!(pair.queue.current.len(), current.len(), "seed {seed:#x}");
        assert_eq!(pair.queue.overflow.len(), overflow.len(), "seed {seed:#x}");
        for victims in [&current, &wheel, &overflow] {
            pair.cancel(victims[0]);
            pair.cancel(victims[0]); // a second cancel is a no-op
        }
        pair.peek_time();
        // Two in three of the rest, region by region in turn.
        for i in 1..current.len().max(wheel.len()).max(overflow.len()) {
            for victims in [&overflow, &current, &wheel] {
                if i % 3 != 0 && i < victims.len() {
                    pair.cancel(victims[i]);
                }
            }
        }
        assert!(pair.queue.perf().compactions >= 1, "seed {seed:#x}");
        pair.drain();
    }

    #[test]
    fn cancel_in_every_region_then_compaction_matches_reference() {
        for_seeds(
            "cancel_in_every_region_then_compaction_matches_reference",
            16,
            cancel_and_compact_case,
        );
    }

    /// A clone taken mid-stream delivers what the original delivers and
    /// honours the tokens that were outstanding when it was taken.
    fn clone_case(seed: u64) {
        let mut rng = splitmix64(seed);
        let mut pair = Pair::new(seed);
        let steps = 2_000 + rng() % 2_000;
        random_ops(&mut pair, &mut rng, steps);
        let mut twin = pair.queue.clone();
        while !pair.queue.is_empty() {
            if rng().is_multiple_of(3) {
                let index = (rng() % pair.tokens.len() as u64) as usize;
                twin.cancel(pair.tokens[index].0);
                pair.cancel(index);
            } else {
                assert_eq!(twin.pop(), pair.pop(), "seed {seed:#x} step {}", pair.step);
            }
            assert_eq!(
                twin.len(),
                pair.queue.len(),
                "seed {seed:#x} step {}",
                pair.step
            );
            assert_eq!(
                twin.perf(),
                pair.queue.perf(),
                "seed {seed:#x} step {}",
                pair.step
            );
        }
        assert_eq!(twin.pop(), None, "seed {seed:#x}");
    }

    #[test]
    fn clone_mid_stream_delivers_the_same_sequence() {
        for_seeds("clone_mid_stream_delivers_the_same_sequence", 8, clone_case);
    }
}
