//! The workload driver.
//!
//! Produces the event stream of Figure 3 for every transaction: BEGIN at
//! arrival, N evenly spaced data-record writes, a COMMIT record write T
//! after arrival, then a wait for the group-commit acknowledgement. The
//! driver is queue-agnostic: each callback returns the *new events* (absolute
//! time + payload) the caller must schedule, so the experiment harness can
//! wrap them in its own composite event type. A killed transaction's
//! remaining writes stay scheduled: once its slot is retired, each of them
//! is a no-op when it arrives.
//!
//! Every run — a measured one, a minimum-space probe, a served tenant —
//! generates its own workload from its seed: two RNG substreams (type and
//! gap draws; oid picks) and the oid picker. Live transactions sit in a
//! tid-indexed window, one fixed-size slot per tid from the oldest
//! unretired one, with their oids in one shared slab; an ack or kill
//! retires a slot, and retired slots pop off the front. Steady state
//! allocates nothing per transaction.

use crate::arrival::ArrivalProcess;
use crate::oidpick::OidPicker;
use crate::spec::{TxMix, TX_TYPES};
use elog_model::{Oid, Tid};
use elog_sim::{Histogram, SimRng, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// Events the driver asks to be scheduled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadEvent {
    /// A new transaction arrives.
    Arrival,
    /// Transaction `tid` writes its `seq`-th data record.
    WriteData {
        /// The writing transaction.
        tid: Tid,
        /// 1-based record index within the transaction.
        seq: u32,
    },
    /// Transaction `tid` writes its COMMIT record.
    WriteCommit {
        /// The committing transaction.
        tid: Tid,
    },
}

/// A freshly arrived transaction, to be announced to the log manager.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NewTxn {
    /// Assigned transaction id.
    pub tid: Tid,
    /// Index into [`TX_TYPES`].
    pub type_idx: usize,
}

/// One update performed by a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Update {
    /// Updated object.
    pub oid: Oid,
    /// 1-based update index within the transaction.
    pub seq: u32,
    /// Time the data record was written.
    pub ts: SimTime,
}

/// Frozen name, owed to the next benchmark re-record: `benchmark/`'s
/// replay drill still names the captured-workload type. Nothing captures
/// a workload any more, so the type is uninhabited.
#[doc(hidden)]
pub enum WorkloadTrace {}

/// One transaction's slot in the driver's window.
#[derive(Clone, Copy, Debug)]
struct Slot {
    started_at: SimTime,
    /// When the COMMIT record was written (t3), once it was.
    commit_written: Option<SimTime>,
    /// Absolute index of the transaction's first oid in the slab; its
    /// `seq`-th data record's oid sits at `oid_start + seq - 1`.
    oid_start: u64,
    type_idx: u32,
    /// Data records written so far (they are written in `seq` order).
    written: u32,
    /// False once the transaction is acknowledged or killed.
    live: bool,
}

/// Aggregate workload statistics.
#[derive(Clone, Debug)]
pub struct WorkloadStats {
    /// Transactions started.
    pub started: u64,
    /// Transactions acknowledged as committed.
    pub committed: u64,
    /// Transactions killed by the log manager.
    pub killed: u64,
    /// Data records written.
    pub data_records: u64,
    /// Commit-ack latency (t4 − t3), in milliseconds.
    pub commit_latency_ms: Histogram,
    /// Whole-transaction commit latency (arrival → commit durable,
    /// t4 − t1), in milliseconds. Geometric buckets: one histogram must
    /// resolve both the ~1 s short type and 10 s+ stragglers, and tail
    /// quantiles (p99) care about relative, not absolute, resolution.
    pub full_latency_ms: Histogram,
    /// Started count per [`TX_TYPES`] index.
    pub per_type_started: [u64; 2],
}

impl WorkloadStats {
    fn new() -> Self {
        WorkloadStats {
            started: 0,
            committed: 0,
            killed: 0,
            data_records: 0,
            commit_latency_ms: Histogram::linear(500.0, 100),
            full_latency_ms: Histogram::geometric(1.0, 120_000.0, 20),
            per_type_started: [0; 2],
        }
    }
}

/// The workload driver (see module docs).
#[derive(Debug)]
pub struct WorkloadDriver {
    mix: TxMix,
    arrivals: ArrivalProcess,
    /// Type and inter-arrival draws.
    rng_mix: SimRng,
    /// Oid picks.
    rng_oid: SimRng,
    picker: OidPicker,
    /// No arrivals are generated at or after this time.
    horizon: SimTime,
    /// Slots of tids `front_tid..front_tid + window.len()`, in tid order;
    /// the front slot is live.
    window: VecDeque<Slot>,
    front_tid: u64,
    /// The window's oids, in tid order; `oids[0]` has absolute index
    /// `oid_front`.
    oids: VecDeque<Oid>,
    oid_front: u64,
    /// Live slots in the window.
    live: usize,
    stats: WorkloadStats,
    /// The last acknowledged transaction's updates (borrowed out).
    ack_buf: Vec<Update>,
}

impl WorkloadDriver {
    /// Creates a driver.
    ///
    /// * `mix` — the long fraction through time;
    /// * `arrivals` — arrival process (the paper uses deterministic);
    /// * `num_objects` — oid space size;
    /// * `horizon` — arrivals stop at this time (the paper's 500 s runtime);
    /// * `rng` — parent random stream; the driver derives independent
    ///   substreams for type sampling and oid picking.
    ///
    /// # Panics
    /// Panics when `arrivals` fails [`ArrivalProcess::validate`] (e.g. a
    /// MarkovBursty config whose dwell the draw path could only achieve
    /// by distorting it).
    pub fn new(
        mix: TxMix,
        arrivals: ArrivalProcess,
        num_objects: u64,
        horizon: SimTime,
        rng: &SimRng,
    ) -> Self {
        if let Err(e) = arrivals.validate() {
            panic!("invalid arrival process: {e}");
        }
        WorkloadDriver {
            mix,
            arrivals,
            rng_mix: rng.substream("workload/mix"),
            rng_oid: rng.substream("workload/oid"),
            picker: OidPicker::new(num_objects),
            horizon,
            window: VecDeque::new(),
            front_tid: 0,
            oids: VecDeque::new(),
            oid_front: 0,
            live: 0,
            stats: WorkloadStats::new(),
            ack_buf: Vec::new(),
        }
    }

    /// Frozen name, owed to the next benchmark re-record: `benchmark/`'s
    /// replay drill still calls it. [`WorkloadTrace`] is uninhabited, so
    /// no call can reach this body.
    #[doc(hidden)]
    pub fn replay(_mix: TxMix, trace: Arc<WorkloadTrace>, _oracle: bool) -> Self {
        match *trace {}
    }

    /// The first event to schedule: an arrival at `start`.
    pub fn bootstrap(&self, start: SimTime) -> Vec<(SimTime, WorkloadEvent)> {
        vec![(start, WorkloadEvent::Arrival)]
    }

    /// Handles an arrival: assigns a tid and type, fills `events` with the
    /// record writes and next arrival to schedule (clearing it first), and
    /// returns the new transaction. Returns `None` past the horizon.
    pub fn on_arrival(
        &mut self,
        now: SimTime,
        events: &mut Vec<(SimTime, WorkloadEvent)>,
    ) -> Option<NewTxn> {
        events.clear();
        if now >= self.horizon {
            return None;
        }
        let tid = Tid(self.next_tid());
        let type_idx = self.mix.sample(now, &mut self.rng_mix);
        let next = now + self.arrivals.next_interval(&mut self.rng_mix);
        if next < self.horizon {
            events.push((next, WorkloadEvent::Arrival));
        }
        let ty = TX_TYPES[type_idx];
        for seq in 1..=ty.data_records {
            events.push((
                now + ty.data_write_offset(seq),
                WorkloadEvent::WriteData { tid, seq },
            ));
        }
        events.push((now + ty.duration, WorkloadEvent::WriteCommit { tid }));

        self.window.push_back(Slot {
            started_at: now,
            commit_written: None,
            oid_start: self.oid_front + self.oids.len() as u64,
            type_idx: type_idx as u32,
            written: 0,
            live: true,
        });
        self.oids
            .resize(self.oids.len() + ty.data_records as usize, Oid(u64::MAX));
        self.live += 1;
        self.stats.started += 1;
        self.stats.per_type_started[type_idx] += 1;
        Some(NewTxn { tid, type_idx })
    }

    /// Handles a data-record write: picks the oid and returns it with the
    /// record size. Returns `None` when the transaction no longer exists
    /// (it was killed before this write came due).
    pub fn on_write_data(&mut self, _now: SimTime, tid: Tid, seq: u32) -> Option<(Oid, u32)> {
        let i = self.live_index(tid)?;
        let slot = &mut self.window[i];
        debug_assert!(
            slot.commit_written.is_none(),
            "data write after commit for {tid}"
        );
        debug_assert_eq!(seq, slot.written + 1, "{tid} wrote out of order");
        slot.written = seq;
        let at = (slot.oid_start + u64::from(seq) - 1 - self.oid_front) as usize;
        let oid = self.picker.pick(&mut self.rng_oid);
        self.oids[at] = oid;
        self.stats.data_records += 1;
        Some((oid, TX_TYPES[slot.type_idx as usize].record_size))
    }

    /// Handles the COMMIT-record write (t3). Returns `false` when the
    /// transaction no longer exists.
    pub fn on_write_commit(&mut self, now: SimTime, tid: Tid) -> bool {
        match self.live_index(tid) {
            Some(i) => {
                self.window[i].commit_written = Some(now);
                true
            }
            None => false,
        }
    }

    /// Handles the commit acknowledgement (t4): the transaction's oids stop
    /// being "chosen by an active transaction", and its updates are
    /// returned so the caller can feed a committed-state oracle. Each
    /// update's `ts` is its write instant, `arrival + data_write_offset`:
    /// the instant [`Self::on_arrival`] scheduled it at. The slice is valid
    /// until the next driver call (its storage is reused).
    pub fn on_commit_ack(&mut self, now: SimTime, tid: Tid) -> &[Update] {
        self.ack_buf.clear();
        let Some(i) = self.live_index(tid) else {
            return &self.ack_buf;
        };
        let slot = self.window[i];
        let ty = TX_TYPES[slot.type_idx as usize];
        let first = (slot.oid_start - self.oid_front) as usize;
        for (oid, seq) in self.oids.range(first..).zip(1..=slot.written) {
            self.ack_buf.push(Update {
                oid: *oid,
                seq,
                ts: slot.started_at + ty.data_write_offset(seq),
            });
        }
        self.picker.release_all(self.ack_buf.iter().map(|u| u.oid));
        if let Some(t3) = slot.commit_written {
            self.stats
                .commit_latency_ms
                .record(now.saturating_sub(t3).as_micros() as f64 / 1000.0);
        }
        self.stats
            .full_latency_ms
            .record(now.saturating_sub(slot.started_at).as_micros() as f64 / 1000.0);
        self.stats.committed += 1;
        self.retire(i);
        &self.ack_buf
    }

    /// Handles a kill from the log manager: drops the transaction and
    /// releases its oids. The transaction's still-pending events need no
    /// retraction: they find no live slot and do nothing.
    pub fn on_kill(&mut self, tid: Tid) {
        if let Some(i) = self.live_index(tid) {
            let slot = self.window[i];
            let first = (slot.oid_start - self.oid_front) as usize;
            let written = first..first + slot.written as usize;
            self.picker.release_all(self.oids.range(written).copied());
            self.stats.killed += 1;
            self.retire(i);
        }
    }

    /// The next tid to assign (tids are dense, from 0).
    fn next_tid(&self) -> u64 {
        self.front_tid + self.window.len() as u64
    }

    /// The window index of `tid`, when it is live.
    fn live_index(&self, tid: Tid) -> Option<usize> {
        let i = usize::try_from(tid.0.checked_sub(self.front_tid)?).ok()?;
        self.window.get(i).filter(|s| s.live).map(|_| i)
    }

    /// Retires the live slot at window index `i`, then pops every retired
    /// slot (and its oids) off the front.
    fn retire(&mut self, i: usize) {
        self.window[i].live = false;
        self.live -= 1;
        while let Some(front) = self.window.front().filter(|s| !s.live) {
            let n = TX_TYPES[front.type_idx as usize].data_records;
            self.window.pop_front();
            self.front_tid += 1;
            self.oids.drain(..n as usize);
            self.oid_front += u64::from(n);
        }
    }

    /// Number of transactions currently between BEGIN and ack.
    pub fn active_txns(&self) -> usize {
        self.live
    }

    /// The oids a live transaction has written so far, in `seq` order.
    pub fn oids_of(&self, tid: Tid) -> Option<impl ExactSizeIterator<Item = Oid> + '_> {
        let slot = &self.window[self.live_index(tid)?];
        let first = (slot.oid_start - self.oid_front) as usize;
        Some(
            self.oids
                .range(first..first + slot.written as usize)
                .copied(),
        )
    }

    /// Slots and oid slots the window holds: one slot per tid from the
    /// oldest live transaction on, live or retired (diagnostics).
    pub fn window_len(&self) -> (usize, usize) {
        (self.window.len(), self.oids.len())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &WorkloadStats {
        &self.stats
    }

    /// The oid picker (for diagnostics).
    pub fn picker(&self) -> &OidPicker {
        &self.picker
    }

    /// The arrival horizon (no arrivals at or after this time).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver(frac_long: f64, horizon_s: u64) -> WorkloadDriver {
        phased_driver(TxMix::paper_mix(frac_long), horizon_s)
    }

    fn phased_driver(mix: TxMix, horizon_s: u64) -> WorkloadDriver {
        WorkloadDriver::new(
            mix,
            ArrivalProcess::Deterministic { rate_tps: 100.0 },
            10_000_000,
            SimTime::from_secs(horizon_s),
            &SimRng::new(42),
        )
    }

    fn arrive(
        d: &mut WorkloadDriver,
        now: SimTime,
    ) -> Option<(NewTxn, Vec<(SimTime, WorkloadEvent)>)> {
        let mut events = Vec::new();
        d.on_arrival(now, &mut events).map(|new| (new, events))
    }

    #[test]
    fn arrival_produces_plan_and_schedule() {
        let mut d = driver(0.0, 10);
        let boot = d.bootstrap(SimTime::ZERO);
        assert_eq!(boot, vec![(SimTime::ZERO, WorkloadEvent::Arrival)]);

        let (new, events) = arrive(&mut d, SimTime::ZERO).unwrap();
        assert_eq!(new.tid, Tid(0));
        assert_eq!(new.type_idx, 0, "frac_long 0 ⇒ always short type");
        // Short type: 2 data writes + 1 commit + next arrival.
        assert_eq!(events.len(), 4);
        let commit_at = events
            .iter()
            .find_map(|(t, e)| matches!(e, WorkloadEvent::WriteCommit { .. }).then_some(*t))
            .unwrap();
        assert_eq!(commit_at, SimTime::from_secs(1));
        let last_data = events
            .iter()
            .filter_map(|(t, e)| matches!(e, WorkloadEvent::WriteData { seq: 2, .. }).then_some(*t))
            .next()
            .unwrap();
        assert_eq!(
            commit_at.saturating_sub(last_data),
            SimTime::from_millis(1),
            "ε gap"
        );
        // Next arrival 10 ms later (100 TPS).
        assert!(events.contains(&(SimTime::from_millis(10), WorkloadEvent::Arrival)));
    }

    #[test]
    fn horizon_stops_arrivals() {
        let mut d = driver(0.0, 1);
        // Arrival exactly at the horizon is rejected.
        assert!(arrive(&mut d, SimTime::from_secs(1)).is_none());
        // An arrival just before the horizon happens but does not chain a
        // next arrival past it.
        let (_, events) = arrive(&mut d, SimTime::from_micros(999_999)).unwrap();
        assert!(!events.iter().any(|(_, e)| *e == WorkloadEvent::Arrival));
    }

    #[test]
    fn full_transaction_lifecycle() {
        let mut d = driver(0.0, 10);
        let (new, _) = arrive(&mut d, SimTime::ZERO).unwrap();
        let tid = new.tid;

        let (oid1, size) = d.on_write_data(SimTime::from_millis(500), tid, 1).unwrap();
        assert_eq!(size, 100);
        let (oid2, _) = d.on_write_data(SimTime::from_millis(999), tid, 2).unwrap();
        assert_ne!(oid1, oid2, "same txn never reuses an oid");
        assert!(d.picker().is_held(oid1));

        assert!(d.on_write_commit(SimTime::from_secs(1), tid));
        let updates = d.on_commit_ack(SimTime::from_micros(1_030_000), tid);
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[0].oid, oid1);
        assert!(!d.picker().is_held(oid1), "ack releases oids");
        assert_eq!(d.stats().committed, 1);
        assert_eq!(d.stats().commit_latency_ms.total(), 1);
        // ~30 ms latency recorded.
        assert!(d.stats().commit_latency_ms.max().unwrap() >= 30.0);
        // Whole-transaction latency spans arrival → ack: 1.03 s here.
        assert_eq!(d.stats().full_latency_ms.total(), 1);
        assert!((d.stats().full_latency_ms.max().unwrap() - 1030.0).abs() < 1e-6);
    }

    #[test]
    fn kill_releases_and_counts() {
        let mut d = driver(0.0, 10);
        let (new, _) = arrive(&mut d, SimTime::ZERO).unwrap();
        let (oid, _) = d
            .on_write_data(SimTime::from_millis(1), new.tid, 1)
            .unwrap();
        d.on_kill(new.tid);
        assert!(!d.picker().is_held(oid));
        assert_eq!(d.stats().killed, 1);
        assert_eq!(d.active_txns(), 0);
        // Stray events for the dead txn are ignored gracefully.
        assert!(d
            .on_write_data(SimTime::from_millis(3), new.tid, 2)
            .is_none());
        assert!(!d.on_write_commit(SimTime::from_millis(4), new.tid));
        assert!(d.on_commit_ack(SimTime::from_millis(5), new.tid).is_empty());
        assert_eq!(d.stats().killed, 1, "double kill not counted");
        d.on_kill(new.tid);
        assert_eq!(d.stats().killed, 1);
    }

    #[test]
    fn tids_are_dense_and_unique() {
        let mut d = driver(0.5, 100);
        let mut t = SimTime::ZERO;
        for i in 0..50 {
            let (new, _) = arrive(&mut d, t).unwrap();
            assert_eq!(new.tid, Tid(i));
            t += SimTime::from_millis(10);
        }
        assert_eq!(d.stats().started, 50);
        assert_eq!(d.active_txns(), 50);
    }

    #[test]
    fn per_type_counts_follow_pdf() {
        let mut d = driver(0.3, 1_000_000);
        let mut t = SimTime::ZERO;
        let mut events = Vec::new();
        for _ in 0..20_000 {
            d.on_arrival(t, &mut events).unwrap();
            t += SimTime::from_millis(10);
        }
        let frac = d.stats().per_type_started[1] as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "long fraction {frac}");
    }

    #[test]
    fn updates_of_live_txn_visible() {
        let mut d = driver(0.0, 10);
        let (new, _) = arrive(&mut d, SimTime::ZERO).unwrap();
        assert_eq!(d.oids_of(new.tid).unwrap().len(), 0);
        let (oid, _) = d
            .on_write_data(SimTime::from_millis(1), new.tid, 1)
            .unwrap();
        assert!(d.oids_of(new.tid).unwrap().eq([oid]));
        assert!(d.oids_of(Tid(999)).is_none());
    }

    #[test]
    fn a_long_transaction_pins_the_window_front() {
        // One long (10 s, 4-record) transaction at the front, then short
        // ones that all commit while it runs.
        let mut d = phased_driver(TxMix::parse("0:1.0,0.001:0.0").unwrap(), 100);
        let (front, _) = arrive(&mut d, SimTime::ZERO).unwrap();
        assert_eq!(front.type_idx, 1);
        let mut t = SimTime::ZERO;
        let mut shorts = Vec::new();
        for _ in 0..20 {
            t += SimTime::from_millis(10);
            let (new, _) = arrive(&mut d, t).unwrap();
            assert_eq!(new.type_idx, 0);
            d.on_write_data(t, new.tid, 1).unwrap();
            d.on_write_data(t, new.tid, 2).unwrap();
            shorts.push(new.tid);
        }
        assert_eq!(d.window_len(), (21, 4 + 40));
        for &tid in &shorts {
            d.on_write_commit(t, tid);
            assert_eq!(d.on_commit_ack(t, tid).len(), 2);
            // Retired slots stay behind the live front.
            assert_eq!(d.window_len(), (21, 44));
        }
        assert_eq!(d.active_txns(), 1);
        assert_eq!(d.picker().held(), 0);
        // The front's ack pops it and everything retired behind it.
        d.on_write_commit(SimTime::from_secs(10), front.tid);
        d.on_commit_ack(SimTime::from_secs(11), front.tid);
        assert_eq!(d.window_len(), (0, 0));
        assert_eq!(d.active_txns(), 0);
        assert_eq!(d.picker().double_releases(), 0);
        // Tids stay dense across the emptied window.
        let (next, _) = arrive(&mut d, SimTime::from_secs(12)).unwrap();
        assert_eq!(next.tid, Tid(21));
        assert_eq!(d.window_len(), (1, 2));
    }

    /// Drives `d` through its full event stream with a tiny hand-rolled
    /// event loop (no log manager: acks fire one ε after the commit
    /// write), checking that every ack hands back exactly the updates the
    /// transaction wrote, each stamped with its delivery instant. Returns
    /// the committed count.
    fn drain(d: &mut WorkloadDriver) -> u64 {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashMap};
        // Kind: 0 arrival, 1 data, 2 commit, 3 ack.
        let mut queue: BinaryHeap<Reverse<(SimTime, u64, Tid, u32)>> = BinaryHeap::new();
        let mut events = Vec::new();
        let mut written: HashMap<Tid, Vec<Update>> = HashMap::new();
        queue.push(Reverse((SimTime::ZERO, 0, Tid(0), 0)));
        while let Some(Reverse((now, kind, tid, seq))) = queue.pop() {
            match kind {
                0 => {
                    if d.on_arrival(now, &mut events).is_some() {
                        for &(at, ev) in &events {
                            let (k, t, s) = match ev {
                                WorkloadEvent::Arrival => (0, Tid(0), 0),
                                WorkloadEvent::WriteData { tid, seq } => (1, tid, seq),
                                WorkloadEvent::WriteCommit { tid } => (2, tid, 0),
                            };
                            queue.push(Reverse((at, k, t, s)));
                        }
                    }
                }
                1 => {
                    let (oid, _) = d.on_write_data(now, tid, seq).unwrap();
                    let ts = now;
                    written
                        .entry(tid)
                        .or_default()
                        .push(Update { oid, seq, ts });
                }
                2 => {
                    assert!(d.on_write_commit(now, tid));
                    queue.push(Reverse((now + SimTime::from_millis(1), 3, tid, 0)));
                }
                _ => {
                    let expect = written.remove(&tid).unwrap_or_default();
                    assert_eq!(d.on_commit_ack(now, tid), expect, "{tid}");
                }
            }
        }
        assert!(written.is_empty());
        d.stats().committed
    }

    #[test]
    fn acked_updates_carry_their_write_instants() {
        // The window keeps no per-update timestamps: an ack rebuilds each
        // `ts` from the arrival time and the type's write offsets, which
        // must equal the instant the write event was delivered at.
        let mut d = driver(0.3, 5);
        assert_eq!(drain(&mut d), d.stats().started);
        assert!(d.stats().per_type_started.iter().all(|&n| n > 0));
        assert_eq!(d.window_len(), (0, 0), "every transaction retired");
        assert_eq!(d.picker().held(), 0);
        assert_eq!(d.picker().double_releases(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid arrival process")]
    fn invalid_arrival_config_rejected_at_construction() {
        // Regression: a MarkovBursty config with rate × dwell < 1 used to
        // be accepted and silently distorted at draw time; the driver now
        // validates at its single construction chokepoint.
        let _ = WorkloadDriver::new(
            TxMix::paper_mix(0.1),
            ArrivalProcess::MarkovBursty {
                base_tps: 2.0,
                burst_tps: 500.0,
                mean_dwell_s: 0.1,
                in_burst: false,
            },
            10_000_000,
            SimTime::from_secs(10),
            &SimRng::new(1),
        );
    }

    #[test]
    fn phase_schedule_shifts_mix() {
        // Phase 0 (0–10 s): all short. Phase 1 (10 s+): all long.
        let mut d = phased_driver(TxMix::phased(&[(0, 0.0), (10, 1.0)]), 20);

        let mut events = Vec::new();
        // Phase 0: every arrival is the short type, arrivals 10 ms apart.
        let new = d.on_arrival(SimTime::ZERO, &mut events).unwrap();
        assert_eq!(new.type_idx, 0);
        assert!(events.contains(&(SimTime::from_millis(10), WorkloadEvent::Arrival)));
        // Phase 1: every arrival is the long type, still 10 ms apart.
        let new = d.on_arrival(SimTime::from_secs(10), &mut events).unwrap();
        assert_eq!(new.type_idx, 1);
        assert!(events.contains(&(SimTime::from_millis(10_010), WorkloadEvent::Arrival)));

        // A whole drifting run: both phases produce transactions.
        let mut d = phased_driver(TxMix::parse("0:0.0,2:1.0").unwrap(), 4);
        drain(&mut d);
        assert!(d.stats().per_type_started.iter().all(|&n| n > 0));
    }
}
