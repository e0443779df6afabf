//! The workload driver.
//!
//! Produces the event stream of Figure 3 for every transaction: BEGIN at
//! arrival, N evenly spaced data-record writes, a COMMIT record write T
//! after arrival, then a wait for the group-commit acknowledgement. The
//! driver is queue-agnostic: each callback returns the *new events* (absolute
//! time + payload) the caller must schedule, so the experiment harness can
//! wrap them in its own composite event type and keep the cancellation
//! tokens needed to retract a killed transaction's remaining writes.
//!
//! Two sources feed the stream (see [`crate::trace`]): **live** — the
//! RNG-driven generator of the paper, optionally capturing a
//! [`WorkloadTrace`] as it runs — and **replay** — walking a previously
//! captured trace with no RNG, no oid picker and no per-event allocation,
//! which is what the minimum-space searches probe geometries with.

use crate::arrival::ArrivalProcess;
use crate::oidpick::OidPicker;
use crate::spec::{PhaseSchedule, TxMix};
use crate::trace::{TraceBuilder, WorkloadTrace, UNWRITTEN};
use elog_model::{Oid, Tid};
use elog_sim::FxHashMap;
use elog_sim::{Histogram, MaxGauge, SimRng, SimTime};
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
    /// Index into the mix's type list.
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

#[derive(Clone, Debug)]
struct ActiveTxn {
    type_idx: usize,
    started_at: SimTime,
    updates: Vec<Update>,
    commit_written: Option<SimTime>,
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
    /// Concurrently active transactions.
    pub active: MaxGauge,
    /// Started count per type index.
    pub per_type_started: Vec<u64>,
}

impl WorkloadStats {
    fn new(n_types: usize) -> Self {
        WorkloadStats {
            started: 0,
            committed: 0,
            killed: 0,
            data_records: 0,
            commit_latency_ms: Histogram::linear(500.0, 100),
            full_latency_ms: Histogram::geometric(1.0, 120_000.0, 20),
            active: MaxGauge::new(),
            per_type_started: vec![0; n_types],
        }
    }
}

/// Where the workload's nondeterminism comes from.
///
/// The variants differ in size (the live generator owns two RNGs and a
/// picker, the replayer one `Arc`), but a driver holds exactly one
/// `Source` for its whole life — boxing the large variant would buy
/// nothing and cost a pointer chase on the generation hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
enum Source {
    /// RNG-driven generation (the paper's model), optionally capturing.
    Live {
        arrivals: ArrivalProcess,
        rng_mix: SimRng,
        rng_oid: SimRng,
        picker: OidPicker,
        capture: Option<TraceBuilder>,
    },
    /// Replaying a captured trace: no RNG, no picker, no allocation.
    Replay { trace: Arc<WorkloadTrace> },
}

/// The workload driver (see module docs).
#[derive(Clone, Debug)]
pub struct WorkloadDriver {
    mix: TxMix,
    /// Live-only piecewise mix/rate schedule (see [`PhaseSchedule`]).
    /// `None` means the static `mix` for the whole run. Replay drivers
    /// never carry one: captured traces store per-transaction type
    /// indices and arrival times, which already encode the schedule.
    schedule: Option<PhaseSchedule>,
    source: Source,
    /// No arrivals are generated at or after this time.
    horizon: SimTime,
    next_tid: u64,
    active: FxHashMap<Tid, ActiveTxn>,
    stats: WorkloadStats,
    /// When false (replay without an oracle), per-transaction updates are
    /// not recorded and [`Self::on_commit_ack`] returns an empty slice.
    track_updates: bool,
    /// Retired update vectors, reused by later arrivals.
    spare_updates: Vec<Vec<Update>>,
    /// The last acknowledged transaction's updates (borrowed out).
    ack_buf: Vec<Update>,
}

impl WorkloadDriver {
    /// Creates a live driver.
    ///
    /// * `mix` — transaction types and pdf;
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
        let n_types = mix.types().len();
        WorkloadDriver {
            mix,
            schedule: None,
            source: Source::Live {
                arrivals,
                rng_mix: rng.substream("workload/mix"),
                rng_oid: rng.substream("workload/oid"),
                picker: OidPicker::new(num_objects),
                capture: None,
            },
            horizon,
            next_tid: 0,
            active: FxHashMap::default(),
            stats: WorkloadStats::new(n_types),
            track_updates: true,
            spare_updates: Vec::new(),
            ack_buf: Vec::new(),
        }
    }

    /// Creates a replay driver walking `trace`.
    ///
    /// `mix` must be the capture run's mix (type indices and record counts
    /// are resolved against it). `track_updates` keeps per-transaction
    /// update lists for oracle-tracking callers; probe runs pass `false`
    /// and pay no per-update bookkeeping.
    pub fn replay(mix: TxMix, trace: Arc<WorkloadTrace>, track_updates: bool) -> Self {
        let n_types = mix.types().len();
        let horizon = trace.horizon();
        WorkloadDriver {
            mix,
            schedule: None,
            source: Source::Replay { trace },
            horizon,
            next_tid: 0,
            active: FxHashMap::default(),
            stats: WorkloadStats::new(n_types),
            track_updates,
            spare_updates: Vec::new(),
            ack_buf: Vec::new(),
        }
    }

    /// Attaches a phase schedule (live drivers only; must be set before
    /// the first arrival). `None` is a no-op, so callers can pass an
    /// optional config straight through.
    ///
    /// # Panics
    /// Panics on a replay driver, after arrivals have begun, or when the
    /// schedule's type table does not match the base mix.
    pub fn with_phases(mut self, schedule: Option<PhaseSchedule>) -> Self {
        let Some(schedule) = schedule else {
            return self;
        };
        assert!(
            matches!(self.source, Source::Live { .. }),
            "phase schedules apply to live drivers only; replay traces \
             already encode the schedule"
        );
        assert_eq!(self.next_tid, 0, "schedule must be set before arrivals");
        assert!(
            schedule.matches_types(&self.mix),
            "phase schedule type table does not match the base mix"
        );
        self.schedule = Some(schedule);
        self
    }

    /// Starts capturing a [`WorkloadTrace`]. Must be called before the
    /// first arrival; panics on a replay driver.
    pub fn enable_capture(&mut self) {
        assert_eq!(self.next_tid, 0, "capture must start before any arrival");
        match &mut self.source {
            Source::Live { capture, .. } => *capture = Some(TraceBuilder::default()),
            Source::Replay { .. } => panic!("cannot capture while replaying"),
        }
    }

    /// Takes the captured trace, if capture was enabled *and* the run was
    /// kill-free (a killed capture is truncated and unusable — see
    /// [`crate::trace`] module docs).
    pub fn take_trace(&mut self) -> Option<WorkloadTrace> {
        let Source::Live { capture, .. } = &mut self.source else {
            return None;
        };
        let builder = capture.take()?;
        if self.stats.killed > 0 {
            return None;
        }
        Some(builder.finish(self.horizon))
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
        let tid = Tid(self.next_tid);
        let type_idx = match &mut self.source {
            Source::Live {
                arrivals,
                rng_mix,
                capture,
                ..
            } => {
                // Under a phase schedule the active phase's mix is
                // sampled and its rate factor compresses (or stretches)
                // the gap to the next arrival; both are recorded in the
                // capture (type index, arrival times), so replay needs no
                // schedule of its own.
                let (mix_now, rate_factor) = match &self.schedule {
                    Some(s) => {
                        let p = s.phase_at(now);
                        (&p.mix, p.rate_factor)
                    }
                    None => (&self.mix, 1.0),
                };
                let type_idx = mix_now.sample(rng_mix);
                let mut gap = arrivals.next_interval(rng_mix);
                if rate_factor != 1.0 {
                    gap = SimTime::from_secs_f64(gap.as_secs_f64() / rate_factor);
                }
                let next = now + gap;
                if next < self.horizon {
                    events.push((next, WorkloadEvent::Arrival));
                }
                if let Some(b) = capture {
                    b.on_arrival(now, type_idx, self.mix.types()[type_idx].data_records);
                }
                type_idx
            }
            Source::Replay { trace } => {
                let t = trace.txns.get(self.next_tid as usize)?;
                debug_assert_eq!(t.at, now, "replay arrival off schedule");
                if let Some(next) = trace.txns.get(self.next_tid as usize + 1) {
                    events.push((next.at, WorkloadEvent::Arrival));
                }
                t.type_idx as usize
            }
        };
        self.next_tid += 1;
        let ty = self.mix.types()[type_idx];
        for seq in 1..=ty.data_records {
            events.push((
                now + ty.data_write_offset(seq),
                WorkloadEvent::WriteData { tid, seq },
            ));
        }
        events.push((now + ty.duration, WorkloadEvent::WriteCommit { tid }));

        let updates = if self.track_updates {
            self.spare_updates.pop().unwrap_or_default()
        } else {
            Vec::new()
        };
        self.active.insert(
            tid,
            ActiveTxn {
                type_idx,
                started_at: now,
                updates,
                commit_written: None,
            },
        );
        self.stats.started += 1;
        self.stats.per_type_started[type_idx] += 1;
        self.stats.active.set(self.active.len() as u64);
        Some(NewTxn { tid, type_idx })
    }

    /// Handles a data-record write: picks the oid and returns it with the
    /// record size. Returns `None` when the transaction no longer exists
    /// (killed, and the cancellation raced this event).
    pub fn on_write_data(&mut self, now: SimTime, tid: Tid, seq: u32) -> Option<(Oid, u32)> {
        let txn = self.active.get_mut(&tid)?;
        debug_assert!(
            txn.commit_written.is_none(),
            "data write after commit for {tid}"
        );
        let oid = match &mut self.source {
            Source::Live {
                rng_oid,
                picker,
                capture,
                ..
            } => {
                let oid = picker.pick(rng_oid);
                if let Some(b) = capture {
                    b.on_write_data(tid.0 as usize, seq, oid);
                }
                oid
            }
            Source::Replay { trace } => {
                let t = &trace.txns[tid.0 as usize];
                let oid = trace.oids[t.oid_start as usize + seq as usize - 1];
                debug_assert_ne!(oid, UNWRITTEN, "replay delivered an unwritten slot");
                oid
            }
        };
        if self.track_updates {
            txn.updates.push(Update { oid, seq, ts: now });
        }
        self.stats.data_records += 1;
        let size = self.mix.types()[txn.type_idx].record_size;
        Some((oid, size))
    }

    /// Handles the COMMIT-record write (t3). Returns `false` when the
    /// transaction no longer exists.
    pub fn on_write_commit(&mut self, now: SimTime, tid: Tid) -> bool {
        match self.active.get_mut(&tid) {
            Some(txn) => {
                txn.commit_written = Some(now);
                true
            }
            None => false,
        }
    }

    /// Handles the commit acknowledgement (t4): the transaction's oids stop
    /// being "chosen by an active transaction", and its updates are
    /// returned so the caller can feed a committed-state oracle. The slice
    /// is valid until the next driver call (its storage is recycled); it
    /// is empty when updates are not tracked.
    pub fn on_commit_ack(&mut self, now: SimTime, tid: Tid) -> &[Update] {
        self.ack_buf.clear();
        let Some(txn) = self.active.remove(&tid) else {
            return &self.ack_buf;
        };
        if let Source::Live { picker, .. } = &mut self.source {
            picker.release_all(txn.updates.iter().map(|u| u.oid));
        }
        if let Some(t3) = txn.commit_written {
            self.stats
                .commit_latency_ms
                .record(now.saturating_sub(t3).as_micros() as f64 / 1000.0);
        }
        self.stats
            .full_latency_ms
            .record(now.saturating_sub(txn.started_at).as_micros() as f64 / 1000.0);
        self.stats.committed += 1;
        self.stats.active.set(self.active.len() as u64);
        if self.track_updates {
            // Hand the updates out through `ack_buf` and recycle the old
            // buffer, so steady-state acks allocate nothing.
            let old = std::mem::replace(&mut self.ack_buf, txn.updates);
            self.spare_updates.push(old);
        }
        &self.ack_buf
    }

    /// Handles a kill from the log manager: drops the transaction and
    /// releases its oids. The caller is responsible for cancelling the
    /// transaction's still-pending events.
    pub fn on_kill(&mut self, tid: Tid) {
        if let Some(mut txn) = self.active.remove(&tid) {
            if let Source::Live { picker, .. } = &mut self.source {
                picker.release_all(txn.updates.iter().map(|u| u.oid));
            }
            if self.track_updates {
                txn.updates.clear();
                self.spare_updates.push(txn.updates);
            }
            self.stats.killed += 1;
            self.stats.active.set(self.active.len() as u64);
        }
    }

    /// Number of transactions currently between BEGIN and ack.
    pub fn active_txns(&self) -> usize {
        self.active.len()
    }

    /// The updates a live transaction has performed so far (empty when
    /// updates are not tracked).
    pub fn updates_of(&self, tid: Tid) -> Option<&[Update]> {
        self.active.get(&tid).map(|t| t.updates.as_slice())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &WorkloadStats {
        &self.stats
    }

    /// The oid picker (for diagnostics); `None` when replaying.
    pub fn picker(&self) -> Option<&OidPicker> {
        match &self.source {
            Source::Live { picker, .. } => Some(picker),
            Source::Replay { .. } => None,
        }
    }

    /// The configured mix.
    pub fn mix(&self) -> &TxMix {
        &self.mix
    }

    /// The arrival horizon (no arrivals at or after this time).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TxMix;

    fn driver(frac_long: f64, horizon_s: u64) -> WorkloadDriver {
        WorkloadDriver::new(
            TxMix::paper_mix(frac_long),
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
        assert!(d.picker().unwrap().is_held(oid1));

        assert!(d.on_write_commit(SimTime::from_secs(1), tid));
        let updates = d.on_commit_ack(SimTime::from_micros(1_030_000), tid);
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[0].oid, oid1);
        assert!(!d.picker().unwrap().is_held(oid1), "ack releases oids");
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
        assert!(!d.picker().unwrap().is_held(oid));
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
        assert_eq!(d.stats().active.peak(), 50);
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
        assert_eq!(d.updates_of(new.tid).unwrap().len(), 0);
        d.on_write_data(SimTime::from_millis(1), new.tid, 1);
        assert_eq!(d.updates_of(new.tid).unwrap().len(), 1);
        assert!(d.updates_of(Tid(999)).is_none());
    }

    /// Drives `d` through its full event stream with a tiny hand-rolled
    /// event loop (no log manager: acks fire one ε after the commit
    /// write), returning the committed count.
    fn drain(d: &mut WorkloadDriver) -> (u64, Vec<Oid>) {
        let mut queue: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, Tid, u32)>> =
            std::collections::BinaryHeap::new();
        // Kind: 0 arrival, 1 data, 2 commit, 3 ack.
        let mut events = Vec::new();
        let mut oids = Vec::new();
        queue.push(std::cmp::Reverse((SimTime::ZERO, 0, Tid(0), 0)));
        while let Some(std::cmp::Reverse((now, kind, tid, seq))) = queue.pop() {
            match kind {
                0 => {
                    if let Some(new) = d.on_arrival(now, &mut events) {
                        for &(at, ev) in &events {
                            let (k, t, s) = match ev {
                                WorkloadEvent::Arrival => (0, Tid(0), 0),
                                WorkloadEvent::WriteData { tid, seq } => (1, tid, seq),
                                WorkloadEvent::WriteCommit { tid } => (2, tid, 0),
                            };
                            queue.push(std::cmp::Reverse((at, k, t, s)));
                        }
                        let _ = new;
                    }
                }
                1 => {
                    if let Some((oid, _)) = d.on_write_data(now, tid, seq) {
                        oids.push(oid);
                    }
                }
                2 => {
                    if d.on_write_commit(now, tid) {
                        queue.push(std::cmp::Reverse((
                            now + SimTime::from_millis(1),
                            3,
                            tid,
                            0,
                        )));
                    }
                }
                _ => {
                    d.on_commit_ack(now, tid);
                }
            }
        }
        (d.stats().committed, oids)
    }

    #[test]
    fn replay_reproduces_capture_exactly() {
        let mut live = driver(0.3, 5);
        live.enable_capture();
        let (live_committed, live_oids) = drain(&mut live);
        let trace = live.take_trace().expect("kill-free capture");
        assert_eq!(trace.transactions() as u64, live.stats().started);

        let mut rep = WorkloadDriver::replay(TxMix::paper_mix(0.3), Arc::new(trace), true);
        assert!(rep.picker().is_none());
        let (rep_committed, rep_oids) = drain(&mut rep);
        assert_eq!(live_committed, rep_committed);
        assert_eq!(live_oids, rep_oids, "oid stream must replay exactly");
        assert_eq!(live.stats().started, rep.stats().started);
        assert_eq!(live.stats().data_records, rep.stats().data_records);
        assert_eq!(live.stats().per_type_started, rep.stats().per_type_started);
    }

    #[test]
    fn untracked_replay_acks_empty() {
        let mut live = driver(0.0, 2);
        live.enable_capture();
        drain(&mut live);
        let trace = Arc::new(live.take_trace().unwrap());
        let mut rep = WorkloadDriver::replay(TxMix::paper_mix(0.0), trace, false);
        let (new, _) = arrive(&mut rep, SimTime::ZERO).unwrap();
        rep.on_write_data(SimTime::from_millis(500), new.tid, 1);
        assert_eq!(rep.updates_of(new.tid).unwrap().len(), 0, "not tracked");
        rep.on_write_commit(SimTime::from_secs(1), new.tid);
        assert!(rep
            .on_commit_ack(SimTime::from_micros(1_030_000), new.tid)
            .is_empty());
        assert_eq!(rep.stats().committed, 1);
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
    fn phase_schedule_shifts_mix_and_rate() {
        use crate::spec::{Phase, PhaseSchedule};
        // Phase 0 (0–10 s): all-short at base rate. Phase 1 (10 s+):
        // all-long at 2× rate.
        let schedule = PhaseSchedule::new(vec![
            Phase {
                start: SimTime::ZERO,
                mix: TxMix::paper_mix(0.0),
                rate_factor: 1.0,
            },
            Phase {
                start: SimTime::from_secs(10),
                mix: TxMix::paper_mix(1.0),
                rate_factor: 2.0,
            },
        ])
        .unwrap();
        let mut d = WorkloadDriver::new(
            TxMix::paper_mix(0.5),
            ArrivalProcess::Deterministic { rate_tps: 100.0 },
            10_000_000,
            SimTime::from_secs(20),
            &SimRng::new(42),
        )
        .with_phases(Some(schedule));

        let mut events = Vec::new();
        // Phase 0: every arrival is the short type, arrivals 10 ms apart.
        let new = d.on_arrival(SimTime::ZERO, &mut events).unwrap();
        assert_eq!(new.type_idx, 0);
        assert!(events.contains(&(SimTime::from_millis(10), WorkloadEvent::Arrival)));
        // Phase 1: every arrival is the long type, arrivals 5 ms apart
        // (deterministic 100 TPS at factor 2).
        let new = d.on_arrival(SimTime::from_secs(10), &mut events).unwrap();
        assert_eq!(new.type_idx, 1);
        let next = events
            .iter()
            .find_map(|&(t, e)| (e == WorkloadEvent::Arrival).then_some(t))
            .unwrap();
        assert_eq!(next, SimTime::from_secs(10) + SimTime::from_millis(5));
    }

    #[test]
    fn phased_capture_replays_without_schedule() {
        use crate::spec::PhaseSchedule;
        // A drifting capture replayed by a schedule-less replay driver
        // must reproduce the stream exactly: the trace's type indices and
        // arrival times already encode the phases.
        let schedule = PhaseSchedule::parse("0:0.0,2:1.0@2").unwrap();
        let mut live = WorkloadDriver::new(
            TxMix::paper_mix(0.5),
            ArrivalProcess::Deterministic { rate_tps: 50.0 },
            10_000_000,
            SimTime::from_secs(4),
            &SimRng::new(7),
        )
        .with_phases(Some(schedule));
        live.enable_capture();
        let (live_committed, live_oids) = drain(&mut live);
        let trace = live.take_trace().expect("kill-free capture");

        let mut rep = WorkloadDriver::replay(TxMix::paper_mix(0.5), Arc::new(trace), true);
        let (rep_committed, rep_oids) = drain(&mut rep);
        assert_eq!(live_committed, rep_committed);
        assert_eq!(live_oids, rep_oids);
        assert_eq!(live.stats().per_type_started, rep.stats().per_type_started);
        // The drift is visible: both phases produced transactions.
        assert!(live.stats().per_type_started.iter().all(|&n| n > 0));
        // And the 2× phase really accelerated arrivals: 2 s at 50 TPS +
        // 2 s at 100 TPS ≈ 300 starts, not 200.
        assert!(
            live.stats().started > 250,
            "rate factor must raise arrivals, got {}",
            live.stats().started
        );
    }

    #[test]
    #[should_panic(expected = "replay")]
    fn replay_driver_rejects_schedule() {
        use crate::spec::PhaseSchedule;
        let mut live = driver(0.0, 1);
        live.enable_capture();
        drain(&mut live);
        let trace = Arc::new(live.take_trace().unwrap());
        let _ = WorkloadDriver::replay(TxMix::paper_mix(0.0), trace, false)
            .with_phases(Some(PhaseSchedule::parse("0:0.0").unwrap()));
    }

    #[test]
    fn killed_capture_yields_no_trace() {
        let mut d = driver(0.0, 10);
        d.enable_capture();
        let (new, _) = arrive(&mut d, SimTime::ZERO).unwrap();
        d.on_kill(new.tid);
        assert!(d.take_trace().is_none(), "killed run is truncated");
    }
}
