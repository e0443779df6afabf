//! The EL–FW hybrid of the paper's §6.
//!
//! "Like EL, the log is segmented into a chain of FIFO queues. Like FW, a
//! firewall is maintained for each queue; the oldest non-garbage record in
//! a queue is its firewall. Now, the LM retains a pointer to only the
//! oldest log record from each transaction. This can drastically reduce
//! main memory consumption if each transaction updates many objects, but
//! at a price of higher bandwidth. When a transaction's oldest non-garbage
//! log record reaches the head of one queue, all of its log records must
//! be regenerated and added to the tail of the next queue because the LM
//! does not have pointers to know their whereabouts in the current queue."
//!
//! The trade against full EL:
//! * memory — one anchor per transaction instead of a cell per non-garbage
//!   record plus LOT/LTT entries;
//! * bandwidth — an anchor reaching a head drags the transaction's *whole*
//!   record set to the next queue, garbage and all, because per-record
//!   knowledge was given up.
//!
//! The implementation reuses the storage/dbdisk substrates but none of the
//! EL bookkeeping: no cells, no LOT, just a per-queue anchor index
//! (`BTreeMap<block, Vec<Tid>>`) and per-transaction record lists in RAM
//! (regeneration reads RAM, never the log device — same write-only-log
//! discipline as EL).

use crate::types::{Effects, LmTimer};
use elog_dbdisk::{FlushArray, Submitted};
use elog_model::config::ConfigError;
use elog_model::{
    DataRecord, DbConfig, FlushConfig, InstallLog, LogConfig, LogRecord, ObjectVersion, Oid,
    StableDb, Tid, TxMark, TxRecord,
};
use elog_sim::FxHashMap;
use elog_sim::{MaxGauge, SimTime};
use elog_storage::{Block, BlockRing, LogDevice};
use std::collections::BTreeMap;

/// Memory price per transaction under the hybrid: the anchor pointer plus
/// the FW-style entry — we charge the same 40 bytes as an EL LTT entry,
/// and crucially *nothing per object*, which is where §6's "drastic"
/// saving comes from.
pub const HYBRID_BYTES_PER_TXN: u64 = 40;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum HTxState {
    Active,
    Committing,
    Committed,
}

struct HTxn {
    /// Every record the transaction has written, in order (RAM copy used
    /// for regeneration).
    records: Vec<LogRecord>,
    /// Queue currently holding the transaction's records.
    queue: usize,
    /// Block of its oldest record there (the anchor).
    anchor: u64,
    state: HTxState,
    /// Outstanding flushes after commit; the entry is disposed at zero.
    unflushed: u32,
}

struct HQueue {
    ring: BlockRing,
    open: Option<Block>,
    /// Anchor block → transactions anchored there.
    anchors: BTreeMap<u64, Vec<Tid>>,
}

/// Counters specific to the hybrid.
#[derive(Clone, Debug, Default)]
pub struct HybridStats {
    /// Transactions whose record sets were regenerated into the next queue.
    pub regenerations: u64,
    /// Records rewritten by regeneration (the bandwidth price).
    pub regenerated_records: u64,
    /// Space-pressure kills.
    pub kills: u64,
    /// Commit acknowledgements.
    pub acks: u64,
}

/// The hybrid log manager. API mirrors [`crate::ElManager`].
pub struct HybridManager {
    db: DbConfig,
    log: LogConfig,
    queues: Vec<HQueue>,
    device: LogDevice,
    flush: FlushArray,
    stable: InstallLog,
    txns: FxHashMap<Tid, HTxn>,
    inflight: FxHashMap<u64, (usize, Block)>,
    next_write_id: u64,
    pending_commits: FxHashMap<(usize, u64), Vec<Tid>>,
    mem: MaxGauge,
    stats: HybridStats,
    started_at: SimTime,
    /// Recycled [`Effects`] (one event is in flight at a time, so a single
    /// spare covers the event loop).
    spare_fx: Option<Effects>,
}

impl HybridManager {
    /// Builds a hybrid manager over the same configuration surface as EL.
    pub fn new(db: DbConfig, log: LogConfig, flush: FlushConfig) -> Result<Self, ConfigError> {
        log.validate()?;
        flush.validate()?;
        let queues = log
            .generation_blocks
            .iter()
            .enumerate()
            .map(|(i, &blocks)| HQueue {
                ring: BlockRing::new(elog_model::GenId(i as u8), u64::from(blocks)),
                open: None,
                anchors: BTreeMap::new(),
            })
            .collect::<Vec<_>>();
        let device = LogDevice::new(log.disk_write_latency, queues.len());
        let flush_array = FlushArray::new(&flush, db.num_objects);
        Ok(HybridManager {
            db,
            log,
            queues,
            device,
            flush: flush_array,
            stable: InstallLog::new(),
            txns: FxHashMap::default(),
            inflight: FxHashMap::default(),
            next_write_id: 0,
            pending_commits: FxHashMap::default(),
            mem: MaxGauge::new(),
            stats: HybridStats::default(),
            started_at: SimTime::ZERO,
            spare_fx: None,
        })
    }

    /// A cleared [`Effects`], reusing the recycled one when available.
    fn fresh_fx(&mut self) -> Effects {
        self.spare_fx.take().unwrap_or_default()
    }

    /// Takes a drained [`Effects`] back for reuse (see
    /// [`crate::LogManager::recycle`]).
    pub fn recycle_fx(&mut self, mut fx: Effects) {
        fx.clear();
        self.spare_fx = Some(fx);
    }

    // ---------------------------------------------------------------
    // Transaction-facing API
    // ---------------------------------------------------------------

    /// BEGIN: anchors the transaction at its first record's block.
    pub fn begin(&mut self, now: SimTime, tid: Tid) -> Effects {
        let mut fx = self.fresh_fx();
        let record = LogRecord::Tx(TxRecord {
            tid,
            mark: TxMark::Begin,
            ts: now,
            size: self.db.tx_record_size,
        });
        let block = self.append(now, 0, record, false, &mut fx);
        let prev = self.txns.insert(
            tid,
            HTxn {
                records: vec![record],
                queue: 0,
                anchor: block,
                state: HTxState::Active,
                unflushed: 0,
            },
        );
        assert!(prev.is_none(), "duplicate BEGIN for {tid}");
        self.queues[0].anchors.entry(block).or_default().push(tid);
        self.update_memory();
        fx
    }

    /// Data record (REDO image of one update).
    pub fn write_data(&mut self, now: SimTime, tid: Tid, oid: Oid, seq: u32, size: u32) -> Effects {
        let mut fx = self.fresh_fx();
        let Some(txn) = self.txns.get(&tid) else {
            return fx;
        };
        if txn.state != HTxState::Active {
            return fx;
        }
        let queue = txn.queue;
        let record = LogRecord::Data(DataRecord {
            tid,
            oid,
            seq,
            ts: now,
            size,
        });
        self.append(now, queue, record, false, &mut fx);
        // The append's own space-pressure kill may have taken this very
        // transaction; only record the write if it survived.
        if let Some(txn) = self.txns.get_mut(&tid) {
            txn.records.push(record);
        }
        fx
    }

    /// COMMIT request; acknowledged when the buffer is durable.
    pub fn commit_request(&mut self, now: SimTime, tid: Tid) -> Effects {
        let mut fx = self.fresh_fx();
        let Some(txn) = self.txns.get(&tid) else {
            return fx;
        };
        if txn.state != HTxState::Active {
            return fx;
        }
        let queue = txn.queue;
        let record = LogRecord::Tx(TxRecord {
            tid,
            mark: TxMark::Commit,
            ts: now,
            size: self.db.tx_record_size,
        });
        let block = self.append(now, queue, record, false, &mut fx);
        if let Some(txn) = self.txns.get_mut(&tid) {
            txn.records.push(record);
            txn.state = HTxState::Committing;
            self.pending_commits
                .entry((queue, block))
                .or_default()
                .push(tid);
        }
        fx
    }

    /// Abort: the whole transaction becomes garbage at once.
    pub fn abort(&mut self, _now: SimTime, tid: Tid) -> Effects {
        let fx = self.fresh_fx();
        if self
            .txns
            .get(&tid)
            .is_some_and(|t| t.state != HTxState::Committed)
        {
            self.dispose(tid);
            self.update_memory();
        }
        fx
    }

    /// Timer dispatch (buffer writes and flush completions).
    pub fn handle_timer(&mut self, now: SimTime, timer: LmTimer) -> Effects {
        let mut fx = self.fresh_fx();
        match timer {
            LmTimer::BufferWrite { gen, write_id } => {
                let (q, mut block) = self
                    .inflight
                    .remove(&write_id)
                    .expect("unknown write completion");
                debug_assert_eq!(q, gen);
                block.written_at = now;
                let seq = block.addr.seq;
                let _retired = self.queues[gen].ring.install(block);
                self.device.complete_write(gen);
                if let Some(tids) = self.pending_commits.remove(&(gen, seq)) {
                    for tid in tids {
                        self.finalize_commit(now, tid, &mut fx);
                    }
                }
            }
            LmTimer::FlushDone { drive } => {
                let ((oid, version), next) = self.flush.complete(now, drive);
                if let Some(done_at) = next {
                    fx.timers.push((done_at, LmTimer::FlushDone { drive }));
                }
                self.stable.install(oid, version);
                self.note_flush_settled(version.tid);
            }
            LmTimer::GroupCommitTimeout { .. } => {}
        }
        fx
    }

    /// Force-writes open buffers.
    pub fn quiesce(&mut self, now: SimTime) -> Effects {
        let mut fx = self.fresh_fx();
        for qi in 0..self.queues.len() {
            if self.queues[qi].open.as_ref().is_some_and(|b| !b.is_empty()) {
                self.seal(now, qi, &mut fx);
            }
        }
        fx
    }

    // ---------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------

    fn finalize_commit(&mut self, now: SimTime, tid: Tid, fx: &mut Effects) {
        let Some(txn) = self.txns.get_mut(&tid) else {
            return; // killed while committing
        };
        if txn.state != HTxState::Committing {
            return;
        }
        txn.state = HTxState::Committed;
        // Newest update per oid gets flushed.
        let mut newest: FxHashMap<Oid, ObjectVersion> = FxHashMap::default();
        for r in &txn.records {
            if let LogRecord::Data(d) = r {
                let v = ObjectVersion {
                    tid,
                    seq: d.seq,
                    ts: d.ts,
                };
                match newest.get_mut(&d.oid) {
                    Some(e) if e.ts >= v.ts => {}
                    Some(e) => *e = v,
                    None => {
                        newest.insert(d.oid, v);
                    }
                }
            }
        }
        let mut ordered: Vec<(Oid, ObjectVersion)> = newest.into_iter().collect();
        ordered.sort_unstable_by_key(|(oid, _)| *oid); // deterministic submit order
        self.txns.get_mut(&tid).expect("present").unflushed = ordered.len() as u32;
        for (oid, version) in ordered {
            match self.flush.submit(now, oid, version) {
                Submitted::Started { drive, done_at } => {
                    fx.timers.push((done_at, LmTimer::FlushDone { drive }));
                }
                Submitted::Queued { .. } => {}
                Submitted::Replaced { superseded, .. } => {
                    // The superseded pending write belonged to an earlier
                    // transaction; its flush will now never complete.
                    self.note_flush_settled(superseded.tid);
                }
            }
        }
        self.stats.acks += 1;
        fx.acks.push(tid);
        if self.txns.get(&tid).expect("present").unflushed == 0 {
            self.dispose(tid);
        }
        self.update_memory();
    }

    /// One of `tid`'s committed updates no longer needs the log (flushed,
    /// or superseded by a newer pending flush).
    fn note_flush_settled(&mut self, tid: Tid) {
        if let Some(txn) = self.txns.get_mut(&tid) {
            if txn.state == HTxState::Committed {
                txn.unflushed = txn.unflushed.saturating_sub(1);
                if txn.unflushed == 0 {
                    self.dispose(tid);
                    self.update_memory();
                }
            }
        }
    }

    fn dispose(&mut self, tid: Tid) {
        if let Some(txn) = self.txns.remove(&tid) {
            let q = &mut self.queues[txn.queue];
            if let Some(v) = q.anchors.get_mut(&txn.anchor) {
                v.retain(|&t| t != tid);
                if v.is_empty() {
                    q.anchors.remove(&txn.anchor);
                }
            }
        }
    }

    /// Appends one record to queue `qi`, returning its block seq.
    fn append(
        &mut self,
        now: SimTime,
        qi: usize,
        record: LogRecord,
        immediate: bool,
        fx: &mut Effects,
    ) -> u64 {
        let size = record.size();
        let payload = self.log.block_payload;
        let mut spins = 0;
        loop {
            spins += 1;
            assert!(spins < 1_024, "hybrid queue {qi} wedged");
            match &self.queues[qi].open {
                None => self.open_buffer(now, qi, fx),
                Some(b) if b.free_bytes(payload) < size => self.seal(now, qi, fx),
                Some(_) => break,
            }
        }
        let block = {
            let open = self.queues[qi].open.as_mut().expect("open after loop");
            open.push(record, payload);
            open.addr.seq
        };
        if immediate {
            self.seal(now, qi, fx);
        }
        block
    }

    fn open_buffer(&mut self, now: SimTime, qi: usize, fx: &mut Effects) {
        let k = u64::from(self.log.gap_blocks);
        self.ensure_space(now, qi, 1.max(k), fx);
        let addr = self.queues[qi]
            .ring
            .allocate_tail()
            .expect("space ensured before allocation");
        self.queues[qi].open = Some(Block::new(addr));
    }

    fn seal(&mut self, now: SimTime, qi: usize, fx: &mut Effects) {
        let Some(block) = self.queues[qi].open.take() else {
            return;
        };
        if block.is_empty() {
            return;
        }
        let write_id = self.next_write_id;
        self.next_write_id += 1;
        let done_at = self.device.begin_write(now, qi, block.payload_used);
        self.inflight.insert(write_id, (qi, block));
        fx.timers
            .push((done_at, LmTimer::BufferWrite { gen: qi, write_id }));
    }

    /// Advances queue `qi`'s head until at least `target` blocks are free,
    /// regenerating (or killing) anchored transactions in its way.
    fn ensure_space(&mut self, now: SimTime, qi: usize, target: u64, fx: &mut Effects) {
        let cap = self.queues[qi].ring.capacity();
        let mut consumed = 0u64;
        while self.queues[qi].ring.free_blocks() < target {
            if self.queues[qi].ring.used_blocks() == 0 {
                break;
            }
            if consumed >= cap {
                // Lapped without progress: space exhaustion — kill the
                // oldest anchored active transaction.
                let victim = self.queues[qi]
                    .anchors
                    .values()
                    .flat_map(|v| v.iter().copied())
                    .find(|t| {
                        self.txns
                            .get(t)
                            .is_some_and(|x| x.state != HTxState::Committed)
                    });
                match victim {
                    Some(tid) => {
                        self.dispose(tid);
                        self.stats.kills += 1;
                        fx.kills.push(tid);
                        self.update_memory();
                        consumed = 0;
                    }
                    None => break,
                }
            }
            let Some(seq) = self.queues[qi].ring.advance_head() else {
                break;
            };
            consumed += 1;
            if let Some(tids) = self.queues[qi].anchors.remove(&seq) {
                for tid in tids {
                    self.relocate(now, qi, tid, fx);
                }
            }
        }
    }

    /// Moves a transaction whose anchor reached queue `qi`'s head: all its
    /// records are regenerated into the next queue (recirculated in the
    /// last one), or the transaction is killed if it is active at the last
    /// head without recirculation.
    fn relocate(&mut self, now: SimTime, qi: usize, tid: Tid, fx: &mut Effects) {
        let Some(txn) = self.txns.get(&tid) else {
            return;
        };
        let is_last = qi + 1 == self.queues.len();
        if is_last && !self.log.recirculation && txn.state != HTxState::Committed {
            self.dispose(tid);
            self.stats.kills += 1;
            fx.kills.push(tid);
            self.update_memory();
            return;
        }
        let dest = if is_last { qi } else { qi + 1 };
        let records = txn.records.clone();
        self.stats.regenerations += 1;
        let mut anchor = None;
        for r in &records {
            let block = self.append(now, dest, *r, false, fx);
            anchor.get_or_insert(block);
            self.stats.regenerated_records += 1;
        }
        // Forwarded batches are written immediately, as in EL.
        if dest != qi {
            self.seal(now, dest, fx);
        }
        let anchor = anchor.expect("a transaction always has its BEGIN record");
        if let Some(txn) = self.txns.get_mut(&tid) {
            txn.queue = dest;
            txn.anchor = anchor;
            self.queues[dest]
                .anchors
                .entry(anchor)
                .or_default()
                .push(tid);
        }
    }

    fn update_memory(&mut self) {
        self.mem.set(HYBRID_BYTES_PER_TXN * self.txns.len() as u64);
    }

    // ---------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------

    /// Hybrid-specific counters.
    pub fn stats(&self) -> &HybridStats {
        &self.stats
    }

    /// Peak memory under the hybrid pricing (bytes).
    pub fn peak_memory_bytes(&self) -> u64 {
        self.mem.peak()
    }

    /// Total log-block writes per second over `elapsed`.
    pub fn log_write_rate(&self, now: SimTime) -> f64 {
        self.device
            .total_write_rate(now.saturating_sub(self.started_at))
    }

    /// Total completed log-block writes.
    pub fn log_writes(&self) -> u64 {
        self.device.total_writes()
    }

    /// The stable database.
    pub fn stable_db(&self) -> &StableDb {
        self.stable.db()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimpleHost;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn hybrid(blocks: Vec<u32>, recirc: bool) -> HybridManager {
        let log = LogConfig {
            generation_blocks: blocks,
            recirculation: recirc,
            ..LogConfig::default()
        };
        HybridManager::new(DbConfig::default(), log, FlushConfig::default()).unwrap()
    }

    #[test]
    fn commit_and_flush_lifecycle() {
        let mut h = SimpleHost::new(hybrid(vec![8, 8], false));
        h.begin(t(0), Tid(1));
        h.write(t(1), Tid(1), Oid(1_000_000), 1, 100);
        h.write(t(2), Tid(1), Oid(5_000_000), 2, 100);
        h.commit(t(3), Tid(1));
        h.quiesce(t(4));
        h.run_to_completion();
        assert_eq!(h.acks, vec![Tid(1)]);
        assert_eq!(h.lm.stable_db().len(), 2);
        assert_eq!(h.lm.txns.len(), 0, "fully flushed txn disposed");
        assert_eq!(h.lm.peak_memory_bytes(), HYBRID_BYTES_PER_TXN);
    }

    #[test]
    fn abort_leaves_no_trace() {
        let mut h = SimpleHost::new(hybrid(vec![8, 8], false));
        h.begin(t(0), Tid(1));
        h.write(t(1), Tid(1), Oid(7), 1, 100);
        h.abort(t(2), Tid(1));
        h.quiesce(t(3));
        h.run_to_completion();
        assert!(h.lm.stable_db().is_empty());
        assert_eq!(h.lm.txns.len(), 0);
    }

    #[test]
    #[allow(clippy::explicit_counter_loop)]
    fn anchor_relocation_regenerates_all_records() {
        // A long transaction's anchor at queue 0's head drags every record
        // to queue 1 — including records physically in younger blocks.
        let mut h = SimpleHost::new(hybrid(vec![3, 24], false));
        h.begin(t(0), Tid(999));
        h.write(t(1), Tid(999), Oid(1), 1, 100);

        // Push ~8 blocks of short-transaction traffic through queue 0.
        let mut tid = 0u64;
        for burst in 0..30 {
            let at = t(10 + burst * 10);
            h.begin(at, Tid(tid));
            for r in 0..3u32 {
                let oid = ((tid * 3 + u64::from(r)) * 997_003) % 10_000_000;
                h.write(at + t(1), Tid(tid), Oid(oid), r + 1, 100);
            }
            h.commit(at + t(5), Tid(tid));
            tid += 1;
        }
        h.commit(t(500), Tid(999));
        h.quiesce(t(501));
        h.run_to_completion();

        assert!(
            h.acks.contains(&Tid(999)),
            "long txn survives via regeneration"
        );
        assert!(h.lm.stats().regenerations > 0);
        assert!(
            h.lm.stats().regenerated_records >= 2 * h.lm.stats().regenerations,
            "each regeneration rewrites the whole record set"
        );
        assert!(h.kills.is_empty());
    }

    #[test]
    #[allow(clippy::explicit_counter_loop)]
    fn no_recirc_last_queue_kills_active_anchor() {
        let mut h = SimpleHost::new(hybrid(vec![3, 3], false));
        h.begin(t(0), Tid(999));
        h.write(t(1), Tid(999), Oid(1), 1, 100);
        let mut tid = 0u64;
        for burst in 0..150 {
            let at = t(10 + burst * 10);
            h.begin(at, Tid(tid));
            for r in 0..3u32 {
                let oid = ((tid * 3 + u64::from(r)) * 997_003) % 10_000_000;
                h.write(at + t(1), Tid(tid), Oid(oid), r + 1, 100);
            }
            h.commit(at + t(5), Tid(tid));
            tid += 1;
        }
        h.quiesce(t(2000));
        h.run_to_completion();
        assert!(
            h.kills.contains(&Tid(999)),
            "6-block hybrid log must kill it"
        );
    }

    #[test]
    fn memory_is_per_transaction_only() {
        // A transaction with many updates costs the same as one with one
        // update — the hybrid's whole selling point.
        let mut small = SimpleHost::new(hybrid(vec![16, 16], false));
        small.begin(t(0), Tid(1));
        small.write(t(1), Tid(1), Oid(1), 1, 100);

        let mut big = SimpleHost::new(hybrid(vec![16, 16], false));
        big.begin(t(0), Tid(1));
        for i in 0..15u32 {
            big.write(
                t(1 + u64::from(i)),
                Tid(1),
                Oid(u64::from(i) * 500_000),
                i + 1,
                100,
            );
        }
        assert_eq!(small.lm.peak_memory_bytes(), big.lm.peak_memory_bytes());
    }
}
