//! The log manager: Ephemeral Logging and the firewall baseline.
//!
//! One struct implements both techniques, because — as the paper frames it —
//! FW *is* the degenerate EL geometry: a single generation with no
//! recirculation, where a record reaching the head while its transaction is
//! still active forces a System-R-style kill. The differences are captured
//! entirely by [`ElConfig`]'s geometry: the generation list and the
//! recirculation flag. Even the memory pricing is read off it
//! ([`LogConfig::is_firewall`](elog_model::LogConfig::is_firewall)).
//!
//! The manager is a passive state machine under a virtual clock: every
//! public method takes `now` and returns [`Effects`] — timers the host must
//! schedule and notifications (acks, kills) it must deliver. The companion
//! modules implement the two halves of the disk pipeline:
//!
//! * [`crate::append`] — tail side: buffers, group commit, durable installs;
//! * [`crate::advance`] — head side: gap maintenance, forwarding with
//!   backward gathering, recirculation, kill policies.

use crate::advance::Hold;
use crate::cell::{CellArena, CellIdx, NIL};
use crate::lot::Lot;
use crate::ltt::{Ltt, TxState};
use crate::metrics::LmMetrics;
use crate::types::{
    Effects, ElConfig, LmStats, LmTimer, EL_BYTES_PER_OBJECT, EL_BYTES_PER_TXN, FW_BYTES_PER_TXN,
};
use elog_dbdisk::{FlushArray, Submitted};
use elog_model::config::ConfigError;
use elog_model::{
    DataRecord, InstallLog, LogRecord, ObjectVersion, Oid, StableDb, Tid, TxMark, TxRecord,
    BLOCK_PAYLOAD_BYTES, TX_RECORD_SIZE,
};
use elog_sim::FxHashMap;
use elog_sim::{Histogram, SimTime};
use elog_storage::{Block, BlockRing, LogDevice};

/// Per-generation state.
pub(crate) struct Gen {
    /// The circular disk array.
    pub ring: BlockRing,
    /// h_i: cell of the non-garbage record nearest the head ([`NIL`] when
    /// the generation holds no non-garbage records).
    pub h: CellIdx,
    /// The buffer currently accepting records, if any.
    pub open: Option<Block>,
    /// Buffer writes in flight.
    pub inflight_buffers: u32,
}

/// A sealed buffer whose device write is in progress.
pub(crate) struct Inflight {
    pub gen: usize,
    pub block: Block,
}

/// The log manager (see module docs).
pub struct ElManager {
    pub(crate) cfg: ElConfig,
    pub(crate) arena: CellArena,
    pub(crate) lot: Lot,
    pub(crate) ltt: Ltt,
    pub(crate) gens: Vec<Gen>,
    pub(crate) device: LogDevice,
    pub(crate) flush: FlushArray,
    pub(crate) stable: InstallLog,
    pub(crate) holds: Vec<Hold>,
    pub(crate) inflight: FxHashMap<u64, Inflight>,
    pub(crate) next_write_id: u64,
    /// (generation, block seq) → transactions whose COMMIT rides in it.
    pub(crate) pending_commits: FxHashMap<(usize, u64), Vec<Tid>>,
    /// Peak memory-model bytes.
    pub(crate) peak_memory: u64,
    pub(crate) stats: LmStats,
    pub(crate) started_at: SimTime,
    /// Age (ms) of data records at the moment they become garbage —
    /// flushed or superseded updates. The adaptive controller
    /// (`crate::adaptive`) sizes the last generation from its windowed
    /// upper quantile.
    pub(crate) garbage_age_ms: Histogram,
    /// Scratch buffers reused across commit/abort processing so the
    /// per-transaction hot paths stay allocation-free at steady state.
    scratch_oids: Vec<Oid>,
    scratch_cells: Vec<CellIdx>,
    /// Recycled [`Effects`] (one event is in flight at a time, so a single
    /// spare covers the event loop).
    spare_fx: Option<Effects>,
    /// Record vectors of retired blocks, reused when a buffer opens.
    pub(crate) spare_records: Vec<Vec<LogRecord>>,
    /// Tid vectors of drained `pending_commits` entries.
    pub(crate) spare_tids: Vec<Vec<Tid>>,
    /// Gather buffers for [`crate::advance`]'s head maintenance (a pool,
    /// not a single scratch: forwarding re-enters gap maintenance in the
    /// next generation).
    pub(crate) spare_gather: Vec<Vec<CellIdx>>,
    /// Consumption-certificate recording, when armed (see [`crate::cert`]).
    pub(crate) cert: Option<Box<crate::cert::CertLog>>,
    /// Per-tenant accounting, when serving multiple tenants (see
    /// [`crate::tenant`]). Strictly observational — never consulted by any
    /// manager decision.
    pub(crate) ledger: Option<crate::tenant::TenantLedger>,
}

impl ElManager {
    /// Builds a manager from a validated configuration.
    pub fn new(cfg: ElConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let gens = cfg
            .log
            .generation_blocks
            .iter()
            .enumerate()
            .map(|(i, &blocks)| Gen {
                ring: BlockRing::new(elog_model::GenId(i as u8), u64::from(blocks)),
                h: NIL,
                open: None,
                inflight_buffers: 0,
            })
            .collect::<Vec<_>>();
        let device = LogDevice::new(gens.len());
        let flush = FlushArray::new(&cfg.flush, cfg.db.num_objects);
        Ok(ElManager {
            cfg,
            arena: CellArena::new(),
            lot: Lot::new(),
            ltt: Ltt::new(),
            gens,
            device,
            flush,
            stable: InstallLog::new(),
            holds: Vec::new(),
            inflight: FxHashMap::default(),
            next_write_id: 0,
            pending_commits: FxHashMap::default(),
            peak_memory: 0,
            stats: LmStats::default(),
            started_at: SimTime::ZERO,
            // 0–60 s in 250 ms buckets covers both paper transaction types.
            garbage_age_ms: Histogram::linear(60_000.0, 240),
            scratch_oids: Vec::new(),
            scratch_cells: Vec::new(),
            spare_fx: None,
            spare_records: Vec::new(),
            spare_tids: Vec::new(),
            spare_gather: Vec::new(),
            cert: None,
            ledger: None,
        })
    }

    /// A cleared [`Effects`], reusing the recycled one when available.
    pub(crate) fn fresh_fx(&mut self) -> Effects {
        self.spare_fx.take().unwrap_or_default()
    }

    /// An empty [`Block`] at `addr`, backed by a recycled record vector
    /// when one is available.
    pub(crate) fn fresh_block(&mut self, addr: elog_storage::BlockAddr) -> Block {
        Block::recycled(addr, self.spare_records.pop().unwrap_or_default())
    }

    /// Reclaims a retired block's record storage.
    pub(crate) fn recycle_block(&mut self, mut block: Block) {
        block.records.clear();
        self.spare_records.push(block.records);
    }

    /// Takes a drained [`Effects`] back for reuse (see
    /// [`crate::LogManager::recycle`]).
    pub fn recycle_fx(&mut self, mut fx: Effects) {
        fx.clear();
        self.spare_fx = Some(fx);
    }

    /// Convenience: an EL manager with paper-default database and flush
    /// parameters.
    pub fn ephemeral(log: elog_model::LogConfig, flush: elog_model::FlushConfig) -> Self {
        Self::new(ElConfig::ephemeral(log, flush)).expect("paper defaults are valid")
    }

    /// Convenience: the FW baseline with a `blocks`-block log.
    pub fn firewall(blocks: u32, flush: elog_model::FlushConfig) -> Self {
        Self::new(ElConfig::firewall(blocks, flush)).expect("paper defaults are valid")
    }

    // ------------------------------------------------------------------
    // Public API: the transaction-facing operations
    // ------------------------------------------------------------------

    /// Registers a new transaction and logs its BEGIN record (§2.3).
    pub fn begin(&mut self, now: SimTime, tid: Tid) -> Effects {
        self.begin_in(now, tid, 0)
    }

    /// Registers a new transaction whose records go directly to the tail
    /// of generation `home_gen` — the paper's §6 lifetime-hint extension:
    /// "Rather than letting the transaction's records progress through
    /// successively older generations, it directly adds the transaction's
    /// log records to the tail of a generation in which the records are
    /// unlikely to reach the head before the transaction finishes."
    ///
    /// # Panics
    /// Panics when `home_gen` is out of range.
    pub fn begin_in(&mut self, now: SimTime, tid: Tid, home_gen: usize) -> Effects {
        assert!(
            home_gen < self.gens.len(),
            "generation {home_gen} out of range"
        );
        let mut fx = self.fresh_fx();
        let record = LogRecord::Tx(TxRecord {
            tid,
            mark: TxMark::Begin,
            ts: now,
            size: TX_RECORD_SIZE,
        });
        let cell = self.arena.alloc(record, home_gen as u8, 0);
        self.ltt.begin(tid, cell);
        self.ltt.get_mut(tid).expect("just inserted").home_gen = home_gen as u8;
        if let Some(l) = self.ledger.as_mut() {
            l.on_begin(tid);
        }
        self.append_cells(now, home_gen, &[cell], false, &mut fx);
        self.update_memory();
        fx
    }

    /// Picks the generation whose observed wrap time exceeds
    /// `expected_duration`, for use with [`ElManager::begin_in`]. Falls
    /// back to the last generation for very long transactions and to
    /// generation 0 before any wrap statistics exist.
    pub fn pick_generation_for(&self, now: SimTime, expected_duration: SimTime) -> usize {
        let elapsed = now.saturating_sub(self.started_at).as_secs_f64();
        if elapsed <= 0.0 {
            return 0;
        }
        for gi in 0..self.gens.len() {
            let writes = self.device.stats(gi).writes;
            if writes == 0 {
                // No traffic yet: an empty generation wraps "never".
                return gi;
            }
            let rate = writes as f64 / elapsed; // blocks/s
            let wrap_secs = self.gens[gi].ring.capacity() as f64 / rate;
            if wrap_secs > expected_duration.as_secs_f64() * 1.5 {
                return gi;
            }
        }
        self.gens.len() - 1
    }

    /// Logs a data record: transaction `tid` updated `oid` (its `seq`-th
    /// update), producing a REDO record of `size` accounting bytes.
    ///
    /// Writes from unknown or non-active (killed, aborted) transactions are
    /// ignored and counted in `ignored_writes`. The tid is the host's
    /// input: the harness's workload driver drops a killed transaction's
    /// writes before they get here, but another host need not.
    pub fn write_data(&mut self, now: SimTime, tid: Tid, oid: Oid, seq: u32, size: u32) -> Effects {
        let mut fx = self.fresh_fx();
        assert!(
            size > 0 && size <= BLOCK_PAYLOAD_BYTES,
            "record size {size} outside (0, {BLOCK_PAYLOAD_BYTES}]"
        );
        let home_gen = match self.ltt.get(tid) {
            Some(e) if e.state == TxState::Active => e.home_gen as usize,
            _ => {
                self.stats.ignored_writes += 1;
                return fx;
            }
        };
        let record = LogRecord::Data(DataRecord {
            tid,
            oid,
            seq,
            ts: now,
            size,
        });
        let cell = self.arena.alloc(record, home_gen as u8, 0);
        self.lot.insert_uncommitted(oid, tid, cell);
        self.ltt.add_oid(tid, oid);
        if let Some(l) = self.ledger.as_mut() {
            l.on_data_write(tid);
        }
        self.append_cells(now, home_gen, &[cell], false, &mut fx);
        self.update_memory();
        fx
    }

    /// Logs the COMMIT record (t3). The commit point is the durability of
    /// this record; the acknowledgement surfaces later in
    /// [`Effects::acks`] when its buffer's write completes.
    ///
    /// Footnote 4 of the paper: the transaction's single tx-record cell is
    /// updated to point at the newest tx record and moved to the tail of
    /// generation 0's list; the BEGIN record thereby becomes garbage.
    pub fn commit_request(&mut self, now: SimTime, tid: Tid) -> Effects {
        let mut fx = self.fresh_fx();
        let Some(entry) = self.ltt.get(tid) else {
            self.stats.ignored_writes += 1;
            return fx;
        };
        if entry.state != TxState::Active {
            self.stats.ignored_writes += 1;
            return fx;
        }
        let cell = entry.tx_cell;
        let home_gen = entry.home_gen as usize;
        // Move the tx cell: unlink from wherever the BEGIN record sits.
        self.unlink_cell(cell);
        self.arena.get_mut(cell).record = LogRecord::Tx(TxRecord {
            tid,
            mark: TxMark::Commit,
            ts: now,
            size: TX_RECORD_SIZE,
        });
        self.append_cells(now, home_gen, &[cell], false, &mut fx);
        // Making space for the COMMIT record can kill transactions — and
        // under extreme pressure the committing transaction itself. In
        // that case its cell was freed and the kill already reported;
        // there is nothing left to acknowledge.
        if !self.arena.is_live(cell) || !self.ltt.contains(tid) {
            return fx;
        }
        let block = self.arena.get(cell).block;
        self.ltt.get_mut(tid).expect("checked above").state = TxState::Committing {
            commit_block: block,
            requested_at: now,
        };
        let spare = &mut self.spare_tids;
        self.pending_commits
            .entry((home_gen, block))
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(tid);
        fx
    }

    /// Aborts a transaction: all of its records become garbage at once
    /// (§2.3 — no abort record needs to be logged under REDO-only rules;
    /// recovery treats missing-COMMIT as aborted).
    pub fn abort(&mut self, _now: SimTime, tid: Tid) -> Effects {
        let fx = self.fresh_fx();
        match self.ltt.get(tid).map(|e| e.state) {
            Some(TxState::Committed) | None => {
                self.stats.ignored_writes += 1;
            }
            Some(_) => {
                self.drop_transaction(tid);
                self.stats.aborts += 1;
                self.update_memory();
            }
        }
        fx
    }

    /// Handles a timer previously emitted in [`Effects::timers`].
    pub fn handle_timer(&mut self, now: SimTime, timer: LmTimer) -> Effects {
        let mut fx = self.fresh_fx();
        match timer {
            LmTimer::BufferWrite { gen, write_id } => {
                self.on_buffer_write_complete(now, gen, write_id, &mut fx);
            }
            LmTimer::FlushDone { drive } => {
                self.on_flush_complete(now, drive, &mut fx);
            }
            LmTimer::GroupCommitTimeout { gen, block_seq } => {
                let stale = match &self.gens[gen].open {
                    Some(b) => b.addr.seq != block_seq || b.is_empty(),
                    None => true,
                };
                if !stale {
                    self.seal_open(now, gen, &mut fx);
                }
            }
        }
        fx
    }

    /// Force-writes every open buffer (end-of-run quiescing, so trailing
    /// COMMIT records become durable and acknowledged).
    pub fn quiesce(&mut self, now: SimTime) -> Effects {
        let mut fx = self.fresh_fx();
        for gi in 0..self.gens.len() {
            if self.gens[gi].open.as_ref().is_some_and(|b| !b.is_empty()) {
                self.seal_open(now, gi, &mut fx);
            }
        }
        fx
    }

    // ------------------------------------------------------------------
    // Commit / flush plumbing
    // ------------------------------------------------------------------

    /// Called when the block carrying COMMIT records becomes durable.
    pub(crate) fn finalize_commit(&mut self, now: SimTime, tid: Tid, fx: &mut Effects) {
        let Some(entry) = self.ltt.get_mut(tid) else {
            return; // killed while committing
        };
        if !matches!(entry.state, TxState::Committing { .. }) {
            return;
        }
        entry.state = TxState::Committed;
        if let Some(cert) = self.cert.as_mut() {
            cert.on_commit(tid);
        }
        // Scratch buffers (taken to appease the borrow checker) make the
        // per-commit loop allocation-free at steady state.
        let mut oids = std::mem::take(&mut self.scratch_oids);
        oids.clear();
        oids.extend(entry.oids.iter().copied());
        let mut garbage = std::mem::take(&mut self.scratch_cells);
        for &oid in &oids {
            garbage.clear();
            let Some(promoted) = self.lot.commit_object_into(oid, tid, &mut garbage) else {
                continue;
            };
            for &g in &garbage {
                let rec = self.arena.get(g).record;
                let owner = rec.tid();
                self.garbage_age_ms
                    .record(now.saturating_sub(rec.ts()).as_micros() as f64 / 1000.0);
                self.unlink_cell(g);
                self.arena.free(g);
                if let Some(l) = self.ledger.as_mut() {
                    l.on_data_free(owner, true);
                }
                if owner != tid && self.ltt.remove_oid(owner, oid) {
                    self.finish_ltt_entry(owner);
                }
            }
            let rec = self.arena.get(promoted).record;
            let LogRecord::Data(d) = rec else {
                unreachable!("promoted cell must be a data record")
            };
            self.submit_flush(
                now,
                oid,
                ObjectVersion {
                    tid,
                    seq: d.seq,
                    ts: d.ts,
                },
                fx,
            );
        }
        self.scratch_cells = garbage;
        self.scratch_oids = oids;
        self.stats.acks += 1;
        fx.acks.push(tid);
        if self.ltt.get(tid).expect("present").oids.is_empty() {
            self.finish_ltt_entry(tid);
        }
        self.update_memory();
    }

    pub(crate) fn submit_flush(
        &mut self,
        now: SimTime,
        oid: Oid,
        version: ObjectVersion,
        fx: &mut Effects,
    ) {
        match self.flush.submit(now, oid, version) {
            Submitted::Started { drive, done_at } => {
                fx.timers.push((done_at, LmTimer::FlushDone { drive }));
            }
            Submitted::Queued { .. } | Submitted::Replaced { .. } => {}
        }
    }

    fn on_flush_complete(&mut self, now: SimTime, drive: usize, fx: &mut Effects) {
        let ((oid, version), next) = self.flush.complete(now, drive);
        if let Some(done_at) = next {
            fx.timers.push((done_at, LmTimer::FlushDone { drive }));
        }
        self.stable.install(oid, version);
        if let Some(cidx) = self.lot.committed_cell(oid) {
            let rec = self.arena.get(cidx).record;
            if rec.tid() == version.tid && rec.ts() == version.ts {
                self.garbage_age_ms
                    .record(now.saturating_sub(rec.ts()).as_micros() as f64 / 1000.0);
                self.lot.flush_done(oid, cidx);
                self.unlink_cell(cidx);
                self.arena.free(cidx);
                if let Some(l) = self.ledger.as_mut() {
                    l.on_data_free(version.tid, true);
                }
                if self.ltt.remove_oid(version.tid, oid) {
                    self.finish_ltt_entry(version.tid);
                }
            }
        }
        self.update_memory();
    }

    /// Disposes a finished committed transaction: its tx-record cell is
    /// garbage and the LTT entry is removed (§2.3 closing rule).
    pub(crate) fn finish_ltt_entry(&mut self, tid: Tid) {
        let entry = self.ltt.remove(tid).expect("finish of unknown txn");
        if let Some(l) = self.ledger.as_mut() {
            l.on_ltt_removed(tid);
        }
        debug_assert_eq!(entry.state, TxState::Committed);
        debug_assert!(entry.oids.is_empty());
        self.unlink_cell(entry.tx_cell);
        self.arena.free(entry.tx_cell);
    }

    /// Removes a transaction and all its non-garbage records (abort/kill).
    /// Returns `false` for unknown transactions.
    pub(crate) fn drop_transaction(&mut self, tid: Tid) -> bool {
        let Some(entry) = self.ltt.remove(tid) else {
            return false;
        };
        debug_assert!(
            !matches!(entry.state, TxState::Committed),
            "cannot drop a committed transaction"
        );
        let mut cells = std::mem::take(&mut self.scratch_cells);
        for &oid in entry.oids.iter() {
            cells.clear();
            self.lot.remove_uncommitted_of(oid, tid, &mut cells);
            for &cell in &cells {
                self.unlink_cell(cell);
                self.arena.free(cell);
                if let Some(l) = self.ledger.as_mut() {
                    l.on_data_free(tid, false);
                }
            }
        }
        self.scratch_cells = cells;
        self.unlink_cell(entry.tx_cell);
        self.arena.free(entry.tx_cell);
        if let Some(l) = self.ledger.as_mut() {
            l.on_ltt_removed(tid);
        }
        true
    }

    // ------------------------------------------------------------------
    // Shared helpers
    // ------------------------------------------------------------------

    /// Unlinks a cell from its generation's list if it is linked.
    pub(crate) fn unlink_cell(&mut self, idx: CellIdx) {
        let (gen, linked) = {
            let c = self.arena.get(idx);
            (c.gen as usize, c.is_linked())
        };
        if linked {
            let mut h = self.gens[gen].h;
            self.arena.unlink(&mut h, idx);
            self.gens[gen].h = h;
            if gen + 1 == self.gens.len() {
                if let Some(cert) = self.cert.as_mut() {
                    cert.on_unlink(idx);
                }
            }
        }
    }

    /// Raises the memory peak to the current table sizes, after a change.
    pub(crate) fn update_memory(&mut self) {
        let bytes = if self.cfg.log.is_firewall() {
            FW_BYTES_PER_TXN * self.ltt.len() as u64
        } else {
            EL_BYTES_PER_TXN * self.ltt.len() as u64 + EL_BYTES_PER_OBJECT * self.lot.len() as u64
        };
        self.peak_memory = self.peak_memory.max(bytes);
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The configuration in force.
    pub fn config(&self) -> &ElConfig {
        &self.cfg
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &LmStats {
        &self.stats
    }

    /// A metrics snapshot as of `now` (see [`LmMetrics`]).
    pub fn metrics(&self, now: SimTime) -> LmMetrics {
        LmMetrics::capture(self, now)
    }

    /// The stable database (flushed versions).
    pub fn stable_db(&self) -> &StableDb {
        self.stable.db()
    }

    /// The flush array (locality and utilisation statistics).
    pub fn flush_array(&self) -> &FlushArray {
        &self.flush
    }

    /// The log device (bandwidth statistics).
    pub fn log_device(&self) -> &LogDevice {
        &self.device
    }

    /// Current LTT size (transactions in the system).
    pub fn ltt_len(&self) -> usize {
        self.ltt.len()
    }

    /// Current LOT size (updated-but-unflushed objects).
    pub fn lot_len(&self) -> usize {
        self.lot.len()
    }

    /// Peak memory-model bytes.
    pub fn peak_memory_bytes(&self) -> u64 {
        self.peak_memory
    }

    /// Arms per-tenant accounting: tids are attributed to one of `tenants`
    /// tenants by `tid >> tid_shift` (see [`crate::tenant`]). The ledger
    /// is observational only; arming it cannot change any run's outcome.
    pub fn enable_tenant_ledger(&mut self, tenants: usize, tid_shift: u32) {
        self.ledger = Some(crate::tenant::TenantLedger::new(tenants, tid_shift));
    }

    /// The per-tenant ledger, when armed.
    pub fn tenant_ledger(&self) -> Option<&crate::tenant::TenantLedger> {
        self.ledger.as_ref()
    }

    /// Rebinds the last generation to a new capacity (see
    /// [`elog_storage::BlockRing::set_capacity`] for the legality
    /// conditions). The stored configuration is updated so metrics and
    /// validation reflect the new geometry.
    pub fn set_last_gen_capacity(&mut self, blocks: u32) {
        let last = self.gens.len() - 1;
        self.gens[last].ring.set_capacity(u64::from(blocks));
        self.cfg.log.generation_blocks[last] = blocks;
    }

    /// Blocks of the last generation spanning its live window: from the
    /// block of the oldest non-garbage record to the tail, zero when the
    /// generation lists no records. This — not
    /// [`elog_storage::BlockRing::used_blocks`], which the demand-driven
    /// head advance parks at `capacity − gap` regardless of what the
    /// blocks hold — is the depth a capacity shrink must preserve.
    pub fn last_gen_live_blocks(&self) -> u64 {
        let g = self.gens.last().expect("at least one generation");
        if g.h == NIL {
            return 0;
        }
        g.ring.tail().saturating_sub(self.arena.get(g.h).block)
    }

    /// Shrinks the last generation toward `blocks`. The ring's head sits
    /// wherever demand last pushed it, so `used_blocks` alone would
    /// forbid almost any shrink; instead this first consumes the durable
    /// all-garbage head prefix (cells are unlinked the moment a record
    /// becomes garbage, so a head block with no listed cell at its
    /// sequence holds nothing worth keeping), then rebinds the ring to
    /// the smallest legal capacity at or above `blocks` that still
    /// leaves the gap margin. Returns the capacity actually set —
    /// possibly larger than asked when live records are in the way, and
    /// never larger than the current capacity.
    pub fn shrink_last_gen_capacity(&mut self, blocks: u32) -> u32 {
        let last = self.gens.len() - 1;
        let gap = u64::from(self.cfg.log.gap_blocks);
        let want = u64::from(blocks).max(1);
        while self.gens[last].ring.used_blocks() + gap > want {
            let g = &self.gens[last];
            let head = g.ring.head();
            if head >= g.ring.tail() || g.ring.block(head).is_none() {
                break; // empty window, or open/in-flight at the head
            }
            if g.h != NIL && self.arena.get(g.h).block <= head {
                break; // the oldest live record sits in the head block
            }
            self.gens[last].ring.advance_head();
        }
        let used = self.gens[last].ring.used_blocks();
        let cur = self.gens[last].ring.capacity();
        let target = want.max(used + gap).min(cur);
        if target < cur {
            self.gens[last].ring.set_capacity(target);
            self.cfg.log.generation_blocks[last] =
                u32::try_from(target).expect("shrink target below a u32 capacity");
        }
        self.cfg.log.generation_blocks[last]
    }

    /// The crash-surface of the log: every physically durable block of
    /// every generation, for the recovery manager. Open and in-flight
    /// buffers are *not* included — exactly what a crash would destroy.
    pub fn log_surface(&self) -> Vec<Vec<Block>> {
        self.gens
            .iter()
            .map(|g| g.ring.surface().cloned().collect())
            .collect()
    }

    /// Checks cross-structure invariants; panics on violation. O(cells) —
    /// test and debugging aid, not for hot paths.
    pub fn check_invariants(&self) {
        for g in &self.gens {
            self.arena.check_list(g.h);
        }
        // Every LOT/LTT-referenced cell is live; counts agree with arena.
        let table_cells = self.lot.total_cells() + self.ltt.len();
        assert_eq!(
            table_cells,
            self.arena.live(),
            "cells referenced by tables ({table_cells}) != live cells ({})",
            self.arena.live()
        );
        self.flush.check_invariants();
    }
}
