//! The tail side of the log pipeline: buffers, group commit, installs.
//!
//! §2.2: "The LM has a pool of buffers, each of size B bytes. At any given
//! time, there is a current buffer for generation 0. New log records are
//! added to this buffer until it is full, at which time it is written to
//! disk and a different buffer becomes the current buffer." And §3: "The
//! simulator uses the group commit technique; a log record is not written
//! to disk until its buffer is as full as possible."
//!
//! Block positions are promised at buffer-open time (§2.3: "Even though the
//! LM has not yet written the buffer to disk, it knows the position of the
//! disk block to which it will eventually be written"), which is what lets
//! cells point at their blocks immediately.

use crate::cell::CellIdx;
use crate::ltt::TxState;
use crate::manager::{ElManager, Inflight};
use crate::types::{Effects, LmTimer};
use elog_model::LogRecord;
use elog_sim::SimTime;
use elog_storage::BlockAddr;

impl ElManager {
    /// Appends `cells`' records to generation `gi`'s tail, linking each
    /// cell into the generation list and stamping its block position.
    ///
    /// With `immediate = true` (forwarded batches) every buffer touched is
    /// written at once — "the LM must ensure that the forwarded records are
    /// immediately written to disk" (§2.2). Otherwise buffers seal only
    /// when the next record does not fit (group commit).
    ///
    /// Cells that died in transit (their transaction was killed by nested
    /// gap maintenance after they were gathered) are skipped. Returns the
    /// number of records actually appended.
    pub(crate) fn append_cells(
        &mut self,
        now: SimTime,
        gi: usize,
        cells: &[CellIdx],
        immediate: bool,
        fx: &mut Effects,
    ) -> usize {
        let mut appended = 0;
        for &cell in cells {
            if !self.arena.is_live(cell) {
                continue;
            }
            let size = self.arena.get(cell).record.size();
            debug_assert!(size <= self.cfg.log.block_payload);
            let mut attempts = 0u32;
            loop {
                match &self.gens[gi].open {
                    None => {
                        // Re-check after opening: gap maintenance may fill
                        // (and seal) the new buffer with recirculated
                        // records before we can use it. If that keeps
                        // happening the generation is saturated with
                        // non-garbage records — genuine space exhaustion —
                        // and transactions must be killed to let the
                        // incoming record land (§2.1's "absence of space").
                        attempts += 1;
                        if attempts > 8 {
                            assert!(attempts < 1_024, "append wedged in generation {gi}");
                            self.kill_for_space(now, gi, fx);
                        }
                        self.open_buffer(now, gi, fx);
                    }
                    Some(b) if b.free_bytes(self.cfg.log.block_payload) < size => {
                        self.seal_open(now, gi, fx);
                    }
                    Some(_) => break,
                }
            }
            if !self.arena.is_live(cell) {
                // Killed by gap maintenance while we were opening a buffer.
                continue;
            }
            let (seq, record) = self.link_into_open(gi, cell);
            if gi + 1 == self.gens.len() && self.cert.is_some() {
                let (tid, data, committed) = match record {
                    LogRecord::Data(d) => (d.tid, true, self.lot.is_committed_cell(d.oid, cell)),
                    LogRecord::Tx(t) => {
                        let state = self.ltt.get(t.tid).map(|e| e.state);
                        (t.tid, false, matches!(state, Some(TxState::Committed)))
                    }
                };
                if let Some(cert) = self.cert.as_mut() {
                    cert.on_append(cell, seq, tid, data, committed);
                }
            }
            appended += 1;
        }
        if immediate && self.gens[gi].open.as_ref().is_some_and(|b| !b.is_empty()) {
            self.seal_open(now, gi, fx);
        }
        appended
    }

    /// Opens a new tail buffer for `gi`: allocates its block position and
    /// restores the head/tail gap (§2.2: "the LM continues to ensure that
    /// there is always enough of a gap between the head and the tail of
    /// every generation").
    pub(crate) fn open_buffer(&mut self, now: SimTime, gi: usize, fx: &mut Effects) {
        if self.gens[gi].ring.free_blocks() == 0 {
            // Desperate minimum: one block to allocate into.
            self.ensure_gap(now, gi, 1, fx);
        }
        let addr = match self.gens[gi].ring.allocate_tail() {
            Some(a) => a,
            None => {
                // Still full after maintenance: space exhaustion. Kill for
                // space and retry once; give up loudly if that fails too.
                self.kill_for_space(now, gi, fx);
                self.ensure_gap(now, gi, 1, fx);
                self.gens[gi]
                    .ring
                    .allocate_tail()
                    .expect("generation wedged: cannot allocate after kill")
            }
        };
        self.install_open(now, gi, addr, fx);
        // Maintain the full k-block gap now that the buffer exists (the
        // recirculation path may append into it while we do).
        let k = u64::from(self.cfg.log.gap_blocks);
        self.ensure_gap(now, gi, k, fx);
    }

    /// Makes the block just allocated at `addr` generation `gi`'s open
    /// buffer and arms its group-commit timer. Reusing a slot a hold still
    /// pins counts as a durability violation.
    pub(crate) fn install_open(
        &mut self,
        now: SimTime,
        gi: usize,
        addr: BlockAddr,
        fx: &mut Effects,
    ) {
        if self.alloc_violates_hold(gi, addr.seq) {
            self.stats.durability_violations += 1;
        }
        if gi + 1 == self.gens.len() {
            if let Some(cert) = self.cert.as_mut() {
                cert.on_alloc(addr.seq);
            }
        }
        let block = self.fresh_block(addr);
        self.gens[gi].open = Some(block);
        if let Some(timeout) = self.cfg.group_commit_timeout {
            fx.timers.push((
                now + timeout,
                LmTimer::GroupCommitTimeout {
                    gen: gi,
                    block_seq: addr.seq,
                },
            ));
        }
    }

    /// Links live `cell` at the tail of generation `gi`'s list, stamped
    /// with the open buffer's block, and adds its record to that buffer.
    /// Returns the block's sequence number and the record.
    pub(crate) fn link_into_open(&mut self, gi: usize, cell: CellIdx) -> (u64, LogRecord) {
        let gen = &mut self.gens[gi];
        let open = gen.open.as_mut().expect("open buffer present");
        let seq = open.addr.seq;
        let c = self.arena.get_mut(cell);
        c.gen = gi as u8;
        c.block = seq;
        let record = c.record;
        self.arena.push_tail(&mut gen.h, cell);
        open.push(record, self.cfg.log.block_payload);
        (seq, record)
    }

    /// Seals the open buffer of `gi` and starts its device write.
    pub(crate) fn seal_open(&mut self, now: SimTime, gi: usize, fx: &mut Effects) {
        let Some(block) = self.gens[gi].open.take() else {
            return;
        };
        debug_assert!(!block.is_empty(), "sealing an empty buffer wastes a block");
        let write_id = self.next_write_id;
        self.next_write_id += 1;
        let done_at = self.device.begin_write(now, gi, block.payload_used);
        self.gens[gi].inflight_buffers += 1;
        // The pool has `buffers_per_generation` buffers; one is the (future)
        // open buffer, the rest absorb in-flight writes.
        if self.gens[gi].inflight_buffers >= self.cfg.log.buffers_per_generation {
            self.stats.buffer_stalls += 1;
        }
        self.inflight.insert(write_id, Inflight { gen: gi, block });
        fx.timers
            .push((done_at, LmTimer::BufferWrite { gen: gi, write_id }));
    }

    /// Completes a buffer write: the block becomes durable, holds pinned on
    /// it release, and COMMIT records it carries become acknowledgeable.
    pub(crate) fn on_buffer_write_complete(
        &mut self,
        now: SimTime,
        gen: usize,
        write_id: u64,
        fx: &mut Effects,
    ) {
        let Inflight { gen: g, mut block } = self
            .inflight
            .remove(&write_id)
            .expect("completion for unknown write");
        debug_assert_eq!(g, gen);
        block.written_at = now;
        let seq = block.addr.seq;
        if let Some(displaced) = self.gens[gen].ring.install(block) {
            self.recycle_block(displaced);
        }
        self.gens[gen].inflight_buffers -= 1;
        self.device.complete_write(gen);
        self.holds
            .retain(|h| !(h.dest_gen == gen && h.dest_block == seq));
        if let Some(mut tids) = self.pending_commits.remove(&(gen, seq)) {
            for &tid in &tids {
                self.finalize_commit(now, tid, fx);
            }
            tids.clear();
            self.spare_tids.push(tids);
        }
    }
}
