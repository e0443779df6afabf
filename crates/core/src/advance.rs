//! The head side of the log pipeline.
//!
//! §2.1: "Log records at the head of generation i, for i < N−1, are
//! forwarded to the tail of generation i+1 if they must be retained in the
//! log; otherwise, their information is flushed … or simply discarded. In
//! the special case of generation N−1, log records at its head which must
//! be retained are recirculated."
//!
//! §2.2 adds the block mechanics: heads move in block quanta; forwarded
//! records are written immediately, after a *backward gathering* pass that
//! consumes additional head blocks to fill the outgoing buffer; and
//! recirculated records may sit in an unwritten tail buffer because their
//! original copies survive on disk until overwritten.
//!
//! Because cells are unlinked the moment a record becomes garbage, every
//! cell still in a generation list is non-garbage, and the records of the
//! consumed head block are exactly the cells at the list head whose block
//! number matches — the paper's "check if h_i points to its head" test.

use crate::cell::{CellIdx, NIL};
use crate::ltt::TxState;
use crate::manager::ElManager;
use crate::types::Effects;
use elog_model::config::UnflushedAtHead;
use elog_model::{LogRecord, Tid};
use elog_sim::SimTime;

/// A durability hold: blocks of `src_gen` from `src_seq` on may not be
/// reused until `dest_block` of `dest_gen` (the block now carrying their
/// surviving records) is durable. Without this, a crash between a head
/// advance and the completion of the forwarding write could lose records.
#[derive(Clone, Copy, Debug)]
pub struct Hold {
    /// Generation whose consumed blocks are pinned.
    pub src_gen: usize,
    /// Oldest pinned block sequence.
    pub src_seq: u64,
    /// Generation of the write being waited on.
    pub dest_gen: usize,
    /// Block sequence of the write being waited on.
    pub dest_block: u64,
}

impl ElManager {
    /// True when allocating block `seq` in `gi` would reuse a slot still
    /// pinned by a hold.
    pub(crate) fn alloc_violates_hold(&self, gi: usize, seq: u64) -> bool {
        let cap = self.gens[gi].ring.capacity();
        self.holds
            .iter()
            .any(|h| h.src_gen == gi && seq >= h.src_seq + cap)
    }

    /// Restores at least `target` free blocks in generation `gi` by
    /// consuming head blocks — forwarding, recirculating, discarding or
    /// killing as policy dictates.
    pub(crate) fn ensure_gap(&mut self, now: SimTime, gi: usize, target: u64, fx: &mut Effects) {
        let cap = self.gens[gi].ring.capacity();
        let is_last = gi + 1 == self.gens.len();
        let mut consumed = 0u64;
        let mut gathered: Vec<CellIdx> = self.spare_gather.pop().unwrap_or_default();
        let mut gathered_bytes = 0u64;
        let mut src_min: Option<u64> = None;

        while self.gens[gi].ring.free_blocks() < target {
            if self.gens[gi].ring.used_blocks() == 0 {
                break; // nothing left to consume
            }
            if consumed >= cap {
                // We have lapped the generation without restoring the gap:
                // genuine space exhaustion (§2.1: "it may occasionally be
                // necessary to kill a transaction if one of its log records
                // cannot be recirculated because of an absence of space").
                if !self.kill_for_space(now, gi, fx) {
                    break;
                }
                consumed = 0;
            }
            let Some(seq) = self.consume_head_block(gi, &mut gathered, &mut gathered_bytes, fx)
            else {
                break;
            };
            consumed += 1;
            if !gathered.is_empty() {
                src_min = Some(src_min.map_or(seq, |m: u64| m.min(seq)));
                if is_last {
                    // Recirculate immediately into the tail buffer; the
                    // buffer is *not* force-written (§2.2).
                    self.recirc_append(now, gi, &mut gathered, seq, fx);
                    gathered_bytes = 0;
                    src_min = None;
                }
            }
        }

        // Backward gathering (§2.2): fill the buffer destined for the next
        // generation before writing it. Only durable head blocks are eaten
        // beyond necessity, and only while their survivors still fit — an
        // overshoot would spill into a second, mostly-empty immediate
        // write, doubling the next generation's block consumption.
        if !gathered.is_empty() && !is_last {
            let payload = u64::from(self.cfg.log.block_payload);
            while self.cfg.log.gather_to_fill && gathered_bytes < payload {
                let head = self.gens[gi].ring.head();
                if head >= self.gens[gi].ring.tail() {
                    break;
                }
                if self.gens[gi].ring.block(head).is_none() {
                    break; // not yet durable: open or in-flight
                }
                if gathered_bytes + self.survivor_bytes_at(gi, head) > payload {
                    break; // would overflow the outgoing buffer
                }
                let before = gathered.len();
                let Some(seq) = self.consume_head_block(gi, &mut gathered, &mut gathered_bytes, fx)
                else {
                    break;
                };
                if gathered.len() > before {
                    src_min = Some(src_min.map_or(seq, |m: u64| m.min(seq)));
                }
            }
            self.forward_append(now, gi, &gathered, src_min, fx);
        }
        gathered.clear();
        self.spare_gather.push(gathered);
    }

    /// Total accounting bytes of the non-garbage records in block `seq` of
    /// `gi` — the cells at the generation list's head whose block matches.
    fn survivor_bytes_at(&self, gi: usize, seq: u64) -> u64 {
        let mut bytes = 0u64;
        let start = self.gens[gi].h;
        if start == NIL {
            return 0;
        }
        let mut cur = start;
        loop {
            let c = self.arena.get(cur);
            if c.block != seq {
                break;
            }
            bytes += u64::from(c.record.size());
            let (_, right) = c.links().expect("list cell must be linked");
            cur = right;
            if cur == start {
                break;
            }
        }
        bytes
    }

    /// Consumes the block at `gi`'s head, dispatching every non-garbage
    /// record in it. Survivors are unlinked and pushed onto `gathered`
    /// (the caller forwards or recirculates them). Returns the consumed
    /// block's sequence number.
    fn consume_head_block(
        &mut self,
        gi: usize,
        gathered: &mut Vec<CellIdx>,
        gathered_bytes: &mut u64,
        fx: &mut Effects,
    ) -> Option<u64> {
        let seq = self.gens[gi].ring.advance_head()?;
        let is_last = gi + 1 == self.gens.len();
        let no_recirc_last = is_last && !self.cfg.log.recirculation;
        loop {
            let h = self.gens[gi].h;
            if h == NIL {
                break;
            }
            let (block, record) = {
                let c = self.arena.get(h);
                (c.block, c.record)
            };
            if block != seq {
                debug_assert!(block > seq, "cell stranded behind the head");
                break;
            }
            match record {
                LogRecord::Data(d) => {
                    if self.lot.is_committed_cell(d.oid, h) {
                        // Committed but unflushed (§2.2: "a few may reach
                        // the head of a generation and require flushing").
                        if (self.cfg.log.unflushed_at_head == UnflushedAtHead::ForceFlush
                            || no_recirc_last)
                            && self.flush.expedite(d.oid)
                        {
                            self.stats.forced_flushes += 1;
                        }
                        if no_recirc_last {
                            // Nowhere to keep it: drop from the log and rely
                            // on the expedited flush. Counted as unsafe —
                            // zero in all paper-parameter runs.
                            if let Some(cert) = self.cert.as_mut() {
                                // A pending flush was reordered: recorded
                                // stamps beyond here carry the feedback.
                                cert.on_expedite();
                            }
                            self.stats.unsafe_drops += 1;
                            self.unlink_cell(h);
                            continue;
                        }
                        // Otherwise the record survives (default policy:
                        // keep it in the log until the flush happens).
                    } else if no_recirc_last {
                        // Uncommitted record of a live transaction at the
                        // last head with recirculation off: the paper's
                        // kill rule.
                        self.kill_txn(d.tid, fx);
                        continue;
                    }
                }
                LogRecord::Tx(t) => {
                    if no_recirc_last {
                        match self.ltt.get(t.tid).map(|e| e.state) {
                            Some(TxState::Committed) => {
                                // COMMIT record pinned only by unflushed
                                // updates; same unsafe-drop treatment.
                                self.stats.unsafe_drops += 1;
                                self.unlink_cell(h);
                                continue;
                            }
                            Some(_) => {
                                self.kill_txn(t.tid, fx);
                                continue;
                            }
                            None => unreachable!("linked tx cell without LTT entry"),
                        }
                    }
                }
            }
            // Survivor: unlink and hand to the caller.
            self.unlink_cell(h);
            gathered.push(h);
            *gathered_bytes += u64::from(record.size());
        }
        Some(seq)
    }

    /// Forwards `cells` to generation `gi + 1`, writing immediately, and
    /// pins the consumed source blocks until that write is durable.
    fn forward_append(
        &mut self,
        now: SimTime,
        gi: usize,
        cells: &[CellIdx],
        src_min: Option<u64>,
        fx: &mut Effects,
    ) {
        if cells.is_empty() {
            return;
        }
        for &c in cells {
            if !self.arena.is_live(c) {
                continue; // died in transit (space-pressure kill)
            }
            let size = u64::from(self.arena.get(c).record.size());
            self.stats.forwarded_records += 1;
            self.stats.forwarded_bytes += size;
        }
        let appended = self.append_cells(now, gi + 1, cells, true, fx);
        if appended > 0 {
            if let Some(src_seq) = src_min {
                // The batch was just sealed; the newest allocation of the
                // destination generation carries its final records.
                let dest_block = self.gens[gi + 1].ring.tail().saturating_sub(1);
                self.holds.push(Hold {
                    src_gen: gi,
                    src_seq,
                    dest_gen: gi + 1,
                    dest_block,
                });
            }
        }
    }

    /// Recirculates `cells` within the last generation `gi` using a
    /// *relaxed* append: tail blocks are allocated without re-entering gap
    /// maintenance (the enclosing `ensure_gap` loop owns that), and the
    /// buffer is left open — the original copies remain readable on disk
    /// until overwritten, which the hold records.
    fn recirc_append(
        &mut self,
        now: SimTime,
        gi: usize,
        cells: &mut Vec<CellIdx>,
        src_seq: u64,
        fx: &mut Effects,
    ) {
        let payload_cap = self.cfg.log.block_payload;
        for cell in cells.drain(..) {
            if !self.arena.is_live(cell) {
                continue; // died in transit (space-pressure kill)
            }
            let size = self.arena.get(cell).record.size();
            let mut spins = 0u32;
            loop {
                spins += 1;
                assert!(spins < 1_000, "recirculation wedged in generation {gi}");
                match &self.gens[gi].open {
                    None => {
                        let Some(addr) = self.gens[gi].ring.allocate_tail() else {
                            // Full even of survivors: kill and retry.
                            if !self.kill_for_space(now, gi, fx) {
                                panic!("generation {gi} wedged: no space and nothing to kill");
                            }
                            continue;
                        };
                        self.install_open(now, gi, addr, fx);
                    }
                    Some(b) if b.free_bytes(payload_cap) < size => {
                        self.seal_open(now, gi, fx);
                    }
                    Some(_) => break,
                }
            }
            if !self.arena.is_live(cell) {
                continue; // killed while we made space for it
            }
            let (dest_block, record) = self.link_into_open(gi, cell);
            self.stats.recirculated_records += 1;
            self.stats.recirculated_bytes += u64::from(record.size());
            self.holds.push(Hold {
                src_gen: gi,
                src_seq,
                dest_gen: gi,
                dest_block,
            });
        }
    }

    /// Kills one transaction to relieve space pressure in `gi`: the owner
    /// of the oldest killable (active/committing) record. Falls back to
    /// force-dropping the head block when every record belongs to a
    /// committed transaction (flush backlog). Returns `true` on progress.
    pub(crate) fn kill_for_space(&mut self, now: SimTime, gi: usize, fx: &mut Effects) -> bool {
        let mut cur = self.gens[gi].h;
        if cur != NIL {
            let start = cur;
            loop {
                let tid = self.arena.get(cur).record.tid();
                let killable = matches!(
                    self.ltt.get(tid).map(|e| e.state),
                    Some(TxState::Active) | Some(TxState::Committing { .. })
                );
                if killable {
                    self.kill_txn(tid, fx);
                    return true;
                }
                cur = self.arena.right_of(cur);
                if cur == start {
                    break;
                }
            }
        }
        self.force_drop_head_block(now, gi)
    }

    /// Last resort under flush backlog: drops every record of the head
    /// block, expediting flushes for the committed updates among them.
    /// Each drop is counted as unsafe.
    fn force_drop_head_block(&mut self, now: SimTime, gi: usize) -> bool {
        let _ = now;
        let Some(seq) = self.gens[gi].ring.advance_head() else {
            return false;
        };
        if gi + 1 == self.gens.len() {
            if let Some(cert) = self.cert.as_mut() {
                cert.on_expedite();
            }
        }
        loop {
            let h = self.gens[gi].h;
            if h == NIL {
                break;
            }
            let (block, record) = {
                let c = self.arena.get(h);
                (c.block, c.record)
            };
            if block != seq {
                break;
            }
            if let LogRecord::Data(d) = record {
                if self.flush.expedite(d.oid) {
                    self.stats.forced_flushes += 1;
                }
            }
            self.stats.unsafe_drops += 1;
            self.unlink_cell(h);
        }
        true
    }

    /// Kills a transaction: drops all its records and notifies the host.
    pub(crate) fn kill_txn(&mut self, tid: Tid, fx: &mut Effects) {
        if self.drop_transaction(tid) {
            self.stats.kills += 1;
            if let Some(l) = self.ledger.as_mut() {
                l.on_kill(tid);
            }
            fx.kills.push(tid);
            self.update_memory();
        }
    }
}
