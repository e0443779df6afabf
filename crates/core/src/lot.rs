//! The Logged Object Table (LOT).
//!
//! §2.3: "The LOT is accessed associatively by object identifiers (oids).
//! Like the LTT, it is implemented as a hash table with chaining. An
//! object's LOT entry has one or more cells, each of which points to the
//! disk block of a non-garbage data log record for the object. An object
//! has a cell for the most recently committed update (if any) if this
//! update has not yet been flushed; it may have several cells for
//! uncommitted updates."
//!
//! "Several" is rare: an entry keeps its first uncommitted cell in place
//! ([`InlineVec`]), so the insert/prune cycle — once per data record —
//! allocates nothing, however many entries a flush backlog keeps alive.

use crate::cell::CellIdx;
use crate::inlinevec::InlineVec;
use elog_model::{Oid, Tid};
use elog_sim::FxHashMap;

/// One object's entry: its non-garbage data-record cells.
#[derive(Debug, Default)]
struct LotEntry {
    /// Cell of the most recently committed, not-yet-flushed update.
    committed: Option<CellIdx>,
    /// Cells of uncommitted updates, `(owner tid, cell)`, oldest first.
    uncommitted: InlineVec<(Tid, CellIdx), 1>,
}

impl LotEntry {
    fn is_empty(&self) -> bool {
        self.committed.is_none() && self.uncommitted.is_empty()
    }
}

/// The logged object table.
#[derive(Debug, Default)]
pub struct Lot {
    map: FxHashMap<Oid, LotEntry>,
    peak_len: usize,
}

impl Lot {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of objects with non-garbage data records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no object is tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Greatest entry count ever reached (memory accounting).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Registers a new uncommitted update's cell (a data record just
    /// entered the log). Creates the entry on first touch.
    pub fn insert_uncommitted(&mut self, oid: Oid, tid: Tid, cell: CellIdx) {
        let entry = self.map.entry(oid).or_default();
        entry.uncommitted.push((tid, cell));
        self.peak_len = self.peak_len.max(self.map.len());
    }

    /// Processes `tid`'s commit for `oid` (§2.3): the transaction's newest
    /// update becomes the committed-unflushed one and is the return value;
    /// the previously committed cell and older same-transaction updates
    /// become garbage, *appended* to `garbage` (the caller clears it,
    /// unlinks and frees the cells, and notifies their owners' LTT
    /// entries). The commit hot path calls this once per object of every
    /// committing transaction; reusing one buffer keeps it allocation-free.
    ///
    /// Returns `None` when the transaction has no uncommitted update of the
    /// object (caller bug or already-processed oid).
    pub fn commit_object_into(
        &mut self,
        oid: Oid,
        tid: Tid,
        garbage: &mut Vec<CellIdx>,
    ) -> Option<CellIdx> {
        let entry = self.map.get_mut(&oid)?;
        // The uncommitted list is oldest-first, so this transaction's
        // newest update is its last occurrence.
        let promoted = entry
            .uncommitted
            .iter()
            .rev()
            .find_map(|&(t, c)| (t == tid).then_some(c))?;
        entry.uncommitted.retain(|&(t, c)| {
            if t == tid {
                if c != promoted {
                    garbage.push(c); // older update by the same transaction
                }
                false
            } else {
                true
            }
        });
        if let Some(old) = entry.committed.replace(promoted) {
            // Previous committed-unflushed update is superseded; the caller
            // updates its owner's LTT entry using the cell's record.
            garbage.push(old);
        }
        Some(promoted)
    }

    /// Removes *every* uncommitted cell of `tid` on `oid` in one pass
    /// (abort/kill path), appending the removed cells to `removed`.
    /// Prunes empty entries.
    pub fn remove_uncommitted_of(&mut self, oid: Oid, tid: Tid, removed: &mut Vec<CellIdx>) {
        let Some(entry) = self.map.get_mut(&oid) else {
            return;
        };
        entry.uncommitted.retain(|&(t, c)| {
            if t == tid {
                removed.push(c);
                false
            } else {
                true
            }
        });
        if entry.is_empty() {
            self.map.remove(&oid);
        }
    }

    /// Clears the committed-unflushed cell after its flush completes
    /// (§2.3: "After the LM flushes an update … the record is garbage").
    /// Returns the cell if `cell` still is the committed one; prunes empty
    /// entries.
    pub fn flush_done(&mut self, oid: Oid, cell: CellIdx) -> Option<CellIdx> {
        let entry = self.map.get_mut(&oid)?;
        if entry.committed != Some(cell) {
            return None;
        }
        entry.committed = None;
        let out = Some(cell);
        if entry.is_empty() {
            self.map.remove(&oid);
        }
        out
    }

    /// Is `cell` the committed-unflushed cell of `oid`?
    pub fn is_committed_cell(&self, oid: Oid, cell: CellIdx) -> bool {
        self.map
            .get(&oid)
            .is_some_and(|e| e.committed == Some(cell))
    }

    /// The committed-unflushed cell of `oid`, if any.
    pub fn committed_cell(&self, oid: Oid) -> Option<CellIdx> {
        self.map.get(&oid).and_then(|e| e.committed)
    }

    /// Total number of cells referenced by the table (invariant checks).
    pub fn total_cells(&self) -> usize {
        self.map
            .values()
            .map(|e| e.uncommitted.len() + usize::from(e.committed.is_some()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const O: Oid = Oid(7);

    /// Commits `tid`'s update of [`O`]: the promoted cell and the garbage.
    fn commit(lot: &mut Lot, tid: Tid) -> Option<(CellIdx, Vec<CellIdx>)> {
        let mut garbage = Vec::new();
        let promoted = lot.commit_object_into(O, tid, &mut garbage)?;
        Some((promoted, garbage))
    }

    #[test]
    fn lifecycle_single_txn() {
        let mut lot = Lot::new();
        lot.insert_uncommitted(O, Tid(1), 10);
        assert_eq!(lot.len(), 1);
        assert!(!lot.is_committed_cell(O, 10));

        assert_eq!(commit(&mut lot, Tid(1)), Some((10, vec![])));
        assert!(lot.is_committed_cell(O, 10));

        assert_eq!(lot.flush_done(O, 10), Some(10));
        assert!(lot.is_empty(), "entry pruned after flush");
    }

    #[test]
    fn commit_supersedes_previous_committed() {
        let mut lot = Lot::new();
        lot.insert_uncommitted(O, Tid(1), 10);
        commit(&mut lot, Tid(1));
        lot.insert_uncommitted(O, Tid(2), 20);
        assert_eq!(commit(&mut lot, Tid(2)), Some((20, vec![10])));
        assert!(lot.is_committed_cell(O, 20));
        assert_eq!(lot.total_cells(), 1);
    }

    #[test]
    fn same_txn_multiple_updates_newest_wins() {
        let mut lot = Lot::new();
        lot.insert_uncommitted(O, Tid(1), 10);
        lot.insert_uncommitted(O, Tid(1), 11);
        lot.insert_uncommitted(O, Tid(1), 12);
        assert_eq!(commit(&mut lot, Tid(1)), Some((12, vec![10, 11])));
    }

    #[test]
    fn commit_leaves_other_txns_updates() {
        let mut lot = Lot::new();
        lot.insert_uncommitted(O, Tid(1), 10);
        lot.insert_uncommitted(O, Tid(2), 20);
        assert_eq!(commit(&mut lot, Tid(1)), Some((10, vec![])));
        assert_eq!(lot.committed_cell(O), Some(10));
        // Tid 2's update is still uncommitted, and the only one.
        assert_eq!(lot.total_cells(), 2);
        let mut removed = Vec::new();
        lot.remove_uncommitted_of(O, Tid(2), &mut removed);
        assert_eq!(removed, vec![20]);
    }

    #[test]
    fn commit_without_update_is_none() {
        let mut lot = Lot::new();
        assert!(commit(&mut lot, Tid(1)).is_none());
        lot.insert_uncommitted(O, Tid(2), 20);
        assert!(commit(&mut lot, Tid(1)).is_none());
    }

    #[test]
    fn remove_uncommitted_prunes() {
        let mut lot = Lot::new();
        lot.insert_uncommitted(O, Tid(1), 10);
        lot.insert_uncommitted(O, Tid(1), 11);
        let mut removed = Vec::new();
        lot.remove_uncommitted_of(O, Tid(1), &mut removed);
        assert_eq!(removed, vec![10, 11]);
        assert!(lot.is_empty());
        lot.remove_uncommitted_of(O, Tid(1), &mut removed);
        assert_eq!(removed.len(), 2, "nothing left to remove");
    }

    #[test]
    fn remove_uncommitted_keeps_committed() {
        let mut lot = Lot::new();
        lot.insert_uncommitted(O, Tid(1), 10);
        commit(&mut lot, Tid(1));
        lot.insert_uncommitted(O, Tid(2), 20);
        let mut removed = Vec::new();
        lot.remove_uncommitted_of(O, Tid(2), &mut removed);
        assert_eq!(removed, vec![20]);
        assert_eq!(lot.committed_cell(O), Some(10));
        assert_eq!(lot.len(), 1);
    }

    #[test]
    fn stale_flush_completion_ignored() {
        let mut lot = Lot::new();
        lot.insert_uncommitted(O, Tid(1), 10);
        commit(&mut lot, Tid(1));
        assert_eq!(lot.flush_done(O, 99), None, "not the committed cell");
        assert_eq!(lot.committed_cell(O), Some(10));
        assert_eq!(lot.flush_done(Oid(123), 10), None, "unknown object");
    }

    #[test]
    fn peak_len_tracked() {
        let mut lot = Lot::new();
        for i in 0..10 {
            lot.insert_uncommitted(Oid(i), Tid(1), i as CellIdx);
        }
        let mut removed = Vec::new();
        for i in 0..10 {
            lot.remove_uncommitted_of(Oid(i), Tid(1), &mut removed);
        }
        assert_eq!(lot.len(), 0);
        assert_eq!(lot.peak_len(), 10);
    }
}
