//! Cells and their circular doubly-linked lists.
//!
//! §2.1: "A cell exists for every non-garbage record in any generation of
//! the log. Each cell resides in main memory and points to the record's
//! location on disk. The cells corresponding to each generation are joined
//! in a doubly linked list. The linked list 'wraps around' in a circular
//! manner … For generation i, pointer h_i points to the cell for the
//! non-garbage record nearest the head."
//!
//! Cells live in a slab arena addressed by stable `u32` indices, with
//! intrusive `left`/`right` links. Stability matters: the LOT and LTT hold
//! cell indices, and a cell keeps its index as it migrates between
//! generation lists when its record is forwarded or recirculated.
//!
//! Orientation: `right` walks from the head (oldest record) toward the tail
//! (newest); `left` walks back. For a list head `h`: `h.left` is the tail.
//! Within one generation's list, cells are ordered by their record's block
//! sequence number — append order equals block-allocation order, and every
//! migration (forward, recirculate, tx-record refresh) re-appends at the
//! tail with a new, higher block number.

use elog_model::LogRecord;
use std::fmt;

/// Index of a cell in the arena.
pub type CellIdx = u32;

/// The null cell index.
pub const NIL: CellIdx = u32::MAX;

/// One cell: a non-garbage record's RAM bookkeeping.
#[derive(Debug)]
pub struct Cell {
    /// The record this cell tracks. Held in RAM so that forwarding and
    /// recirculation regenerate contents without reading the log device
    /// (the log is write-only storage).
    pub record: LogRecord,
    /// Generation currently holding the record.
    pub gen: u8,
    /// Block sequence number (within the generation) of the record's
    /// current location. Coarse, block-level resolution, as in the paper.
    pub block: u64,
    left: CellIdx,
    right: CellIdx,
}

impl Cell {
    /// True while the cell is linked into a generation list. `left` and
    /// `right` are always NIL or non-NIL together (asserted in the arena),
    /// so either side answers the question.
    #[inline]
    pub fn is_linked(&self) -> bool {
        debug_assert_eq!(self.left == NIL, self.right == NIL);
        self.left != NIL
    }

    /// Both neighbours `(left, right)` while linked, `None` otherwise.
    /// In a single-element list a cell is its own neighbour on both sides.
    #[inline]
    pub fn links(&self) -> Option<(CellIdx, CellIdx)> {
        self.is_linked().then_some((self.left, self.right))
    }
}

enum Slot {
    Used(Cell),
    Free { next: CellIdx },
}

/// Slab arena of cells with an embedded free list.
pub struct CellArena {
    slots: Vec<Slot>,
    free_head: CellIdx,
    live: usize,
    peak_live: usize,
}

impl fmt::Debug for CellArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellArena")
            .field("live", &self.live)
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl Default for CellArena {
    fn default() -> Self {
        Self::new()
    }
}

impl CellArena {
    /// An empty arena.
    pub fn new() -> Self {
        CellArena {
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
            peak_live: 0,
        }
    }

    /// Allocates a cell for `record` located at (`gen`, `block`), not yet
    /// linked into any list.
    pub fn alloc(&mut self, record: LogRecord, gen: u8, block: u64) -> CellIdx {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        let cell = Cell {
            record,
            gen,
            block,
            left: NIL,
            right: NIL,
        };
        if self.free_head != NIL {
            let idx = self.free_head;
            match self.slots[idx as usize] {
                Slot::Free { next } => self.free_head = next,
                Slot::Used(_) => unreachable!("free list points at a used slot"),
            }
            self.slots[idx as usize] = Slot::Used(cell);
            idx
        } else {
            let idx = self.slots.len() as CellIdx;
            assert!(idx != NIL, "cell arena exhausted");
            self.slots.push(Slot::Used(cell));
            idx
        }
    }

    /// Frees a cell. The caller must have unlinked it first.
    pub fn free(&mut self, idx: CellIdx) {
        debug_assert!(
            matches!(self.slots[idx as usize], Slot::Used(_)),
            "double free of cell {idx}"
        );
        debug_assert!(!self.get(idx).is_linked(), "freeing a linked cell {idx}");
        self.slots[idx as usize] = Slot::Free {
            next: self.free_head,
        };
        self.free_head = idx;
        self.live -= 1;
    }

    /// True when the slot holds a live cell.
    ///
    /// Used by the forwarding/recirculation paths: a record "in transit"
    /// (unlinked from its old list, not yet appended to the new one) can
    /// become garbage if a nested space-pressure kill drops its
    /// transaction. No cell is *allocated* during that window, so a live
    /// check — rather than a generation tag — is sufficient to reject
    /// stale indices.
    pub fn is_live(&self, idx: CellIdx) -> bool {
        matches!(self.slots.get(idx as usize), Some(Slot::Used(_)))
    }

    /// Immutable access.
    pub fn get(&self, idx: CellIdx) -> &Cell {
        match &self.slots[idx as usize] {
            Slot::Used(c) => c,
            Slot::Free { .. } => panic!("access to freed cell {idx}"),
        }
    }

    /// Mutable access.
    pub fn get_mut(&mut self, idx: CellIdx) -> &mut Cell {
        match &mut self.slots[idx as usize] {
            Slot::Used(c) => c,
            Slot::Free { .. } => panic!("access to freed cell {idx}"),
        }
    }

    /// Number of live cells.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Greatest number of simultaneously live cells.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Appends `idx` at the tail of the circular list whose head pointer is
    /// `*head`. With an empty list the cell becomes the head (and links to
    /// itself).
    pub fn push_tail(&mut self, head: &mut CellIdx, idx: CellIdx) {
        debug_assert!(!self.get(idx).is_linked(), "double-link of cell {idx}");
        if *head == NIL {
            let c = self.get_mut(idx);
            c.left = idx;
            c.right = idx;
            *head = idx;
        } else {
            let h = *head;
            let tail = self.get(h).left;
            self.get_mut(tail).right = idx;
            {
                let c = self.get_mut(idx);
                c.left = tail;
                c.right = h;
            }
            self.get_mut(h).left = idx;
        }
    }

    /// Unlinks `idx` from the circular list with head pointer `*head`,
    /// updating the head if necessary (§2.1: "Pointer h_i is updated to
    /// point to the cell previously to the left of c … otherwise h_i is set
    /// to NULL").
    pub fn unlink(&mut self, head: &mut CellIdx, idx: CellIdx) {
        let Some((l, r)) = self.get(idx).links() else {
            panic!("unlinking an unlinked cell {idx}");
        };
        #[cfg(debug_assertions)]
        {
            // Neighbour consistency: the cells on either side must point
            // back at `idx`, or the list is already corrupt.
            debug_assert_eq!(self.get(l).right, idx, "left neighbour of {idx} broken");
            debug_assert_eq!(self.get(r).left, idx, "right neighbour of {idx} broken");
        }
        if r == idx {
            // Sole element.
            debug_assert_eq!(*head, idx);
            *head = NIL;
        } else {
            self.get_mut(l).right = r;
            self.get_mut(r).left = l;
            if *head == idx {
                *head = r;
            }
        }
        let c = self.get_mut(idx);
        c.left = NIL;
        c.right = NIL;
    }

    /// The cell after `idx` (toward the tail).
    pub fn right_of(&self, idx: CellIdx) -> CellIdx {
        self.get(idx).right
    }

    /// Walks the list from `head`, returning indices in head→tail order.
    /// For debugging and invariant checks; O(n).
    pub fn iter_list(&self, head: CellIdx) -> Vec<CellIdx> {
        let mut out = Vec::new();
        if head == NIL {
            return out;
        }
        let mut cur = head;
        loop {
            out.push(cur);
            cur = self.get(cur).right;
            if cur == head {
                break;
            }
            assert!(out.len() <= self.slots.len(), "list cycle corrupt");
        }
        out
    }

    /// Verifies the structural invariants of one list. Panics on breakage.
    /// Used by tests and debug assertions.
    pub fn check_list(&self, head: CellIdx) {
        if head == NIL {
            return;
        }
        let cells = self.iter_list(head);
        for (i, &idx) in cells.iter().enumerate() {
            let c = self.get(idx);
            let prev = cells[(i + cells.len() - 1) % cells.len()];
            let next = cells[(i + 1) % cells.len()];
            assert_eq!(c.left, prev, "left link broken at {idx}");
            assert_eq!(c.right, next, "right link broken at {idx}");
        }
        // Block ordering: monotone non-decreasing from head to tail.
        for w in cells.windows(2) {
            let a = self.get(w[0]);
            let b = self.get(w[1]);
            assert!(
                (a.gen, a.block) <= (b.gen, b.block) || a.gen != b.gen,
                "list out of block order: {}@{} then {}@{}",
                w[0],
                a.block,
                w[1],
                b.block
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_model::{DataRecord, Oid, Tid};
    use elog_sim::SimTime;

    fn rec(n: u64) -> LogRecord {
        LogRecord::Data(DataRecord {
            tid: Tid(n),
            oid: Oid(n),
            seq: 1,
            ts: SimTime::from_micros(n),
            size: 100,
        })
    }

    #[test]
    fn link_api_is_symmetric() {
        let mut a = CellArena::new();
        let mut head = NIL;
        let c1 = a.alloc(rec(1), 0, 0);
        assert!(!a.get(c1).is_linked());
        assert_eq!(a.get(c1).links(), None);
        a.push_tail(&mut head, c1);
        assert!(a.get(c1).is_linked());
        assert_eq!(a.get(c1).links(), Some((c1, c1)), "sole element self-links");
        let c2 = a.alloc(rec(2), 0, 1);
        a.push_tail(&mut head, c2);
        assert_eq!(a.get(c1).links(), Some((c2, c2)));
        assert_eq!(a.get(c2).links(), Some((c1, c1)));
        a.unlink(&mut head, c1);
        assert!(!a.get(c1).is_linked());
        assert_eq!(a.get(c2).links(), Some((c2, c2)));
    }

    #[test]
    fn alloc_free_reuse() {
        let mut a = CellArena::new();
        let c1 = a.alloc(rec(1), 0, 0);
        let c2 = a.alloc(rec(2), 0, 1);
        assert_ne!(c1, c2);
        assert_eq!(a.live(), 2);
        a.free(c1);
        assert_eq!(a.live(), 1);
        let c3 = a.alloc(rec(3), 0, 2);
        assert_eq!(c3, c1, "slot reused");
        assert_eq!(a.peak_live(), 2);
    }

    #[test]
    #[should_panic]
    fn use_after_free_panics() {
        let mut a = CellArena::new();
        let c = a.alloc(rec(1), 0, 0);
        a.free(c);
        let _ = a.get(c);
    }

    #[test]
    fn single_element_list() {
        let mut a = CellArena::new();
        let mut head = NIL;
        let c = a.alloc(rec(1), 0, 0);
        a.push_tail(&mut head, c);
        assert_eq!(head, c);
        assert_eq!(a.get(c).left, c);
        assert_eq!(a.get(c).right, c);
        a.check_list(head);
        a.unlink(&mut head, c);
        assert_eq!(head, NIL);
        a.free(c);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn fifo_order_and_circularity() {
        let mut a = CellArena::new();
        let mut head = NIL;
        let cells: Vec<CellIdx> = (0..5)
            .map(|i| {
                let c = a.alloc(rec(i), 0, i);
                a.push_tail(&mut head, c);
                c
            })
            .collect();
        assert_eq!(a.iter_list(head), cells);
        a.check_list(head);
        // Tail reachable via head.left.
        assert_eq!(a.get(head).left, cells[4]);
        // Tail's right wraps to head.
        assert_eq!(a.get(cells[4]).right, head);
    }

    #[test]
    fn unlink_middle_and_head() {
        let mut a = CellArena::new();
        let mut head = NIL;
        let cells: Vec<CellIdx> = (0..4)
            .map(|i| {
                let c = a.alloc(rec(i), 0, i);
                a.push_tail(&mut head, c);
                c
            })
            .collect();
        a.unlink(&mut head, cells[2]);
        assert_eq!(a.iter_list(head), vec![cells[0], cells[1], cells[3]]);
        a.check_list(head);
        a.unlink(&mut head, cells[0]); // head removal advances head
        assert_eq!(head, cells[1]);
        a.check_list(head);
        a.free(cells[2]);
        a.free(cells[0]);
    }

    #[test]
    fn migrate_between_lists() {
        let mut a = CellArena::new();
        let mut g0 = NIL;
        let mut g1 = NIL;
        let c1 = a.alloc(rec(1), 0, 0);
        let c2 = a.alloc(rec(2), 0, 0);
        a.push_tail(&mut g0, c1);
        a.push_tail(&mut g0, c2);
        // Forward c1 to generation 1 at block 7.
        a.unlink(&mut g0, c1);
        {
            let c = a.get_mut(c1);
            c.gen = 1;
            c.block = 7;
        }
        a.push_tail(&mut g1, c1);
        assert_eq!(g0, c2);
        assert_eq!(a.iter_list(g1), vec![c1]);
        assert_eq!(a.get(c1).gen, 1);
        assert_eq!(a.get(c1).block, 7);
        a.check_list(g0);
        a.check_list(g1);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn freeing_linked_cell_asserts() {
        let mut a = CellArena::new();
        let mut head = NIL;
        let c = a.alloc(rec(1), 0, 0);
        a.push_tail(&mut head, c);
        a.free(c); // must unlink first
    }

    #[test]
    fn large_churn_keeps_invariants() {
        let mut a = CellArena::new();
        let mut head = NIL;
        let mut live: Vec<CellIdx> = Vec::new();
        for i in 0..2000u64 {
            let c = a.alloc(rec(i), 0, i);
            a.push_tail(&mut head, c);
            live.push(c);
            if i % 3 == 0 {
                // Remove from the front (head side), like flushing old records.
                let victim = live.remove(0);
                a.unlink(&mut head, victim);
                a.free(victim);
            }
        }
        a.check_list(head);
        assert_eq!(a.iter_list(head).len(), live.len());
        assert_eq!(a.live(), live.len());
    }
}
