//! The Logged Transaction Table (LTT).
//!
//! §2.3: "There is an LTT entry for every transaction currently in progress
//! and every committed transaction which still has non-garbage data log
//! records. A transaction's LTT entry keeps track of all objects which it
//! updated and the position within the log of its most recent tx log
//! record." Entries are "associatively accessed using transaction
//! identifiers (tids) as keys. A hash table implementation is therefore
//! appropriate."
//!
//! The paper's transactions write 2 or 4 records: an entry keeps up to
//! four oids in place ([`InlineVec`]), so a transaction's lifecycle
//! allocates nothing, however many committed entries a backlog keeps.

use crate::cell::CellIdx;
use crate::inlinevec::InlineVec;
use elog_model::{Oid, Tid};
use elog_sim::FxHashMap;
use elog_sim::SimTime;

/// Lifecycle state of a transaction in the LTT.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxState {
    /// BEGIN written; transaction executing.
    Active,
    /// COMMIT record written (t3) but not yet durable; waiting for the
    /// group-commit write to complete.
    Committing {
        /// Block (generation 0) that carries the COMMIT record.
        commit_block: u64,
        /// Time the COMMIT record was written (for latency accounting).
        requested_at: SimTime,
    },
    /// COMMIT durable and acknowledged (t4). The entry lingers while
    /// committed updates await flushing.
    Committed,
}

/// One transaction's entry.
#[derive(Debug)]
pub struct LttEntry {
    /// Cell of the most recent tx log record (§2.3: earlier tx records are
    /// garbage the moment a newer one is written).
    pub tx_cell: CellIdx,
    /// Objects with non-garbage data records written by this transaction.
    /// Kept sorted so that commit-time iteration (and hence flush
    /// submission) is deterministic for a given seed; a transaction touches
    /// few objects, so binary-search insertion beats tree-node churn.
    pub oids: InlineVec<Oid, 4>,
    /// Lifecycle state.
    pub state: TxState,
    /// Generation the transaction's records are appended to (0 unless the
    /// lifetime-hint extension placed it deeper in the chain).
    pub home_gen: u8,
}

/// The logged transaction table.
#[derive(Debug, Default)]
pub struct Ltt {
    map: FxHashMap<Tid, LttEntry>,
    peak_len: usize,
}

impl Ltt {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Transactions tracked (in progress or committed-with-unflushed).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no transaction is tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Greatest entry count ever reached (memory accounting).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Registers a new transaction with its BEGIN record's cell.
    ///
    /// # Panics
    /// Panics when the tid is already present (tids are unique).
    pub fn begin(&mut self, tid: Tid, tx_cell: CellIdx) {
        let prev = self.map.insert(
            tid,
            LttEntry {
                tx_cell,
                oids: InlineVec::default(),
                state: TxState::Active,
                home_gen: 0,
            },
        );
        assert!(prev.is_none(), "duplicate BEGIN for {tid}");
        self.peak_len = self.peak_len.max(self.map.len());
    }

    /// Records that the transaction updated `oid`.
    pub fn add_oid(&mut self, tid: Tid, oid: Oid) {
        let oids = &mut self
            .map
            .get_mut(&tid)
            .unwrap_or_else(|| panic!("add_oid for unknown {tid}"))
            .oids;
        if let Err(pos) = oids.binary_search(&oid) {
            oids.insert(pos, oid);
        }
    }

    /// Removes `oid` after one of the transaction's data records became
    /// garbage. Returns `true` when the entry is *finished*: the
    /// transaction is committed and no oids remain (§2.3: the LM then
    /// disposes its tx-record cell and removes the entry — done by the
    /// caller via [`Ltt::remove`]).
    pub fn remove_oid(&mut self, tid: Tid, oid: Oid) -> bool {
        let Some(entry) = self.map.get_mut(&tid) else {
            return false;
        };
        entry.oids.retain(|&o| o != oid);
        entry.oids.is_empty() && entry.state == TxState::Committed
    }

    /// Entry lookup.
    pub fn get(&self, tid: Tid) -> Option<&LttEntry> {
        self.map.get(&tid)
    }

    /// Mutable entry lookup.
    pub fn get_mut(&mut self, tid: Tid) -> Option<&mut LttEntry> {
        self.map.get_mut(&tid)
    }

    /// Removes and returns an entry (commit completion, abort, kill).
    pub fn remove(&mut self, tid: Tid) -> Option<LttEntry> {
        self.map.remove(&tid)
    }

    /// True when the transaction is tracked.
    pub fn contains(&self, tid: Tid) -> bool {
        self.map.contains_key(&tid)
    }

    /// Iterates over `(tid, entry)` pairs (diagnostics/invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (Tid, &LttEntry)> {
        self.map.iter().map(|(&t, e)| (t, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn begin_tracks_entry() {
        let mut ltt = Ltt::new();
        ltt.begin(Tid(1), 100);
        assert!(ltt.contains(Tid(1)));
        assert_eq!(ltt.get(Tid(1)).unwrap().state, TxState::Active);
        assert_eq!(ltt.len(), 1);
    }

    #[test]
    #[should_panic]
    fn duplicate_begin_panics() {
        let mut ltt = Ltt::new();
        ltt.begin(Tid(1), 100);
        ltt.begin(Tid(1), 101);
    }

    #[test]
    fn oid_set_grows_and_shrinks() {
        let mut ltt = Ltt::new();
        ltt.begin(Tid(1), 100);
        ltt.add_oid(Tid(1), Oid(5));
        ltt.add_oid(Tid(1), Oid(6));
        assert_eq!(ltt.get(Tid(1)).unwrap().oids.len(), 2);

        // Removing an oid from an active txn never reports "finished".
        assert!(!ltt.remove_oid(Tid(1), Oid(5)));
        assert!(!ltt.remove_oid(Tid(1), Oid(6)));
        assert_eq!(ltt.get(Tid(1)).unwrap().oids.len(), 0);
    }

    #[test]
    fn committed_with_empty_oids_reports_finished() {
        let mut ltt = Ltt::new();
        ltt.begin(Tid(1), 100);
        ltt.add_oid(Tid(1), Oid(5));
        ltt.get_mut(Tid(1)).unwrap().state = TxState::Committed;
        assert!(
            ltt.remove_oid(Tid(1), Oid(5)),
            "committed + empty ⇒ finished"
        );
        let entry = ltt.remove(Tid(1)).unwrap();
        assert_eq!(entry.tx_cell, 100);
        assert!(ltt.is_empty());
    }

    #[test]
    fn oids_stay_sorted_and_deduplicated() {
        let mut ltt = Ltt::new();
        ltt.begin(Tid(1), 100);
        for &o in &[9, 3, 7, 3, 9, 1] {
            ltt.add_oid(Tid(1), Oid(o));
        }
        assert_eq!(
            &ltt.get(Tid(1)).unwrap().oids[..],
            [Oid(1), Oid(3), Oid(7), Oid(9)]
        );
    }

    #[test]
    fn oid_set_outgrows_its_inline_slots() {
        let mut ltt = Ltt::new();
        ltt.begin(Tid(1), 100);
        for o in [9, 3, 7, 5, 1, 8, 2] {
            ltt.add_oid(Tid(1), Oid(o));
        }
        assert!(!ltt.remove_oid(Tid(1), Oid(7)));
        assert_eq!(
            &ltt.get(Tid(1)).unwrap().oids[..],
            [1, 2, 3, 5, 8, 9].map(Oid)
        );
    }

    #[test]
    fn remove_oid_unknown_txn_is_false() {
        let mut ltt = Ltt::new();
        assert!(!ltt.remove_oid(Tid(9), Oid(1)));
    }

    #[test]
    fn state_transitions() {
        let mut ltt = Ltt::new();
        ltt.begin(Tid(1), 100);
        ltt.get_mut(Tid(1)).unwrap().state = TxState::Committing {
            commit_block: 7,
            requested_at: SimTime::from_secs(1),
        };
        assert!(matches!(
            ltt.get(Tid(1)).unwrap().state,
            TxState::Committing {
                commit_block: 7,
                ..
            }
        ));
        ltt.get_mut(Tid(1)).unwrap().state = TxState::Committed;
        assert_eq!(ltt.get(Tid(1)).unwrap().state, TxState::Committed);
        assert_eq!(
            ltt.len(),
            1,
            "committed entry lingers for unflushed records"
        );
    }

    #[test]
    fn peak_len_monotone() {
        let mut ltt = Ltt::new();
        for i in 0..5 {
            ltt.begin(Tid(i), i as CellIdx);
        }
        for i in 0..5 {
            ltt.remove(Tid(i));
        }
        assert_eq!(ltt.peak_len(), 5);
        assert_eq!(ltt.len(), 0);
    }

    #[test]
    fn iter_covers_entries() {
        let mut ltt = Ltt::new();
        ltt.begin(Tid(1), 1);
        ltt.begin(Tid(2), 2);
        let tids: BTreeSet<Tid> = ltt.iter().map(|(t, _)| t).collect();
        assert_eq!(tids, BTreeSet::from([Tid(1), Tid(2)]));
    }
}
