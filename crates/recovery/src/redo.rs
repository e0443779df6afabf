//! The single-pass REDO.
//!
//! REDO-only logging (the paper's simplifying assumption: "transactions
//! never write out uncommitted updates to the disk version of the
//! database") makes recovery a pure fold:
//!
//! * a transaction is committed iff the scan found its COMMIT record;
//! * for each object, the newest committed update is the candidate
//!   version — "newest" under the total order
//!   [`ObjectVersion::order_key`] `(ts, tid, seq)`, so equal-timestamp
//!   updates from distinct transactions resolve identically no matter
//!   which generation's physical copy the scan ingested first;
//! * the candidate is applied only if it is newer (same total order) than
//!   the stable database's version stamp — stale physical copies
//!   (superseded or already-flushed updates whose commit records were
//!   collected) lose this comparison automatically.

use crate::scan::LogImage;
use elog_model::{ObjectVersion, Oid, StableDb};
use elog_sim::FxHashMap;

/// The reconstructed post-crash state.
#[derive(Clone, Debug, Default)]
pub struct RecoveredState {
    /// Final version of every object that has one (stable ∪ redone).
    pub versions: FxHashMap<Oid, ObjectVersion>,
    /// Objects whose version came from the log (redone), not the stable DB.
    pub redone: u64,
    /// Log updates skipped because the stable version was as new or newer.
    pub skipped_stale: u64,
    /// Log updates skipped because their transaction never committed.
    pub skipped_uncommitted: u64,
    /// Committed transactions observed in the log.
    pub committed_txns: u64,
}

/// Runs single-pass recovery over a scanned image and the stable database.
pub fn recover(image: &LogImage, stable: &StableDb) -> RecoveredState {
    // Start from the stable versions: one table copy, so the stable
    // database costs a memcpy and everything below costs the log.
    let mut out = RecoveredState {
        versions: stable.versions().clone(),
        committed_txns: image.committed.len() as u64,
        ..RecoveredState::default()
    };
    // Single pass over data records: keep the newest committed candidate
    // per object.
    let mut candidates: FxHashMap<Oid, ObjectVersion> =
        FxHashMap::with_capacity_and_hasher(image.data.len(), Default::default());
    for d in &image.data {
        if !image.committed.contains(&d.tid) {
            out.skipped_uncommitted += 1;
            continue;
        }
        let v = ObjectVersion {
            tid: d.tid,
            seq: d.seq,
            ts: d.ts,
        };
        match candidates.get_mut(&d.oid) {
            Some(existing) if existing.order_key() >= v.order_key() => {}
            Some(existing) => *existing = v,
            None => {
                candidates.insert(d.oid, v);
            }
        }
    }
    // Apply candidates newer than the stable version (same total order as
    // the candidate fold, so a scan-order permutation cannot flip the
    // stable-vs-log verdict either).
    for (oid, v) in candidates {
        match out.versions.get(&oid) {
            Some(stable_v) if stable_v.order_key() >= v.order_key() => out.skipped_stale += 1,
            _ => {
                out.versions.insert(oid, v);
                out.redone += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;
    use elog_model::{DataRecord, GenId, LogRecord, Tid, TxMark, TxRecord};
    use elog_sim::SimTime;
    use elog_storage::block::BlockAddr;
    use elog_storage::Block;

    fn block(records: Vec<LogRecord>) -> Vec<Block> {
        let mut b = Block::new(BlockAddr {
            gen: GenId(0),
            seq: 0,
        });
        b.written_at = SimTime::ZERO;
        for r in records {
            b.payload_used += r.size();
            b.records.push(r);
        }
        vec![b]
    }

    fn data(tid: u64, oid: u64, seq: u32, ms: u64) -> LogRecord {
        LogRecord::Data(DataRecord {
            tid: Tid(tid),
            oid: Oid(oid),
            seq,
            ts: SimTime::from_millis(ms),
            size: 100,
        })
    }

    fn commit(tid: u64, ms: u64) -> LogRecord {
        LogRecord::Tx(TxRecord {
            tid: Tid(tid),
            mark: TxMark::Commit,
            ts: SimTime::from_millis(ms),
            size: 8,
        })
    }

    #[test]
    fn committed_update_is_redone() {
        let g = block(vec![data(1, 5, 1, 10), commit(1, 20)]);
        let image = scan(&[g]);
        let out = recover(&image, &StableDb::new());
        assert_eq!(out.redone, 1);
        assert_eq!(out.versions[&Oid(5)].tid, Tid(1));
        assert_eq!(out.committed_txns, 1);
    }

    #[test]
    fn uncommitted_update_is_skipped() {
        let g = block(vec![data(1, 5, 1, 10)]);
        let image = scan(&[g]);
        let out = recover(&image, &StableDb::new());
        assert!(out.versions.is_empty());
        assert_eq!(out.skipped_uncommitted, 1);
    }

    #[test]
    fn newest_committed_update_wins() {
        let g = block(vec![
            data(1, 5, 1, 10),
            commit(1, 11),
            data(2, 5, 1, 30),
            commit(2, 31),
            data(3, 5, 1, 20),
            commit(3, 21),
        ]);
        let image = scan(&[g]);
        let out = recover(&image, &StableDb::new());
        assert_eq!(out.versions[&Oid(5)].tid, Tid(2), "ts 30 beats 10 and 20");
    }

    #[test]
    fn equal_timestamp_candidates_resolve_by_tid_regardless_of_scan_order() {
        // Two committed updates of the same object stamped the same
        // instant, physically in different generations: whichever
        // generation is ingested first, the (ts, tid, seq)-greatest wins.
        let fwd = block(vec![data(2, 5, 1, 10), commit(2, 11)]);
        let rev = block(vec![data(7, 5, 1, 10), commit(7, 11)]);
        let a = recover(&scan(&[fwd.clone(), rev.clone()]), &StableDb::new());
        let b = recover(&scan(&[rev, fwd]), &StableDb::new());
        assert_eq!(a.versions[&Oid(5)], b.versions[&Oid(5)]);
        assert_eq!(a.versions[&Oid(5)].tid, Tid(7), "max (ts, tid, seq) wins");
    }

    #[test]
    fn equal_timestamp_same_tid_resolves_by_seq() {
        let g = block(vec![data(1, 5, 3, 10), data(1, 5, 1, 10), commit(1, 11)]);
        let out = recover(&scan(&[g]), &StableDb::new());
        assert_eq!(out.versions[&Oid(5)].seq, 3);
    }

    #[test]
    fn stable_vs_log_tie_uses_same_total_order() {
        // Log copy shares the stable version's timestamp but has a higher
        // tid: the log wins under (ts, tid, seq); a *lower* tid loses.
        let g = block(vec![data(9, 5, 1, 10), commit(9, 11)]);
        let image = scan(&[g]);
        let mut stable = StableDb::new();
        stable.install(
            Oid(5),
            ObjectVersion {
                tid: Tid(3),
                seq: 1,
                ts: SimTime::from_millis(10),
            },
        );
        let out = recover(&image, &stable);
        assert_eq!(out.versions[&Oid(5)].tid, Tid(9));
        assert_eq!(out.redone, 1);

        let g = block(vec![data(1, 5, 1, 10), commit(1, 11)]);
        let image = scan(&[g]);
        let out = recover(&image, &stable);
        assert_eq!(out.versions[&Oid(5)].tid, Tid(3));
        assert_eq!(out.skipped_stale, 1);
    }

    #[test]
    fn stale_log_copy_loses_to_stable_db() {
        // A flushed update's record still physically in the log: the
        // stable version has the same timestamp, so the log copy is stale.
        let g = block(vec![data(1, 5, 1, 10), commit(1, 11)]);
        let image = scan(&[g]);
        let mut stable = StableDb::new();
        stable.install(
            Oid(5),
            ObjectVersion {
                tid: Tid(1),
                seq: 1,
                ts: SimTime::from_millis(10),
            },
        );
        let out = recover(&image, &stable);
        assert_eq!(out.redone, 0);
        assert_eq!(out.skipped_stale, 1);
        assert_eq!(out.versions[&Oid(5)].tid, Tid(1));
    }

    #[test]
    fn stable_only_object_survives() {
        let g = block(vec![]);
        let image = scan(&[g]);
        let mut stable = StableDb::new();
        stable.install(
            Oid(9),
            ObjectVersion {
                tid: Tid(7),
                seq: 1,
                ts: SimTime::from_millis(5),
            },
        );
        let out = recover(&image, &stable);
        assert_eq!(out.versions.len(), 1);
        assert_eq!(out.versions[&Oid(9)].tid, Tid(7));
    }

    #[test]
    fn log_newer_than_stable_wins() {
        let g = block(vec![data(2, 5, 1, 50), commit(2, 51)]);
        let image = scan(&[g]);
        let mut stable = StableDb::new();
        stable.install(
            Oid(5),
            ObjectVersion {
                tid: Tid(1),
                seq: 1,
                ts: SimTime::from_millis(10),
            },
        );
        let out = recover(&image, &stable);
        assert_eq!(out.versions[&Oid(5)].tid, Tid(2));
        assert_eq!(out.redone, 1);
    }

    #[test]
    fn aborted_transaction_without_commit_ignored() {
        let g = block(vec![
            data(1, 5, 1, 10),
            LogRecord::Tx(TxRecord {
                tid: Tid(1),
                mark: TxMark::Abort,
                ts: SimTime::from_millis(11),
                size: 8,
            }),
        ]);
        let image = scan(&[g]);
        let out = recover(&image, &StableDb::new());
        assert!(out.versions.is_empty());
    }
}
