//! The single-pass REDO.
//!
//! REDO-only logging (the paper's simplifying assumption: "transactions
//! never write out uncommitted updates to the disk version of the
//! database") makes recovery a pure fold. The scan has already filed each
//! distinct data copy under its object, so REDO walks each object once:
//!
//! * a transaction is committed iff the scan found its COMMIT record;
//! * the object's newest committed copy is its candidate version —
//!   "newest" under the total order [`ObjectVersion::order_key`]
//!   `(ts, tid, seq)`, so equal-timestamp updates from distinct
//!   transactions resolve identically no matter which generation's
//!   physical copy the scan ingested first;
//! * the candidate is applied only if it is newer (same total order) than
//!   the stable database's version stamp — stale physical copies
//!   (superseded or already-flushed updates whose commit records were
//!   collected) lose this comparison automatically.
//!
//! "Applied" means kept: only the winners are inserted, and they are laid
//! over the stable table, which is shared with the [`StableDb`], not
//! copied. A restart costs the log it reads and one probe of the stable
//! table per object with a committed copy, whatever the size of the
//! database.

use crate::scan::LogImage;
use elog_model::{ObjectVersion, Oid, StableDb};
use elog_sim::FxHashMap;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// The reconstructed post-crash state.
#[derive(Clone, Debug)]
pub struct RecoveredState {
    /// Final version of every object that has one (stable ∪ redone).
    pub versions: Versions,
    /// Objects whose version came from the log (redone), not the stable DB.
    pub redone: u64,
    /// Log updates skipped because the stable version was as new or newer.
    pub skipped_stale: u64,
    /// Log updates skipped because their transaction never committed.
    pub skipped_uncommitted: u64,
    /// Committed transactions observed in the log.
    pub committed_txns: u64,
}

/// The recovered version of every object: the log's winners over the
/// stable table. Reads as one map from oid to version; the stable table
/// behind it is shared with the [`StableDb`] it was recovered from, and a
/// later install there copies that table rather than change this one.
#[derive(Clone)]
pub struct Versions {
    /// The stable database's table at recovery.
    stable: Arc<FxHashMap<Oid, ObjectVersion>>,
    /// The redone versions, each newer than its stable stamp (if any).
    redone: FxHashMap<Oid, ObjectVersion>,
    /// Redone oids with no stable version.
    fresh: usize,
}

impl Versions {
    /// The recovered version of `oid`: the redone one, else the stable one.
    pub fn get(&self, oid: &Oid) -> Option<&ObjectVersion> {
        self.redone.get(oid).or_else(|| self.stable.get(oid))
    }

    /// Number of objects with a recovered version.
    pub fn len(&self) -> usize {
        self.stable.len() + self.fresh
    }

    /// True when no object has a version.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(oid, version)` pairs, each oid once, in unspecified
    /// order: the redone versions, then the stable ones they do not shadow.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, ObjectVersion)> + '_ {
        let unshadowed = self
            .stable
            .iter()
            .filter(|(oid, _)| !self.redone.contains_key(oid));
        self.redone.iter().chain(unshadowed).map(|(&o, &v)| (o, v))
    }
}

impl Index<&Oid> for Versions {
    type Output = ObjectVersion;

    fn index(&self, oid: &Oid) -> &ObjectVersion {
        self.get(oid)
            .expect("indexed an oid with no recovered version")
    }
}

/// Equal when they map the same oids to the same versions, however each
/// splits them between stable and redone.
impl PartialEq for Versions {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(oid, v)| other.get(&oid) == Some(&v))
    }
}

impl fmt::Debug for Versions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Runs single-pass recovery over a scanned image and the stable database:
/// one walk per object over the copies the scan filed under it.
pub fn recover(image: &LogImage, stable: &StableDb) -> RecoveredState {
    let committed = image.committed();
    let table = stable.table();
    let mut redone: FxHashMap<Oid, ObjectVersion> =
        FxHashMap::with_capacity_and_hasher(image.object_count(), Default::default());
    let (mut skipped_uncommitted, mut skipped_stale, mut fresh) = (0, 0, 0);
    for (oid, copies) in image.objects() {
        let mut newest: Option<ObjectVersion> = None;
        for d in copies {
            if !committed.contains(&d.tid) {
                skipped_uncommitted += 1;
                continue;
            }
            let v = ObjectVersion {
                tid: d.tid,
                seq: d.seq,
                ts: d.ts,
            };
            if newest.is_none_or(|n| v.order_key() > n.order_key()) {
                newest = Some(v);
            }
        }
        let Some(v) = newest else { continue };
        // Redo it only if newer than the stable version (same total order
        // as the walk, so a scan-order permutation cannot flip the
        // stable-vs-log verdict either).
        match table.get(&oid) {
            Some(held) if held.order_key() >= v.order_key() => skipped_stale += 1,
            held => {
                fresh += usize::from(held.is_none());
                redone.insert(oid, v);
            }
        }
    }
    RecoveredState {
        redone: redone.len() as u64,
        skipped_stale,
        skipped_uncommitted,
        committed_txns: committed.len() as u64,
        versions: Versions {
            stable: Arc::clone(table),
            redone,
            fresh,
        },
    }
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

    fn version(tid: u64, ms: u64) -> ObjectVersion {
        ObjectVersion {
            tid: Tid(tid),
            seq: 1,
            ts: SimTime::from_millis(ms),
        }
    }

    #[test]
    fn stable_only_redone_fresh_and_stale_oids_in_one_overlay() {
        let mut stable = StableDb::new();
        stable.install(Oid(1), version(1, 10)); // stable-only
        stable.install(Oid(2), version(1, 10)); // redone over it
        stable.install(Oid(4), version(3, 50)); // newer than the log: stale
        let g = block(vec![
            data(2, 2, 1, 20),
            data(2, 3, 1, 20), // fresh: no stable version
            data(2, 4, 1, 20),
            commit(2, 21),
        ]);
        let out = recover(&scan(&[g]), &stable);
        assert_eq!((out.redone, out.skipped_stale), (2, 1));
        assert_eq!(out.versions.len(), 4, "three stable + one fresh");
        assert_eq!(out.versions[&Oid(1)], version(1, 10));
        assert_eq!(out.versions[&Oid(2)], version(2, 20));
        assert_eq!(out.versions[&Oid(3)], version(2, 20));
        assert_eq!(out.versions[&Oid(4)], version(3, 50));
        assert_eq!(out.versions.get(&Oid(5)), None);
        let mut all: Vec<_> = out.versions.iter().collect();
        all.sort_unstable_by_key(|&(oid, _)| oid);
        assert_eq!(
            all,
            [
                (Oid(1), version(1, 10)),
                (Oid(2), version(2, 20)),
                (Oid(3), version(2, 20)),
                (Oid(4), version(3, 50)),
            ],
            "each oid once, the redone version over the stable one"
        );
    }

    #[test]
    fn a_later_install_leaves_a_recovered_state_unchanged() {
        let mut stable = StableDb::new();
        stable.install(Oid(1), version(1, 10));
        let g = block(vec![data(2, 2, 1, 20), commit(2, 21)]);
        let out = recover(&scan(&[g]), &stable);
        let before = format!("{:?}", out.versions);
        let mut fork = stable.clone();
        fork.install(Oid(1), version(3, 30));
        stable.install(Oid(1), version(4, 40));
        stable.install(Oid(9), version(4, 40));
        assert_eq!(format!("{:?}", out.versions), before);
        assert_eq!(out.versions[&Oid(1)], version(1, 10));
        assert_eq!(out.versions.len(), 2);
    }
}
