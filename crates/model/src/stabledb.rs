//! The stable database and the committed-state oracle.
//!
//! §2.1: "A stable version of the database resides elsewhere on disk. It
//! does not necessarily incorporate the most recent changes to the database,
//! but the log contains sufficient information to restore it to the most
//! recent consistent state if a crash were to occur."
//!
//! The paper also notes (§6) that EL was formulated for databases that
//! retain a *version-number timestamp* with each object; recovery compares a
//! log record's timestamp against the stable version to decide whether to
//! apply it. [`StableDb`] models exactly that: a map from oid to the version
//! stamp of the most recently *flushed* update. Only touched objects are
//! materialised, so a 10^7-object database costs memory proportional to the
//! working set, not the universe.
//!
//! The simulator never reads the stable database during a run, so the
//! managers do not pay for that map per flush: they append to an
//! [`InstallLog`] and the [`StableDb`] is folded from it when somebody
//! (a crash snapshot, an end-of-run verify, a test) asks.
//!
//! [`CommittedOracle`] tracks ground truth — the newest *committed* version
//! of every object — and is what recovery results are checked against in
//! tests.

use crate::ids::{Oid, Tid};
use elog_sim::{FxHashMap, SimTime};
use std::collections::hash_map::Entry;
use std::sync::OnceLock;

/// One installed (or committed) version of an object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ObjectVersion {
    /// Transaction that wrote the version.
    pub tid: Tid,
    /// Update sequence number within that transaction.
    pub seq: u32,
    /// Timestamp of the data log record (the version number of §6).
    pub ts: SimTime,
}

impl ObjectVersion {
    /// Total order on versions of one object: newest timestamp wins, and
    /// equal-timestamp versions from distinct transactions are ordered by
    /// `(tid, seq)`. Every newest-version decision in the system (stable
    /// installs, oracle commits, recovery REDO) compares by this key, so
    /// the winner never depends on arrival or scan order.
    #[inline]
    pub fn order_key(&self) -> (SimTime, Tid, u32) {
        (self.ts, self.tid, self.seq)
    }
}

/// The on-disk stable version of the database.
#[derive(Clone, Debug, Default)]
pub struct StableDb {
    versions: FxHashMap<Oid, ObjectVersion>,
    installs: u64,
}

impl StableDb {
    /// An empty stable database (every object at its unborn version).
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a flushed update. Returns `false` (and ignores the write)
    /// when the stable version is already as new — which can happen when a
    /// superseded flush request was already in flight on a drive. "As new"
    /// is the [`ObjectVersion::order_key`] total order, so the surviving
    /// version is independent of flush-completion order even when two
    /// transactions stamped the same instant.
    pub fn install(&mut self, oid: Oid, version: ObjectVersion) -> bool {
        // One probe: the table is the run's largest and far out of cache.
        let newer = match self.versions.entry(oid) {
            Entry::Occupied(mut held) => {
                let newer = version.order_key() > held.get().order_key();
                if newer {
                    held.insert(version);
                }
                newer
            }
            Entry::Vacant(slot) => {
                slot.insert(version);
                true
            }
        };
        self.installs += u64::from(newer);
        newer
    }

    /// The stable version of `oid`, if it was ever flushed.
    pub fn version(&self, oid: Oid) -> Option<ObjectVersion> {
        self.versions.get(&oid).copied()
    }

    /// Number of distinct objects with a stable version.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when nothing has been flushed yet.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Total successful installs (measures effective flush work).
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// Iterates over `(oid, version)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, ObjectVersion)> + '_ {
        self.versions.iter().map(|(&o, &v)| (o, v))
    }

    /// The whole version table, borrowed. Recovery starts from a clone of
    /// it: for `Copy` entries that is a copy of the table's memory, with
    /// no hashing and no growth.
    pub fn versions(&self) -> &FxHashMap<Oid, ObjectVersion> {
        &self.versions
    }
}

/// The write side of the stable database, as the log managers hold it.
///
/// A flush completion is one sequential store into `log`; the version
/// table is a function of the install *set* under
/// [`ObjectVersion::order_key`], not of when each install was applied, so
/// it is folded on the first [`InstallLog::db`] after an install —
/// pre-sized from `log.len()`, hence never rehashed — kept for later
/// readers, and dropped by the next install. The cache is a `OnceLock`
/// rather than a `RefCell` because crash snapshots are shared across
/// `sweep::parallel_map` workers.
///
/// Memory: the log is O(installs) ≤ flush bandwidth × simulated time —
/// at the paper's 400 flushes/s, 32 B each, 12.8 KB per simulated second
/// and 6.4 MB for a 500 s run — which under the uniform oid picker is what
/// the table itself grows to. There is deliberately no compaction
/// threshold: it would only pay under a skewed picker that re-flushes hot
/// objects, and there is none yet (ROADMAP item 3(d)).
#[derive(Clone, Debug, Default)]
pub struct InstallLog {
    log: Vec<(Oid, ObjectVersion)>,
    folded: OnceLock<StableDb>,
}

impl InstallLog {
    /// An empty log (every object at its unborn version).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a flushed update. Stale and duplicate installs are kept and
    /// lose at fold time, exactly as [`StableDb::install`] would have
    /// refused them on arrival.
    #[inline]
    pub fn install(&mut self, oid: Oid, version: ObjectVersion) {
        self.folded.take();
        self.log.push((oid, version));
    }

    /// The stable database holding every install so far.
    pub fn db(&self) -> &StableDb {
        self.folded.get_or_init(|| {
            let mut db = StableDb {
                versions: FxHashMap::with_capacity_and_hasher(self.log.len(), Default::default()),
                installs: 0,
            };
            for &(oid, version) in &self.log {
                db.install(oid, version);
            }
            db
        })
    }
}

/// Ground-truth committed state, maintained by the workload/test harness.
///
/// `commit` applies a whole transaction's updates atomically, mirroring the
/// all-or-nothing semantics the log manager must preserve through a crash.
#[derive(Clone, Debug, Default)]
pub struct CommittedOracle {
    versions: FxHashMap<Oid, ObjectVersion>,
    committed_txns: u64,
}

impl CommittedOracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed transaction's updates: `(oid, seq, record ts)`.
    /// The newest version per object is kept under the
    /// [`ObjectVersion::order_key`] total order — the same order recovery
    /// uses, so ground truth is well-defined even when two transactions
    /// updated one object at the same instant.
    pub fn commit(&mut self, tid: Tid, updates: impl IntoIterator<Item = (Oid, u32, SimTime)>) {
        for (oid, seq, ts) in updates {
            let v = ObjectVersion { tid, seq, ts };
            match self.versions.get_mut(&oid) {
                Some(existing) if existing.order_key() >= v.order_key() => {}
                Some(existing) => *existing = v,
                None => {
                    self.versions.insert(oid, v);
                }
            }
        }
        self.committed_txns += 1;
    }

    /// The committed version of `oid`, if any transaction ever updated it.
    pub fn version(&self, oid: Oid) -> Option<ObjectVersion> {
        self.versions.get(&oid).copied()
    }

    /// Number of committed transactions recorded.
    pub fn committed_txns(&self) -> u64 {
        self.committed_txns
    }

    /// Number of distinct committed objects.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when no transaction has committed.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Iterates over `(oid, version)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, ObjectVersion)> + '_ {
        self.versions.iter().map(|(&o, &v)| (o, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_sim::{cases, SimRng};

    fn v(tid: u64, seq: u32, ms: u64) -> ObjectVersion {
        ObjectVersion {
            tid: Tid(tid),
            seq,
            ts: SimTime::from_millis(ms),
        }
    }

    #[test]
    fn install_keeps_newest() {
        let mut db = StableDb::new();
        assert!(db.install(Oid(1), v(1, 1, 10)));
        assert!(!db.install(Oid(1), v(2, 1, 5))); // stale in-flight flush
        assert!(db.install(Oid(1), v(3, 1, 20)));
        assert_eq!(db.version(Oid(1)).unwrap().tid, Tid(3));
        assert_eq!(db.installs(), 2);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn order_key_is_total_on_equal_timestamps() {
        // ts dominates; tid breaks ts ties; seq breaks (ts, tid) ties.
        assert!(v(1, 1, 20).order_key() > v(9, 9, 10).order_key());
        assert!(v(2, 1, 10).order_key() > v(1, 9, 10).order_key());
        assert!(v(1, 2, 10).order_key() > v(1, 1, 10).order_key());
        assert_eq!(v(3, 4, 5).order_key(), v(3, 4, 5).order_key());
    }

    #[test]
    fn install_breaks_timestamp_ties_by_tid_seq() {
        // Two flushes stamped the same instant: the (tid, seq)-greater one
        // wins regardless of completion order.
        let mut a = StableDb::new();
        a.install(Oid(1), v(1, 1, 10));
        a.install(Oid(1), v(2, 1, 10));
        let mut b = StableDb::new();
        b.install(Oid(1), v(2, 1, 10));
        b.install(Oid(1), v(1, 1, 10));
        assert_eq!(a.version(Oid(1)), b.version(Oid(1)));
        assert_eq!(a.version(Oid(1)).unwrap().tid, Tid(2));
    }

    /// Every read the `StableDb` API offers, lazy against eager.
    fn assert_same(lazy: &InstallLog, eager: &StableDb, at: &str) {
        let db = lazy.db();
        assert_eq!(db.len(), eager.len(), "{at}: len");
        assert_eq!(db.is_empty(), eager.is_empty(), "{at}: is_empty");
        assert_eq!(db.installs(), eager.installs(), "{at}: installs");
        assert_eq!(db.versions(), eager.versions(), "{at}: versions");
        for oid in (0..SMALL_OIDS).map(Oid) {
            assert_eq!(db.version(oid), eager.version(oid), "{at}: {oid:?}");
        }
        let sorted = |db: &StableDb| {
            let mut all: Vec<_> = db.iter().collect();
            all.sort_unstable_by_key(|&(oid, _)| oid);
            all
        };
        assert_eq!(sorted(db), sorted(eager), "{at}: iter");
    }

    const SMALL_OIDS: u64 = 12;

    /// Installs, reads and clones interleaved over a few forks of one
    /// log, each fork shadowed by an eager `StableDb` fed the same
    /// installs. Twelve oids, sixteen timestamps and four tids make stale
    /// in-flight versions, exact duplicates and equal-timestamp ties from
    /// distinct transactions the common case. A fork is cloned with its
    /// cache warm or cold as the draw falls; installs go to one fork only,
    /// so a clone that saw a later install of its origin's (or the
    /// reverse) disagrees with its own shadow at the next read.
    fn install_log_case(rng: &mut SimRng) {
        let mut forks = vec![(InstallLog::new(), StableDb::new())];
        for step in 0..4_000 {
            let pick = (rng.next_u64() % forks.len() as u64) as usize;
            match rng.next_u64() % 16 {
                0..=10 => {
                    let oid = Oid(rng.next_u64() % SMALL_OIDS);
                    let version = v(
                        rng.next_u64() % 4,
                        (rng.next_u64() % 2) as u32,
                        rng.next_u64() % 16,
                    );
                    forks[pick].0.install(oid, version);
                    forks[pick].1.install(oid, version);
                }
                11..=14 => {
                    let (lazy, eager) = &forks[pick];
                    assert_same(lazy, eager, &format!("step {step} fork {pick}"));
                }
                _ => {
                    let fork = forks[pick].clone();
                    if forks.len() < 4 {
                        forks.push(fork);
                    } else {
                        let evict = 1 + (rng.next_u64() % 3) as usize;
                        forks[evict] = fork;
                    }
                }
            }
        }
        for (pick, (lazy, eager)) in forks.iter().enumerate() {
            assert_same(lazy, eager, &format!("end fork {pick}"));
        }
    }

    #[test]
    fn install_log_matches_eager_stable_db() {
        cases::run("stabledb::tests::install_log_matches", 24, install_log_case);
    }

    #[test]
    fn oracle_breaks_timestamp_ties_by_tid_seq() {
        let mut a = CommittedOracle::new();
        a.commit(Tid(1), [(Oid(5), 1, SimTime::from_millis(10))]);
        a.commit(Tid(2), [(Oid(5), 1, SimTime::from_millis(10))]);
        let mut b = CommittedOracle::new();
        b.commit(Tid(2), [(Oid(5), 1, SimTime::from_millis(10))]);
        b.commit(Tid(1), [(Oid(5), 1, SimTime::from_millis(10))]);
        assert_eq!(a.version(Oid(5)), b.version(Oid(5)));
        assert_eq!(a.version(Oid(5)).unwrap().tid, Tid(2));
    }

    #[test]
    fn empty_db() {
        let db = StableDb::new();
        assert!(db.is_empty());
        assert_eq!(db.version(Oid(0)), None);
    }

    #[test]
    fn oracle_applies_newest_committed() {
        let mut o = CommittedOracle::new();
        o.commit(Tid(1), [(Oid(5), 1, SimTime::from_millis(10))]);
        o.commit(Tid(2), [(Oid(5), 1, SimTime::from_millis(30))]);
        // An out-of-order late commit with an older record loses.
        o.commit(Tid(3), [(Oid(5), 1, SimTime::from_millis(20))]);
        assert_eq!(o.version(Oid(5)).unwrap().tid, Tid(2));
        assert_eq!(o.committed_txns(), 3);
    }

    #[test]
    fn iterators_cover_contents() {
        let mut db = StableDb::new();
        db.install(Oid(1), v(1, 1, 1));
        db.install(Oid(2), v(1, 2, 1));
        assert_eq!(db.iter().count(), 2);

        let mut o = CommittedOracle::new();
        o.commit(Tid(1), [(Oid(9), 1, SimTime::ZERO)]);
        assert_eq!(o.iter().count(), 1);
        assert!(!o.is_empty());
        assert_eq!(o.len(), 1);
    }
}
