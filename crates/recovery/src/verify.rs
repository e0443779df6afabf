//! Recovery verification against a committed-state oracle.
//!
//! The oracle records the updates of every *acknowledged* transaction.
//! Because acknowledgement happens only after the COMMIT record is
//! durable, everything in the oracle must be recoverable. The converse is
//! not true: a transaction whose COMMIT record became durable a moment
//! before the crash — but whose acknowledgement had not been delivered —
//! is legitimately committed at recovery yet absent from the oracle. The
//! verifier therefore distinguishes *exact* matches from *acceptably
//! newer* recovered versions, and only missing or stale objects are
//! failures.

use crate::redo::RecoveredState;
use elog_model::CommittedOracle;
use elog_model::Oid;

/// Outcome of comparing a recovery against the oracle.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Objects whose recovered version equals the oracle's exactly.
    pub exact: u64,
    /// Objects recovered at a *newer* version than the oracle's — a
    /// commit that was durable but unacknowledged at the crash.
    pub acceptable_newer: u64,
    /// Oracle objects missing from the recovery (FAILURES).
    pub missing: Vec<Oid>,
    /// Oracle objects recovered at an *older* version (FAILURES).
    pub stale: Vec<Oid>,
}

impl VerifyReport {
    /// True when recovery lost nothing.
    pub fn is_ok(&self) -> bool {
        self.missing.is_empty() && self.stale.is_empty()
    }
}

/// Compares `recovered` against `oracle`.
pub fn check_against_oracle(oracle: &CommittedOracle, recovered: &RecoveredState) -> VerifyReport {
    let mut report = VerifyReport::default();
    for (oid, want) in oracle.iter() {
        match recovered.versions.get(&oid) {
            None => report.missing.push(oid),
            Some(got) if got == &want => report.exact += 1,
            // "Newer" is the (ts, tid, seq) total order recovery itself
            // uses, so an equal-timestamp winner from a higher tid is
            // classified the same way the REDO pass ranked it.
            Some(got) if got.order_key() > want.order_key() => report.acceptable_newer += 1,
            Some(_) => report.stale.push(oid),
        }
    }
    report.missing.sort_unstable();
    report.stale.sort_unstable();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recover, LogImage};
    use elog_model::{ObjectVersion, StableDb, Tid};
    use elog_sim::SimTime;

    fn v(tid: u64, ms: u64) -> ObjectVersion {
        ObjectVersion {
            tid: Tid(tid),
            seq: 1,
            ts: SimTime::from_millis(ms),
        }
    }

    fn oracle_with(entries: &[(u64, ObjectVersion)]) -> CommittedOracle {
        let mut o = CommittedOracle::new();
        for &(oid, ver) in entries {
            o.commit(ver.tid, [(Oid(oid), ver.seq, ver.ts)]);
        }
        o
    }

    fn recovered_with(entries: &[(u64, ObjectVersion)]) -> RecoveredState {
        let mut stable = StableDb::new();
        for &(oid, ver) in entries {
            stable.install(Oid(oid), ver);
        }
        recover(&LogImage::default(), &stable)
    }

    #[test]
    fn exact_match_is_ok() {
        let o = oracle_with(&[(1, v(1, 10)), (2, v(2, 20))]);
        let r = recovered_with(&[(1, v(1, 10)), (2, v(2, 20))]);
        let rep = check_against_oracle(&o, &r);
        assert!(rep.is_ok());
        assert_eq!(rep.exact, 2);
        assert_eq!(rep.acceptable_newer, 0);
    }

    #[test]
    fn newer_recovered_version_is_acceptable() {
        let o = oracle_with(&[(1, v(1, 10))]);
        let r = recovered_with(&[(1, v(9, 99))]);
        let rep = check_against_oracle(&o, &r);
        assert!(rep.is_ok());
        assert_eq!(rep.acceptable_newer, 1);
    }

    #[test]
    fn equal_timestamp_higher_tid_is_newer_lower_is_stale() {
        let o = oracle_with(&[(1, v(5, 10))]);
        let newer = recovered_with(&[(1, v(8, 10))]);
        let rep = check_against_oracle(&o, &newer);
        assert!(rep.is_ok());
        assert_eq!(rep.acceptable_newer, 1);

        let stale = recovered_with(&[(1, v(2, 10))]);
        let rep = check_against_oracle(&o, &stale);
        assert!(!rep.is_ok());
        assert_eq!(rep.stale, vec![Oid(1)]);
    }

    #[test]
    fn missing_object_fails() {
        let o = oracle_with(&[(1, v(1, 10))]);
        let r = recovered_with(&[]);
        let rep = check_against_oracle(&o, &r);
        assert!(!rep.is_ok());
        assert_eq!(rep.missing, vec![Oid(1)]);
    }

    #[test]
    fn stale_version_fails() {
        let o = oracle_with(&[(1, v(2, 20))]);
        let r = recovered_with(&[(1, v(1, 10))]);
        let rep = check_against_oracle(&o, &r);
        assert!(!rep.is_ok());
        assert_eq!(rep.stale, vec![Oid(1)]);
    }

    #[test]
    fn extra_recovered_objects_ignored() {
        // Objects from unacked-but-durable commits that the oracle never
        // saw at all: not failures.
        let o = oracle_with(&[]);
        let r = recovered_with(&[(7, v(1, 10))]);
        assert!(check_against_oracle(&o, &r).is_ok());
    }
}
