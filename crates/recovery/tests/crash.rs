//! Crash-injection tests: run a workload against the log manager, "crash"
//! at an arbitrary instant (losing open and in-flight buffers), restart
//! from the encoded bytes of the durable surface plus the stable database,
//! and verify against the oracle of acknowledged commits.

use elog_core::{ElManager, SimpleHost};
use elog_model::{CommittedOracle, FlushConfig, LogConfig, LogRecord, Oid, Tid, TxMark};
use elog_recovery::{check_against_oracle, recover, scan_bytes, VerifyReport};
use elog_sim::SimTime;
use elog_storage::encode_surface;

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// Records the long transaction writes: with its BEGIN, one whole block.
const LONG_RECORDS: u32 = 19;

/// Runs `bursts` short transactions (one every 10 ms, 3 spread-oid records
/// each, commit 5 ms in) against `lm`, tracking which commits were
/// acknowledged and what they wrote. With `long_commit`, a long
/// transaction (tid `bursts`) first fills a block of its own and commits at
/// that instant, a multiple of 10 ms: it outlives generation 0, so its
/// records are forwarded. Returns the host and the oracle.
fn run_workload(
    lm: ElManager,
    bursts: u64,
    crash_at: SimTime,
    long_commit: Option<SimTime>,
) -> (SimpleHost, CommittedOracle) {
    // Every update of every tid, `(oid, seq, at)`, so acks can be folded
    // into the oracle.
    let updates: Vec<Vec<(Oid, u32, SimTime)>> = (0..bursts)
        .map(|tid| {
            (0..3u64)
                .map(|r| {
                    let oid = Oid(((tid * 3 + r) * 997_003) % 10_000_000);
                    (oid, r as u32 + 1, t(11 + tid * 10 + r))
                })
                .collect()
        })
        .chain([(1..=LONG_RECORDS)
            .map(|seq| (Oid(9_000_000 + u64::from(seq)), seq, t(1)))
            .collect()])
        .collect();
    let mut h = SimpleHost::new(lm);
    let mut oracle = CommittedOracle::new();
    let mut acked = 0usize;
    let mut fold_acks = |h: &SimpleHost, oracle: &mut CommittedOracle| {
        for &tid in &h.acks[acked..] {
            oracle.commit(tid, updates[tid.get() as usize].iter().copied());
        }
        acked = h.acks.len();
    };
    let long = Tid(bursts);
    if long_commit.is_some() {
        h.begin(t(0), long);
        for &(oid, seq, at) in &updates[bursts as usize] {
            h.write(at, long, oid, seq, 100);
        }
    }

    for tid in 0..bursts {
        let at = t(10 + tid * 10);
        if at >= crash_at {
            break;
        }
        if long_commit == Some(at) {
            h.commit(at, long);
        }
        h.begin(at, Tid(tid));
        for &(oid, seq, wt) in &updates[tid as usize] {
            if wt >= crash_at {
                break;
            }
            h.write(wt, Tid(tid), oid, seq, 100);
        }
        let ct = at + t(5);
        if ct < crash_at {
            h.commit(ct, Tid(tid));
        }
        fold_acks(&h, &mut oracle);
    }
    h.run_until(crash_at);
    fold_acks(&h, &mut oracle);
    (h, oracle)
}

/// Restarts from `encoded` over `h`'s stable database and checks the
/// result against `oracle`.
fn restart(encoded: &[Vec<u8>], h: &SimpleHost, oracle: &CommittedOracle) -> VerifyReport {
    let (image, _errors) = scan_bytes(encoded.iter().map(Vec::as_slice));
    check_against_oracle(oracle, &recover(&image, h.lm.stable_db()))
}

fn el_manager() -> ElManager {
    let log = LogConfig {
        generation_blocks: vec![4, 8],
        ..LogConfig::default()
    };
    ElManager::ephemeral(log, FlushConfig::default())
}

#[test]
fn recovery_after_mid_run_crash_loses_nothing_acknowledged() {
    for crash_ms in [57, 143, 288, 401, 666, 999] {
        let (h, oracle) = run_workload(el_manager(), 120, t(crash_ms), None);
        assert_eq!(h.lm.stats().durability_violations, 0);
        let report = restart(&encode_surface(&h.lm.log_surface()), &h, &oracle);
        assert!(
            report.is_ok(),
            "crash at {crash_ms} ms lost data: missing {:?}, stale {:?}",
            report.missing,
            report.stale
        );
        assert!(
            report.exact + report.acceptable_newer >= oracle.len() as u64,
            "crash at {crash_ms} ms: report does not cover the oracle"
        );
    }
}

#[test]
fn recovery_with_firewall_manager() {
    for crash_ms in [100, 500, 900] {
        let (h, oracle) = run_workload(
            ElManager::firewall(32, FlushConfig::default()),
            100,
            t(crash_ms),
            None,
        );
        let report = restart(&encode_surface(&h.lm.log_surface()), &h, &oracle);
        assert!(report.is_ok(), "FW crash at {crash_ms} ms: {report:?}");
    }
}

#[test]
fn recovery_tolerates_torn_blocks_that_carry_no_unique_state() {
    // The long transaction's block reaches gen0's head while it is still
    // active, so its records are forwarded to gen1; it then commits. Tear
    // the stale gen0 block, whose every record has a surviving copy in
    // gen1: recovery must still hold every acknowledged commit.
    let (h, oracle) = run_workload(el_manager(), 80, t(200), Some(t(100)));
    assert!(h.acks.contains(&Tid(80)), "the long transaction committed");
    assert!(h.lm.stats().forwarded_records >= u64::from(LONG_RECORDS));
    let surface = h.lm.log_surface();
    let gen1_ids: std::collections::HashSet<(Tid, Oid, u32)> = surface[1]
        .iter()
        .flat_map(|b| b.records.iter())
        .filter_map(|r| match r {
            LogRecord::Data(d) => Some((d.tid, d.oid, d.seq)),
            LogRecord::Tx(_) => None,
        })
        .collect();
    // A gen0 block whose every data record also appears in gen1, and whose
    // loss takes no commit record with it. `encode_surface` lays gen0 out
    // first, so its index is the encoded index.
    let victim = surface[0]
        .iter()
        .position(|b| {
            b.records.iter().any(|r| matches!(r, LogRecord::Data(_)))
                && b.records.iter().all(|r| match r {
                    LogRecord::Data(d) => gen1_ids.contains(&(d.tid, d.oid, d.seq)),
                    LogRecord::Tx(t) => t.mark != TxMark::Commit,
                })
        })
        .expect("no victim: no gen0 block is fully superseded by forwarding");
    let mut encoded = encode_surface(&surface);
    let n = encoded[victim].len();
    encoded[victim][n - 1] ^= 0xFF;

    let (image, errors) = scan_bytes(encoded.iter().map(Vec::as_slice));
    assert_eq!(errors.len(), 1, "the torn victim is rejected");
    assert!(
        !image.data().is_empty() && image.committed().contains(&Tid(80)),
        "the forwarded copies and the commit survive"
    );
    let report = restart(&encoded, &h, &oracle);
    assert!(report.is_ok(), "{report:?}");
    // The long transaction's updates are acknowledged and not yet flushed:
    // without gen1's forwarded copies, the torn image loses them.
    let gen0_only = restart(&encoded[..surface[0].len()], &h, &oracle);
    assert!(!gen0_only.missing.is_empty(), "{gen0_only:?}");
}

#[test]
fn clean_shutdown_recovers_exact_state() {
    let log = LogConfig {
        generation_blocks: vec![6, 6],
        ..LogConfig::default()
    };
    let mut h = SimpleHost::new(ElManager::ephemeral(log, FlushConfig::default()));
    let mut oracle = CommittedOracle::new();
    for tid in 0..20u64 {
        let at = t(tid * 20);
        h.begin(at, Tid(tid));
        let oid = Oid(tid * 500_000);
        h.write(at + t(1), Tid(tid), oid, 1, 100);
        h.commit(at + t(5), Tid(tid));
        oracle.commit(Tid(tid), [(oid, 1, at + t(1))]);
    }
    h.quiesce(t(500));
    h.run_to_completion();
    assert_eq!(h.acks.len(), 20);

    let report = restart(&encode_surface(&h.lm.log_surface()), &h, &oracle);
    assert!(report.is_ok());
    assert_eq!(report.exact, 20);
    assert_eq!(report.acceptable_newer, 0);
}
