//! End-to-end tests of the log manager through its public API, driven by
//! `SimpleHost`.
#![allow(clippy::explicit_counter_loop)] // tids advance with bursts by design

use elog_core::{ElConfig, ElManager, SimpleHost};
use elog_model::config::UnflushedAtHead;
use elog_model::{FlushConfig, LogConfig, Oid, Tid};
use elog_sim::SimTime;

const MS: u64 = 1;

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms * MS)
}

fn small_el(g0: u32, g1: u32, recirc: bool) -> ElManager {
    let log = LogConfig {
        generation_blocks: vec![g0, g1],
        recirculation: recirc,
        ..LogConfig::default()
    };
    ElManager::ephemeral(log, FlushConfig::default())
}

#[test]
fn single_transaction_commit_and_flush() {
    let mut h = SimpleHost::new(small_el(8, 8, false));
    h.begin(t(0), Tid(1));
    h.write(t(100), Tid(1), Oid(42), 1, 100);
    h.write(t(200), Tid(1), Oid(43), 2, 100);
    h.commit(t(300), Tid(1));
    assert!(h.acks.is_empty(), "no ack before the buffer is durable");

    h.quiesce(t(301));

    let end = h.run_to_completion();
    assert_eq!(h.acks, vec![Tid(1)]);
    assert!(h.kills.is_empty());

    // Both updates flushed to the stable database.
    let db = h.lm.stable_db();
    assert_eq!(db.len(), 2);
    assert_eq!(db.version(Oid(42)).unwrap().tid, Tid(1));
    assert_eq!(db.version(Oid(43)).unwrap().seq, 2);

    // All bookkeeping cleaned up.
    assert_eq!(h.lm.ltt_len(), 0);
    assert_eq!(h.lm.lot_len(), 0);
    h.lm.check_invariants();

    let m = h.lm.metrics(end);
    assert_eq!(m.stats.acks, 1);
    assert_eq!(m.stats.kills, 0);
    assert_eq!(m.stats.unsafe_drops, 0);
    assert_eq!(m.flushes, 2);
    assert!(m.log_writes >= 1);
}

#[test]
fn group_commit_acks_when_block_fills() {
    // 2000-byte payload: 19 × 100 B data records + 8 B begin + 8 B commit
    // won't fill it; write enough records from a second txn to fill the
    // block and trigger the write without quiescing.
    let mut h = SimpleHost::new(small_el(8, 8, false));
    h.begin(t(0), Tid(1));
    h.write(t(1), Tid(1), Oid(1), 1, 100);
    h.commit(t(2), Tid(1));
    assert!(h.acks.is_empty());

    h.begin(t(3), Tid(2));
    for i in 0..20 {
        h.write(t(4 + i), Tid(2), Oid(100 + i), (i + 1) as u32, 100);
    }
    // The first block sealed; 15 ms later txn 1's commit is durable.
    h.run_until(t(60));
    assert_eq!(h.acks, vec![Tid(1)]);
    h.lm.check_invariants();
}

#[test]
fn commit_latency_is_write_latency_after_seal() {
    let mut h = SimpleHost::new(small_el(8, 8, false));
    h.begin(t(0), Tid(1));
    h.write(t(1), Tid(1), Oid(7), 1, 100);
    h.commit(t(10), Tid(1));
    h.quiesce(t(10));
    h.run_until(t(24));
    assert!(h.acks.is_empty(), "15 ms write not done at +14 ms");
    h.run_until(t(25));
    assert_eq!(h.acks, vec![Tid(1)]);
}

/// A stream of short transactions: every 10 ms one begins, writes
/// `records` 100-byte records and requests commit 5 ms later. At 3
/// records/burst the update rate is 300/s — inside the flush array's
/// 400/s, so no committed-unflushed backlog builds up.
#[allow(clippy::explicit_counter_loop)] // tid advances with each burst by design
fn pump_short_txns(h: &mut SimpleHost, bursts: u64, records: u32, first_tid: u64) -> u64 {
    let mut tid = first_tid;
    for burst in 0..bursts {
        let at = t(10 + burst * 10);
        h.begin(at, Tid(tid));
        for r in 0..records {
            // Spread oids over the whole space so flush work range-partitions
            // across all drives (clustered oids would serialise on one
            // drive and starve flushing, as §3's partitioning implies).
            let oid = ((tid * u64::from(records) + u64::from(r)) * 997_003) % 10_000_000;
            h.write(at + t(1), Tid(tid), Oid(oid), r + 1, 100);
        }
        h.commit(at + t(5), Tid(tid));
        tid += 1;
    }
    tid
}

#[test]
#[allow(clippy::explicit_counter_loop)]
fn long_transaction_records_are_forwarded_not_killed() {
    // gen0 of 3 blocks wraps every ~190 ms under 31.6 KB/s of short-txn
    // traffic; the long transaction's record must be forwarded to gen1,
    // which at 12 blocks never pressures it.
    let mut h = SimpleHost::new(small_el(3, 12, false));
    h.begin(t(0), Tid(999));
    h.write(t(1), Tid(999), Oid(5), 1, 100);

    pump_short_txns(&mut h, 40, 3, 0);
    h.commit(t(450), Tid(999));
    h.quiesce(t(451));
    h.run_to_completion();

    assert!(h.kills.is_empty(), "long txn must survive via forwarding");
    assert!(h.acks.contains(&Tid(999)));
    let m = h.lm.metrics(h.now());
    assert!(m.stats.forwarded_records > 0, "gen0 wrap must forward");
    assert!(m.per_gen_writes[1] > 0, "gen1 received forwarded buffers");
    assert_eq!(m.stats.unsafe_drops, 0);
    h.lm.check_invariants();
}

#[test]
fn no_recirc_last_generation_kills_long_transaction() {
    // Tiny two-generation log without recirculation: a transaction that
    // stays active while both generations wrap must be killed (§3: "If
    // recirculation is disabled and a transaction's non-garbage log record
    // reaches the head of the last generation while it is still executing,
    // the LM kills the transaction").
    let mut h = SimpleHost::new(small_el(3, 3, false));
    h.begin(t(0), Tid(999));
    h.write(t(1), Tid(999), Oid(5), 1, 100);

    pump_short_txns(&mut h, 150, 3, 0); // 1.5 s of traffic; 999 never commits
    h.quiesce(t(2000));
    h.run_to_completion();
    assert!(
        h.kills.contains(&Tid(999)),
        "long txn must die in a 6-block log"
    );
    assert!(h.lm.stats().kills >= 1);
    h.lm.check_invariants();
}

#[test]
fn recirculation_saves_the_long_transaction() {
    // Recirculation on, in a last generation big enough to hold the live
    // records plus in-transit unflushed ones: the long transaction
    // survives by recirculating. A mildly loaded flush array (333/s
    // capacity against 300 updates/s) keeps some committed-unflushed
    // records transiting generation 1, which is what makes its head move.
    let log = LogConfig {
        generation_blocks: vec![4, 8],
        recirculation: true,
        ..LogConfig::default()
    };
    let flush = FlushConfig {
        drives: 10,
        transfer_time: SimTime::from_millis(30),
    };
    let mut h = SimpleHost::new(ElManager::ephemeral(log, flush));
    h.begin(t(0), Tid(999));
    h.write(t(1), Tid(999), Oid(5), 1, 100);

    pump_short_txns(&mut h, 150, 3, 0);
    h.commit(t(1600), Tid(999));
    h.quiesce(t(1601));
    h.run_to_completion();
    assert!(
        !h.kills.contains(&Tid(999)),
        "recirculation must keep it alive"
    );
    assert!(h.acks.contains(&Tid(999)));
    assert!(
        h.lm.stats().recirculated_records > 0,
        "gen1 wrapped, so it recirculated"
    );
    h.lm.check_invariants();
}

#[test]
fn firewall_kills_under_space_pressure() {
    let mut h = SimpleHost::new(ElManager::firewall(4, FlushConfig::default()));
    h.begin(t(0), Tid(999));
    h.write(t(1), Tid(999), Oid(5), 1, 100);

    let mut tid = 0;
    for burst in 0..40u64 {
        let at = t(10 + burst * 10);
        h.begin(at, Tid(tid));
        for r in 0..10u32 {
            h.write(
                at + t(1),
                Tid(tid),
                Oid(1000 + tid * 100 + u64::from(r)),
                r + 1,
                100,
            );
        }
        h.commit(at + t(5), Tid(tid));
        tid += 1;
    }
    h.quiesce(t(1000));
    h.run_to_completion();
    assert!(h.kills.contains(&Tid(999)), "firewall txn must be killed");
    h.lm.check_invariants();
}

#[test]
fn firewall_with_enough_space_never_kills() {
    let mut h = SimpleHost::new(ElManager::firewall(64, FlushConfig::default()));
    h.begin(t(0), Tid(999));
    h.write(t(1), Tid(999), Oid(5), 1, 100);
    let mut tid = 0;
    for burst in 0..40u64 {
        let at = t(10 + burst * 10);
        h.begin(at, Tid(tid));
        for r in 0..10u32 {
            h.write(
                at + t(1),
                Tid(tid),
                Oid(1000 + tid * 100 + u64::from(r)),
                r + 1,
                100,
            );
        }
        h.commit(at + t(5), Tid(tid));
        tid += 1;
    }
    h.commit(t(500), Tid(999));
    h.quiesce(t(501));
    h.run_to_completion();
    assert!(h.kills.is_empty());
    assert!(h.acks.contains(&Tid(999)));
    assert_eq!(h.lm.stats().unsafe_drops, 0);
}

#[test]
fn abort_cleans_everything() {
    let mut h = SimpleHost::new(small_el(8, 8, false));
    h.begin(t(0), Tid(1));
    h.write(t(1), Tid(1), Oid(42), 1, 100);
    h.write(t(2), Tid(1), Oid(43), 2, 100);
    h.abort(t(3), Tid(1));
    assert_eq!(h.lm.ltt_len(), 0);
    assert_eq!(h.lm.lot_len(), 0);
    assert_eq!(h.lm.stats().aborts, 1);
    h.lm.check_invariants();

    // A write after abort is ignored, not fatal.
    h.write(t(4), Tid(1), Oid(44), 3, 100);
    assert_eq!(h.lm.stats().ignored_writes, 1);
    h.quiesce(t(5));
    h.run_to_completion();
    assert!(h.lm.stable_db().is_empty(), "aborted updates never flush");
}

#[test]
fn supersession_makes_old_committed_update_garbage() {
    // Txn 1 commits an update of oid 42, then txn 2 overwrites it before
    // the flush completes — provoked by a flush array with one slow drive.
    let log = LogConfig {
        generation_blocks: vec![8, 8],
        ..LogConfig::default()
    };
    let flush = FlushConfig {
        drives: 1,
        transfer_time: SimTime::from_millis(500),
    };
    let mut h = SimpleHost::new(ElManager::ephemeral(log, flush));

    h.begin(t(0), Tid(1));
    h.write(t(1), Tid(1), Oid(42), 1, 100);
    h.commit(t(2), Tid(1));
    h.quiesce(t(2));
    h.run_until(t(30)); // ack for txn 1; flush of (42, txn1) in service

    h.begin(t(31), Tid(2));
    h.write(t(32), Tid(2), Oid(42), 1, 100);
    h.commit(t(33), Tid(2));
    h.quiesce(t(34));
    let end = h.run_to_completion();

    assert_eq!(h.acks, vec![Tid(1), Tid(2)]);
    let v = h.lm.stable_db().version(Oid(42)).unwrap();
    assert_eq!(
        v.tid,
        Tid(2),
        "newest committed version wins in the stable DB"
    );
    assert_eq!(h.lm.ltt_len(), 0);
    assert_eq!(h.lm.lot_len(), 0);
    let _ = end;
    h.lm.check_invariants();
}

#[test]
fn geometry_prices_memory() {
    let flush = FlushConfig::default();
    let log = LogConfig {
        generation_blocks: vec![8, 8],
        ..LogConfig::default()
    };

    // The pricing is read off the geometry: one generation without
    // recirculation is FW however it is built; recirculation makes it EL.
    let one_gen = LogConfig {
        generation_blocks: vec![16],
        ..LogConfig::default()
    };
    let recirculating = LogConfig {
        recirculation: true,
        ..one_gen.clone()
    };
    let mut el = SimpleHost::new(ElManager::ephemeral(log, flush.clone()));
    let mut fw = SimpleHost::new(ElManager::firewall(16, flush.clone()));
    let mut fw_built = SimpleHost::new(ElManager::ephemeral(one_gen, flush.clone()));
    let mut el_one_gen = SimpleHost::new(ElManager::ephemeral(recirculating, flush));
    for h in [&mut el, &mut fw, &mut fw_built, &mut el_one_gen] {
        h.begin(t(0), Tid(1));
        h.write(t(1), Tid(1), Oid(42), 1, 100);
        h.write(t(2), Tid(1), Oid(43), 2, 100);
    }
    // EL: 40 per txn + 40 per object = 40 + 80 = 120.
    assert_eq!(el.lm.peak_memory_bytes(), 120);
    assert_eq!(el_one_gen.lm.peak_memory_bytes(), 120);
    // FW: 22 per txn = 22.
    assert_eq!(fw.lm.peak_memory_bytes(), 22);
    assert_eq!(fw_built.lm.peak_memory_bytes(), 22);
}

#[test]
fn force_flush_policy_expedites() {
    let log = LogConfig {
        generation_blocks: vec![3, 8],
        unflushed_at_head: UnflushedAtHead::ForceFlush,
        ..LogConfig::default()
    };
    // Slow single drive so committed updates are still unflushed when
    // gen0's head reaches them.
    let flush = FlushConfig {
        drives: 1,
        transfer_time: SimTime::from_millis(2000),
    };
    let mut h = SimpleHost::new(ElManager::ephemeral(log, flush));

    let mut tid = 0;
    for burst in 0..30u64 {
        let at = t(10 + burst * 10);
        h.begin(at, Tid(tid));
        for r in 0..10u32 {
            h.write(
                at + t(1),
                Tid(tid),
                Oid(1000 + tid * 100 + u64::from(r)),
                r + 1,
                100,
            );
        }
        h.commit(at + t(5), Tid(tid));
        tid += 1;
    }
    h.quiesce(t(10_000));
    h.run_to_completion();
    assert!(
        h.lm.stats().forced_flushes > 0,
        "policy must expedite head arrivals"
    );
    h.lm.check_invariants();
}

#[test]
fn quiesce_is_idempotent() {
    let mut h = SimpleHost::new(small_el(8, 8, false));
    h.begin(t(0), Tid(1));
    h.write(t(1), Tid(1), Oid(42), 1, 100);
    h.commit(t(2), Tid(1));
    h.quiesce(t(3));
    h.quiesce(t(3));
    h.quiesce(t(3));
    h.run_until(SimTime::MAX);
    assert_eq!(h.acks, vec![Tid(1)]);
}

#[test]
fn log_surface_contains_committed_records() {
    let mut h = SimpleHost::new(small_el(8, 8, false));
    h.begin(t(0), Tid(1));
    h.write(t(1), Tid(1), Oid(42), 1, 100);
    h.commit(t(2), Tid(1));
    h.quiesce(t(2));
    h.run_until(t(17)); // install done at +15 ms

    let surface = h.lm.log_surface();
    assert_eq!(surface.len(), 2);
    let gen0_records: usize = surface[0].iter().map(|b| b.records.len()).sum();
    assert_eq!(gen0_records, 3, "BEGIN + data + COMMIT all durable");
    assert!(surface[1].is_empty(), "nothing forwarded yet");
}

#[test]
fn group_commit_timeout_bounds_latency() {
    let log = LogConfig {
        generation_blocks: vec![8, 8],
        ..LogConfig::default()
    };
    let mut cfg = ElConfig::ephemeral(log, FlushConfig::default());
    cfg.group_commit_timeout = Some(SimTime::from_millis(20));
    let mut h = SimpleHost::new(ElManager::new(cfg).unwrap());

    h.begin(t(0), Tid(1));
    h.write(t(1), Tid(1), Oid(42), 1, 100);
    h.commit(t(2), Tid(1));
    // No quiesce: the 20 ms timeout seals the buffer, +15 ms write.
    h.run_until(t(120));
    assert_eq!(h.acks, vec![Tid(1)], "timeout must bound commit latency");
}

#[test]
fn metrics_snapshot_consistency() {
    let mut h = SimpleHost::new(small_el(8, 8, false));
    for tid in 0..10u64 {
        h.begin(t(tid * 10), Tid(tid));
        h.write(t(tid * 10 + 1), Tid(tid), Oid(100 + tid), 1, 100);
        h.commit(t(tid * 10 + 5), Tid(tid));
    }
    h.quiesce(t(200));
    let end = h.run_to_completion();
    let m = h.lm.metrics(end);
    assert_eq!(m.total_blocks, 16);
    assert_eq!(m.per_gen_blocks, vec![8, 8]);
    assert_eq!(m.log_writes, m.per_gen_writes.iter().sum::<u64>());
    assert_eq!(m.stats.acks, 10);
    assert_eq!(m.flushes, 10);
    assert!(m.log_write_rate > 0.0);
    assert!(m.peak_memory_bytes > 0);
    assert_eq!(m.flush_backlog, 0);
}

#[test]
fn commit_of_update_free_transaction() {
    let mut h = SimpleHost::new(small_el(8, 8, false));
    h.begin(t(0), Tid(1));
    h.commit(t(1), Tid(1));
    h.quiesce(t(2));
    h.run_to_completion();
    assert_eq!(h.acks, vec![Tid(1)]);
    assert_eq!(h.lm.ltt_len(), 0, "entry disposed immediately after ack");
    h.lm.check_invariants();
}

#[test]
fn invalid_configs_rejected() {
    let log = LogConfig {
        generation_blocks: vec![],
        ..LogConfig::default()
    };
    assert!(ElManager::new(ElConfig::ephemeral(log, FlushConfig::default())).is_err());

    let log = LogConfig {
        generation_blocks: vec![2],
        ..LogConfig::default()
    };
    assert!(ElManager::new(ElConfig::ephemeral(log, FlushConfig::default())).is_err());
}
