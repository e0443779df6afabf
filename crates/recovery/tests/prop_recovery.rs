//! Property tests: for *any* workload shape and crash instant, single-pass
//! recovery preserves every acknowledged transaction; and for *any*
//! arrangement of the same records on disk, it reconstructs the *same*
//! state — the scan order of generations must never pick the winner.

use elog_core::{ElManager, SimpleHost};
use elog_model::{
    CommittedOracle, DataRecord, FlushConfig, GenId, LogConfig, LogRecord, ObjectVersion, Oid,
    StableDb, Tid, TxMark, TxRecord,
};
use elog_recovery::{check_against_oracle, recover, scan_bytes, LogImage, RecoveredState};
use elog_sim::{cases, SimRng, SimTime};
use elog_storage::{encode_surface, Block, BlockAddr};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
struct TxPlan {
    start_ms: u64,
    duration_ms: u64,
    updates: u8,
    abort: bool,
}

impl TxPlan {
    fn draw(rng: &mut SimRng) -> TxPlan {
        TxPlan {
            start_ms: rng.range(0..2_000),
            duration_ms: rng.range(20..3_000),
            updates: rng.range(1..6) as u8,
            abort: rng.next_f64() < 0.15,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Action {
    Begin(Tid),
    Write(Tid, Oid, u32),
    Commit(Tid),
    Abort(Tid),
}

#[test]
fn any_crash_preserves_acknowledged_commits() {
    cases::run("any_crash_preserves_acknowledged_commits", 32, |rng| {
        let plans: Vec<TxPlan> = (0..rng.range(1..40)).map(|_| TxPlan::draw(rng)).collect();
        let crash_ms = rng.range(100..6_000);
        let recirc = rng.next_f64() < 0.5;
        let (g0, g1) = (rng.range(4..10) as u32, rng.range(6..14) as u32);
        crash_case(&plans, crash_ms, recirc, g0, g1);
    });
}

/// The case the property once shrank to: nine overlapping transactions, a
/// crash at 1 812 ms, a recirculating [5, 13] log.
#[test]
fn crash_at_1812ms_on_recirculating_5_13_preserves_acknowledged_commits() {
    let plan = |start_ms, duration_ms, updates| TxPlan {
        start_ms,
        duration_ms,
        updates,
        abort: false,
    };
    let plans = [
        plan(0, 20, 5),
        plan(0, 20, 5),
        plan(0, 20, 4),
        plan(0, 1351, 3),
        plan(604, 383, 2),
        plan(419, 1572, 1),
        plan(1694, 1283, 4),
        plan(1370, 430, 1),
        plan(260, 2095, 1),
    ];
    crash_case(&plans, 1812, true, 5, 13);
}

/// Replays `plans` against a `[g0, g1]` log, crashes at `crash_ms` and
/// recovers: every acknowledged commit must be in the recovered state.
fn crash_case(plans: &[TxPlan], crash_ms: u64, recirc: bool, g0: u32, g1: u32) {
    // Flatten every transaction's lifecycle into one global,
    // time-sorted schedule (overlapping transactions must reach the
    // host in chronological order).
    let mut schedule: Vec<(SimTime, Action)> = Vec::new();
    let mut updates_of: Vec<Vec<(Oid, u32, SimTime)>> = vec![Vec::new(); plans.len()];
    for (i, p) in plans.iter().enumerate() {
        let tid = Tid(i as u64);
        let t0 = SimTime::from_millis(p.start_ms);
        schedule.push((t0, Action::Begin(tid)));
        for u in 0..p.updates {
            let at = t0
                + SimTime::from_millis(
                    u64::from(u + 1) * p.duration_ms / (u64::from(p.updates) + 1),
                );
            // Unique-per-(txn,seq) oid keeps the oid-uniqueness
            // constraint satisfied without a picker.
            let oid = Oid(((i as u64 * 8 + u64::from(u)) * 1_237_547) % 10_000_000);
            schedule.push((at, Action::Write(tid, oid, u32::from(u) + 1)));
            updates_of[i].push((oid, u32::from(u) + 1, at));
        }
        let t_end = t0 + SimTime::from_millis(p.duration_ms);
        schedule.push((
            t_end,
            if p.abort {
                Action::Abort(tid)
            } else {
                Action::Commit(tid)
            },
        ));
    }
    schedule.sort_by_key(|&(at, _)| at);

    let log = LogConfig {
        generation_blocks: vec![g0, g1],
        recirculation: recirc,
        ..LogConfig::default()
    };
    let mut host = SimpleHost::new(ElManager::ephemeral(log, FlushConfig::default()));
    let mut oracle = CommittedOracle::new();
    let mut acked = 0usize;
    let crash = SimTime::from_millis(crash_ms);

    for (at, action) in schedule {
        if at >= crash {
            break;
        }
        match action {
            Action::Begin(tid) => host.begin(at, tid),
            // A killed transaction's writes are still sent; the manager
            // ignores them.
            Action::Write(tid, oid, seq) => host.write(at, tid, oid, seq, 100),
            Action::Commit(tid) => host.commit(at, tid),
            Action::Abort(tid) => host.abort(at, tid),
        }
        while acked < host.acks.len() {
            let t = host.acks[acked];
            oracle.commit(t, updates_of[t.get() as usize].iter().copied());
            acked += 1;
        }
    }
    host.run_until(crash); // CRASH — open/in-flight buffers lost.
    while acked < host.acks.len() {
        let t = host.acks[acked];
        oracle.commit(t, updates_of[t.get() as usize].iter().copied());
        acked += 1;
    }

    assert_eq!(host.lm.stats().durability_violations, 0);
    let encoded = encode_surface(&host.lm.log_surface());
    let state = recover(&scan(&encoded), host.lm.stable_db());
    let report = check_against_oracle(&oracle, &state);
    assert!(
        report.is_ok(),
        "crash at {}ms lost data: missing {:?} stale {:?}",
        crash_ms,
        report.missing,
        report.stale
    );
}

/// Packs a slice of records into blocks of one generation (a handful of
/// records per block, like the real log manager would), encoded.
fn pack_gen(gen: u8, records: &[LogRecord]) -> Vec<Vec<u8>> {
    let mut blocks = Vec::new();
    for (i, chunk) in records.chunks(4).enumerate() {
        let mut b = Block::new(BlockAddr {
            gen: GenId(gen),
            seq: i as u64,
        });
        for &r in chunk {
            b.push(r);
        }
        blocks.push(b);
    }
    encode_surface(&[blocks])
}

/// The byte-level scan of encoded blocks, every one of which must decode.
fn scan<'a>(blocks: impl IntoIterator<Item = &'a Vec<u8>>) -> LogImage {
    let (image, errors) = scan_bytes(blocks.into_iter().map(Vec::as_slice));
    assert!(errors.is_empty(), "{errors:?}");
    image
}

/// A recovered state in comparable form: the version map in oid order,
/// its length, then `redone`, `skipped_stale`, `skipped_uncommitted` and
/// `committed_txns`.
type Canon = (Vec<(Oid, ObjectVersion)>, usize, u64, u64, u64, u64);

/// `state` reduced to [`Canon`]; the overlay's `iter` must yield each oid
/// once.
fn canon(state: &RecoveredState) -> Canon {
    let mut versions: Vec<(Oid, ObjectVersion)> = state.versions.iter().collect();
    versions.sort_by_key(|&(o, _)| o);
    assert!(
        versions.windows(2).all(|w| w[0].0 != w[1].0),
        "iter yielded an oid twice"
    );
    (
        versions,
        state.versions.len(),
        state.redone,
        state.skipped_stale,
        state.skipped_uncommitted,
        state.committed_txns,
    )
}

/// One `(tid, oid, seq, ts_ms)` draw from ranges tight enough that updates
/// collide densely.
fn draw_update(rng: &mut SimRng) -> (u64, u64, u32, u64) {
    (
        rng.range(0..5),
        rng.range(0..6),
        rng.range(1..4) as u32,
        rng.range(0..6),
    )
}

/// `recover(scan_bytes(perm(gens)))` is one function of the record
/// *set*: every permutation of the generations — and every finer
/// interleaving, down to single-block pseudo-generations — must
/// reconstruct the identical state. The generator forces the nasty
/// case on purpose: few oids, few distinct timestamps, so distinct
/// transactions routinely update the same object at the same virtual
/// time and only the `(ts, tid, seq)` total order can pick a winner.
fn permutation_case(rng: &mut SimRng) {
    let recs: Vec<_> = (0..rng.range(4..32)).map(|_| draw_update(rng)).collect();
    let commit: Vec<bool> = (0..5).map(|_| rng.next_f64() < 0.8).collect();
    // Stable-DB seeds, colliding with log timestamps.
    let stable_seed: Vec<_> = (0..rng.range(0..6)).map(|_| draw_update(rng)).collect();
    let gens_n = rng.range(2..5) as usize;

    // Canonical record set: data records spread round-robin across
    // generations; commit records for committed tids; three in ten
    // records are duplicated into the *next* generation (a forwarded
    // physical copy, exactly what recirculation leaves behind).
    let mut gens: Vec<Vec<LogRecord>> = vec![Vec::new(); gens_n];
    // `(tid, oid, seq)` identifies one update in the real system, so
    // every physical copy of it carries the same timestamp; pin the
    // first sampled ts per key (later samples of the same key become
    // exact duplicate copies, which is what forwarding leaves).
    let mut ts_of: std::collections::HashMap<(u64, u64, u32), u64> =
        std::collections::HashMap::new();
    for (i, &(tid, oid, seq, ts)) in recs.iter().enumerate() {
        let ts = *ts_of.entry((tid, oid, seq)).or_insert(ts);
        let r = LogRecord::Data(DataRecord {
            tid: Tid(tid),
            oid: Oid(oid),
            seq,
            ts: SimTime::from_millis(ts),
            size: 100,
        });
        gens[i % gens_n].push(r);
        if rng.next_f64() < 0.3 {
            gens[(i + 1) % gens_n].push(r);
        }
    }
    for (t, &c) in commit.iter().enumerate() {
        if c {
            gens[t % gens_n].push(LogRecord::Tx(TxRecord {
                tid: Tid(t as u64),
                mark: TxMark::Commit,
                ts: SimTime::from_millis(10),
                size: 8,
            }));
        }
    }
    let mut stable = StableDb::new();
    for &(tid, oid, seq, ts) in &stable_seed {
        stable.install(
            Oid(oid),
            ObjectVersion {
                tid: Tid(tid),
                seq,
                ts: SimTime::from_millis(ts),
            },
        );
    }

    let packed: Vec<Vec<Vec<u8>>> = gens
        .iter()
        .enumerate()
        .map(|(g, rs)| pack_gen(g as u8, rs))
        .collect();
    let reference = canon(&recover(&scan(packed.iter().flatten()), &stable));

    // Whole-generation permutations (Fisher–Yates; several distinct
    // shuffles per case).
    let mut order: Vec<usize> = (0..gens_n).collect();
    for _ in 0..4 {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_u64_below(i as u64 + 1) as usize);
        }
        let permuted = order.iter().flat_map(|&g| &packed[g]);
        let got = canon(&recover(&scan(permuted), &stable));
        assert_eq!(
            &got, &reference,
            "generation order {order:?} changed recovery"
        );
    }

    // Block-level interleavings: the whole pile of blocks is shuffled —
    // the finest arrangement the scan can be handed.
    let mut singles: Vec<&Vec<u8>> = packed.iter().flatten().collect();
    for _ in 0..2 {
        for i in (1..singles.len()).rev() {
            singles.swap(i, rng.next_u64_below(i as u64 + 1) as usize);
        }
        let got = canon(&recover(&scan(singles.iter().copied()), &stable));
        assert_eq!(&got, &reference, "block interleaving changed recovery");
    }
}

#[test]
fn recovery_is_invariant_under_generation_permutation() {
    cases::run(
        "recovery_is_invariant_under_generation_permutation",
        48,
        permutation_case,
    );
}

/// REDO as the definition reads, one `insert` at a time into ordered maps:
/// a copy of every stable version, then the newest committed update per
/// object, then each candidate against the stable stamp.
fn reference_recover(image: &LogImage, stable: &StableDb) -> Canon {
    let mut versions = BTreeMap::new();
    for (oid, v) in stable.iter() {
        versions.insert(oid, v);
    }
    let (mut redone, mut skipped_stale, mut skipped_uncommitted) = (0, 0, 0);
    let mut candidates: BTreeMap<Oid, ObjectVersion> = BTreeMap::new();
    for d in image.data() {
        if !image.committed().contains(&d.tid) {
            skipped_uncommitted += 1;
            continue;
        }
        let v = ObjectVersion {
            tid: d.tid,
            seq: d.seq,
            ts: d.ts,
        };
        if candidates
            .get(&d.oid)
            .is_none_or(|c| v.order_key() > c.order_key())
        {
            candidates.insert(d.oid, v);
        }
    }
    for (oid, v) in candidates {
        if versions
            .get(&oid)
            .is_some_and(|s| s.order_key() >= v.order_key())
        {
            skipped_stale += 1;
        } else {
            versions.insert(oid, v);
            redone += 1;
        }
    }
    (
        versions.iter().map(|(&o, &v)| (o, v)).collect(),
        versions.len(),
        redone,
        skipped_stale,
        skipped_uncommitted,
        image.committed().len() as u64,
    )
}

/// One random image × one random stable database. Oids, tids and
/// timestamps come from ranges narrow enough that log records collide
/// with each other and with stable stamps; the stable database runs from
/// empty to a few hundred objects, so the table `recover` lays its
/// winners over has been through every growth step a small one sees.
fn recover_case(rng: &mut SimRng) {
    let oids = 1 + rng.next_u64() % 300;
    let tids = 1 + rng.next_u64() % 40;
    let times = 1 + rng.next_u64() % 50;
    let mut stable = StableDb::new();
    for _ in 0..rng.next_u64() % 400 {
        stable.install(
            Oid(rng.next_u64() % oids),
            ObjectVersion {
                tid: Tid(rng.next_u64() % tids),
                seq: 1 + (rng.next_u64() % 3) as u32,
                ts: SimTime::from_millis(rng.next_u64() % times),
            },
        );
    }
    // `(tid, oid, seq)` names one update, so every physical copy of it
    // carries one timestamp (the first drawn).
    let mut ts_of = std::collections::HashMap::new();
    let mut records = Vec::new();
    for _ in 0..rng.next_u64() % 250 {
        let key = (
            rng.next_u64() % tids,
            rng.next_u64() % oids,
            1 + (rng.next_u64() % 3) as u32,
        );
        let ts = *ts_of.entry(key).or_insert(rng.next_u64() % times);
        records.push(LogRecord::Data(DataRecord {
            tid: Tid(key.0),
            oid: Oid(key.1),
            seq: key.2,
            ts: SimTime::from_millis(ts),
            size: 100,
        }));
    }
    for tid in 0..tids {
        let mark = match rng.next_u64() % 8 {
            0 => continue,
            1 => TxMark::Abort,
            _ => TxMark::Commit,
        };
        let at = rng.next_u64() as usize % (records.len() + 1);
        records.insert(
            at,
            LogRecord::Tx(TxRecord {
                tid: Tid(tid),
                mark,
                ts: SimTime::from_millis(times),
                size: 8,
            }),
        );
    }
    let image = scan(&pack_gen(0, &records));
    assert_dedup(&image, &records);
    assert_eq!(
        canon(&recover(&image, &stable)),
        reference_recover(&image, &stable),
        "{} stable objects, {} log records",
        stable.len(),
        records.len()
    );
}

/// The scan's dedup against one computed apart from it: `image.data()` is
/// the first copy of each `(tid, oid, seq)` among `records`' data records,
/// in scan order, and every later copy counts as a duplicate.
fn assert_dedup(image: &LogImage, records: &[LogRecord]) {
    let copies: Vec<DataRecord> = records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Data(d) => Some(*d),
            LogRecord::Tx(_) => None,
        })
        .collect();
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<DataRecord> = copies
        .iter()
        .copied()
        .filter(|d| seen.insert((d.tid, d.oid, d.seq)))
        .collect();
    assert_eq!(image.data(), distinct.as_slice(), "first-occurrence dedup");
    assert_eq!(
        image.stats.duplicates,
        (copies.len() - distinct.len()) as u64,
        "copies minus distinct updates"
    );
}

/// `recover` overlays its winners on the shared stable table; the
/// reference copies that table and inserts into the copy. Field for field,
/// and in length, the same.
#[test]
fn recover_matches_the_insert_by_insert_reference() {
    cases::run(
        "recover_matches_the_insert_by_insert_reference",
        300,
        recover_case,
    );
}

/// One object with 1 000 – 1 500 distinct versions, each in one to three
/// copies spread over a shuffled log, one in ten versions uncommitted, and
/// a stable stamp drawn from the same range: the scan's dedup and the
/// per-object walk against the reference, however deep one object runs.
fn hot_object_case(rng: &mut SimRng) {
    let oid = Oid(7);
    let versions = rng.range(1_000..1_501);
    let mut records = Vec::new();
    for tid in 0..versions {
        let update = LogRecord::Data(DataRecord {
            tid: Tid(tid),
            oid,
            seq: 1,
            ts: SimTime::from_millis(rng.range(0..versions / 2)),
            size: 100,
        });
        for _ in 0..rng.range(1..4) {
            records.push(update);
        }
        if rng.next_f64() < 0.9 {
            records.push(LogRecord::Tx(TxRecord {
                tid: Tid(tid),
                mark: TxMark::Commit,
                ts: SimTime::from_millis(versions),
                size: 8,
            }));
        }
    }
    for i in (1..records.len()).rev() {
        records.swap(i, rng.next_u64_below(i as u64 + 1) as usize);
    }
    let mut stable = StableDb::new();
    stable.install(
        oid,
        ObjectVersion {
            tid: Tid(rng.range(0..versions)),
            seq: 1,
            ts: SimTime::from_millis(rng.range(0..versions / 2)),
        },
    );
    let image = scan(&pack_gen(0, &records));
    assert_dedup(&image, &records);
    assert_eq!(image.data().len() as u64, versions);
    assert_eq!(
        canon(&recover(&image, &stable)),
        reference_recover(&image, &stable)
    );
}

#[test]
fn an_object_with_a_thousand_versions_matches_the_reference() {
    cases::run(
        "an_object_with_a_thousand_versions_matches_the_reference",
        8,
        hot_object_case,
    );
}

/// Pins the tie-break itself so a regression is caught by name, not by a
/// shrunk random case: two committed transactions write the same object
/// at the same timestamp — the winner is the higher `(ts, tid, seq)` key
/// in *both* scan orders, and a stable version carrying the equal key
/// beats the log copy.
#[test]
fn equal_timestamp_tie_break_is_pinned_to_ts_tid_seq() {
    let ts = SimTime::from_millis(5);
    let oid = Oid(42);
    let rec = |tid: u64, seq: u32| {
        LogRecord::Data(DataRecord {
            tid: Tid(tid),
            oid,
            seq,
            ts,
            size: 100,
        })
    };
    let commit = |tid: u64| {
        LogRecord::Tx(TxRecord {
            tid: Tid(tid),
            mark: TxMark::Commit,
            ts: SimTime::from_millis(9),
            size: 8,
        })
    };
    let gen_a = pack_gen(0, &[rec(2, 3), commit(2)]);
    let gen_b = pack_gen(1, &[rec(7, 1), commit(7)]);

    for (label, order) in [("a,b", [&gen_a, &gen_b]), ("b,a", [&gen_b, &gen_a])] {
        let state = recover(&scan(order.into_iter().flatten()), &StableDb::new());
        let v = state.versions[&oid];
        assert_eq!(v.tid, Tid(7), "scan order {label}: higher tid must win");
        assert_eq!(v.seq, 1);
    }

    // Same tid, same ts: higher seq wins (the later update of that txn).
    let gen_c = pack_gen(0, &[rec(7, 1), rec(7, 2), commit(7)]);
    let state = recover(&scan(&gen_c), &StableDb::new());
    assert_eq!(
        state.versions[&oid].seq, 2,
        "higher seq must win at equal ts"
    );

    // Stable-vs-log uses the same total order: a stable version with the
    // exact winning key makes the log copy stale, not redone.
    let mut stable = StableDb::new();
    stable.install(
        oid,
        ObjectVersion {
            tid: Tid(7),
            seq: 1,
            ts,
        },
    );
    let state = recover(&scan(&gen_b), &stable);
    assert_eq!(state.redone, 0, "equal-key stable version wins");
    assert_eq!(state.skipped_stale, 1);
    assert_eq!(state.versions[&oid].tid, Tid(7));
}
