//! Property tests: for *any* workload shape and crash instant, single-pass
//! recovery preserves every acknowledged transaction; and for *any*
//! arrangement of the same records on disk, it reconstructs the *same*
//! state — the scan order of generations must never pick the winner.

use elog_core::{ElManager, SimpleHost};
use elog_model::{
    CommittedOracle, DataRecord, FlushConfig, GenId, LogConfig, LogRecord, ObjectVersion, Oid,
    StableDb, Tid, TxMark, TxRecord,
};
use elog_recovery::{check_against_oracle, recover, scan_blocks, LogImage, RecoveredState};
use elog_sim::SimTime;
use elog_storage::{Block, BlockAddr};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
struct TxPlan {
    start_ms: u64,
    duration_ms: u64,
    updates: u8,
    abort: bool,
}

fn arb_plan() -> impl Strategy<Value = TxPlan> {
    (
        0u64..2_000,
        20u64..3_000,
        1u8..6,
        proptest::bool::weighted(0.15),
    )
        .prop_map(|(start_ms, duration_ms, updates, abort)| TxPlan {
            start_ms,
            duration_ms,
            updates,
            abort,
        })
}

#[derive(Clone, Copy, Debug)]
enum Action {
    Begin(Tid),
    Write(Tid, Oid, u32),
    Commit(Tid),
    Abort(Tid),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_crash_preserves_acknowledged_commits(
        plans in proptest::collection::vec(arb_plan(), 1..40),
        crash_ms in 100u64..6_000,
        recirc: bool,
        g0 in 4u32..10,
        g1 in 6u32..14,
    ) {
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
                let at = t0 + SimTime::from_millis(
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
                if p.abort { Action::Abort(tid) } else { Action::Commit(tid) },
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
                Action::Write(tid, oid, seq) => {
                    // Skip writes of killed transactions (the workload
                    // driver would have cancelled them).
                    host.write(at, tid, oid, seq, 100);
                }
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

        prop_assert_eq!(host.lm.stats().durability_violations, 0);
        let surface = host.lm.log_surface();
        let state = recover(&scan_blocks(surface.iter()), host.lm.stable_db());
        let report = check_against_oracle(&oracle, &state);
        prop_assert!(
            report.is_ok(),
            "crash at {}ms lost data: missing {:?} stale {:?}",
            crash_ms,
            report.missing,
            report.stale
        );
    }
}

/// Packs a slice of records into blocks of one generation (a handful of
/// records per block, like the real log manager would).
fn pack_gen(gen: u8, records: &[LogRecord]) -> Vec<Block> {
    let mut blocks = Vec::new();
    for (i, chunk) in records.chunks(4).enumerate() {
        let mut b = Block::new(BlockAddr {
            gen: GenId(gen),
            seq: i as u64,
        });
        for &r in chunk {
            b.push(r, 2000);
        }
        blocks.push(b);
    }
    blocks
}

/// The recovered state reduced to a comparable form: the full version map
/// in canonical (oid) order plus every counter.
fn canon(state: &RecoveredState) -> (Vec<(Oid, ObjectVersion)>, u64, u64, u64, u64) {
    let mut versions: Vec<(Oid, ObjectVersion)> =
        state.versions.iter().map(|(&o, &v)| (o, v)).collect();
    versions.sort_by_key(|&(o, _)| o);
    (
        versions,
        state.redone,
        state.skipped_stale,
        state.skipped_uncommitted,
        state.committed_txns,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `recover(scan_blocks(perm(gens)))` is one function of the record
    /// *set*: every permutation of the generations — and every finer
    /// interleaving, down to single-block pseudo-generations — must
    /// reconstruct the identical state. The generator forces the nasty
    /// case on purpose: few oids, few distinct timestamps, so distinct
    /// transactions routinely update the same object at the same virtual
    /// time and only the `(ts, tid, seq)` total order can pick a winner.
    #[test]
    fn recovery_is_invariant_under_generation_permutation(
        // (tid, oid, seq, ts_ms): tight ranges ⇒ dense collisions.
        recs in proptest::collection::vec((0u64..5, 0u64..6, 1u32..4, 0u64..6), 4..32),
        commit in proptest::collection::vec(proptest::bool::weighted(0.8), 5..6),
        // Stable-DB seeds, colliding with log timestamps.
        stable_seed in proptest::collection::vec((0u64..5, 0u64..6, 1u32..4, 0u64..6), 0..6),
        forward in proptest::collection::vec(proptest::bool::weighted(0.3), 32..33),
        shuffles in proptest::collection::vec(any::<prop::sample::Index>(), 64..65),
        gens_n in 2usize..5,
    ) {
        // Canonical record set: data records spread round-robin across
        // generations; commit records for committed tids; `forward`
        // duplicates a record into the *next* generation (a forwarded
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
            if forward[i % forward.len()] {
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
            stable.install(Oid(oid), ObjectVersion {
                tid: Tid(tid),
                seq,
                ts: SimTime::from_millis(ts),
            });
        }

        let packed: Vec<Vec<Block>> = gens
            .iter()
            .enumerate()
            .map(|(g, rs)| pack_gen(g as u8, rs))
            .collect();
        let reference = canon(&recover(&scan_blocks(packed.iter()), &stable));

        // Whole-generation permutations (Fisher–Yates driven by the
        // sampled indices; several distinct shuffles per case).
        let mut order: Vec<usize> = (0..gens_n).collect();
        let mut shuffle_at = 0usize;
        for _ in 0..4 {
            for i in (1..order.len()).rev() {
                order.swap(i, shuffles[shuffle_at % shuffles.len()].index(i + 1));
                shuffle_at += 1;
            }
            let permuted: Vec<&Vec<Block>> = order.iter().map(|&g| &packed[g]).collect();
            let got = canon(&recover(&scan_blocks(permuted), &stable));
            prop_assert_eq!(&got, &reference, "generation order {:?} changed recovery", order);
        }

        // Block-level interleavings: every block becomes its own
        // pseudo-generation, then the whole pile is shuffled — the finest
        // arrangement scan_blocks can be handed.
        let mut singles: Vec<Vec<Block>> = packed
            .iter()
            .flat_map(|g| g.iter().cloned().map(|b| vec![b]))
            .collect();
        for _ in 0..2 {
            for i in (1..singles.len()).rev() {
                singles.swap(i, shuffles[shuffle_at % shuffles.len()].index(i + 1));
                shuffle_at += 1;
            }
            let got = canon(&recover(&scan_blocks(singles.iter()), &stable));
            prop_assert_eq!(&got, &reference, "block interleaving changed recovery");
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// REDO as the definition reads, one `insert` at a time into ordered maps:
/// every stable version, then the newest committed update per object,
/// then each candidate against the stable stamp.
fn reference_recover(image: &LogImage, stable: &StableDb) -> RecoveredState {
    let mut versions = BTreeMap::new();
    for (oid, v) in stable.iter() {
        versions.insert(oid, v);
    }
    let mut out = RecoveredState {
        committed_txns: image.committed.len() as u64,
        ..RecoveredState::default()
    };
    let mut candidates: BTreeMap<Oid, ObjectVersion> = BTreeMap::new();
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
            out.skipped_stale += 1;
        } else {
            versions.insert(oid, v);
            out.redone += 1;
        }
    }
    out.versions = versions.into_iter().collect();
    out
}

/// One random image × one random stable database. Oids, tids and
/// timestamps come from ranges narrow enough that log records collide
/// with each other and with stable stamps; the stable database runs from
/// empty to a few hundred objects, so the table `recover` copies has been
/// through every growth step a small one sees.
fn recover_case(seed: u64) {
    let mut rng = seed;
    let oids = 1 + splitmix(&mut rng) % 300;
    let tids = 1 + splitmix(&mut rng) % 40;
    let times = 1 + splitmix(&mut rng) % 50;
    let mut stable = StableDb::new();
    for _ in 0..splitmix(&mut rng) % 400 {
        stable.install(
            Oid(splitmix(&mut rng) % oids),
            ObjectVersion {
                tid: Tid(splitmix(&mut rng) % tids),
                seq: 1 + (splitmix(&mut rng) % 3) as u32,
                ts: SimTime::from_millis(splitmix(&mut rng) % times),
            },
        );
    }
    // `(tid, oid, seq)` names one update, so every physical copy of it
    // carries one timestamp (the first drawn).
    let mut ts_of = std::collections::HashMap::new();
    let mut records = Vec::new();
    for _ in 0..splitmix(&mut rng) % 250 {
        let key = (
            splitmix(&mut rng) % tids,
            splitmix(&mut rng) % oids,
            1 + (splitmix(&mut rng) % 3) as u32,
        );
        let ts = *ts_of.entry(key).or_insert(splitmix(&mut rng) % times);
        records.push(LogRecord::Data(DataRecord {
            tid: Tid(key.0),
            oid: Oid(key.1),
            seq: key.2,
            ts: SimTime::from_millis(ts),
            size: 100,
        }));
    }
    for tid in 0..tids {
        let mark = match splitmix(&mut rng) % 8 {
            0 => continue,
            1 => TxMark::Abort,
            _ => TxMark::Commit,
        };
        let at = splitmix(&mut rng) as usize % (records.len() + 1);
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
    let image = scan_blocks([&pack_gen(0, &records)]);
    assert_eq!(
        canon(&recover(&image, &stable)),
        canon(&reference_recover(&image, &stable)),
        "{} stable objects, {} log records",
        stable.len(),
        records.len()
    );
}

/// `recover` starts from a copy of the stable table and pre-sizes its
/// candidate map; the reference does neither. Field for field the same.
#[test]
fn recover_matches_the_insert_by_insert_reference() {
    // One case when a failure is being replayed, the basket otherwise.
    if let Ok(seed) = std::env::var("RECOVER_SEED") {
        let seed = u64::from_str_radix(seed.trim_start_matches("0x"), 16).expect("hex seed");
        return recover_case(seed);
    }
    let mut rng = 0x2ED0_F01D_u64;
    for _ in 0..300 {
        let seed = splitmix(&mut rng);
        assert!(
            std::panic::catch_unwind(|| recover_case(seed)).is_ok(),
            "case seed {seed:#x} failed (panic above)\nrepro: RECOVER_SEED={seed:#x} \
             cargo test --offline -p elog-recovery --test prop_recovery recover_matches"
        );
    }
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
        let state = recover(&scan_blocks(order), &StableDb::new());
        let v = state.versions[&oid];
        assert_eq!(v.tid, Tid(7), "scan order {label}: higher tid must win");
        assert_eq!(v.seq, 1);
    }

    // Same tid, same ts: higher seq wins (the later update of that txn).
    let gen_c = pack_gen(0, &[rec(7, 1), rec(7, 2), commit(7)]);
    let state = recover(&scan_blocks([&gen_c]), &StableDb::new());
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
    let state = recover(&scan_blocks([&gen_b]), &stable);
    assert_eq!(state.redone, 0, "equal-key stable version wins");
    assert_eq!(state.skipped_stale, 1);
    assert_eq!(state.versions[&oid].tid, Tid(7));
}
