//! Crash and restart: the one recovery pipeline.
//!
//! [`crash`] freezes a live run's durable state: the disk surface encoded
//! through the byte-level codec, the stable database and the oracle of
//! acknowledged commits. [`restart`] is what a restart does with that
//! image: `scan_bytes` → `recover` → `check_against_oracle`, plus the 1993
//! time model. Every recovery in the harness goes through the pair
//! (`repro`'s recovery table, the `crash_recovery` example, the
//! integration tests), and `elbench`'s `recover` workload (`benchmark/`)
//! times the same images.
//!
//! [`snapshot_run`] pauses one run at each of several [`CrashPoint`]s —
//! fractions of its horizon named for the phase the log is in (DESIGN.md
//! §5e) — and crashes it there. [`MID_FLUSH`] adds a torn duplicate of the
//! newest block, so the corrupt-block path runs without losing state.

use crate::runner::{build_model, RunConfig, SimModel};
use elog_model::{CommittedOracle, StableDb};
use elog_recovery::{
    check_against_oracle, estimate_recovery_time, recover, scan_bytes, RecoveredState,
    RecoveryTimeModel, ScanStats, VerifyReport,
};
use elog_sim::SimTime;
use elog_storage::encode_surface;

/// One named crash instant, as a fraction of the run's horizon.
#[derive(Clone, Copy, Debug)]
pub struct CrashPoint {
    /// Phase name ("mid-forwarding", "mid-flush", "post-wrap").
    pub name: &'static str,
    /// Fraction of the horizon at which the crash lands, in `(0, 1]`.
    pub fraction: f64,
    /// Inject a torn duplicate of the newest durable block into the
    /// snapshot (the half-written copy a real crash leaves mid-write).
    pub torn_tail: bool,
}

impl CrashPoint {
    /// The virtual instant this point lands at in a run of `runtime`.
    pub fn instant(&self, runtime: SimTime) -> SimTime {
        SimTime::from_micros((runtime.as_micros() as f64 * self.fraction) as u64)
    }
}

/// Gen0 wrapped, long records forwarding, last generation still filling.
pub const MID_FORWARDING: CrashPoint = CrashPoint {
    name: "mid-forwarding",
    fraction: 0.25,
    torn_tail: false,
};

/// Steady state with flush traffic in flight; carries a torn duplicate.
pub const MID_FLUSH: CrashPoint = CrashPoint {
    name: "mid-flush",
    fraction: 0.55,
    torn_tail: true,
};

/// Every generation (recirculation included) has cycled.
pub const POST_WRAP: CrashPoint = CrashPoint {
    name: "post-wrap",
    fraction: 0.95,
    torn_tail: false,
};

/// The standard crash points, in run order.
pub const DEFAULT_POINTS: [CrashPoint; 3] = [MID_FORWARDING, MID_FLUSH, POST_WRAP];

/// The frozen disk image of one crash: everything recovery is allowed to
/// see (serialised durable blocks + the stable database) plus the ground
/// truth it is checked against.
#[derive(Clone, Debug)]
pub struct CrashSnapshot {
    /// `config/point` label ("el/mid-flush").
    pub label: String,
    /// Virtual time of the crash.
    pub at: SimTime,
    /// Every durable block, serialised through the block codec.
    pub encoded: Vec<Vec<u8>>,
    /// Version stamps of the flushed database at the crash.
    pub stable: StableDb,
    /// Acknowledged commits up to the crash (ground truth).
    pub oracle: CommittedOracle,
    /// Configured blocks per generation (for the 1993 time model).
    pub per_gen_blocks: Vec<u64>,
}

/// Freezes `model` as a crash at `at` leaves it: the durable blocks
/// serialised, the stable database, and the acknowledged commits (empty
/// unless the run tracks its oracle). Open and in-flight buffers are lost.
pub fn crash(label: impl Into<String>, model: &SimModel, at: SimTime) -> CrashSnapshot {
    CrashSnapshot {
        label: label.into(),
        at,
        encoded: encode_surface(&model.lm.log_surface()),
        // Shares the folded table, which the run's next install drops
        // from its cache rather than changes.
        stable: model.lm.stable_db().clone(),
        oracle: model.oracle.clone(),
        per_gen_blocks: model.lm.metrics(at).per_gen_blocks,
    }
}

/// What one restart from a crash image produced.
#[derive(Clone, Debug)]
pub struct Restart {
    /// The byte-level scan's accounting (torn blocks are `corrupt_blocks`).
    pub scan: ScanStats,
    /// The state REDO rebuilt over the stable database.
    pub state: RecoveredState,
    /// The rebuilt state held against the acknowledged commits.
    pub report: VerifyReport,
    /// Modelled 1993-hardware recovery time for the log's shape.
    pub modelled: SimTime,
}

/// Restarts from `snap`: byte-level scan, REDO over the stable table, the
/// oracle check, and the 1993 time model for the log's shape.
pub fn restart(snap: &CrashSnapshot) -> Restart {
    let (image, _errors) = scan_bytes(snap.encoded.iter().map(Vec::as_slice));
    let state = recover(&image, &snap.stable);
    Restart {
        report: check_against_oracle(&snap.oracle, &state),
        modelled: estimate_recovery_time(
            &RecoveryTimeModel::default(),
            &snap.per_gen_blocks,
            image.stats.records,
        ),
        scan: image.stats,
        state,
    }
}

/// Advances one run through `points` (sorted by fraction), crashing it at
/// each. `label` prefixes each snapshot's label.
pub fn snapshot_run(label: &str, cfg: &RunConfig, points: &[CrashPoint]) -> Vec<CrashSnapshot> {
    let cfg = cfg.clone().track_oracle(true);
    let mut sorted: Vec<CrashPoint> = points.to_vec();
    sorted.sort_by(|a, b| a.fraction.total_cmp(&b.fraction));
    let mut engine = build_model(&cfg);
    let mut snaps = Vec::with_capacity(sorted.len());
    for p in sorted {
        assert!(
            p.fraction > 0.0 && p.fraction <= 1.0,
            "crash fraction {} out of (0, 1]",
            p.fraction
        );
        let at = p.instant(cfg.runtime);
        engine.run_until(at);
        let mut snap = crash(format!("{label}/{}", p.name), engine.model(), at);
        if p.torn_tail {
            tear_newest(&mut snap.encoded);
        }
        snaps.push(snap);
    }
    snaps
}

/// Appends a corrupted duplicate of the last non-empty encoded block: the
/// torn half-write a crash leaves on the device. The intact original
/// stays in the image, so recovery still has every record — the duplicate
/// only exercises the corrupt-block rejection path.
fn tear_newest(encoded: &mut Vec<Vec<u8>>) {
    if let Some(last) = encoded.iter().rev().find(|b| !b.is_empty()).cloned() {
        let mut torn = last;
        let n = torn.len();
        torn[n - 1] ^= 0xFF;
        encoded.push(torn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::recovery_time::Config;
    use crate::runner::{build_model_with, snapshot, RunResult};
    use elog_core::{Effects, ElManager, LmTimer, LogManager};
    use elog_model::{Oid, Tid};
    use std::time::Instant;

    /// An `ElManager` beside an eagerly maintained `StableDb`: each
    /// `FlushDone` installs what the drive is about to complete before the
    /// manager sees the timer. Never reads the manager's own table.
    struct Mirror {
        inner: ElManager,
        eager: StableDb,
    }

    impl LogManager for Mirror {
        fn begin(&mut self, now: SimTime, tid: Tid) -> Effects {
            self.inner.begin(now, tid)
        }
        fn write_data(&mut self, now: SimTime, tid: Tid, oid: Oid, seq: u32, size: u32) -> Effects {
            self.inner.write_data(now, tid, oid, seq, size)
        }
        fn commit_request(&mut self, now: SimTime, tid: Tid) -> Effects {
            self.inner.commit_request(now, tid)
        }
        fn abort(&mut self, now: SimTime, tid: Tid) -> Effects {
            self.inner.abort(now, tid)
        }
        fn handle_timer(&mut self, now: SimTime, timer: LmTimer) -> Effects {
            if let LmTimer::FlushDone { drive } = timer {
                let (oid, version) = self
                    .inner
                    .flush_array()
                    .in_service(drive)
                    .expect("a FlushDone names a busy drive");
                self.eager.install(oid, version);
            }
            self.inner.handle_timer(now, timer)
        }
        fn quiesce(&mut self, now: SimTime) -> Effects {
            self.inner.quiesce(now)
        }
        fn recycle(&mut self, fx: Effects) {
            self.inner.recycle_fx(fx);
        }
        fn peak_memory_bytes(&self) -> u64 {
            self.inner.peak_memory_bytes()
        }
        fn log_writes(&self) -> u64 {
            LogManager::log_writes(&self.inner)
        }
        fn log_write_rate(&self, now: SimTime) -> f64 {
            LogManager::log_write_rate(&self.inner, now)
        }
        fn stable_db(&self) -> &StableDb {
            unreachable!("the mirror run never reads the folded table")
        }
    }

    #[test]
    fn each_snapshot_holds_exactly_the_installs_before_its_instant() {
        let cfg = Config::quick();
        for (label, run_cfg) in [("el", cfg.el_run()), ("fw", cfg.fw_run())] {
            // The real path: one run read at 25 / 55 / 95 % and resumed, the
            // snapshots inspected only after it has run on past all three.
            let snaps = snapshot_run(label, &run_cfg, &DEFAULT_POINTS);
            assert!(snaps
                .windows(2)
                .all(|w| w[0].stable.installs() < w[1].stable.installs()));
            // The same run again, its installs applied eagerly on arrival.
            let run_cfg = run_cfg.track_oracle(true);
            let lm = Mirror {
                inner: ElManager::new(run_cfg.el.clone()).expect("valid"),
                eager: StableDb::new(),
            };
            let mut engine = build_model_with(&run_cfg, lm);
            for snap in &snaps {
                engine.run_until(snap.at);
                let eager = &engine.model().lm.eager;
                assert!(!eager.is_empty(), "{}: nothing flushed", snap.label);
                assert_eq!(&snap.stable, eager, "{}", snap.label);
                assert_eq!(snap.stable.installs(), eager.installs(), "{}", snap.label);
            }
        }
    }

    /// Everything of a `RunResult` that `repro` can print (all but wall).
    fn visible(r: &RunResult) -> String {
        format!(
            "{:?} {} {} {} {:?} {:?} {} {}",
            r.metrics,
            r.started,
            r.committed,
            r.killed,
            r.p50_commit_latency_ms,
            r.ended_at,
            r.data_records,
            r.perf.events
        )
    }

    #[test]
    fn reading_the_stable_db_mid_run_changes_nothing() {
        let cfg = Config::quick();
        for run_cfg in [cfg.el_run(), cfg.fw_run()] {
            let finish = |read_at: &[CrashPoint]| {
                let mut engine = build_model(&run_cfg);
                let wall_start = Instant::now();
                for p in read_at {
                    engine.run_until(p.instant(run_cfg.runtime));
                    assert!(!engine.model().lm.stable_db().is_empty());
                }
                let ended_at = engine.run_until(run_cfg.runtime);
                let result = snapshot(&engine, &run_cfg, ended_at, wall_start);
                (visible(&result), engine.model().lm.stable_db().clone())
            };
            let (never_read, table) = finish(&[]);
            let (read_thrice, refolded) = finish(&DEFAULT_POINTS);
            assert_eq!(never_read, read_thrice);
            assert_eq!(table, refolded);
            assert_eq!(table.installs(), refolded.installs());
        }
    }

    #[test]
    fn snapshots_grow_along_the_run_and_all_points_verify() {
        let cfg = Config::quick();
        let snaps = snapshot_run("el", &cfg.el_run(), &DEFAULT_POINTS);
        assert_eq!(snaps.len(), 3);
        assert!(snaps.windows(2).all(|w| w[0].at < w[1].at));
        for snap in &snaps {
            assert!(!snap.encoded.is_empty(), "{}: empty surface", snap.label);
            assert!(!snap.oracle.is_empty(), "{}: nothing committed", snap.label);
            let first = restart(snap);
            assert!(first.report.is_ok(), "{} failed verification", snap.label);
            let again = restart(snap);
            assert_eq!(first.scan.records, again.scan.records, "two equal passes");
            assert_eq!(
                first.state.versions, again.state.versions,
                "two equal passes"
            );
            assert!(!first.state.versions.is_empty());
            assert!(first.modelled > SimTime::ZERO);
        }
    }

    #[test]
    fn torn_tail_is_counted_but_loses_no_state() {
        let cfg = Config::quick();
        let snaps = snapshot_run("el", &cfg.el_run(), &[MID_FLUSH]);
        let Restart { scan, report, .. } = restart(&snaps[0]);
        assert_eq!(scan.corrupt_blocks, 1, "torn duplicate rejected");
        assert_eq!(
            scan.blocks,
            scan.decoded_blocks + scan.corrupt_blocks,
            "attempted = decoded + corrupt"
        );
        assert!(scan.corrupt_rate() > 0.0);
        assert!(report.is_ok(), "torn duplicate must not lose state");
    }

    #[test]
    fn firewall_surface_is_larger_and_still_recovers() {
        let cfg = Config::quick();
        let el = restart(&snapshot_run("el", &cfg.el_run(), &[POST_WRAP])[0]);
        let fw = restart(&snapshot_run("fw", &cfg.fw_run(), &[POST_WRAP])[0]);
        assert!(fw.report.is_ok() && el.report.is_ok());
        assert!(
            fw.scan.blocks > el.scan.blocks,
            "FW ({}) must out-block EL ({})",
            fw.scan.blocks,
            el.scan.blocks
        );
        assert!(fw.modelled > el.modelled, "less log ⇒ faster recovery");
    }

    #[test]
    fn snapshot_is_deterministic() {
        let cfg = Config::quick();
        let a = snapshot_run("el", &cfg.el_run(), &[MID_FORWARDING]).remove(0);
        let b = snapshot_run("el", &cfg.el_run(), &[MID_FORWARDING]).remove(0);
        assert_eq!(a.encoded, b.encoded, "same run ⇒ byte-identical surface");
    }
}
