//! Crash-point injection: frozen disk images of a live run.
//!
//! A live EL or FW run is advanced to configurable *crash points* —
//! fractions of its horizon named for the phase the log is in when the
//! crash lands — and at each point the durable disk surface is
//! snapshotted and serialised through the byte-level codec
//! ([`elog_storage::encode_surface`]), together with the stable database
//! and the oracle of acknowledged commits: everything `scan_bytes` +
//! `recover` may read, and the ground truth to hold the result against.
//! The tests below recover every image; `elbench`'s `recover` workload
//! (`benchmark/`) times the same images.
//!
//! Crash-point semantics (documented in DESIGN.md):
//!
//! * **mid-forwarding** (25 % of the horizon): generation 0 has wrapped
//!   and is actively forwarding long-transaction records; the last
//!   generation is still filling. The surface holds the most *stale*
//!   gen0 copies relative to its size.
//! * **mid-flush** (55 %): steady state — flush traffic, commits and
//!   forwarding all in flight. The snapshot additionally carries one
//!   *torn duplicate* of the newest durable block (a half-written
//!   recirculation copy, exactly what a crash mid-write leaves), so the
//!   corrupt-block path is exercised; the intact original is still
//!   present, so recovery must still verify.
//! * **post-wrap** (95 %): every generation, recirculation included, has
//!   cycled; stale physical copies are at their steady-state maximum and
//!   the scan's dedup does the most work.
//!
//! Because the engine supports incremental `run_until`, one forward run
//! per configuration serves all its crash points: the run is paused at
//! each point, snapshotted, and resumed.

use crate::runner::{build_model, RunConfig};
use elog_model::{CommittedOracle, StableDb};
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

/// Advances one run through `points` (sorted by fraction), snapshotting
/// the disk surface at each. `label` prefixes each snapshot's label.
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
        let model = engine.model();
        let mut encoded = encode_surface(&model.lm.log_surface());
        if p.torn_tail {
            tear_newest(&mut encoded);
        }
        let metrics = model.lm.metrics(at);
        snaps.push(CrashSnapshot {
            label: format!("{label}/{}", p.name),
            at,
            encoded,
            stable: model.lm.stable_db().clone(),
            oracle: model.oracle.clone(),
            per_gen_blocks: metrics.per_gen_blocks,
        });
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
    use elog_recovery::{
        check_against_oracle, estimate_recovery_time, recover, scan_bytes, RecoveredState,
        RecoveryTimeModel, ScanStats,
    };
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
                assert_eq!(snap.stable.versions(), eager.versions(), "{}", snap.label);
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
            assert_eq!(table.versions(), refolded.versions());
            assert_eq!(table.installs(), refolded.installs());
        }
    }

    /// What a restart does with one image: byte-level scan, REDO over the
    /// stable table, the oracle check, and the 1993 time model for the
    /// log's shape.
    fn restart(snap: &CrashSnapshot) -> (ScanStats, RecoveredState, bool, SimTime) {
        let (image, _errors) = scan_bytes(snap.encoded.iter().map(Vec::as_slice));
        let state = recover(&image, &snap.stable);
        let verified = check_against_oracle(&snap.oracle, &state).is_ok();
        let modelled = estimate_recovery_time(
            &RecoveryTimeModel::default(),
            &snap.per_gen_blocks,
            image.stats.records,
        );
        (image.stats, state, verified, modelled)
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
            let (scan, state, verified, modelled) = restart(snap);
            assert!(verified, "{} failed verification", snap.label);
            let (again, same_state, ..) = restart(snap);
            assert_eq!(scan.records, again.records, "two equal passes");
            assert_eq!(state.versions, same_state.versions, "two equal passes");
            assert!(!state.versions.is_empty());
            assert!(modelled > SimTime::ZERO);
        }
    }

    #[test]
    fn torn_tail_is_counted_but_loses_no_state() {
        let cfg = Config::quick();
        let snaps = snapshot_run("el", &cfg.el_run(), &[MID_FLUSH]);
        let (scan, _, verified, _) = restart(&snaps[0]);
        assert_eq!(scan.corrupt_blocks, 1, "torn duplicate rejected");
        assert_eq!(
            scan.blocks,
            scan.decoded_blocks + scan.corrupt_blocks,
            "attempted = decoded + corrupt"
        );
        assert!(scan.corrupt_rate() > 0.0);
        assert!(verified, "torn duplicate must not lose state");
    }

    #[test]
    fn firewall_surface_is_larger_and_still_recovers() {
        let cfg = Config::quick();
        let (el, _, el_verified, el_modelled) =
            restart(&snapshot_run("el", &cfg.el_run(), &[POST_WRAP])[0]);
        let (fw, _, fw_verified, fw_modelled) =
            restart(&snapshot_run("fw", &cfg.fw_run(), &[POST_WRAP])[0]);
        assert!(fw_verified && el_verified);
        assert!(
            fw.blocks > el.blocks,
            "FW ({}) must out-block EL ({})",
            fw.blocks,
            el.blocks
        );
        assert!(fw_modelled > el_modelled, "less log ⇒ faster recovery");
    }

    #[test]
    fn snapshot_is_deterministic() {
        let cfg = Config::quick();
        let a = snapshot_run("el", &cfg.el_run(), &[MID_FORWARDING]).remove(0);
        let b = snapshot_run("el", &cfg.el_run(), &[MID_FORWARDING]).remove(0);
        assert_eq!(a.encoded, b.encoded, "same run ⇒ byte-identical surface");
    }
}
