//! Drills: one layer at a time, driven bare from its public functions, so
//! a per-layer cost exists that does not depend on what surrounds the
//! layer in a full run. Each drill is timed as a whole (no per-op clock
//! reads) and runs only in the traced run, after the timed passes.

use crate::trace::{NullLm, Tracer, NONE};
use elog_dbdisk::{FlushArray, Submitted};
use elog_harness::crashpoint::CrashSnapshot;
use elog_harness::runner::{build_model_with, run, run_capture, RunConfig};
use elog_harness::serve::{serve_run, ServeConfig};
use elog_model::{ObjectVersion, Oid};
use elog_sim::{EventQueue, SimRng, SimTime};
use elog_storage::{crc32, decode_block, encode_surface, surface_bytes};
use elog_workload::{WorkloadDriver, WorkloadEvent, WorkloadTrace};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// What the forward-path drills measured on one configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ForwardDrills {
    pub null_events: u64,
    pub loop_ns_per_event: f64,
    pub queue_ops: u64,
    pub queue_ns_per_op: f64,
    pub driver_ns_per_txn: f64,
    /// 0 when the capture run killed (a killed capture is unusable).
    pub replay_ns_per_txn: f64,
    pub capture_s: f64,
    pub dbdisk_flushes: u64,
    pub dbdisk_ns_per_flush: f64,
}

/// One op of the queue tape: `schedule(at)` or, for [`POP`], `pop()`.
type TapeOp = u64;
const POP: TapeOp = u64::MAX;

/// A committed update, as the flush array is fed it.
struct FlushFeed {
    at: SimTime,
    oid: Oid,
    version: ObjectVersion,
}

#[derive(Default)]
struct Recording {
    tape: Vec<TapeOp>,
    feed: Vec<FlushFeed>,
}

/// The driver-only mini loop: a live (or replaying) [`WorkloadDriver`]
/// delivered its own events through an [`EventQueue`], with no log
/// manager — every COMMIT is acknowledged at the instant it is written.
/// Like a run, it delivers nothing past the arrival horizon. With `rec`,
/// also records the queue's op sequence and the committed updates (that
/// pass is not the timed one). Returns transactions started.
fn driver_loop(mut driver: WorkloadDriver, mut rec: Option<&mut Recording>) -> u64 {
    let mut queue: EventQueue<WorkloadEvent> = EventQueue::new();
    let mut events = Vec::new();
    for (at, ev) in driver.bootstrap(SimTime::ZERO) {
        queue.schedule(at, ev);
        if let Some(r) = rec.as_deref_mut() {
            r.tape.push(at.as_micros());
        }
    }
    let horizon = driver.horizon();
    while let Some((now, ev)) = queue.pop_at_or_before(horizon) {
        if let Some(r) = rec.as_deref_mut() {
            r.tape.push(POP);
        }
        match ev {
            WorkloadEvent::Arrival => {
                if driver.on_arrival(now, &mut events).is_some() {
                    for &(at, ev) in &events {
                        queue.schedule(at, ev);
                        if let Some(r) = rec.as_deref_mut() {
                            r.tape.push(at.as_micros());
                        }
                    }
                }
            }
            WorkloadEvent::WriteData { tid, seq } => {
                black_box(driver.on_write_data(now, tid, seq));
            }
            WorkloadEvent::WriteCommit { tid } => {
                if driver.on_write_commit(now, tid) {
                    let updates = driver.on_commit_ack(now, tid);
                    if let Some(r) = rec.as_deref_mut() {
                        r.feed.extend(updates.iter().map(|u| FlushFeed {
                            at: now,
                            oid: u.oid,
                            version: ObjectVersion {
                                tid,
                                seq: u.seq,
                                ts: u.ts,
                            },
                        }));
                    }
                }
            }
        }
    }
    driver.stats().started
}

fn live_driver(cfg: &RunConfig) -> WorkloadDriver {
    WorkloadDriver::new(
        cfg.mix.clone(),
        cfg.arrivals,
        cfg.el.db.num_objects,
        cfg.runtime,
        &SimRng::new(cfg.seed),
    )
}

/// Replays the recorded op sequence against a bare `EventQueue<u32>`:
/// the queue's cost with nothing around it. Returns host seconds.
fn replay_tape(tape: &[TapeOp]) -> f64 {
    let mut queue: EventQueue<u32> = EventQueue::new();
    let t = Instant::now();
    for &op in tape {
        if op == POP {
            black_box(queue.pop());
        } else {
            queue.schedule(SimTime::from_micros(op), 0);
        }
    }
    t.elapsed().as_secs_f64()
}

/// A bare [`FlushArray`] fed the committed updates at their commit
/// times, completions delivered at their `done_at`. Returns (flushes,
/// host seconds).
fn flush_drill(cfg: &RunConfig, feed: &[FlushFeed]) -> (u64, f64) {
    let mut array = FlushArray::new(&cfg.el.flush, cfg.el.db.num_objects);
    // One transfer in flight per drive: its completion time, or MAX.
    let mut done_at = vec![SimTime::MAX; array.drives()];
    let t = Instant::now();
    let complete_until = |array: &mut FlushArray, done_at: &mut Vec<SimTime>, until: SimTime| {
        while let Some((drive, &at)) = done_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &at)| at)
            .filter(|&(_, &at)| at <= until)
        {
            let (_, next) = array.complete(at, drive);
            done_at[drive] = next.unwrap_or(SimTime::MAX);
        }
    };
    for f in feed {
        complete_until(&mut array, &mut done_at, f.at);
        if let Submitted::Started { drive, done_at: at } = array.submit(f.at, f.oid, f.version) {
            done_at[drive] = at;
        }
    }
    // The run's horizon ends the drill, as it ends a run: what is still
    // queued then stays queued.
    complete_until(&mut array, &mut done_at, cfg.runtime);
    (array.total_flushes(), t.elapsed().as_secs_f64())
}

/// Runs the forward-path drills on `cfg`.
pub fn forward(cfg: &RunConfig, tracer: &mut Tracer) -> ForwardDrills {
    let mut d = ForwardDrills::default();

    // Queue + driver + SimModel glue, the manager removed.
    tracer.open("drill.null_lm", NONE, NONE);
    let mut engine = build_model_with(cfg, NullLm::default());
    let t = Instant::now();
    engine.run_until(cfg.runtime);
    let wall = t.elapsed().as_secs_f64();
    tracer.close();
    d.null_events = engine.events_processed();
    d.loop_ns_per_event = wall * 1e9 / d.null_events.max(1) as f64;

    // Record the mini loop's tape and flush feed (untimed), then time the
    // loop without recording and the tape alone.
    let mut rec = Recording::default();
    driver_loop(live_driver(cfg), Some(&mut rec));
    tracer.open("drill.driver", NONE, NONE);
    let t = Instant::now();
    let txns = driver_loop(live_driver(cfg), None);
    let loop_s = t.elapsed().as_secs_f64();
    tracer.close();
    tracer.open("drill.queue_tape", NONE, NONE);
    let tape_s = replay_tape(&rec.tape);
    tracer.close();
    d.queue_ops = rec.tape.len() as u64;
    d.queue_ns_per_op = tape_s * 1e9 / d.queue_ops.max(1) as f64;
    d.driver_ns_per_txn = (loop_s - tape_s).max(0.0) * 1e9 / txns.max(1) as f64;

    tracer.open("drill.capture", NONE, NONE);
    let t = Instant::now();
    let (_, trace) = run_capture(cfg);
    d.capture_s = t.elapsed().as_secs_f64();
    tracer.close();
    if let Some(trace) = trace {
        d.replay_ns_per_txn = replay_drill(cfg, trace, tape_s, tracer);
    }

    tracer.open("drill.dbdisk", NONE, NONE);
    let (flushes, wall) = flush_drill(cfg, &rec.feed);
    tracer.close();
    d.dbdisk_flushes = flushes;
    d.dbdisk_ns_per_flush = wall * 1e9 / flushes.max(1) as f64;
    d
}

/// The mini loop again, fed by `WorkloadDriver::replay` — what every
/// search probe pays instead of the live generator. The replayed stream
/// is the captured one, so its queue tape is the live loop's.
fn replay_drill(
    cfg: &RunConfig,
    trace: Arc<WorkloadTrace>,
    tape_s: f64,
    tracer: &mut Tracer,
) -> f64 {
    tracer.open("drill.replay", NONE, NONE);
    let t = Instant::now();
    let txns = driver_loop(WorkloadDriver::replay(cfg.mix.clone(), trace, false), None);
    let wall = t.elapsed().as_secs_f64();
    tracer.close();
    (wall - tape_s).max(0.0) * 1e9 / txns.max(1) as f64
}

/// ns per event of a 1-tenant `serve_run` ÷ ns per event of `run` on the
/// same configuration: 1.0 means the two event loops cost the same.
pub fn serve_vs_run(cfg: &RunConfig, tracer: &mut Tracer) -> f64 {
    const REPS: usize = 3;
    let serve_cfg = ServeConfig::new(cfg.clone(), 1);
    let mut ratios = Vec::with_capacity(REPS);
    tracer.open("drill.serve_vs_run", NONE, NONE);
    for _ in 0..REPS {
        let t = Instant::now();
        let served = serve_run(&serve_cfg);
        let serve_ns = t.elapsed().as_secs_f64() * 1e9 / served.perf.events.max(1) as f64;
        let t = Instant::now();
        let classic = run(cfg);
        let run_ns = t.elapsed().as_secs_f64() * 1e9 / classic.perf.events.max(1) as f64;
        ratios.push(serve_ns / run_ns);
    }
    tracer.close();
    crate::stats::median(&ratios)
}

/// Codec throughput on the crash images.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageDrill {
    pub encode_mb_s: f64,
    pub decode_mb_s: f64,
    pub crc_mb_s: f64,
    pub corrupt_blocks: u64,
}

/// `decode_block` over every encoded block, `encode_surface` of what
/// decoded, `crc32` over the same bytes — each repeated and timed whole.
pub fn storage(snaps: &[CrashSnapshot], tracer: &mut Tracer) -> StorageDrill {
    const REPS: u32 = 40;
    let bytes: u64 = snaps.iter().map(|s| surface_bytes(&s.encoded)).sum();
    let mb = (bytes * u64::from(REPS)) as f64 / 1e6;
    let mut d = StorageDrill::default();

    tracer.open("drill.storage_decode", NONE, NONE);
    let t = Instant::now();
    let mut surfaces = Vec::new();
    for rep in 0..REPS {
        for snap in snaps {
            let mut blocks = Vec::with_capacity(snap.encoded.len());
            for raw in &snap.encoded {
                match decode_block(raw) {
                    Ok(block) => blocks.push(block),
                    Err(_) if rep == 0 => d.corrupt_blocks += 1,
                    Err(_) => {}
                }
            }
            if rep == 0 {
                surfaces.push(blocks);
            } else {
                black_box(blocks);
            }
        }
    }
    d.decode_mb_s = mb / t.elapsed().as_secs_f64();
    tracer.close();

    let decoded_mb = surfaces
        .iter()
        .map(|s| surface_bytes(&encode_surface(std::slice::from_ref(s))))
        .sum::<u64>() as f64
        * f64::from(REPS)
        / 1e6;
    tracer.open("drill.storage_encode", NONE, NONE);
    let t = Instant::now();
    for _ in 0..REPS {
        for s in &surfaces {
            black_box(encode_surface(std::slice::from_ref(s)));
        }
    }
    d.encode_mb_s = decoded_mb / t.elapsed().as_secs_f64();
    tracer.close();

    tracer.open("drill.storage_crc", NONE, NONE);
    let t = Instant::now();
    for _ in 0..REPS {
        for snap in snaps {
            for raw in &snap.encoded {
                black_box(crc32(black_box(raw)));
            }
        }
    }
    d.crc_mb_s = mb / t.elapsed().as_secs_f64();
    tracer.close();
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_harness::minspace::paper_base;

    #[test]
    fn mini_loop_stops_at_the_horizon_and_feeds_the_other_drills() {
        let cfg = paper_base(0.05, false, 5);
        let mut rec = Recording::default();
        let txns = driver_loop(live_driver(&cfg), Some(&mut rec));
        assert!((490..=500).contains(&txns), "100 TPS × 5 s, got {txns}");
        let pops = rec.tape.iter().filter(|&&op| op == POP).count();
        let scheduled = rec.tape.len() - pops;
        assert!(pops > 1000 && pops <= scheduled, "{pops} of {scheduled}");
        assert!(scheduled - pops < 500, "only stragglers stay queued");
        // The 1 s transactions of the first 4 s commit by the 5 s horizon,
        // two updates each; no 10 s transaction does.
        assert!((700..=800).contains(&rec.feed.len()), "{}", rec.feed.len());
        assert!(rec.feed.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(driver_loop(live_driver(&cfg), None), txns);
        assert!(replay_tape(&rec.tape) > 0.0);
        let (flushes, _) = flush_drill(&cfg, &rec.feed);
        assert!(flushes > 0 && flushes <= rec.feed.len() as u64);
    }

    #[test]
    fn forward_drills_fill_every_figure_on_a_kill_free_config() {
        let cfg = paper_base(0.05, false, 5);
        let d = forward(&cfg, &mut Tracer::new(true));
        assert!(d.null_events > 1000 && d.loop_ns_per_event > 0.0);
        assert!(d.queue_ops > 1000 && d.queue_ns_per_op > 0.0);
        assert!(d.capture_s > 0.0 && d.dbdisk_flushes > 0);
        assert!(d.dbdisk_ns_per_flush > 0.0);
    }
}
