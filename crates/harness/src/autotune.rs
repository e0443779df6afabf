//! The §6 "adaptable EL" tuner.
//!
//! The paper closes with an open problem: "The optimal number of
//! generations and their sizes depends on the application. We cannot
//! offer any provably correct analytical methods as tools to a database
//! administrator … Ideally, we would like an adaptable version of EL that
//! dynamically chooses the number and sizes of generations itself."
//!
//! This tuner is that tool, in advisory form. It runs one *exploration*
//! pass against a deliberately roomy geometry, observes
//!
//! * the generation-0 block consumption rate (the log's fill speed), and
//! * the distribution of record ages at garbage time (when flushed or
//!   superseded) — the quantity that actually determines how long a
//!   record must survive in the log,
//!
//! then sizes generation 0 so that records younger than the bulk
//! garbage-age quantile never reach its head, and generation 1 so that
//! the oldest stragglers survive until their transactions finish. A
//! handful of validation probes then walk the estimate down to the true
//! kill boundary — typically an order of magnitude fewer simulations than
//! the lattice search (`SearchRequest::lattice`) needs.

use crate::minspace::MinSpaceResult;
use crate::runner::{run, RunConfig};
use elog_sim::SimTime;

/// Tuner output.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// The analytic estimate before validation probes.
    pub estimate: Vec<u32>,
    /// The validated geometry (kill-free; each generation at its probe
    /// boundary).
    pub tuned: MinSpaceResult,
    /// Simulations executed, including the exploration run.
    pub probes: u32,
}

/// Observation statistics from the exploration pass.
#[derive(Clone, Copy, Debug)]
pub struct Observation {
    /// Generation-0 block consumption, blocks per second.
    pub gen0_blocks_per_sec: f64,
    /// Garbage-age quantile (ms) below which the bulk of records die.
    pub bulk_age_ms: f64,
    /// Maximum observed garbage age (ms): the stragglers' horizon.
    pub max_age_ms: f64,
    /// Forwarded bytes per second observed at the roomy geometry.
    pub forwarded_bytes_per_sec: f64,
}

/// Runs the exploration pass and derives the observation.
///
/// Uses `build_model` rather than `run` because the garbage-age histogram
/// lives on the manager, not in the metrics snapshot.
pub fn observe(base: &RunConfig, explore_secs: u64) -> Observation {
    let mut cfg = base.clone();
    cfg.el.log.generation_blocks = vec![96, 96];
    cfg.runtime = SimTime::from_secs(explore_secs);
    cfg.stop_on_kill = false;
    let mut engine = crate::runner::build_model(&cfg);
    engine.run_until(cfg.runtime);
    let model = engine.model();
    let hist = model.lm.garbage_age_ms();
    let elapsed = cfg.runtime;
    Observation {
        gen0_blocks_per_sec: model.lm.log_device().write_rate(0, elapsed),
        bulk_age_ms: hist.quantile(0.90).unwrap_or(1_000.0),
        max_age_ms: hist.max().unwrap_or(10_000.0),
        forwarded_bytes_per_sec: model.lm.stats().forwarded_bytes as f64 / elapsed.as_secs_f64(),
    }
}

/// Derives the analytic geometry estimate from an observation.
pub fn estimate(base: &RunConfig, obs: &Observation) -> Vec<u32> {
    let k = base.el.log.gap_blocks;
    let payload = f64::from(base.el.log.block_payload);
    // Generation 0 must hold bulk_age worth of traffic plus the gap and
    // one block of arrival slack.
    let g0 = (obs.gen0_blocks_per_sec * obs.bulk_age_ms / 1000.0).ceil() as u32 + k + 1;
    // Generation 1 must hold the stragglers: forwarded traffic for the
    // remaining (max − bulk) age span, plus slack. Forwarding writes are
    // near-full blocks thanks to gathering.
    let straggler_secs = (obs.max_age_ms - obs.bulk_age_ms).max(0.0) / 1000.0;
    let fwd_blocks_per_sec = obs.forwarded_bytes_per_sec / payload;
    let g1 = (fwd_blocks_per_sec * straggler_secs).ceil() as u32 + k + 2;
    vec![g0.max(k + 2), g1.max(k + 2)]
}

/// True when the geometry survives the base horizon without kills.
fn survives(base: &RunConfig, blocks: &[u32], probes: &mut u32) -> bool {
    *probes += 1;
    let mut cfg = base.clone();
    cfg.el.log.generation_blocks = blocks.to_vec();
    cfg.stop_on_kill = true;
    run(&cfg).killed == 0
}

/// Full tuning pass: observe → estimate → validate.
///
/// Validation walks each generation down one block at a time from the
/// estimate while the configuration stays kill-free (and back up if the
/// estimate itself kills), touching generation 1 first — its size is the
/// softer estimate.
pub fn autotune(base: &RunConfig, explore_secs: u64) -> TuneResult {
    let obs = observe(base, explore_secs);
    let est = estimate(base, &obs);
    let mut probes = 1; // the exploration run
    let k = base.el.log.gap_blocks;

    let mut g = est.clone();
    // Grow until feasible (estimate may undershoot on hostile mixes).
    let mut guard = 0;
    while !survives(base, &g, &mut probes) {
        g[1] += (g[1] / 2).max(2);
        guard += 1;
        if guard > 12 {
            g[0] += (g[0] / 2).max(2);
        }
        assert!(guard < 40, "autotune cannot find a feasible geometry");
    }
    // Shrink generation 1 to its boundary.
    while g[1] > k + 2 {
        let cand = [g[0], g[1] - 1];
        if survives(base, &cand, &mut probes) {
            g[1] -= 1;
        } else {
            break;
        }
    }
    // Then generation 0.
    while g[0] > k + 2 {
        let cand = [g[0] - 1, g[1]];
        if survives(base, &cand, &mut probes) {
            g[0] -= 1;
        } else {
            break;
        }
    }
    TuneResult {
        estimate: est,
        tuned: MinSpaceResult {
            generation_blocks: g.clone(),
            total_blocks: g.iter().sum(),
            probes,
            search: Default::default(),
        },
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latsearch::{LatticeLimits, SearchRequest};
    use crate::minspace::paper_base;

    #[test]
    fn observation_reflects_the_mix() {
        let base = paper_base(0.05, false, 0);
        let obs = observe(&base, 30);
        // ~11.3 blocks/s of input at the 5% mix.
        assert!(
            (9.0..14.0).contains(&obs.gen0_blocks_per_sec),
            "gen0 rate {}",
            obs.gen0_blocks_per_sec
        );
        // Short transactions die ~1.1 s after their records are written;
        // long ones live up to 10 s.
        assert!(
            obs.bulk_age_ms > 300.0 && obs.bulk_age_ms < 3_000.0,
            "bulk {}",
            obs.bulk_age_ms
        );
        assert!(obs.max_age_ms > 7_000.0, "max {}", obs.max_age_ms);
    }

    #[test]
    fn tuned_geometry_is_near_the_grid_minimum_with_far_fewer_probes() {
        let mut base = paper_base(0.05, false, 30);
        base.stop_on_kill = false;
        let tuned = autotune(&base, 30);
        let grid = SearchRequest::lattice(
            &base,
            LatticeLimits {
                prefix_max: vec![24],
                last_limit: 128,
            },
        )
        .jobs(crate::sweep::default_jobs())
        .run()
        .min;

        assert!(
            tuned.tuned.total_blocks <= grid.total_blocks + grid.total_blocks / 2,
            "tuned {:?} too far above grid {:?}",
            tuned.tuned.generation_blocks,
            grid.generation_blocks
        );
        // The grid search is itself pruned (anchor bound), so the margin
        // here is the tuner's edge over an already-cheap search.
        assert!(
            tuned.probes * 2 < grid.probes,
            "tuner must be cheaper: {} vs {} probes",
            tuned.probes,
            grid.probes
        );
        // And of course the result is kill-free by construction.
        let mut probes = 0;
        assert!(survives(&base, &tuned.tuned.generation_blocks, &mut probes));
    }
}
