//! Online adaptive generation control.
//!
//! Every search in the harness (minspace, latsearch) finds the best
//! *static* lattice geometry offline. This module closes the loop at
//! runtime instead: an [`AdaptiveController`] watches kill pressure, the
//! last generation's write rate and the record-lifetime histogram over a
//! sliding window and re-shapes the lattice live, growing or shrinking
//! the last generation's block array (through
//! [`crate::ElManager::set_last_gen_capacity`]). Placement is not its
//! business: lifetime hints stay the run's static setting.
//!
//! # Signals and policy
//!
//! Once per window the controller reads three deltas from the manager:
//! kills ([`crate::LmStats::kills`]), last-generation device writes (the
//! windowed write rate in blocks/s), and the garbage-age histogram's
//! bucket counts (a windowed residency reading via
//! [`elog_sim::Histogram::quantile_since`]). From the write rate and the
//! windowed worst-case residency it forms a small analytic capacity
//! estimate — the blocks written while one record stays resident:
//!
//! ```text
//! target ≈ ceil(write_rate × residency × headroom) + gap + 2
//! ```
//!
//! The policy is deliberately *armed* by kill pressure and only by kill
//! pressure:
//!
//! * **Kill window** (kills advanced): grow the last generation to the
//!   estimate when it calls for more than the current capacity. Otherwise
//!   (no estimate yet, or kills landing although the estimate says
//!   capacity suffices, because kill-truncated residencies drag it low)
//!   ratchet by a step scaled to the window's kill count, capped at 25 %:
//!   a handful of stragglers warrants a nudge, not a jump past the real
//!   need that sets up a grow/shrink oscillation. Both are clamped to the
//!   max bound.
//! * **Quiet window** (no kills): once a kill has *ever* been seen, the
//!   controller shrinks toward `max(estimate, live + gap + 2)`, where
//!   `live` is the last generation's *live depth*
//!   ([`crate::ElManager::last_gen_live_blocks`]: oldest non-garbage
//!   record to tail — `used_blocks` is no liveness signal, because the
//!   demand-driven head advance parks it at `capacity − gap`), and only
//!   when the saving clears the `DEADBAND` (10 %).
//!
//! A run that never kills therefore never re-shapes: controller-on output
//! on a static, feasible workload is identical to controller-off output
//! (the equivalence suite and the ci.sh smoke pin this down to the byte).
//! The estimate, the ratchet, the deadband and `HEADROOM` each lose when
//! left out (EXPERIMENTS.md, "fig_adaptive", four-seed leave-one-out).
//!
//! # Reshape safety
//!
//! Growing or shrinking mid-run is sound because
//! [`elog_storage::BlockRing::set_capacity`] remaps every physically
//! present block to `seq % new_capacity` (newest sequence wins a
//! contested slot, exactly as overwriting would). A shrink goes through
//! [`crate::ElManager::shrink_last_gen_capacity`], which first consumes
//! the durable all-garbage head prefix so the ring's `[head, tail)`
//! window fits the new size, and the floor `live + gap + 2` keeps every
//! non-garbage record inside it — so head/tail bookkeeping, in-flight
//! installs and the recovery surface all stay coherent. See DESIGN.md
//! §5j for the full argument.
//!
//! # Determinism
//!
//! The controller consumes no randomness and reads only manager state at
//! window boundaries, so a run is a pure function of the workload stream —
//! jobs-invariant like everything else; its four tuning values are the
//! constants below, not settings. For the soundness property ("any
//! controller-chosen geometry, re-simulated statically, commits the same
//! record set") the controller also has a *scripted* mode:
//! [`AdaptiveController::scripted`] replays a recorded reshape timeline
//! verbatim, with no decision logic at all.

use crate::manager::ElManager;
use elog_sim::SimTime;
use std::iter::Peekable;
use std::vec::IntoIter;

/// Observation window between decisions.
const WINDOW: SimTime = SimTime::from_secs(5);
/// Max last-generation capacity, as a multiple of the initial capacity
/// (never below initial + 8 blocks).
const MAX_LAST_FACTOR: u32 = 8;
/// Safety multiplier on the analytic capacity estimate.
const HEADROOM: f64 = 1.1;
/// Fractional capacity saving a shrink must clear to be worth a reshape
/// (hysteresis against reshape thrash).
const DEADBAND: f64 = 0.10;

/// Counters and the decision log kept by the controller.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdaptiveStats {
    /// Windows observed (decide or scripted).
    pub window_decisions: u64,
    /// Capacity reshapes applied (grows + shrinks).
    pub reshapes: u64,
    /// Reshapes that grew the last generation.
    pub grows: u64,
    /// Reshapes that shrank the last generation.
    pub shrinks: u64,
    /// Every reshape: (decision time, new last-generation blocks). Also
    /// the script consumed by [`AdaptiveController::scripted`].
    pub reshape_log: Vec<(SimTime, u32)>,
}

#[derive(Debug)]
enum Mode {
    /// Live policy (see module docs).
    Decide,
    /// Replay a recorded reshape timeline; no policy, no signals.
    Scripted(Peekable<IntoIter<(SimTime, u32)>>),
}

/// The online controller. Owned by the harness run loop, which calls
/// [`crate::LogManager::adaptive_window`] once per window.
#[derive(Debug)]
pub struct AdaptiveController {
    stats: AdaptiveStats,
    mode: Mode,
    max_last: u32,
    /// A kill has been observed at some point; shrinking is armed.
    armed: bool,
    prev_kills: u64,
    prev_writes: u64,
    prev_age_counts: Vec<u64>,
    prev_window_end: SimTime,
}

impl AdaptiveController {
    /// Creates a live (deciding) controller for a lattice whose last
    /// generation starts at `initial_last_blocks`.
    pub fn new(initial_last_blocks: u32) -> Self {
        let max_last = initial_last_blocks
            .saturating_mul(MAX_LAST_FACTOR)
            .max(initial_last_blocks.saturating_add(8));
        AdaptiveController {
            stats: AdaptiveStats::default(),
            mode: Mode::Decide,
            max_last,
            armed: false,
            prev_kills: 0,
            prev_writes: 0,
            prev_age_counts: Vec::new(),
            prev_window_end: SimTime::ZERO,
        }
    }

    /// Creates a scripted controller replaying a decide run's
    /// [`AdaptiveStats::reshape_log`] verbatim at the same window cadence.
    pub fn scripted(reshapes: Vec<(SimTime, u32)>) -> Self {
        let mut ctl = AdaptiveController::new(u32::MAX);
        ctl.mode = Mode::Scripted(reshapes.into_iter().peekable());
        ctl
    }

    /// The observation window.
    pub fn window(&self) -> SimTime {
        WINDOW
    }

    /// Counters and the decision log so far.
    pub fn stats(&self) -> &AdaptiveStats {
        &self.stats
    }

    /// Observes one window ending at `now` and applies any actions to
    /// `lm`. Called by [`crate::LogManager::adaptive_window`].
    pub fn on_window(&mut self, now: SimTime, lm: &mut ElManager) {
        self.stats.window_decisions += 1;
        match &mut self.mode {
            Mode::Decide => self.decide(now, lm),
            Mode::Scripted(script) => {
                while let Some((at, blocks)) = script.next_if(|&(at, _)| at <= now) {
                    apply_capacity(&mut self.stats, at, lm, blocks);
                }
            }
        }
    }

    fn decide(&mut self, now: SimTime, lm: &mut ElManager) {
        let last = lm.gens.len() - 1;
        let gap = lm.cfg.log.gap_blocks;

        let cur = lm.gens[last].ring.capacity() as u32;
        let kills = lm.stats.kills;
        let kills_delta = kills.saturating_sub(self.prev_kills);
        let writes = lm.device.stats(last).writes;
        let writes_delta = writes.saturating_sub(self.prev_writes);

        // Windowed worst-case garbage residency; the first window (no
        // baseline yet) falls back to the cumulative reading, which over
        // that window is the same thing.
        let age_ms = if self.prev_age_counts.len() == lm.garbage_age_ms.counts().len() {
            lm.garbage_age_ms.quantile_since(&self.prev_age_counts, 1.0)
        } else {
            lm.garbage_age_ms.quantile(1.0)
        };
        self.prev_age_counts.clear();
        self.prev_age_counts
            .extend_from_slice(lm.garbage_age_ms.counts());
        let span = now.saturating_sub(self.prev_window_end).as_secs_f64();
        // The §6 analytic estimate on windowed signals: blocks needed =
        // write rate × residency, plus the gap margin and slack.
        let estimate = match age_ms {
            Some(ms) if span > 0.0 => {
                let rate = writes_delta as f64 / span;
                (rate * (ms / 1000.0) * HEADROOM).ceil() as u32 + gap + 2
            }
            _ => 0,
        };

        if kills_delta > 0 {
            self.armed = true;
            let target = if estimate > cur {
                estimate.max(cur.saturating_add(4))
            } else {
                let step = u32::try_from(kills_delta)
                    .unwrap_or(u32::MAX)
                    .clamp(4, (cur / 4).max(4));
                cur.saturating_add(step)
            }
            .min(self.max_last);
            if target > cur {
                apply_capacity(&mut self.stats, now, lm, target);
            }
        } else if self.armed {
            let live = u32::try_from(lm.last_gen_live_blocks()).unwrap_or(u32::MAX);
            let floor = live.saturating_add(gap).saturating_add(2);
            let target = estimate.max(floor).min(self.max_last);
            // Step every quiet window while the deadband clears: the drain
            // can be limited by records still live, so one decision rarely
            // lands the whole distance. The deadband alone is the
            // anti-thrash brake.
            if f64::from(target) <= f64::from(cur) * (1.0 - DEADBAND) {
                apply_capacity(&mut self.stats, now, lm, target);
            }
        }

        self.prev_kills = kills;
        self.prev_writes = writes;
        self.prev_window_end = now;
    }
}

/// Sets the last generation of `lm` to `blocks` and logs, in `stats`,
/// what took effect.
fn apply_capacity(stats: &mut AdaptiveStats, now: SimTime, lm: &mut ElManager, blocks: u32) {
    let last = lm.gens.len() - 1;
    let cur = lm.gens[last].ring.capacity() as u32;
    if blocks == cur {
        return;
    }
    let applied = if blocks > cur {
        lm.set_last_gen_capacity(blocks);
        stats.grows += 1;
        blocks
    } else {
        // A shrink first drains the garbage head prefix; record what
        // actually took effect so the script replays faithfully.
        let got = lm.shrink_last_gen_capacity(blocks);
        if got >= cur {
            return; // nothing reclaimable this window
        }
        stats.shrinks += 1;
        got
    };
    stats.reshapes += 1;
    stats.reshape_log.push((now, applied));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ElConfig;
    use elog_model::{FlushConfig, LogConfig};

    fn manager(last_blocks: u32) -> ElManager {
        let log = LogConfig {
            generation_blocks: vec![10, last_blocks],
            ..LogConfig::default()
        };
        ElManager::new(ElConfig::ephemeral(log, FlushConfig::default())).unwrap()
    }

    /// Delivers `n` window ticks at the controller's cadence, with
    /// monotone window-end times across successive calls.
    fn tick(ctl: &mut AdaptiveController, lm: &mut ElManager, n: u32) {
        let w = ctl.window();
        for _ in 0..n {
            let t = w * (ctl.stats().window_decisions + 1);
            ctl.on_window(t, lm);
        }
    }

    #[test]
    fn static_run_never_reshapes() {
        let mut lm = manager(16);
        let mut ctl = AdaptiveController::new(16);
        // Plenty of write/age signal, but zero kills: a healthy run.
        for i in 0..200 {
            lm.garbage_age_ms.record(1000.0 + f64::from(i));
        }
        tick(&mut ctl, &mut lm, 20);
        let s = ctl.stats();
        assert_eq!(s.window_decisions, 20);
        assert_eq!(s.reshapes, 0);
        assert_eq!(lm.cfg.log.generation_blocks[1], 16);
    }

    #[test]
    fn kill_window_grows_last_generation() {
        let mut lm = manager(16);
        let mut ctl = AdaptiveController::new(16);
        lm.stats.kills += 3;
        tick(&mut ctl, &mut lm, 1);
        let s = ctl.stats();
        assert_eq!(s.reshapes, 1);
        assert_eq!(s.grows, 1);
        // No estimate yet, so the ratchet: 16 + clamp(3 kills, 4, 16 / 4).
        assert_eq!(lm.cfg.log.generation_blocks[1], 20);
        assert_eq!(s.reshape_log, vec![(ctl.window(), 20)]);
    }

    #[test]
    fn shrink_respects_deadband() {
        let mut lm = manager(16);
        let mut ctl = AdaptiveController::new(16);
        // Arm with one kill window, then go quiet: capacity 20 with an
        // empty ring shrinks to the floor (gap 2 → floor 4) on the first
        // quiet window.
        lm.stats.kills += 1;
        tick(&mut ctl, &mut lm, 1);
        assert_eq!(lm.cfg.log.generation_blocks[1], 20);
        tick(&mut ctl, &mut lm, 1);
        let floor = lm.cfg.log.gap_blocks + 2;
        assert_eq!(lm.cfg.log.generation_blocks[1], floor);
        // Once at the floor, further quiet windows are within the
        // deadband — no thrash.
        let reshapes = ctl.stats().reshapes;
        tick(&mut ctl, &mut lm, 5);
        assert_eq!(ctl.stats().reshapes, reshapes);
    }

    #[test]
    fn scripted_replays_decide_timeline() {
        // Decide run against a synthetic kill pattern.
        let mut lm_a = manager(16);
        let mut ctl_a = AdaptiveController::new(16);
        for round in 0..8 {
            if round < 4 {
                lm_a.stats.kills += 2;
            }
            tick(&mut ctl_a, &mut lm_a, 1);
        }
        let script = ctl_a.stats().reshape_log.clone();
        assert!(!script.is_empty());

        // Scripted run on a fresh manager, same cadence, no kill signal
        // at all — the timeline must replay verbatim.
        let mut lm_b = manager(16);
        let mut ctl_b = AdaptiveController::scripted(script.clone());
        tick(&mut ctl_b, &mut lm_b, 8);
        assert_eq!(ctl_b.stats().reshape_log, script);
        assert_eq!(ctl_b.stats().reshapes, script.len() as u64);
        assert_eq!(
            lm_b.cfg.log.generation_blocks[1], lm_a.cfg.log.generation_blocks[1],
            "final geometry matches the decide run"
        );
    }
}
