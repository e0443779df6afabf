//! Online adaptive generation control.
//!
//! Every search in the harness (minspace, latsearch) finds the best
//! *static* lattice geometry offline. This module closes the loop at
//! runtime instead: an [`AdaptiveController`] watches kill pressure, the
//! last generation's write rate and the record-lifetime histogram over a
//! sliding window and re-shapes the lattice live —
//! growing or shrinking the last generation's block array (through
//! [`crate::ElManager::set_last_gen_capacity`]), toggling lifetime-hint
//! placement, and falling back to a firewall-like posture under sustained
//! kill pressure.
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
//! * **Kill window** (kills advanced): grow the last generation — to the
//!   estimate when it calls for more than the current capacity, by
//!   doubling while there is no signal at all, and by a modest 25 %
//!   ratchet when kills land although the mature estimate says capacity
//!   suffices (kill-truncated residencies drag the estimate low; doubling
//!   there overshoots the real need and sets up a grow/shrink
//!   oscillation); all clamped to the max bound. Lifetime hints are *not*
//!   touched on the ordinary path — hinted placement routes every
//!   long-transaction record straight into the last generation, a
//!   different workload from the one the capacity estimate (and any
//!   static yardstick) was priced against. At `FALLBACK_AFTER` (5)
//!   consecutive kill windows the controller declares the firewall
//!   fallback — hints on *and* the last generation grown to its max
//!   bound, the EL-side emulation of the hybrid's per-queue firewalls
//!   (each transaction pinned where the queue wrap exceeds its duration).
//! * **Quiet window** (no kills): streaks reset; after `SHRINK_AFTER` (2)
//!   consecutive quiet windows — and only if a kill has *ever* been
//!   seen — the controller shrinks toward
//!   `max(estimate, live + gap + 2)`, where `live` is the last
//!   generation's *live depth*
//!   ([`crate::ElManager::last_gen_live_blocks`]: oldest non-garbage
//!   record to tail — `used_blocks` is no liveness signal, because the
//!   demand-driven head advance parks it at `capacity − gap`), and only
//!   when the saving clears the `DEADBAND` (10 %). Leaving the fallback
//!   restores the configured hint setting.
//!
//! A run that never kills therefore never re-shapes and never toggles
//! hints: controller-on output on a static, feasible workload is
//! identical to controller-off output (the equivalence suite and the
//! ci.sh smoke pin this down to the byte).
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
//! jobs-invariant like everything else; its six tuning values are the
//! constants below, not settings. For the soundness property ("any
//! controller-chosen geometry, re-simulated statically, commits the same
//! record set") the controller also has a *scripted* mode:
//! [`AdaptiveController::scripted`] replays a recorded decision timeline
//! verbatim, with no decision logic at all.

use crate::manager::ElManager;
use elog_sim::SimTime;

/// Observation window between decisions.
const WINDOW: SimTime = SimTime::from_secs(5);
/// Max last-generation capacity, as a multiple of the initial capacity
/// (never below initial + 8 blocks).
const MAX_LAST_FACTOR: u32 = 8;
/// Consecutive kill windows before the firewall fallback.
const FALLBACK_AFTER: u32 = 5;
/// Consecutive quiet windows before a shrink step (and before the fallback
/// is exited).
const SHRINK_AFTER: u32 = 2;
/// Safety multiplier on the analytic capacity estimate.
const HEADROOM: f64 = 1.1;
/// Fractional capacity saving a shrink must clear to be worth a reshape
/// (hysteresis against reshape thrash).
const DEADBAND: f64 = 0.10;

/// Counters and decision logs kept by the controller.
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
    /// Lifetime-hint placement toggles.
    pub hint_toggles: u64,
    /// Times the firewall fallback engaged.
    pub firewall_fallbacks: u64,
    /// Every reshape: (decision time, new last-generation blocks). Also
    /// the script consumed by [`AdaptiveController::scripted`].
    pub reshape_log: Vec<(SimTime, u32)>,
    /// Every hint toggle: (decision time, hints on). Also part of the
    /// replay script.
    pub hint_log: Vec<(SimTime, bool)>,
}

#[derive(Clone, Debug)]
enum Mode {
    /// Live policy (see module docs).
    Decide,
    /// Replay a recorded decision timeline; no policy, no signals.
    Scripted {
        reshapes: Vec<(SimTime, u32)>,
        hints: Vec<(SimTime, bool)>,
        next_reshape: usize,
        next_hint: usize,
    },
}

/// The online controller. Owned by the harness run loop, which calls
/// [`crate::LogManager::adaptive_window`] once per window; consulted on
/// every arrival for [`AdaptiveController::placement_hints`].
#[derive(Clone, Debug)]
pub struct AdaptiveController {
    stats: AdaptiveStats,
    mode: Mode,
    /// Current hint-placement state (starts at the configured base).
    hints: bool,
    base_hints: bool,
    max_last: u32,
    /// A kill has been observed at some point; shrinking is armed.
    armed: bool,
    in_fallback: bool,
    kill_windows: u32,
    quiet_windows: u32,
    prev_kills: u64,
    prev_writes: u64,
    prev_age_counts: Vec<u64>,
    prev_window_end: SimTime,
}

impl AdaptiveController {
    /// Creates a live (deciding) controller for a lattice whose last
    /// generation starts at `initial_last_blocks`, with lifetime hints
    /// currently configured `base_hints`.
    pub fn new(initial_last_blocks: u32, base_hints: bool) -> Self {
        let max_last = initial_last_blocks
            .saturating_mul(MAX_LAST_FACTOR)
            .max(initial_last_blocks.saturating_add(8));
        AdaptiveController {
            stats: AdaptiveStats::default(),
            mode: Mode::Decide,
            hints: base_hints,
            base_hints,
            max_last,
            armed: false,
            in_fallback: false,
            kill_windows: 0,
            quiet_windows: 0,
            prev_kills: 0,
            prev_writes: 0,
            prev_age_counts: Vec::new(),
            prev_window_end: SimTime::ZERO,
        }
    }

    /// Creates a scripted controller replaying a decide run's
    /// [`AdaptiveStats::reshape_log`] and [`AdaptiveStats::hint_log`]
    /// verbatim at the same window cadence.
    pub fn scripted(
        reshapes: Vec<(SimTime, u32)>,
        hints: Vec<(SimTime, bool)>,
        base_hints: bool,
    ) -> Self {
        let mut ctl = AdaptiveController::new(u32::MAX, base_hints);
        ctl.mode = Mode::Scripted {
            reshapes,
            hints,
            next_reshape: 0,
            next_hint: 0,
        };
        ctl
    }

    /// Whether arrivals should currently use lifetime-hint placement.
    pub fn placement_hints(&self) -> bool {
        self.hints
    }

    /// The observation window.
    pub fn window(&self) -> SimTime {
        WINDOW
    }

    /// Counters and decision logs so far.
    pub fn stats(&self) -> &AdaptiveStats {
        &self.stats
    }

    /// Observes one window ending at `now` and applies any actions to
    /// `lm`. Called by [`crate::LogManager::adaptive_window`].
    pub fn on_window(&mut self, now: SimTime, lm: &mut ElManager) {
        self.stats.window_decisions += 1;
        match &mut self.mode {
            Mode::Decide => self.decide(now, lm),
            Mode::Scripted {
                reshapes,
                hints,
                next_reshape,
                next_hint,
            } => {
                // Copy out the due events first; applying them touches
                // other fields of self.
                let mut due_hints = [None; 4];
                let mut n_hints = 0;
                while *next_hint < hints.len() && hints[*next_hint].0 <= now {
                    if n_hints < due_hints.len() {
                        due_hints[n_hints] = Some(hints[*next_hint]);
                        n_hints += 1;
                    }
                    *next_hint += 1;
                }
                let mut due_reshapes = [None; 4];
                let mut n_reshapes = 0;
                while *next_reshape < reshapes.len() && reshapes[*next_reshape].0 <= now {
                    if n_reshapes < due_reshapes.len() {
                        due_reshapes[n_reshapes] = Some(reshapes[*next_reshape]);
                        n_reshapes += 1;
                    }
                    *next_reshape += 1;
                }
                for (at, on) in due_hints.into_iter().flatten() {
                    self.set_hints(at, on);
                }
                for (at, blocks) in due_reshapes.into_iter().flatten() {
                    self.apply_capacity(at, lm, blocks);
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
        let writes = lm.device.stats(last).writes.get();
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
            self.kill_windows += 1;
            self.quiet_windows = 0;
            if self.kill_windows >= FALLBACK_AFTER && !self.in_fallback {
                // Sustained pressure: the firewall fallback. Hints pin
                // each transaction where the queue wrap exceeds its
                // duration; max capacity makes the last queue that place
                // for the stragglers.
                self.in_fallback = true;
                self.stats.firewall_fallbacks += 1;
                self.set_hints(now, true);
                self.apply_capacity(now, lm, self.max_last);
            } else {
                // The analytic estimate leads once it calls for more than
                // the current capacity. With no signal at all (estimate
                // zero) double, so the early windows escape quickly. In
                // between — kills landing although the mature estimate
                // says capacity suffices — the estimate is running low
                // (kill-truncated residencies drag it down), so ratchet by
                // a step scaled to the observed kill count, capped at
                // 25 %: a handful of stragglers warrants a nudge, not a
                // doubling past the real need that sets up a grow/shrink
                // oscillation.
                let target = if estimate > cur {
                    estimate.max(cur.saturating_add(4))
                } else if estimate == 0 {
                    cur.saturating_mul(2).max(cur.saturating_add(4))
                } else {
                    let step = u32::try_from(kills_delta)
                        .unwrap_or(u32::MAX)
                        .clamp(4, (cur / 4).max(4));
                    cur.saturating_add(step)
                }
                .min(self.max_last);
                if target > cur {
                    self.apply_capacity(now, lm, target);
                }
            }
        } else {
            self.kill_windows = 0;
            self.quiet_windows += 1;
            if self.quiet_windows >= SHRINK_AFTER {
                if self.in_fallback {
                    self.in_fallback = false;
                    self.set_hints(now, self.base_hints);
                }
                if self.armed {
                    let live = u32::try_from(lm.last_gen_live_blocks()).unwrap_or(u32::MAX);
                    let floor = live.saturating_add(gap).saturating_add(2);
                    let target = estimate.max(floor).min(self.max_last);
                    // Step every quiet window while the deadband clears:
                    // the drain can be limited by records still live, so
                    // one decision rarely lands the whole distance. The
                    // deadband alone is the anti-thrash brake.
                    if f64::from(target) <= f64::from(cur) * (1.0 - DEADBAND) {
                        self.apply_capacity(now, lm, target);
                    }
                }
            }
        }

        self.prev_kills = kills;
        self.prev_writes = writes;
        self.prev_window_end = now;
    }

    fn set_hints(&mut self, now: SimTime, on: bool) {
        if self.hints == on {
            return;
        }
        self.hints = on;
        self.stats.hint_toggles += 1;
        self.stats.hint_log.push((now, on));
    }

    fn apply_capacity(&mut self, now: SimTime, lm: &mut ElManager, blocks: u32) {
        let last = lm.gens.len() - 1;
        let cur = lm.gens[last].ring.capacity() as u32;
        if blocks == cur {
            return;
        }
        let applied = if blocks > cur {
            lm.set_last_gen_capacity(blocks);
            self.stats.grows += 1;
            blocks
        } else {
            // A shrink first drains the garbage head prefix; record what
            // actually took effect so the script replays faithfully.
            let got = lm.shrink_last_gen_capacity(blocks);
            if got >= cur {
                return; // nothing reclaimable this window
            }
            self.stats.shrinks += 1;
            got
        };
        self.stats.reshapes += 1;
        self.stats.reshape_log.push((now, applied));
    }
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
        let mut ctl = AdaptiveController::new(16, false);
        // Plenty of write/age signal, but zero kills: a healthy run.
        for i in 0..200 {
            lm.garbage_age_ms.record(1000.0 + f64::from(i));
        }
        tick(&mut ctl, &mut lm, 20);
        let s = ctl.stats();
        assert_eq!(s.window_decisions, 20);
        assert_eq!(s.reshapes, 0);
        assert_eq!(s.hint_toggles, 0);
        assert_eq!(s.firewall_fallbacks, 0);
        assert!(!ctl.placement_hints());
        assert_eq!(lm.cfg.log.generation_blocks[1], 16);
    }

    #[test]
    fn kill_window_grows_last_generation() {
        let mut lm = manager(16);
        let mut ctl = AdaptiveController::new(16, false);
        lm.stats.kills += 3;
        tick(&mut ctl, &mut lm, 1);
        let s = ctl.stats();
        assert_eq!(s.reshapes, 1);
        assert_eq!(s.grows, 1);
        // max(estimate, 2 × 16, 16 + 4) = 32 (no analytic signal yet).
        assert_eq!(lm.cfg.log.generation_blocks[1], 32);
        assert_eq!(s.reshape_log, vec![(ctl.window(), 32)]);
        assert!(!ctl.placement_hints(), "one window does not toggle hints");
    }

    #[test]
    fn sustained_kills_reach_firewall_fallback() {
        let mut lm = manager(16);
        let mut ctl = AdaptiveController::new(16, false);
        for _ in 0..FALLBACK_AFTER {
            lm.stats.kills += 1;
            tick(&mut ctl, &mut lm, 1);
        }
        let s = ctl.stats();
        assert_eq!(s.firewall_fallbacks, 1);
        assert!(ctl.placement_hints(), "fallback forces hints on");
        assert_eq!(
            lm.cfg.log.generation_blocks[1],
            16 * MAX_LAST_FACTOR,
            "fallback grows to the max bound"
        );
        // Recovery: quiet windows exit the fallback, restore hints and
        // eventually shrink (armed), but never below used + gap + 2.
        tick(&mut ctl, &mut lm, 6);
        assert!(!ctl.placement_hints(), "base hints restored");
        let s = ctl.stats();
        assert!(s.shrinks >= 1, "quiet windows shrink after arming");
        let gap = lm.cfg.log.gap_blocks;
        let used = lm.gens[1].ring.used_blocks() as u32;
        assert!(lm.cfg.log.generation_blocks[1] >= used + gap + 2);
        assert!(lm.cfg.log.generation_blocks[1] < 16 * MAX_LAST_FACTOR);
    }

    #[test]
    fn shrink_respects_deadband() {
        let mut lm = manager(16);
        let mut ctl = AdaptiveController::new(16, false);
        // Arm with one kill window, then go quiet: capacity 32 with an
        // empty ring shrinks toward the floor (gap 2 → floor 4).
        lm.stats.kills += 1;
        tick(&mut ctl, &mut lm, 1);
        assert_eq!(lm.cfg.log.generation_blocks[1], 32);
        tick(&mut ctl, &mut lm, 2);
        let shrunk = lm.cfg.log.generation_blocks[1];
        assert!(shrunk < 20, "quiet windows shrink, got {shrunk}");
        let floor = lm.cfg.log.gap_blocks + 2;
        assert_eq!(shrunk, floor);
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
        let mut ctl_a = AdaptiveController::new(16, false);
        for round in 0..8 {
            if round < 4 {
                lm_a.stats.kills += 2;
            }
            tick(&mut ctl_a, &mut lm_a, 1);
        }
        let script_reshapes = ctl_a.stats().reshape_log.clone();
        let script_hints = ctl_a.stats().hint_log.clone();
        assert!(!script_reshapes.is_empty());

        // Scripted run on a fresh manager, same cadence, no kill signal
        // at all — the timeline must replay verbatim.
        let mut lm_b = manager(16);
        let mut ctl_b =
            AdaptiveController::scripted(script_reshapes.clone(), script_hints.clone(), false);
        tick(&mut ctl_b, &mut lm_b, 8);
        assert_eq!(ctl_b.stats().reshape_log, script_reshapes);
        assert_eq!(ctl_b.stats().hint_log, script_hints);
        assert_eq!(ctl_b.stats().reshapes, script_reshapes.len() as u64);
        assert_eq!(
            lm_b.cfg.log.generation_blocks[1], lm_a.cfg.log.generation_blocks[1],
            "final geometry matches the decide run"
        );
        assert_eq!(ctl_b.placement_hints(), ctl_a.placement_hints());
    }
}
