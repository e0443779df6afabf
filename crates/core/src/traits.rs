//! The [`LogManager`] abstraction: the transaction-facing surface of
//! [`crate::ElManager`] (ephemeral logging and the FW baseline), the one
//! production log manager.
//!
//! The manager is a passive state machine — every call takes the virtual
//! `now` and returns [`Effects`] for the host to apply. This trait is the
//! seam where a host (notably the harness's `SimModel`, built by
//! `runner::build_model_with`) accepts a substitute instead: a
//! test-only recorder or mirror that checks what the host feeds the
//! manager, a stub that overrides one accessor, or the reference
//! benchmark's timing wrapper and no-op manager.

use crate::adaptive::AdaptiveController;
use crate::types::{Effects, LmTimer};
use elog_model::{Oid, StableDb, Tid};
use elog_sim::SimTime;

/// A log manager drivable by a virtual-time event loop.
///
/// Contract: all methods are passive — they never block, never read a real
/// clock, and communicate exclusively through the returned [`Effects`]
/// (timers to schedule, commit acks and kills to deliver).
pub trait LogManager {
    /// BEGIN a transaction.
    fn begin(&mut self, now: SimTime, tid: Tid) -> Effects;

    /// BEGIN with a §6 lifetime hint: the host's expectation of how long
    /// the transaction will run. Techniques that support hinted placement
    /// (EL's `begin_in`) use it to pick the transaction's home generation;
    /// the default ignores the hint.
    fn begin_hinted(&mut self, now: SimTime, tid: Tid, expected_duration: SimTime) -> Effects {
        let _ = expected_duration;
        self.begin(now, tid)
    }

    /// Log one data record (REDO image of one update).
    fn write_data(&mut self, now: SimTime, tid: Tid, oid: Oid, seq: u32, size: u32) -> Effects;

    /// COMMIT request; the ack arrives via a later [`Effects`] when the
    /// commit record is durable.
    fn commit_request(&mut self, now: SimTime, tid: Tid) -> Effects;

    /// Abort the transaction; its records become garbage.
    fn abort(&mut self, now: SimTime, tid: Tid) -> Effects;

    /// Deliver an expired timer.
    fn handle_timer(&mut self, now: SimTime, timer: LmTimer) -> Effects;

    /// Force-write open buffers (end-of-run quiescing).
    fn quiesce(&mut self, now: SimTime) -> Effects;

    /// Deliver one adaptive-controller window tick (see
    /// [`crate::adaptive`]): the manager exposes its signals to `ctl` and
    /// applies whatever actions the controller decides. Techniques
    /// without adaptive support ignore the tick — the controller then
    /// observes nothing and re-shapes nothing.
    fn adaptive_window(&mut self, now: SimTime, ctl: &mut AdaptiveController) {
        let _ = (now, ctl);
    }

    /// Returns a drained [`Effects`] so the manager can reuse its buffers
    /// on the next call (one event ⇒ one `Effects`; recycling makes the
    /// steady-state event loop allocation-free). Optional: the default
    /// drops the value, which is always correct, just slower.
    fn recycle(&mut self, fx: Effects) {
        drop(fx);
    }

    // ---------------------------------------------------------------
    // Stats accessors (the cross-technique comparison surface)
    // ---------------------------------------------------------------

    /// Peak main-memory bytes under the technique's pricing model.
    fn peak_memory_bytes(&self) -> u64;

    /// Frozen name, owed to the next benchmark re-record: `benchmark/`'s
    /// tracing wrapper forwards it, and nothing reads it.
    #[doc(hidden)]
    fn last_gen_allocated(&self) -> u64 {
        0
    }

    /// Data records of `tenant` currently live in the manager, for hosts
    /// that cap each tenant's footprint (the harness's admission budget).
    /// Techniques without per-tenant accounting report 0, which simply
    /// means no budget ever trips.
    fn tenant_live_records(&self, tenant: usize) -> u64 {
        let _ = tenant;
        0
    }

    /// Completed log-block writes so far.
    fn log_writes(&self) -> u64;

    /// Log bandwidth in block writes per second over the run so far.
    fn log_write_rate(&self, now: SimTime) -> f64;

    /// The stable database the flush array installs into.
    fn stable_db(&self) -> &StableDb;
}

impl LogManager for crate::ElManager {
    fn begin(&mut self, now: SimTime, tid: Tid) -> Effects {
        crate::ElManager::begin(self, now, tid)
    }

    fn begin_hinted(&mut self, now: SimTime, tid: Tid, expected_duration: SimTime) -> Effects {
        let home = self.pick_generation_for(now, expected_duration);
        self.begin_in(now, tid, home)
    }

    fn write_data(&mut self, now: SimTime, tid: Tid, oid: Oid, seq: u32, size: u32) -> Effects {
        crate::ElManager::write_data(self, now, tid, oid, seq, size)
    }

    fn commit_request(&mut self, now: SimTime, tid: Tid) -> Effects {
        crate::ElManager::commit_request(self, now, tid)
    }

    fn abort(&mut self, now: SimTime, tid: Tid) -> Effects {
        crate::ElManager::abort(self, now, tid)
    }

    fn handle_timer(&mut self, now: SimTime, timer: LmTimer) -> Effects {
        crate::ElManager::handle_timer(self, now, timer)
    }

    fn quiesce(&mut self, now: SimTime) -> Effects {
        crate::ElManager::quiesce(self, now)
    }

    fn adaptive_window(&mut self, now: SimTime, ctl: &mut AdaptiveController) {
        ctl.on_window(now, self);
    }

    fn recycle(&mut self, fx: Effects) {
        crate::ElManager::recycle_fx(self, fx);
    }

    fn peak_memory_bytes(&self) -> u64 {
        crate::ElManager::peak_memory_bytes(self)
    }

    fn tenant_live_records(&self, tenant: usize) -> u64 {
        self.tenant_ledger()
            .map_or(0, |l| l.get(tenant).live_records)
    }

    fn log_writes(&self) -> u64 {
        self.log_device().total_writes()
    }

    fn log_write_rate(&self, now: SimTime) -> f64 {
        self.metrics(now).log_write_rate
    }

    fn stable_db(&self) -> &StableDb {
        crate::ElManager::stable_db(self)
    }
}
