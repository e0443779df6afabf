//! A minimal event-loop host for driving one log manager directly.
//!
//! The full experiment harness (`elog-harness`) couples the manager with a
//! workload generator and an oracle; this little host is for everything
//! else — unit tests, examples, and recovery scenarios — where you want to
//! issue `begin`/`write`/`commit` calls at chosen virtual times and have
//! the manager's timers serviced without standing up a whole simulation.

use crate::manager::ElManager;
use crate::traits::LogManager;
use crate::types::{Effects, LmTimer};
use elog_model::{Oid, Tid};
use elog_sim::{EventQueue, SimTime};

/// Drives a single log manager ([`ElManager`] by default): schedules its
/// timers, collects its notifications, and keeps virtual time monotone.
pub struct SimpleHost<L: LogManager = ElManager> {
    /// The log manager under test.
    pub lm: L,
    queue: EventQueue<LmTimer>,
    /// Commit acknowledgements received, in order.
    pub acks: Vec<Tid>,
    /// Kills received, in order.
    pub kills: Vec<Tid>,
    now: SimTime,
}

impl<L: LogManager> SimpleHost<L> {
    /// Wraps a manager.
    pub fn new(lm: L) -> Self {
        SimpleHost {
            lm,
            queue: EventQueue::new(),
            acks: Vec::new(),
            kills: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn apply(&mut self, mut fx: Effects) {
        for (at, timer) in fx.timers.drain(..) {
            self.queue.schedule(at, timer);
        }
        self.acks.append(&mut fx.acks);
        self.kills.append(&mut fx.kills);
        self.lm.recycle(fx);
    }

    /// Delivers every pending timer scheduled at or before `until`, then
    /// advances the clock to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        // Fused peek-and-pop: one queue access per delivered timer.
        while let Some((at, timer)) = self.queue.pop_at_or_before(until) {
            debug_assert!(at >= self.now);
            self.now = at;
            let fx = self.lm.handle_timer(at, timer);
            self.apply(fx);
        }
        self.now = self.now.max(until);
    }

    /// Runs the queue dry (all in-flight writes and flushes complete),
    /// leaving the clock at the last delivered event.
    pub fn run_to_completion(&mut self) -> SimTime {
        while let Some((at, timer)) = self.queue.pop() {
            debug_assert!(at >= self.now);
            self.now = at;
            let fx = self.lm.handle_timer(at, timer);
            self.apply(fx);
        }
        self.now
    }

    /// BEGIN at `at`.
    pub fn begin(&mut self, at: SimTime, tid: Tid) {
        self.run_until(at);
        let fx = self.lm.begin(at, tid);
        self.apply(fx);
    }

    /// Data record at `at`.
    pub fn write(&mut self, at: SimTime, tid: Tid, oid: Oid, seq: u32, size: u32) {
        self.run_until(at);
        let fx = self.lm.write_data(at, tid, oid, seq, size);
        self.apply(fx);
    }

    /// COMMIT request at `at` (ack arrives later via group commit).
    pub fn commit(&mut self, at: SimTime, tid: Tid) {
        self.run_until(at);
        let fx = self.lm.commit_request(at, tid);
        self.apply(fx);
    }

    /// Abort at `at`.
    pub fn abort(&mut self, at: SimTime, tid: Tid) {
        self.run_until(at);
        let fx = self.lm.abort(at, tid);
        self.apply(fx);
    }

    /// Force-writes open buffers at `at` (end-of-run quiescing).
    pub fn quiesce(&mut self, at: SimTime) {
        self.run_until(at);
        let fx = self.lm.quiesce(at);
        self.apply(fx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_model::{FlushConfig, LogConfig};

    #[test]
    fn host_round_trips_one_transaction() {
        let log = LogConfig {
            generation_blocks: vec![8, 8],
            ..LogConfig::default()
        };
        let mut h = SimpleHost::new(ElManager::ephemeral(log, FlushConfig::default()));
        h.begin(SimTime::ZERO, Tid(1));
        h.write(SimTime::from_millis(1), Tid(1), Oid(5), 1, 100);
        h.commit(SimTime::from_millis(2), Tid(1));
        h.quiesce(SimTime::from_millis(3));
        let end = h.run_to_completion();
        assert_eq!(h.acks, vec![Tid(1)]);
        assert!(end >= SimTime::from_millis(18));
        assert_eq!(h.lm.stable_db().len(), 1);
    }

    #[test]
    fn host_clock_is_monotone() {
        let log = LogConfig {
            generation_blocks: vec![8],
            ..LogConfig::default()
        };
        let mut h = SimpleHost::new(ElManager::firewall(8, FlushConfig::default()));
        let _ = &log;
        h.begin(SimTime::from_secs(1), Tid(1));
        h.run_until(SimTime::from_secs(2));
        assert_eq!(h.now(), SimTime::from_secs(2));
        h.run_until(SimTime::from_secs(1)); // earlier target: no-op
        assert_eq!(h.now(), SimTime::from_secs(2));
    }
}
