//! Workload trace capture and replay.
//!
//! The minimum-space searches (§4) probe dozens of log geometries against
//! the *same* workload: probes vary only `generation_blocks`, never the
//! seed. The workload-visible interface of a run — arrival times, type
//! draws, oid picks, record sizes — is independent of the log geometry as
//! long as no transaction is killed: the log device has a fixed per-write
//! latency with no cross-generation queueing, and generation 0 (the only
//! generation the workload writes into) never receives forwarded or
//! recirculated traffic, so commit-ack times and hence the oid picker's
//! held set evolve identically under every kill-free geometry. A killed
//! probe stops at its first kill, and its pre-kill history equals the
//! kill-free history, so replaying a kill-free capture is exact there too.
//!
//! [`WorkloadTrace`] is that captured interface in two flat vectors: one
//! `TraceTxn` per transaction (arrival time, type, oid-slot offset) and
//! one shared oid array. No per-event heap objects, no RNG state — a
//! replaying driver walks the vectors instead of sampling.

use elog_model::Oid;
use elog_sim::SimTime;

/// Oid slot reserved at arrival but never filled because the capture run's
/// horizon cut the write off. Replay never delivers those writes either,
/// so the hole is only ever read by the `debug_assert` guarding it.
pub(crate) const UNWRITTEN: Oid = Oid(u64::MAX);

/// One captured transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TraceTxn {
    /// Arrival time (absolute).
    pub at: SimTime,
    /// Index into the mix's type list.
    pub type_idx: u32,
    /// First oid slot in [`WorkloadTrace::oids`]; the transaction's
    /// `seq`-th data record (1-based) reads slot `oid_start + seq - 1`.
    pub oid_start: u32,
}

/// A captured workload: everything the driver's RNG and oid picker would
/// produce, flattened for replay (see module docs for why this is exact).
///
/// Obtained from [`crate::WorkloadDriver::take_trace`] after a kill-free
/// capture run; valid for any run sharing the capture's seed, mix,
/// arrivals, horizon and oid-space size — the log geometry is free to vary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadTrace {
    pub(crate) txns: Vec<TraceTxn>,
    pub(crate) oids: Vec<Oid>,
    pub(crate) horizon: SimTime,
}

impl WorkloadTrace {
    /// Transactions captured.
    pub fn transactions(&self) -> usize {
        self.txns.len()
    }

    /// Data-record (oid) slots captured.
    pub fn data_records(&self) -> usize {
        self.oids.len()
    }

    /// The arrival horizon the trace was captured under. Replay requires
    /// the same horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Checks that a replay under `horizon` would be exact: the trace must
    /// have been captured under the *same* arrival horizon (a longer one
    /// would be missing arrivals, a shorter one would replay arrivals the
    /// capture never admitted). Search loops that reuse one capture across
    /// many probes call this once per probe configuration instead of
    /// asserting deep inside the driver.
    pub fn check_replayable(&self, horizon: SimTime) -> Result<(), String> {
        if self.horizon == horizon {
            Ok(())
        } else {
            Err(format!(
                "trace captured under horizon {:?} cannot replay a {:?} run",
                self.horizon, horizon
            ))
        }
    }
}

/// Accumulates a trace during a live (capturing) run.
#[derive(Clone, Debug, Default)]
pub(crate) struct TraceBuilder {
    pub txns: Vec<TraceTxn>,
    pub oids: Vec<Oid>,
}

impl TraceBuilder {
    /// Registers transaction `tid` (dense, arrival order) and reserves its
    /// oid slots.
    pub fn on_arrival(&mut self, at: SimTime, type_idx: usize, data_records: u32) {
        self.txns.push(TraceTxn {
            at,
            type_idx: type_idx as u32,
            oid_start: self.oids.len() as u32,
        });
        self.oids
            .resize(self.oids.len() + data_records as usize, UNWRITTEN);
    }

    /// Records the oid picked for transaction `tid`'s `seq`-th data record.
    pub fn on_write_data(&mut self, tid_index: usize, seq: u32, oid: Oid) {
        let slot = self.txns[tid_index].oid_start as usize + seq as usize - 1;
        debug_assert_eq!(self.oids[slot], UNWRITTEN, "oid slot written twice");
        self.oids[slot] = oid;
    }

    /// Finalises the capture.
    pub fn finish(self, horizon: SimTime) -> WorkloadTrace {
        WorkloadTrace {
            txns: self.txns,
            oids: self.oids,
            horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_reserves_and_fills_slots() {
        let mut b = TraceBuilder::default();
        b.on_arrival(SimTime::ZERO, 0, 2);
        b.on_arrival(SimTime::from_millis(10), 1, 4);
        assert_eq!(b.oids.len(), 6);
        b.on_write_data(0, 1, Oid(7));
        b.on_write_data(1, 2, Oid(9));
        let t = b.finish(SimTime::from_secs(1));
        assert_eq!(t.transactions(), 2);
        assert_eq!(t.data_records(), 6);
        assert_eq!(t.oids[0], Oid(7));
        assert_eq!(t.oids[3], Oid(9));
        assert_eq!(t.oids[1], UNWRITTEN, "horizon hole survives as sentinel");
        assert_eq!(t.horizon(), SimTime::from_secs(1));
    }
}
