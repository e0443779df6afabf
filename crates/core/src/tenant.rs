//! Per-tenant accounting for multi-tenant serving.
//!
//! One [`crate::ElManager`] can serve several logical tenants at once
//! (the harness's `serve` module, which the `fig_tenants` experiment
//! drives): each tenant owns a
//! disjoint oid range and a disjoint tid namespace — the tenant index
//! lives in the high bits of the tid, so the ledger attributes every
//! manager-side event (begin, data write, garbage, kill) to its tenant
//! with a shift and no table lookups.
//!
//! The ledger is strictly observational: it never feeds back into manager
//! decisions, so enabling it cannot perturb a run. The *host* reads it —
//! the serve admission loop throttles a tenant whose live-record footprint
//! overruns its budget, and `fig_tenants` surfaces per-tenant LTT/garbage
//! accounting next to the workload-side commit counters.

use elog_model::Tid;

/// Counters for one tenant (all monotone except the two live gauges).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Data records logged.
    pub data_records: u64,
    /// Transactions killed by the log manager.
    pub kills: u64,
    /// Data records that became garbage in place (superseded at commit or
    /// flushed to the stable database).
    pub garbage_records: u64,
    /// Data records currently held in the in-RAM cell arena.
    pub live_records: u64,
    /// LTT entries currently held.
    pub ltt_live: u64,
    /// Peak of [`TenantCounters::ltt_live`].
    pub ltt_peak: u64,
}

/// Per-tenant ledger keyed by the tid's high bits (see module docs).
#[derive(Debug)]
pub struct TenantLedger {
    tid_shift: u32,
    counters: Vec<TenantCounters>,
}

impl TenantLedger {
    /// A ledger for `tenants` tenants whose index is `tid >> tid_shift`.
    ///
    /// # Panics
    /// Panics when `tenants` is zero.
    pub fn new(tenants: usize, tid_shift: u32) -> Self {
        assert!(tenants > 0, "a ledger needs at least one tenant");
        TenantLedger {
            tid_shift,
            counters: vec![TenantCounters::default(); tenants],
        }
    }

    /// One tenant's counters.
    pub fn get(&self, tenant: usize) -> &TenantCounters {
        &self.counters[tenant]
    }

    /// The counters of the tenant a tid belongs to (out-of-range high bits
    /// clamp to the last tenant, so a stray tid cannot panic the
    /// accounting).
    fn slot(&mut self, tid: Tid) -> &mut TenantCounters {
        let t = ((tid.0 >> self.tid_shift) as usize).min(self.counters.len() - 1);
        &mut self.counters[t]
    }

    pub(crate) fn on_begin(&mut self, tid: Tid) {
        let s = self.slot(tid);
        s.ltt_live += 1;
        s.ltt_peak = s.ltt_peak.max(s.ltt_live);
    }

    pub(crate) fn on_data_write(&mut self, tid: Tid) {
        let s = self.slot(tid);
        s.data_records += 1;
        s.live_records += 1;
    }

    /// A data record's cell was freed; `garbage` marks the in-place
    /// garbage paths (superseded at commit, flushed stable) as opposed to
    /// an abort/kill discard.
    pub(crate) fn on_data_free(&mut self, tid: Tid, garbage: bool) {
        let s = self.slot(tid);
        s.live_records = s.live_records.saturating_sub(1);
        if garbage {
            s.garbage_records += 1;
        }
    }

    pub(crate) fn on_kill(&mut self, tid: Tid) {
        self.slot(tid).kills += 1;
    }

    pub(crate) fn on_ltt_removed(&mut self, tid: Tid) {
        let s = self.slot(tid);
        s.ltt_live = s.ltt_live.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_by_high_bits_and_clamps() {
        let mut l = TenantLedger::new(2, 48);
        l.on_begin(Tid(1));
        l.on_begin(Tid((1 << 48) | 2));
        l.on_data_write(Tid((1 << 48) | 2));
        assert_eq!((l.get(0).ltt_peak, l.get(0).data_records), (1, 0));
        assert_eq!((l.get(1).ltt_peak, l.get(1).data_records), (1, 1));
        // Out-of-range tenants clamp to the last slot.
        l.on_begin(Tid(5 << 48));
        l.on_data_write(Tid(5 << 48));
        assert_eq!((l.get(1).ltt_peak, l.get(1).data_records), (2, 2));
    }

    #[test]
    fn live_gauges_track_peaks() {
        let mut l = TenantLedger::new(1, 48);
        l.on_begin(Tid(0));
        l.on_data_write(Tid(0));
        l.on_data_write(Tid(0));
        assert_eq!(l.get(0).live_records, 2);
        l.on_data_free(Tid(0), true);
        l.on_data_free(Tid(0), false);
        assert_eq!(l.get(0).live_records, 0);
        assert_eq!(l.get(0).garbage_records, 1);
        l.on_ltt_removed(Tid(0));
        assert_eq!(l.get(0).ltt_live, 0);
        assert_eq!(l.get(0).ltt_peak, 1);
    }
}
