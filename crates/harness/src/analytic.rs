//! Trace-exact analytic feasibility certificate: a sound, probe-free
//! *rejection* test for log geometries.
//!
//! The minimum-space searches burn most of their wall clock simulating
//! geometries that turn out infeasible. This module turns the paper's §4
//! balance argument into per-record arithmetic over the captured workload
//! trace and derives, for each search column (a fixed prefix of generation
//! capacities), the largest last-generation capacity that is *certain* to
//! kill a transaction. Probes at or below that threshold are rejected
//! without spawning a simulation; the verdict is identical to what the
//! probe would have returned, so the search path — and therefore every
//! chosen geometry and printed statistic — is unchanged.
//!
//! # The certificate
//!
//! Every probe in a search replays the same captured [`WorkloadTrace`], so
//! the byte stream entering generation 0 is known exactly: each captured
//! transaction of type `T` contributes a BEGIN record at its arrival `a`,
//! data records at `a + offset(seq)`, and a COMMIT record at `a + T`.
//! A record is *certainly live* (kill-eligible and forward-eligible) at
//! every instant up to its **deadline** `a + T − ε`: before the COMMIT
//! record is even written — let alone durable — the transaction cannot
//! have finished, so the record cannot have been flushed out of the log.
//! COMMIT records get `deadline = write time`: they are never certainly
//! forwarded (a committed transaction's records may be dropped) and never
//! kill candidates.
//!
//! For each generation the model maintains the set of records *certain* to
//! enter it, each with an upper bound `e` on its entry time. Generation 0
//! receives every record at `e = w` (appends never stall). To push a
//! record `q` out of a generation of `c` blocks holding `payload` bytes
//! each, it suffices that `(c + 2 − k)·payload` bytes certainly enter
//! after `q` did, where `k` is the configured head/tail gap: every tail
//! allocation ends in gap maintenance (`open_buffer` calls
//! `ensure_gap(k)`, which never stalls — the last head kills, earlier
//! heads forward), so immediately after any allocation at most `c − k`
//! blocks are unconsumed. After `a` further allocations the head has
//! therefore consumed at least `a + 1 − (c − k)` blocks — at least one,
//! i.e. past `q`'s block, once `a ≥ c − k`. Packing can waste at most one
//! partial block at each end, so `(c + 2 − k)·payload` bytes force at
//! least `c + 1 − k` allocations: one more than needed. Records with
//! write time `w > e_q` certainly enter after `q`; scanning the entry
//! list (sorted by `w`, with `e` monotone — an induction invariant) with
//! two pointers yields the earliest `e_m` by which enough bytes have
//! certainly arrived. If that bound lands inside the run (`e_m ≤`
//! horizon) *and* `q` is certainly still live then (`deadline_q > e_m`),
//! `q` certainly enters the next generation by `e_m`.
//!
//! At the last generation (recirculation off) the head does not forward —
//! it kills. For each certain entrant `r` that is still killable on
//! arrival, `F(r)` = bytes certainly entering after `r` and no later than
//! `r`'s deadline. If `F(r) ≥ (c + 2 − k)·payload` the head certainly
//! reaches `r` while `r` is uncommitted: a certain kill. Maximising over
//! `r` gives the rejection threshold `⌊F_max / payload⌋ + k − 2`; every
//! last-generation capacity at or below it is infeasible, no probe
//! needed.
//!
//! Every inequality above *under*-counts forced traffic (only certain
//! entrants are propagated, packing slack is granted in full, entry-time
//! bounds are upper bounds), so a rejection is sound: the simulated probe
//! would have observed at least one kill. The converse does not hold —
//! capacities above the threshold may still fail — and the search still
//! probes those.
//!
//! # Trust boundary
//!
//! The certificate requires the probe to be an exact trace replay with
//! kills only at the last generation's head. It therefore refuses to build
//! (returns `None`, search falls back to full probing) when:
//!
//! * recirculation is on — the last generation recirculates instead of
//!   killing;
//! * §6 lifetime hints are on — records may be placed directly into later
//!   generations, breaking the generation-0 entry assumption.
//!
//! Both [`elog_model::config::UnflushedAtHead`] policies are safe: neither
//! stalls head consumption, and committed-record traffic the model cannot
//! predict only *adds* to the forced byte counts.
//!
//! # Where it sits in the probe ladder
//!
//! The search consults its verdict sources cheapest-and-most-trusted
//! first (`latsearch::Prober`): the frozen dominance **memo** (§5f),
//! then this module's **threshold** rejection, then the column's
//! **consumption certificate**, and only then a live simulation. The
//! order matters for accounting, not correctness — every layer is
//! verified to return exactly the simulated verdict — but keeping the
//! memo ahead of the model keeps `memo_hits` identical whether or not the
//! model is on, which is what the `--no-analytic` byte-identity diff pins.
//!
//! `--no-analytic` ([`crate::SearchRequest::analytic`]) disables both
//! certificates for a search, forcing every verdict the memo does not
//! hold through a full simulation.

use crate::runner::RunConfig;
use elog_workload::{WorkloadTrace, EPSILON};

/// The records certain to enter one generation.
///
/// Sorted by `w`; `e` is monotone non-decreasing (see module docs).
/// `s` holds byte prefix sums: `s[i+1] - s[j]` is the total payload of
/// entries `j..=i`.
#[derive(Clone, Debug, Default)]
struct Level {
    /// Original write time, µs.
    w: Vec<u64>,
    /// Upper bound on entry time into this generation, µs.
    e: Vec<u64>,
    /// Last instant the record is certainly live, µs.
    deadline: Vec<u64>,
    /// Byte prefix sums, `len = w.len() + 1`.
    s: Vec<u64>,
}

impl Level {
    fn push(&mut self, w: u64, e: u64, deadline: u64, bytes: u64) {
        if self.s.is_empty() {
            self.s.push(0);
        }
        self.w.push(w);
        self.e.push(e);
        self.deadline.push(deadline);
        let total = *self.s.last().expect("seeded above") + bytes;
        self.s.push(total);
    }

    fn len(&self) -> usize {
        self.w.len()
    }

    fn bytes_of(&self, i: usize) -> u64 {
        self.s[i + 1] - self.s[i]
    }
}

/// The analytic certificate for one search: the level-0 record stream plus
/// the constants needed to propagate it through any candidate prefix.
#[derive(Clone, Debug)]
pub struct AnalyticModel {
    base: Level,
    payload: u64,
    horizon_us: u64,
    /// Configured head/tail gap (blocks held in reserve by `ensure_gap`).
    gap: u64,
}

impl AnalyticModel {
    /// Builds the certificate for probes of `cfg` replaying `trace`.
    /// Returns `None` when the configuration is outside the certificate's
    /// trust boundary (see module docs).
    pub fn from_run(cfg: &RunConfig, trace: &WorkloadTrace) -> Option<AnalyticModel> {
        if cfg.el.log.recirculation || cfg.lifetime_hints {
            return None;
        }
        let payload = u64::from(cfg.el.log.block_payload);
        if payload == 0 {
            return None;
        }
        let horizon_us = cfg.runtime.as_micros();
        let tx_size = u64::from(cfg.el.db.tx_record_size);
        let types = cfg.mix.types();
        let eps = EPSILON.as_micros();

        // (w, deadline, bytes) of every record the replay will write
        // inside the horizon.
        let mut recs: Vec<(u64, u64, u64)> = Vec::new();
        for (at, type_idx) in trace.arrivals() {
            let ty = types.get(type_idx)?;
            let at_us = at.as_micros();
            let commit_us = (at + ty.duration).as_micros();
            let live_deadline = commit_us.saturating_sub(eps);
            if at_us <= horizon_us {
                recs.push((at_us, live_deadline, tx_size));
            }
            for seq in 1..=ty.data_records {
                let w = (at + ty.data_write_offset(seq)).as_micros();
                if w <= horizon_us {
                    recs.push((w, live_deadline, u64::from(ty.record_size)));
                }
            }
            if commit_us <= horizon_us {
                // COMMIT: occupies space (pushes other records) but is
                // never certainly forwarded and never a kill candidate.
                recs.push((commit_us, commit_us, tx_size));
            }
        }
        recs.sort_unstable_by_key(|r| r.0);

        let mut base = Level::default();
        for (w, deadline, bytes) in recs {
            base.push(w, w, deadline, bytes);
        }
        Some(AnalyticModel {
            base,
            payload,
            horizon_us,
            gap: u64::from(cfg.el.log.gap_blocks),
        })
    }

    /// Records whose certain arrival at generation 0 the certificate
    /// reconstructs from the trace.
    pub fn records(&self) -> usize {
        self.base.len()
    }

    /// The records certain to pass through a generation of `cap` blocks:
    /// for each entry, the earliest certain exit bound `e_m` such that
    /// `(cap + 2 − gap)·payload` bytes certainly entered after it, kept
    /// only when that bound lands inside the run and the record is
    /// certainly still live then.
    fn propagate(&self, level: &Level, cap: u32) -> Level {
        let need = (u64::from(cap) + 2).saturating_sub(self.gap).max(1) * self.payload;
        let n = level.len();
        let mut out = Level::default();
        let mut j = 0usize; // first entry with w > e[q]
        let mut m = 0usize; // last entry needed to amass `need` bytes
        for q in 0..n {
            while j < n && level.w[j] <= level.e[q] {
                j += 1;
            }
            if m < j {
                m = j;
            }
            while m < n && level.s[m + 1] - level.s[j] < need {
                m += 1;
            }
            if m == n {
                // Never enough certain traffic after q within the trace:
                // q (and, by monotonicity, everything later) stays put.
                break;
            }
            let exit = level.e[m];
            if exit <= self.horizon_us && level.deadline[q] > exit {
                out.push(level.w[q], exit, level.deadline[q], level.bytes_of(q));
            }
        }
        out
    }

    /// Largest certainly-forced byte count `F(r)` over kill candidates of
    /// the last generation's entry list.
    fn max_forced_bytes(&self, level: &Level) -> u64 {
        let n = level.len();
        let mut best = 0u64;
        let mut j = 0usize;
        for q in 0..n {
            if level.deadline[q] <= level.e[q] {
                continue; // may have committed before it even arrives
            }
            while j < n && level.w[j] <= level.e[q] {
                j += 1;
            }
            // Entries certainly in by q's deadline (e is monotone).
            let p_end = level.e.partition_point(|&e| e <= level.deadline[q]);
            if p_end > j {
                best = best.max(level.s[p_end] - level.s[j]);
            }
        }
        best
    }

    /// The rejection threshold for a search column: every last-generation
    /// capacity `c ≤` the returned value is certain to kill under the
    /// given prefix capacities (youngest first, excluding the last
    /// generation; empty for a single-generation log). Capacities above
    /// the threshold carry no verdict and must be probed.
    pub fn reject_threshold(&self, prefix: &[u32]) -> u32 {
        let mut owned: Option<Level> = None;
        for &cap in prefix {
            let cur = owned.as_ref().unwrap_or(&self.base);
            owned = Some(self.propagate(cur, cap));
        }
        let last = owned.as_ref().unwrap_or(&self.base);
        let f = self.max_forced_bytes(last);
        ((f / self.payload + self.gap).saturating_sub(2)).min(u64::from(u32::MAX)) as u32
    }

    /// Whether a full geometry (`prefix` + last-generation `last`) is
    /// certainly infeasible.
    pub fn rejects(&self, prefix: &[u32], last: u32) -> bool {
        last <= self.reject_threshold(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built level: three records of 2000 B at t = 0, 1, 2 s, all
    /// live until 100 s, plus a dead-on-arrival record (a COMMIT).
    fn toy() -> AnalyticModel {
        let mut base = Level::default();
        let s = |x: u64| x * 1_000_000;
        base.push(s(0), s(0), s(100), 2000);
        base.push(s(1), s(1), s(100), 2000);
        base.push(s(2), s(2), s(2), 2000); // never a candidate
        base.push(s(3), s(3), s(100), 2000);
        AnalyticModel {
            base,
            payload: 2000,
            horizon_us: s(500),
            gap: 0,
        }
    }

    #[test]
    fn forced_bytes_exclude_dead_and_prior_records() {
        let m = toy();
        // For the t=0 record, entrants after it and before its deadline
        // are t=1,2,3 → 6000 B; F_max/payload = 3, threshold 3−2 = 1.
        assert_eq!(m.reject_threshold(&[]), 1);
        assert!(m.rejects(&[], 1));
        assert!(!m.rejects(&[], 2));
    }

    #[test]
    fn reserved_gap_blocks_tighten_the_threshold() {
        // With k blocks held in reserve the head runs k blocks ahead of
        // the no-gap bound: the same forced bytes certify a kill at a
        // capacity k blocks larger.
        let mut m = toy();
        m.gap = 2;
        assert_eq!(m.reject_threshold(&[]), 3);
        assert!(m.rejects(&[], 3));
        assert!(!m.rejects(&[], 4));
    }

    #[test]
    fn propagation_requires_enough_traffic() {
        let m = toy();
        // A 10-block front generation needs 24 000 B after a record to
        // certainly push it out; the toy trace never has that much, so
        // nothing certainly reaches the next generation.
        let next = m.propagate(&m.base, 10);
        assert_eq!(next.len(), 0);
        assert_eq!(m.reject_threshold(&[10]), 0);
    }
}
