//! Minimum-disk-space search.
//!
//! §4: "For both FW and EL, we continued to run simulations and reduce the
//! disk space until we observed transactions being killed. Hence, these
//! results reflect the minimum disk space requirements to support 500 s of
//! logging activity in which no transaction is killed."
//!
//! Kill-freedom is monotone in a single generation's size (more blocks
//! can only delay head arrivals), so per-axis binary search is sound. For
//! two-generation EL the total is *not* jointly monotone — a bigger gen0
//! changes what reaches gen1 — so the search walks gen0 and binary-searches
//! the minimal gen1 for each, capped by the best geometry found so far,
//! until no gen0 leaves room under that bound.
//!
//! The search itself — the probe engine (scratch-config reuse,
//! consumption certificates) and the running-bound pruning — lives in
//! [`crate::latsearch`] behind [`crate::SearchRequest`]; the two-generation
//! EL search is its one-prefix-axis lattice. This module keeps the result
//! type, the one-shot probe and the paper's base configuration.

use crate::latsearch::Prober;
use crate::runner::RunConfig;
use elog_core::ElConfig;
use elog_sim::{SearchStats, SimTime};

/// Outcome of a minimum-space search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinSpaceResult {
    /// Minimal per-generation sizes found (blocks).
    pub generation_blocks: Vec<u32>,
    /// Total blocks.
    pub total_blocks: u32,
    /// Number of probe verdicts the search needed (certified + simulated;
    /// identical whether or not the certificates are enabled).
    pub probes: u32,
    /// Probe-engine counters (certificates, probe event volume).
    pub search: SearchStats,
}

/// True when the configuration survives the whole horizon without kills.
/// One-shot form for tests and callers outside a search loop.
pub fn survives(base: &RunConfig, blocks: &[u32]) -> bool {
    let (&last, prefix) = blocks.split_last().expect("a geometry has a generation");
    Prober::new(base, false).verdict(prefix, last)
}

/// Convenience: the paper's base run (5 % long transactions, default flush
/// array) shortened to `secs` for tests.
pub fn paper_base(frac_long: f64, recirc: bool, secs: u64) -> RunConfig {
    let log = elog_model::LogConfig {
        recirculation: recirc,
        ..Default::default()
    };
    let mut cfg = RunConfig::paper(frac_long, ElConfig::ephemeral(log, Default::default()));
    cfg.runtime = SimTime::from_secs(secs);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latsearch::{SearchLimit, SearchRequest};

    #[test]
    fn fw_search_finds_monotone_boundary() {
        let base = paper_base(0.05, false, 20);
        let r = SearchRequest::min_space(&base, 1).run().min;
        // The boundary must actually be a boundary.
        assert!(survives(&base, &[r.total_blocks]));
        if r.total_blocks > base.el.log.gap_blocks + 1 {
            assert!(!survives(&base, &[r.total_blocks - 1]));
        }
        // 20 s of 5% mix needs well under 512 blocks.
        assert!(r.total_blocks < 512);
        assert!(r.probes > 0);
        assert_eq!(r.search.sim_probes, r.probes as u64);
    }

    #[test]
    fn el_search_finds_feasible_minimum() {
        let base = paper_base(0.05, false, 20);
        let r = SearchRequest::min_space(&base, 2).run().min;
        assert_eq!(r.generation_blocks.len(), 2);
        assert!(survives(&base, &r.generation_blocks));
        assert!(r.total_blocks >= 6);
        assert_eq!(r.search.sim_probes, r.probes as u64);
    }

    #[test]
    fn fixed_g0_last_gen_search() {
        let base = paper_base(0.05, true, 20);
        let out = SearchRequest::fixed_prefix(&base, vec![18]).run();
        assert!(out.feasible());
        let r = out.min;
        assert_eq!(r.generation_blocks[0], 18);
        assert!(survives(&base, &r.generation_blocks));
        if r.generation_blocks[1] > base.el.log.gap_blocks + 1 {
            assert!(!survives(&base, &[18, r.generation_blocks[1] - 1]));
        }
    }

    #[test]
    fn infeasible_limit_detected() {
        // 6 000 TPS of the paper mix outgrow a 1 024-block last generation
        // behind an 18-block gen0: the search stops at the doubling stop.
        let arrivals = elog_workload::ArrivalProcess::Deterministic { rate_tps: 6000.0 };
        let base = paper_base(0.05, false, 5).with_arrivals(arrivals);
        let out = SearchRequest::fixed_prefix(&base, vec![18]).run();
        assert_eq!(out.limit, Some(SearchLimit::Doubling));
        assert_eq!(
            out.min.generation_blocks,
            vec![18, crate::latsearch::DOUBLING_STOP],
            "the stop geometry"
        );
    }
}
