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
//! changes what reaches gen1 — so the search scans gen0 and binary-searches
//! the minimal gen1 for each, parallelised across threads.
//!
//! The search itself — the probe engine (trace capture/replay,
//! scratch-config reuse, consumption certificates), the anchor-bound
//! pruning, and the jobs-invariance argument — lives in
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
    /// Probe-engine counters (replays, certificates, probe event volume).
    pub search: SearchStats,
}

/// True when the configuration survives the whole horizon without kills.
/// One-shot form for tests and callers outside a search loop.
pub fn survives(base: &RunConfig, blocks: &[u32]) -> bool {
    let (&last, prefix) = blocks.split_last().expect("a geometry has a generation");
    Prober::new(base, None, false).verdict(prefix, last)
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
    use crate::latsearch::{LatticeLimits, SearchRequest};
    use elog_core::MemoryModel;

    #[test]
    fn fw_search_finds_monotone_boundary() {
        let mut base = paper_base(0.05, false, 20);
        base.el.memory_model = MemoryModel::Firewall;
        let r = SearchRequest::firewall(&base, 512).run().min;
        // The boundary must actually be a boundary.
        assert!(survives(&base, &[r.total_blocks]));
        if r.total_blocks > base.el.log.gap_blocks + 1 {
            assert!(!survives(&base, &[r.total_blocks - 1]));
        }
        // 20 s of 5% mix needs well under 512 blocks.
        assert!(r.total_blocks < 512);
        assert!(r.probes > 0);
        // All probes after the first kill-free one replay the capture.
        assert!(r.search.replay_probes > 0);
        assert_eq!(r.search.sim_probes, r.probes as u64);
    }

    #[test]
    fn el_search_finds_feasible_minimum() {
        let base = paper_base(0.05, false, 20);
        let limits = LatticeLimits {
            prefix_max: vec![24],
            last_limit: 128,
        };
        let r = SearchRequest::lattice(&base, limits).jobs(2).run().min;
        assert_eq!(r.generation_blocks.len(), 2);
        assert!(survives(&base, &r.generation_blocks));
        assert!(r.total_blocks >= 6);
        assert_eq!(r.search.sim_probes, r.probes as u64);
    }

    #[test]
    fn fixed_g0_last_gen_search() {
        let base = paper_base(0.05, true, 20);
        let out = SearchRequest::fixed_prefix(&base, vec![18], 128).run();
        assert!(out.feasible);
        let r = out.min;
        assert_eq!(r.generation_blocks[0], 18);
        assert!(survives(&base, &r.generation_blocks));
        if r.generation_blocks[1] > base.el.log.gap_blocks + 1 {
            assert!(!survives(&base, &[18, r.generation_blocks[1] - 1]));
        }
    }

    #[test]
    fn infeasible_limit_detected() {
        // 40% long transactions cannot fit a 4-block last generation with
        // a 3-block gen0.
        let base = paper_base(0.4, false, 20);
        let out = SearchRequest::fixed_prefix(&base, vec![3], 4).run();
        assert!(!out.feasible);
        assert_eq!(out.min.generation_blocks, vec![3, 4], "clamped at limit");
    }
}
