//! Ground-truth oracle for the minimum-space search: on workloads light
//! enough to simulate every candidate, the search — first bound,
//! certificates, running bound, bisection and all — must return what
//! exhaustive simulation returns.
//!
//! Each case draws a workload from its seed (2 or 3 generations; 20–30 s
//! horizons; 5 % or 40 % long transactions, at an arrival rate low enough
//! that the minimum stays small), runs the search — which has no box —
//! and builds the truth table by plain [`minspace::survives`] on **every**
//! geometry whose total is at most the found minimum's — no certificate —
//! and holds the search to it:
//!
//! * the table is monotone along every axis: a surviving geometry
//!   survives with one more block in any generation (the bisection's
//!   premise on the last axis, and the `latsearch` module's claim on all);
//! * the reported geometry is the table's minimum under the search's own
//!   tie-break (smaller total, then the larger prefix);
//! * geometry, probe count and [`SearchStats`] — certificate counters
//!   aside — are identical to the `.certificates(false)` search that
//!   simulates every probe.
//!
//! The draws reach past the boxes an earlier, boxed search scanned (gen0
//! ≤ 12 and gen1 ≤ 16 at 2 generations; ≤ 7, ≤ 7 and ≤ 12 at 3), and the
//! basket must hold minima outside them.
//!
//! The per-column half of the oracle — every verdict a column's first
//! certificate gives, against the same table — needs the prober and lives
//! in `latsearch`'s unit tests.

use elog_harness::minspace::{self, paper_base};
use elog_harness::{RunConfig, SearchOutcome, SearchRequest};
use elog_sim::{cases, SearchStats, SimRng};
use elog_workload::ArrivalProcess;
use std::cmp::Reverse;
use std::collections::HashMap;

/// A draw from `lo..=hi`.
fn pick(rng: &mut SimRng, lo: u32, hi: u32) -> u32 {
    lo + rng.next_u64_below(u64::from(hi - lo + 1)) as u32
}

/// A case: a workload and the number of generations to search under it.
fn draw(rng: &mut SimRng) -> (RunConfig, usize) {
    // The paper's 100 TPS needs ≈ 30 blocks; a fraction of that load keeps
    // the table of every geometry under the minimum's total small.
    let (mix, rate_tps) = if rng.next_u64().is_multiple_of(2) {
        (0.05, pick(rng, 20, 80))
    } else {
        (0.40, pick(rng, 10, 40))
    };
    let rate_tps = f64::from(rate_tps);
    let secs = u64::from(pick(rng, 20, 30));
    let base = paper_base(mix, false, secs)
        .seed(rng.next_u64())
        .with_arrivals(ArrivalProcess::Deterministic { rate_tps });
    let gens = if rng.next_u64().is_multiple_of(2) {
        2
    } else {
        3
    };
    (base, gens)
}

/// Every geometry of `gens` generations, each at least `floor`, whose
/// total is at most `total`.
fn geometries(gens: usize, floor: u32, total: u32) -> Vec<Vec<u32>> {
    if gens == 1 {
        return (floor..=total).map(|v| vec![v]).collect();
    }
    let rest_floor = floor * (gens as u32 - 1);
    (floor..=total.saturating_sub(rest_floor))
        .flat_map(|v| {
            geometries(gens - 1, floor, total - v)
                .into_iter()
                .map(move |rest| [&[v][..], &rest].concat())
        })
        .collect()
}

/// Whether `g` lies outside the box the boxed search scanned.
fn outside_old_box(g: &[u32]) -> bool {
    let bx: &[u32] = if g.len() == 2 { &[12, 16] } else { &[7, 7, 12] };
    g.iter().zip(bx).any(|(v, m)| v > m)
}

/// The search's counters with the certificate's own two zeroed: what must
/// not depend on whether certificates answered.
fn sans_certificates(s: &SearchStats) -> SearchStats {
    SearchStats {
        cert_verdicts: 0,
        probe_events: 0,
        ..*s
    }
}

/// Runs one case; returns whether its minimum lies outside the old box
/// and how many verdicts certificates answered in the search.
fn run_case(rng: &mut SimRng) -> (bool, u64) {
    let (base, gens) = draw(rng);
    let floor = base.el.log.gap_blocks + 1;
    let search = |certificates: bool| -> SearchOutcome {
        SearchRequest::min_space(&base, gens)
            .certificates(certificates)
            .run()
    };
    let certified = search(true);
    assert!(certified.feasible(), "{:?}", certified.limit);
    let found = &certified.min.generation_blocks;

    // Ground truth: simulate every geometry up to the found total.
    let table: HashMap<Vec<u32>, bool> = geometries(gens, floor, certified.min.total_blocks)
        .into_iter()
        .map(|g| {
            let survived = minspace::survives(&base, &g);
            (g, survived)
        })
        .collect();
    for (g, _) in table.iter().filter(|(_, &s)| s) {
        for axis in 0..gens {
            let mut grown = g.clone();
            grown[axis] += 1;
            assert_ne!(
                table.get(&grown),
                Some(&false),
                "{g:?} survives but {grown:?} kills: not monotone along axis {axis}"
            );
        }
    }
    // Smaller total, then the larger prefix.
    let best = table
        .iter()
        .filter(|(_, &s)| s)
        .map(|(g, _)| g)
        .min_by_key(|g| (g.iter().sum::<u32>(), Reverse(g[..gens - 1].to_vec())));
    assert_eq!(best, Some(found), "not the table's minimum");

    let plain = search(false);
    assert_eq!(certified.min.generation_blocks, plain.min.generation_blocks);
    assert_eq!(certified.limit, plain.limit);
    assert_eq!(certified.min.probes, plain.min.probes);
    assert_eq!(
        sans_certificates(&certified.min.search),
        sans_certificates(&plain.min.search)
    );
    assert_eq!(plain.min.search.cert_verdicts, 0);
    assert!(certified.min.search.probe_events <= plain.min.search.probe_events);
    (outside_old_box(found), certified.min.search.cert_verdicts)
}

const CASES: usize = 24;

#[test]
fn search_returns_the_exhaustive_minimum() {
    let (mut outside, mut certified) = (0, 0);
    let ran = cases::run("search_returns_the_exhaustive_minimum", CASES, |rng| {
        let (beyond, cert_verdicts) = run_case(rng);
        outside += usize::from(beyond);
        certified += cert_verdicts;
    });
    // A replayed single case is not a basket.
    assert!(
        ran < CASES || (outside > 0 && certified > 0),
        "vacuous basket: {outside} of {CASES} minima outside the old box, \
         {certified} certificate verdicts"
    );
}
