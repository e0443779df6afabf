//! Ground-truth oracle for the minimum-space search: on lattices small
//! enough to simulate whole, the search — certificates, running bound,
//! bisection and all — must return what exhaustive simulation returns.
//!
//! Each case draws a small lattice from its seed (2 generations
//! with ceilings ≤ 12 / 16, or 3 with ≤ 7 / 7 / 12; 20–30 s horizons;
//! 5 % or 40 % long transactions, at an arrival rate low enough that some
//! of so small a lattice survives), builds the truth table by plain
//! [`minspace::survives`] on **every** lattice point — no certificate —
//! and holds the search to it:
//!
//! * every column of the table is monotone along the last axis (the
//!   bisection's premise, and what "the minimum" means below);
//! * `feasible` iff some point survives, and the reported geometry is the
//!   table's minimum under the search's own tie-break (smaller total, then
//!   the larger prefix);
//! * geometry, probe count and [`SearchStats`] — certificate counters
//!   aside — are identical to the `.certificates(false)` search that
//!   simulates every probe.
//!
//! The per-column half of the oracle — every verdict a column's first
//! certificate gives, against the same table — needs the prober and lives
//! in `latsearch`'s unit tests.

use elog_harness::minspace::{self, paper_base};
use elog_harness::{LatticeLimits, RunConfig, SearchOutcome, SearchRequest};
use elog_sim::{cases, SearchStats, SimRng};
use elog_workload::ArrivalProcess;

/// A draw from `lo..=hi`.
fn pick(rng: &mut SimRng, lo: u32, hi: u32) -> u32 {
    lo + rng.next_u64_below(u64::from(hi - lo + 1)) as u32
}

/// A case: a workload and the lattice to search under it.
fn draw(rng: &mut SimRng) -> (RunConfig, LatticeLimits) {
    // The paper's 100 TPS needs ≈ 30 blocks; lattices this small have their
    // feasibility boundary inside them at a fraction of that load.
    let (mix, rate_tps) = if rng.next_u64().is_multiple_of(2) {
        (0.05, pick(rng, 20, 50))
    } else {
        (0.40, pick(rng, 10, 28))
    };
    let rate_tps = f64::from(rate_tps);
    let secs = u64::from(pick(rng, 20, 30));
    let base = paper_base(mix, false, secs)
        .seed(rng.next_u64())
        .with_arrivals(ArrivalProcess::Deterministic { rate_tps });
    let limits = if rng.next_u64().is_multiple_of(2) {
        LatticeLimits {
            prefix_max: vec![pick(rng, 9, 12)],
            last_limit: pick(rng, 13, 16),
        }
    } else {
        LatticeLimits {
            prefix_max: vec![pick(rng, 6, 7), pick(rng, 6, 7)],
            last_limit: pick(rng, 10, 12),
        }
    };
    (base, limits)
}

/// Every prefix of the lattice (the anchor included), ascending.
fn prefixes(floor: u32, prefix_max: &[u32]) -> Vec<Vec<u32>> {
    prefix_max.iter().fold(vec![vec![]], |acc, &max| {
        acc.iter()
            .flat_map(|p| (floor..=max).map(move |v| [p.as_slice(), &[v]].concat()))
            .collect()
    })
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

/// Runs one case; returns whether its lattice was feasible and how many
/// verdicts certificates answered in the search.
fn run_case(rng: &mut SimRng) -> (bool, u64) {
    let (base, limits) = draw(rng);
    let floor = base.el.log.gap_blocks + 1;

    // Ground truth: simulate every lattice point, remember each column's
    // smallest survivor.
    let total = |g: &[u32]| g.iter().sum::<u32>();
    let mut best: Option<Vec<u32>> = None;
    for prefix in prefixes(floor, &limits.prefix_max) {
        let column: Vec<bool> = (floor..=limits.last_limit)
            .map(|last| minspace::survives(&base, &[prefix.as_slice(), &[last]].concat()))
            .collect();
        assert!(
            column.windows(2).all(|w| w[0] <= w[1]),
            "column {prefix:?} is not monotone along the last axis: {column:?} from {floor}"
        );
        let Some(at) = column.iter().position(|&s| s) else {
            continue;
        };
        let cand = [prefix.as_slice(), &[floor + at as u32]].concat();
        // Smaller total, then the larger prefix (columns come ascending, so
        // a tie goes to the later one).
        if best.as_ref().is_none_or(|b| total(&cand) <= total(b)) {
            best = Some(cand);
        }
    }

    let search = |certificates: bool| -> SearchOutcome {
        SearchRequest::lattice(&base, limits.clone())
            .certificates(certificates)
            .run()
    };
    let certified = search(true);
    assert_eq!(
        certified.feasible,
        best.is_some(),
        "table minimum {best:?}, search says {:?}",
        certified.min.generation_blocks
    );
    if let Some(best) = &best {
        assert_eq!(
            &certified.min.generation_blocks, best,
            "not the table's minimum"
        );
    }
    let plain = search(false);
    assert_eq!(certified.min.generation_blocks, plain.min.generation_blocks);
    assert_eq!(certified.feasible, plain.feasible);
    assert_eq!(certified.min.probes, plain.min.probes);
    assert_eq!(
        sans_certificates(&certified.min.search),
        sans_certificates(&plain.min.search)
    );
    assert_eq!(plain.min.search.cert_verdicts, 0);
    assert!(certified.min.search.probe_events <= plain.min.search.probe_events);
    (certified.feasible, certified.min.search.cert_verdicts)
}

const CASES: usize = 24;

#[test]
fn search_returns_the_exhaustive_minimum() {
    let (mut feasible, mut certified) = (0, 0);
    let ran = cases::run("search_returns_the_exhaustive_minimum", CASES, |rng| {
        let (found, cert_verdicts) = run_case(rng);
        feasible += usize::from(found);
        certified += cert_verdicts;
    });
    // A replayed single case is not a basket.
    assert!(
        ran < CASES || ((CASES / 2..CASES).contains(&feasible) && certified > 0),
        "vacuous basket: {feasible} of {CASES} lattices feasible, {certified} certificate verdicts"
    );
}
