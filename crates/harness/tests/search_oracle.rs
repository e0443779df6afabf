//! Ground-truth oracle for the minimum-space search: on lattices small
//! enough to simulate whole, the search — certificates, anchor bound,
//! bisection and all — must return what exhaustive simulation returns.
//!
//! Each case draws a small lattice from a splitmix64 seed (2 generations
//! with ceilings ≤ 12 / 16, or 3 with ≤ 7 / 7 / 12; 20–30 s horizons;
//! 5 % or 40 % long transactions, at an arrival rate low enough that some
//! of so small a lattice survives), builds the truth table by plain
//! [`minspace::survives`] on **every** lattice point — live driver, no
//! trace, no certificate — and holds the search to it:
//!
//! * every column of the table is monotone along the last axis (the
//!   bisection's premise, and what "the minimum" means below);
//! * `feasible` iff some point survives, and the reported geometry is the
//!   table's minimum under the search's own tie-break (smaller total, then
//!   the larger prefix);
//! * geometry, probe count and [`SearchStats`] are identical at `jobs` 1
//!   and 2, and — certificate counters aside — identical to the
//!   `.analytic(false)` search that simulates every probe.
//!
//! The per-column half of the oracle — every verdict a column's first
//! certificate gives, against the same table — needs the prober and lives
//! in `latsearch`'s unit tests.

use elog_harness::minspace::{self, paper_base};
use elog_harness::{LatticeLimits, RunConfig, SearchOutcome, SearchRequest};
use elog_sim::SearchStats;
use elog_workload::ArrivalProcess;

/// splitmix64 — deterministic case generator, no RNG dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A draw from `lo..=hi`.
fn pick(rng: &mut u64, lo: u32, hi: u32) -> u32 {
    lo + (splitmix(rng) % u64::from(hi - lo + 1)) as u32
}

/// The case `seed` names: a workload and the lattice to search under it.
fn draw(seed: u64) -> (RunConfig, LatticeLimits) {
    let mut rng = seed;
    // The paper's 100 TPS needs ≈ 30 blocks; lattices this small have their
    // feasibility boundary inside them at a fraction of that load.
    let (mix, rate_tps) = if splitmix(&mut rng).is_multiple_of(2) {
        (0.05, pick(&mut rng, 20, 50))
    } else {
        (0.40, pick(&mut rng, 10, 28))
    };
    let rate_tps = f64::from(rate_tps);
    let secs = u64::from(pick(&mut rng, 20, 30));
    let base = paper_base(mix, false, secs)
        .seed(splitmix(&mut rng))
        .with_arrivals(ArrivalProcess::Deterministic { rate_tps });
    let limits = if splitmix(&mut rng).is_multiple_of(2) {
        LatticeLimits {
            prefix_max: vec![pick(&mut rng, 9, 12)],
            last_limit: pick(&mut rng, 13, 16),
        }
    } else {
        LatticeLimits {
            prefix_max: vec![pick(&mut rng, 6, 7), pick(&mut rng, 6, 7)],
            last_limit: pick(&mut rng, 10, 12),
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

/// Runs the case `seed` names; returns whether its lattice was feasible
/// and how many verdicts certificates answered in the search.
fn run_case(seed: u64) -> (bool, u64) {
    let (base, limits) = draw(seed);
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

    let search = |jobs: usize, certificates: bool| -> SearchOutcome {
        SearchRequest::lattice(&base, limits.clone())
            .jobs(jobs)
            .analytic(certificates)
            .run()
    };
    let serial = search(1, true);
    assert_eq!(
        serial.feasible,
        best.is_some(),
        "table minimum {best:?}, search says {:?}",
        serial.min.generation_blocks
    );
    if let Some(best) = &best {
        assert_eq!(
            &serial.min.generation_blocks, best,
            "not the table's minimum"
        );
    }
    let parallel = search(2, true);
    assert_eq!(serial.min, parallel.min, "jobs 1 vs jobs 2");
    let plain = search(1, false);
    assert_eq!(serial.min.generation_blocks, plain.min.generation_blocks);
    assert_eq!(serial.feasible, plain.feasible);
    assert_eq!(serial.min.probes, plain.min.probes);
    assert_eq!(
        sans_certificates(&serial.min.search),
        sans_certificates(&plain.min.search)
    );
    assert_eq!(plain.min.search.cert_verdicts, 0);
    assert!(serial.min.search.probe_events <= plain.min.search.probe_events);
    (serial.feasible, serial.min.search.cert_verdicts)
}

const CASES: usize = 24;

#[test]
fn search_returns_the_exhaustive_minimum() {
    // One case when a failure is being replayed, the whole basket otherwise.
    if let Ok(seed) = std::env::var("SEARCH_ORACLE_SEED") {
        let seed = u64::from_str_radix(seed.trim_start_matches("0x"), 16).expect("hex seed");
        run_case(seed);
        return;
    }
    let mut rng = 0x05EA_5C40_AC1E_u64;
    let (mut feasible, mut certified) = (0, 0);
    for _ in 0..CASES {
        let seed = splitmix(&mut rng);
        let Ok((found, cert_verdicts)) = std::panic::catch_unwind(|| run_case(seed)) else {
            panic!(
                "case seed {seed:#x} failed (panic above)\nrepro: SEARCH_ORACLE_SEED={seed:#x} \
                 cargo test --offline -p elog-harness --test search_oracle"
            );
        };
        feasible += usize::from(found);
        certified += cert_verdicts;
    }
    assert!(
        (CASES / 2..CASES).contains(&feasible) && certified > 0,
        "vacuous basket: {feasible} of {CASES} lattices feasible, {certified} certificate verdicts"
    );
}
