//! Integration tests of the minimum-space search against first-principles
//! bounds derived from the workload arithmetic.

use elog_harness::minspace::paper_base;
use elog_harness::{cli, report, MinSpaceResult, RunConfig, SearchRequest};

/// Two-generation minimum-space search.
fn el_min_space(base: &RunConfig) -> MinSpaceResult {
    SearchRequest::min_space(base, 2).run().min
}

/// Log payload rate at 100 TPS for the paper mix (bytes/s):
/// data `100·(2(1−p)+4p)·100` + tx `100·2·8`.
fn payload_rate(frac_long: f64) -> f64 {
    100.0 * ((2.0 * (1.0 - frac_long) + 4.0 * frac_long) * 100.0 + 16.0)
}

#[test]
fn fw_minimum_tracks_oldest_transaction_arithmetic() {
    // FW must hold everything written while the oldest active transaction
    // (10 s) lives: ≈ 10 s of traffic, in 2000-byte blocks, plus slack for
    // the gap, group commit and block granularity.
    let runtime = 60;
    for frac in [0.05, 0.20] {
        let base = paper_base(frac, false, runtime);
        let min = SearchRequest::min_space(&base, 1).run().min;
        let floor = 10.0 * payload_rate(frac) / 2000.0;
        assert!(
            f64::from(min.total_blocks) > floor * 0.95,
            "mix {frac}: FW minimum {} below the 10 s floor {floor:.0}",
            min.total_blocks
        );
        assert!(
            f64::from(min.total_blocks) < floor * 1.35,
            "mix {frac}: FW minimum {} too far above the floor {floor:.0}",
            min.total_blocks
        );
    }
}

#[test]
fn el_minimum_is_insensitive_to_longer_runtimes() {
    // The minimum reflects steady-state occupancy, not accumulated
    // history: doubling the horizon must not move it much. (Longer runs
    // sample more of the workload's tail, so ±2 blocks of drift is fine.)
    let short = el_min_space(&paper_base(0.05, false, 30));
    let long = el_min_space(&paper_base(0.05, false, 60));
    let d = i64::from(short.total_blocks) - i64::from(long.total_blocks);
    assert!(
        d.abs() <= 4,
        "minimum drifted with runtime: {:?} vs {:?}",
        short.generation_blocks,
        long.generation_blocks
    );
}

#[test]
fn el_minimum_grows_with_long_fraction() {
    // Figure 4's EL curve rises with the mix.
    let at_5 = el_min_space(&paper_base(0.05, false, 40));
    let at_40 = el_min_space(&paper_base(0.40, false, 40));
    assert!(
        at_40.total_blocks > at_5.total_blocks,
        "EL needs more space at 40% ({}) than at 5% ({})",
        at_40.total_blocks,
        at_5.total_blocks
    );
}

#[test]
fn search_is_deterministic() {
    let a = el_min_space(&paper_base(0.05, false, 30));
    let b = el_min_space(&paper_base(0.05, false, 30));
    assert_eq!(a.generation_blocks, b.generation_blocks);
    assert_eq!(a.probes, b.probes);
}

/// `elsim --gens 18,16 --runtime 60 --min-space`'s line, pinned: a change
/// that loses the running bound (each column capped by the best geometry
/// found before it — DESIGN.md §5f) spends more probes, and one that moves
/// the minimum prints another geometry.
#[test]
fn two_generation_search_prints_the_pinned_line() {
    let flags = ["--gens", "18,16", "--runtime", "60", "--min-space"];
    let a = cli::elsim(flags.map(String::from)).expect("valid flags");
    let out = SearchRequest::min_space(&a.run, 2)
        .certificates(a.certificates)
        .run();
    assert!(out.limit.is_none(), "the search found a minimum");
    assert_eq!(
        report::render_min_space(&a.run, &out.min),
        "minimum EL log: [18, 16] = 34 blocks (48 probes)\n"
    );
}
