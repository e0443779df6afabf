//! Memo-soundness suite: the EL search's probe-verdict memo must be a
//! pure accelerator. With the memo disabled every probe is simulated;
//! with it enabled some verdicts are derived from dominance rules — but
//! the chosen geometry, the probe count and every derived verdict must be
//! exactly what simulation would have produced. The same property must
//! hold in every dimension the lattice search supports, so the suite
//! audits both the 2-gen entry point and random N-generation lattices.

use elog_core::MemoryModel;
use elog_harness::latsearch::{LatticeLimits, MemoHit};
use elog_harness::minspace::{self, paper_base, MinSpaceResult};
use elog_harness::{RunConfig, SearchRequest};

/// One lattice search: the minimum and the memo audit trail.
fn search(
    base: &RunConfig,
    limits: &LatticeLimits,
    jobs: usize,
    memo: bool,
) -> (MinSpaceResult, Vec<MemoHit>) {
    let out = SearchRequest::lattice(base, limits.clone())
        .jobs(jobs)
        .memo(memo)
        .run();
    (out.min, out.memo_trail)
}

/// The 2-gen search: a one-prefix-axis lattice.
fn two_gen(g0_max: u32, g1_limit: u32) -> LatticeLimits {
    LatticeLimits {
        prefix_max: vec![g0_max],
        last_limit: g1_limit,
    }
}

/// Checks (a) identical outcome probe-for-probe between a memo-on and a
/// memo-off search, (b) every memo-derived verdict against a fresh
/// simulation of that exact geometry. Returns the number of memo hits so
/// callers can reject vacuous runs at whatever granularity fits.
fn assert_sound(
    base: &RunConfig,
    with_memo: &MinSpaceResult,
    without_memo: &MinSpaceResult,
    trail: &[MemoHit],
    no_trail: &[MemoHit],
) -> u64 {
    assert_eq!(
        with_memo.generation_blocks, without_memo.generation_blocks,
        "memo changed the selected geometry"
    );
    assert_eq!(with_memo.total_blocks, without_memo.total_blocks);
    assert_eq!(
        with_memo.probes, without_memo.probes,
        "memo changed how many verdicts the search consumed"
    );
    assert_eq!(
        with_memo.search.sim_probes + with_memo.search.memo_hits,
        without_memo.search.sim_probes,
        "every memo hit must stand in for exactly one simulated probe"
    );
    assert_eq!(
        with_memo.search.pruned_volume, without_memo.search.pruned_volume,
        "the pruning bound must not depend on the memo"
    );
    assert!(no_trail.is_empty(), "memo-off run must derive no verdicts");
    assert_eq!(with_memo.search.memo_hits as usize, trail.len());

    // Re-simulate every derived verdict. `minspace::survives` runs the
    // geometry live (capture path), so this checks the memo against the
    // ground truth, not against the replay machinery that fed it.
    for hit in trail {
        let simulated = minspace::survives(base, hit.geometry.as_slice());
        assert_eq!(
            simulated, hit.survived,
            "memo verdict for {:?} contradicts simulation",
            hit.geometry
        );
    }
    with_memo.search.memo_hits
}

/// 2-gen audit harness: the lattice harness on one prefix axis, where the
/// memo must actually be consulted.
fn assert_memo_sound(base: &RunConfig, g0_max: u32, g1_limit: u32) {
    let hits = assert_lattice_memo_sound(base, &two_gen(g0_max, g1_limit));
    assert!(hits > 0, "vacuous soundness check: memo never consulted");
}

/// N-gen audit harness over arbitrary lattice limits: runs the search
/// memo-on and memo-off (jobs = 1 keeps the memo trail deterministic) and
/// audits. Returns the memo hit count (a random lattice may legitimately
/// never consult the memo; the property test rejects only an all-vacuous
/// *set* of cases).
fn assert_lattice_memo_sound(base: &RunConfig, limits: &LatticeLimits) -> u64 {
    let (with_memo, trail) = search(base, limits, 1, true);
    let (without_memo, no_trail) = search(base, limits, 1, false);
    assert_sound(base, &with_memo, &without_memo, &trail, &no_trail)
}

#[test]
fn memo_sound_on_fig4_style_search() {
    // The fig4-6 quick sweep's EL search shape (no recirculation), at a
    // shorter horizon so re-simulating the memo trail stays cheap.
    let mut base = paper_base(0.2, false, 20);
    base.el.memory_model = MemoryModel::Ephemeral;
    assert_memo_sound(&base, 24, 128);
}

#[test]
fn memo_sound_on_fig7_style_search() {
    // Fig7's regime: recirculation enabled, heavier mix.
    let base = paper_base(0.4, true, 20);
    assert_memo_sound(&base, 20, 128);
}

#[test]
fn memo_does_not_leak_across_jobs_settings() {
    // The memo is frozen before the parallel scan, so probe counts (and
    // the result) are identical for every worker count.
    let base = paper_base(0.2, false, 20);
    let (serial, _) = search(&base, &two_gen(20, 128), 1, true);
    let (parallel, _) = search(&base, &two_gen(20, 128), 4, true);
    assert_eq!(serial.generation_blocks, parallel.generation_blocks);
    assert_eq!(serial.probes, parallel.probes);
    assert_eq!(serial.search.sim_probes, parallel.search.sim_probes);
    assert_eq!(serial.search.memo_hits, parallel.search.memo_hits);
}

/// splitmix64 — a tiny deterministic generator so the random lattices are
/// reproducible without an RNG dependency in the test.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn memo_sound_on_random_three_gen_lattices() {
    // Property test: across randomly drawn 3-gen lattices (mix, horizon
    // and per-axis ceilings all varying), every memo-derived verdict
    // matches a fresh simulation and the memo never changes the outcome.
    let mut rng = 0x01A7_71CE_5EED_u64;
    let mut total_hits = 0u64;
    for case in 0..4 {
        let mixes = [0.05, 0.2, 0.3, 0.4];
        let mix = mixes[(splitmix(&mut rng) % 4) as usize];
        let recirc = splitmix(&mut rng).is_multiple_of(2);
        let secs = 12 + splitmix(&mut rng) % 8; // 12..20 s horizons
        let base = paper_base(mix, recirc, secs);
        let k = base.el.log.gap_blocks;
        let limits = LatticeLimits {
            prefix_max: vec![
                k + 4 + (splitmix(&mut rng) % 8) as u32, // gen0 ceiling
                k + 2 + (splitmix(&mut rng) % 6) as u32, // gen1 ceiling
            ],
            last_limit: 48 + (splitmix(&mut rng) % 32) as u32,
        };
        eprintln!(
            "[case {case}] mix={mix} recirc={recirc} secs={secs} \
             prefix_max={:?} last_limit={}",
            limits.prefix_max, limits.last_limit
        );
        // A random draw may produce a lattice with no surviving geometry
        // at all; the search rightly panics there, and there is nothing to
        // audit. Skip those draws, but refuse any *other* panic.
        let audited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert_lattice_memo_sound(&base, &limits)
        }));
        match audited {
            Ok(hits) => total_hits += hits,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic>");
                assert!(
                    msg.contains("no feasible geometry"),
                    "case {case} panicked for a reason other than infeasibility: {msg}"
                );
                eprintln!("[case {case}] lattice infeasible — skipped");
            }
        }
    }
    assert!(
        total_hits > 0,
        "vacuous property test: no random lattice ever consulted the memo"
    );
}

#[test]
fn lattice_memo_does_not_leak_across_jobs_settings() {
    let base = paper_base(0.2, false, 15);
    let limits = LatticeLimits {
        prefix_max: vec![10, 8],
        last_limit: 64,
    };
    let (serial, serial_trail) = search(&base, &limits, 1, true);
    let (parallel, mut parallel_trail) = search(&base, &limits, 4, true);
    assert_eq!(serial.generation_blocks, parallel.generation_blocks);
    assert_eq!(serial.probes, parallel.probes);
    assert_eq!(serial.search.sim_probes, parallel.search.sim_probes);
    assert_eq!(serial.search.memo_hits, parallel.search.memo_hits);
    assert_eq!(serial.search.pruned_volume, parallel.search.pruned_volume);
    // The trail arrives in completion order under jobs > 1, but as a set
    // it must be the same verdicts.
    let key = |h: &MemoHit| (h.geometry.to_vec(), h.survived);
    let mut serial_trail: Vec<_> = serial_trail.iter().map(key).collect();
    serial_trail.sort();
    let mut parallel_keys: Vec<_> = parallel_trail.drain(..).map(|h| key(&h)).collect();
    parallel_keys.sort();
    assert_eq!(serial_trail, parallel_keys);
}
