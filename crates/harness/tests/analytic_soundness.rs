//! Analytic-soundness suite: the feasibility model's rejections must be
//! *certain* kills. The model ([`elog_harness::analytic`]) derives, from
//! one captured workload, a per-prefix threshold below which the last
//! generation provably cannot hold the survivor set; a probe it rejects
//! is never simulated. This suite re-simulates rejected geometries across
//! randomly drawn configurations and asserts every one of them kills —
//! the property the whole pre-filter stands on. (The end-to-end
//! search-outcome equivalence lives in `accelerator_equivalence.rs`.)

use elog_harness::minspace::{self, paper_base};
use elog_harness::runner::run_capture;
use elog_harness::AnalyticModel;

/// splitmix64 — deterministic case generator, no RNG dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn rejected_geometries_kill_when_simulated() {
    // Property test: across random mixes, horizons and prefixes, every
    // capacity at or below the model's reject threshold must kill in a
    // full live simulation of that exact geometry.
    let mut rng = 0xA11A_1731C_u64;
    let mut audited = 0u32;
    for case in 0..6 {
        let mixes = [0.05, 0.1, 0.2, 0.3];
        let mix = mixes[(splitmix(&mut rng) % 4) as usize];
        let secs = 12 + splitmix(&mut rng) % 8;
        let base = paper_base(mix, false, secs);
        let k = base.el.log.gap_blocks;

        // Capture the workload once on a roomy geometry; the model is
        // derived from exactly this trace, as in the search.
        let mut roomy = base.clone();
        roomy.el.log.generation_blocks = vec![64, 64, 64];
        let (_, trace) = run_capture(&roomy);
        let trace = trace.expect("roomy geometry must be kill-free");
        let model = AnalyticModel::from_run(&base, &trace)
            .expect("capture carries enough records for a model");

        // Random two-axis prefixes in the plausible search range.
        for _ in 0..3 {
            let prefix = [
                k + 1 + (splitmix(&mut rng) % 10) as u32,
                k + 1 + (splitmix(&mut rng) % 8) as u32,
            ];
            let threshold = model.reject_threshold(&prefix);
            assert!(
                model.rejects(&prefix, threshold),
                "threshold and rejects() disagree at the boundary"
            );
            assert!(
                !model.rejects(&prefix, threshold + 1),
                "rejects() must stop exactly at its threshold"
            );
            if threshold <= k {
                continue; // nothing rejectable in the probe range
            }
            // Audit the boundary (the tightest claim) and one point
            // strictly inside it.
            for last in [threshold, (k + 1 + threshold) / 2] {
                if last <= k {
                    continue;
                }
                let blocks = [prefix[0], prefix[1], last];
                assert!(
                    !minspace::survives(&base, &blocks),
                    "case {case}: model rejected {blocks:?} but simulation survives"
                );
                audited += 1;
            }
        }
    }
    assert!(
        audited >= 4,
        "vacuous property test: only {audited} rejections audited"
    );
}
