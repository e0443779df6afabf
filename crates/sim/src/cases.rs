//! Seeded case runner for randomized tests.
//!
//! A test hands [`run`] its name, a case count and a case body. Each case
//! draws its inputs from its own [`SimRng`], seeded from a stream derived
//! from the name, so the basket is the same on every run. A panicking case
//! fails the test with one line that replays that case alone:
//!
//! ```text
//! CASE_SEED=0x… cargo test --offline <name>
//! ```

use crate::rng::{splitmix64, SimRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `case` on `count` seeds, or only on the one in `CASE_SEED` when a
/// failure is being replayed. Returns how many cases ran; panics with the
/// replay line if one of them panicked.
pub fn run(name: &str, count: usize, case: impl FnMut(&mut SimRng)) -> usize {
    let replay = std::env::var("CASE_SEED").ok().map(|s| {
        let parsed = match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        };
        parsed.unwrap_or_else(|_| panic!("CASE_SEED={s} is not a decimal or 0x-hex u64"))
    });
    run_seeds(replay, name, count, case).unwrap_or_else(|line| panic!("{line}"))
}

/// [`run`] with the replay seed passed in rather than read from the
/// environment; `Err` carries the replay line.
fn run_seeds(
    replay: Option<u64>,
    name: &str,
    count: usize,
    mut case: impl FnMut(&mut SimRng),
) -> Result<usize, String> {
    // The name's substream seed starts the splitmix64 chain of case seeds.
    let mut state = SimRng::new(0).substream(name).seed();
    let seeds: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => (0..count).map(|_| splitmix64(&mut state)).collect(),
    };
    for &seed in &seeds {
        if catch_unwind(AssertUnwindSafe(|| case(&mut SimRng::new(seed)))).is_err() {
            return Err(format!(
                "case seed {seed:#x} failed (panic above)\n\
                 CASE_SEED={seed:#x} cargo test --offline {name}"
            ));
        }
    }
    Ok(seeds.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_case_names_its_replay_seed() {
        let mut seeds = Vec::new();
        let err = run_seeds(None, "cases::tests::fail", 10, |rng| {
            seeds.push(rng.seed());
            assert!(seeds.len() < 3, "third case fails");
        })
        .expect_err("the third case panics");
        assert_eq!(seeds.len(), 3, "the basket stops at the failure");
        assert!(
            err.contains(&format!("CASE_SEED={:#x} cargo test", seeds[2])),
            "{err}"
        );
    }

    #[test]
    fn a_replay_seed_runs_exactly_that_case() {
        let mut seeds = Vec::new();
        let ran = run_seeds(Some(0x5EED), "cases::tests::replay", 10, |rng| {
            seeds.push(rng.seed());
        });
        assert_eq!(ran, Ok(1));
        assert_eq!(seeds, [0x5EED]);
    }

    #[test]
    fn the_basket_is_fixed_per_name_and_distinct_across_names() {
        let basket = |name: &str| {
            let mut seeds = Vec::new();
            assert_eq!(
                run_seeds(None, name, 16, |rng| seeds.push(rng.seed())),
                Ok(16)
            );
            seeds
        };
        let a = basket("a");
        assert_eq!(a, basket("a"));
        assert_ne!(a, basket("b"));
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len());
    }
}
