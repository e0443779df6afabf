//! Deterministic random streams.
//!
//! Every stochastic choice in the reproduction (transaction type draws, oid
//! picks) flows through [`SimRng`], a thin wrapper over a seeded
//! `rand::rngs::SmallRng`. Wrapping buys two things:
//!
//! * **stream splitting** — `SimRng::substream` derives an independent,
//!   deterministic child stream from a label, so adding a new consumer of
//!   randomness does not perturb existing draws (important when comparing FW
//!   and EL on *identical* workloads);
//! * a pinned-down API surface, so swapping the underlying generator is a
//!   one-line change.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A deterministic random stream.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream from a textual label.
    ///
    /// The derivation is a 64-bit FNV-1a hash of the label mixed into the
    /// parent seed, so `substream` is pure: the same parent seed and label
    /// always yield the same child, regardless of draw history.
    pub fn substream(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in label.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimRng::new(self.seed ^ h.rotate_left(17))
    }

    /// Uniform draw in `[0, bound)`. Panics if `bound == 0`.
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.inner.random_range(0..bound)
    }

    /// Uniform draw in `[0.0, 1.0)`.
    pub fn next_f64(&mut self) -> f64 {
        self.inner.random_range(0.0..1.0)
    }

    /// Exponentially distributed draw with the given mean (inverse rate).
    ///
    /// Used by the Poisson-arrival extension of the workload generator.
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u: f64 = self.inner.random_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_below(1_000_000), b.next_u64_below(1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64)
            .filter(|_| a.next_u64_below(u64::MAX) == b.next_u64_below(u64::MAX))
            .count();
        assert!(same < 4, "streams should diverge, {same} collisions");
    }

    #[test]
    fn substream_is_pure() {
        let parent = SimRng::new(7);
        let mut c1 = parent.substream("oids");
        let mut c2 = parent.substream("oids");
        assert_eq!(c1.next_u64_below(1 << 40), c2.next_u64_below(1 << 40));
        let mut other = parent.substream("mix");
        assert_ne!(c1.seed(), other.seed());
        let _ = other.next_f64();
    }

    #[test]
    fn substream_independent_of_draw_history() {
        let mut parent = SimRng::new(9);
        let before = parent.substream("x").seed();
        let _ = parent.next_f64();
        let after = parent.substream("x").seed();
        assert_eq!(before, after);
    }

    #[test]
    fn bounded_draws_respect_bound() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            assert!(r.next_u64_below(17) < 17);
        }
    }

    #[test]
    fn unit_interval_draws() {
        let mut r = SimRng::new(4);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut r = SimRng::new(5);
        let n = 200_000;
        let mean = 0.25;
        let total: f64 = (0..n).map(|_| r.next_exp(mean)).sum();
        let observed = total / n as f64;
        assert!((observed - mean).abs() < 0.01, "observed mean {observed}");
    }
}
