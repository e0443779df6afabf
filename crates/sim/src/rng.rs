//! Deterministic random streams.
//!
//! Every stochastic choice in the reproduction (transaction type draws, oid
//! picks) flows through [`SimRng`], a seeded xoshiro256++ generator. It
//! offers two things beyond the raw stream:
//!
//! * **stream splitting** — `SimRng::substream` derives an independent,
//!   deterministic child stream from a label, so adding a new consumer of
//!   randomness does not perturb existing draws (important when comparing FW
//!   and EL on *identical* workloads);
//! * a pinned stream: every draw is a fixed function of the seed (the
//!   `pinned_stream` test holds a sample), so every report the simulator
//!   prints is too.

/// One splitmix64 step: advances `state` by the golden-ratio increment and
/// returns the finalised word. Seeds [`SimRng`], derives scenario and case
/// seeds, and generates payload bytes.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random stream.
#[derive(Clone, Debug)]
pub struct SimRng {
    /// xoshiro256++ state.
    s: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a stream from a 64-bit seed (splitmix64 expansion).
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let s = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        SimRng { s, seed }
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

    /// The next raw 64 bits (one xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, bound)`. Panics if `bound == 0`.
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling on the top bits: unbiased and cheap for the
        // small bounds the simulator uses.
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform draw in `range`: [`next_u64_below`](Self::next_u64_below)
    /// shifted to its start. Panics on an empty range.
    pub fn range(&mut self, range: std::ops::Range<u64>) -> u64 {
        range.start + self.next_u64_below(range.end - range.start)
    }

    /// Uniform draw in `[0.0, 1.0)`.
    pub fn next_f64(&mut self) -> f64 {
        self.next_f64_in(0.0, 1.0)
    }

    /// Exponentially distributed draw with the given mean (inverse rate).
    ///
    /// Used by the Poisson-arrival extension of the workload generator.
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u: f64 = self.next_f64_in(f64::MIN_POSITIVE, 1.0);
        -mean * u.ln()
    }

    /// Uniform draw in `[start, end)` from 53 mantissa bits.
    #[inline]
    fn next_f64_in(&mut self, start: f64, end: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let v = start + unit * (end - start);
        // Guard the half-open upper bound against rounding.
        if v >= end {
            start.max(end - end.abs() * f64::EPSILON)
        } else {
            v.max(start)
        }
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

    /// Per seed: eight oid-sized draws, then eight unit and four
    /// exponential draws (as bit patterns), and the first oid-sized draw of
    /// the `"oids"` substream. Every report `repro` prints is a function of
    /// this stream, so a generator change fails here before it moves one.
    #[test]
    fn pinned_stream() {
        type Pin = (u64, [u64; 8], [u64; 8], [u64; 4], u64);
        #[rustfmt::skip]
        let pins: [Pin; 3] = [
            (0,
             [1041503, 5621255, 2829180, 1650330, 9184874, 3160858, 9357806, 5070553],
             [0x3fd2df682808e27c, 0x3fb300fc58c04248, 0x3fd421210c81b066, 0x3fb0ea073de9aa48,
              0x3fbaae5543439608, 0x3fb804139f10fae0, 0x3fb0d790e7b8ac10, 0x3fd99f4afff74524],
             [0x3fbdf8831c951c73, 0x3fe15634a0df3192, 0x3fd1e0fb5396ad5d, 0x3fcd12cf492e1c18],
             1163628),
            (1,
             [5023387, 2077965, 8483744, 2736470, 431780, 2108485, 5945223, 2813345],
             [0x3fb8bae5b30d3348, 0x3fc13089e4f81374, 0x3fed73c1df3b99fc, 0x3fd5fbebb767db3e,
              0x3fb28ae2d5697640, 0x3fd940ce93bb9414, 0x3fb6e9453ed54a88, 0x3fc4032d547a1454],
             [0x3fc2b7eb397f2263, 0x3fc7f6b1d530511a, 0x3f86068ae275cc2e, 0x3fbc5652c7f2d2ec],
             8329084),
            (0x5EED1993,
             [2401130, 2331098, 9479651, 9459405, 4822995, 1510154, 8481295, 3733659],
             [0x3fc1f794150d46e4, 0x3fc76e76930e9310, 0x3f99e4ff79fc8d20, 0x3fee0eb39f8e3870,
              0x3fe1acd3c3aef132, 0x3f979b35a82dde80, 0x3fe3d200f2020935, 0x3fa35dcfb6c34f00],
             [0x3fd28eebecb2c444, 0x3fb75fc9b9aa16fd, 0x3f9d79114092a01f, 0x3ffad4fb6907884d],
             7879609),
        ];
        for (seed, below, unit, exp, oid) in pins {
            let mut r = SimRng::new(seed);
            assert_eq!(
                below.map(|_| r.next_u64_below(10_000_000)),
                below,
                "{seed:#x}"
            );
            assert_eq!(unit.map(|_| r.next_f64().to_bits()), unit, "{seed:#x}");
            assert_eq!(exp.map(|_| r.next_exp(0.25).to_bits()), exp, "{seed:#x}");
            let first = SimRng::new(seed)
                .substream("oids")
                .next_u64_below(10_000_000);
            assert_eq!(first, oid, "{seed:#x}");
        }
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
            assert!((5..9).contains(&r.range(5..9)));
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
