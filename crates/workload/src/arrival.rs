//! Transaction arrival processes.
//!
//! §3: "Transactions are initiated at regular intervals, according to the
//! specified arrival rate (transactions per second). We believe that this
//! simple, deterministic arrival pattern is sufficient for a first order
//! evaluation of EL. More complicated probabilistic models (such as Markov
//! arrivals) may be investigated in future work."
//!
//! We implement the deterministic process the paper used, plus two of the
//! probabilistic models it gestures at: a Poisson process and a two-state
//! Markov-modulated Poisson process (bursty arrivals), both used by the
//! robustness ablations.

use elog_sim::{SimRng, SimTime};

/// Fastest arrival rate a process may have: one arrival per tick of the
/// 1 µs simulation clock. Finer intervals round to the same instant — a
/// deterministic interval under 0.5 µs rounds to zero and the arrival
/// chain never advances the clock.
pub const MAX_RATE_TPS: f64 = 1e6;

/// How transaction arrivals are spaced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Fixed interval `1/rate` (the paper's model).
    Deterministic {
        /// Arrivals per second.
        rate_tps: f64,
    },
    /// Exponentially distributed inter-arrival times with mean `1/rate`.
    Poisson {
        /// Mean arrivals per second.
        rate_tps: f64,
    },
    /// Two-state Markov-modulated Poisson process: the paper's "Markov
    /// arrivals" future-work pointer. Alternates between a quiet state at
    /// `base_tps` and a burst state at `burst_tps`; after each arrival the
    /// process switches state with probability chosen so state dwell times
    /// average `mean_dwell_s` seconds. The long-run mean rate is the
    /// dwell-weighted average of the two rates.
    MarkovBursty {
        /// Quiet-state arrivals per second.
        base_tps: f64,
        /// Burst-state arrivals per second.
        burst_tps: f64,
        /// Mean seconds spent in each state before switching.
        mean_dwell_s: f64,
        /// Current state (start value; evolves as intervals are drawn).
        in_burst: bool,
    },
}

impl ArrivalProcess {
    /// Validates the process parameters.
    ///
    /// Rates and dwell times must be positive and finite, and no rate may
    /// exceed [`MAX_RATE_TPS`]. For
    /// [`ArrivalProcess::MarkovBursty`] the switch probability drawn after
    /// each arrival is `1/(rate × mean_dwell_s)`; when `rate ×
    /// mean_dwell_s < 1` in either state that probability would have to
    /// exceed 1, the clamp silently stretches the achieved dwell, and
    /// [`ArrivalProcess::rate_tps`]'s dwell-weighted average no longer
    /// describes the process. Such configurations are rejected here
    /// instead of being distorted at draw time.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |name: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{name} must be positive and finite, got {v}"))
            }
        };
        let rate = |name: &str, v: f64| {
            positive(name, v)?;
            if v > MAX_RATE_TPS {
                return Err(format!(
                    "{name} {v} exceeds {MAX_RATE_TPS} arrivals per second, one per \
                     microsecond of the simulation clock"
                ));
            }
            Ok(())
        };
        match *self {
            ArrivalProcess::Deterministic { rate_tps } | ArrivalProcess::Poisson { rate_tps } => {
                rate("rate_tps", rate_tps)
            }
            ArrivalProcess::MarkovBursty {
                base_tps,
                burst_tps,
                mean_dwell_s,
                ..
            } => {
                rate("base_tps", base_tps)?;
                rate("burst_tps", burst_tps)?;
                positive("mean_dwell_s", mean_dwell_s)?;
                let slow = base_tps.min(burst_tps);
                if slow * mean_dwell_s < 1.0 {
                    return Err(format!(
                        "MarkovBursty dwell is unrealisable: rate × dwell = \
                         {:.3} < 1 in the {:.1} TPS state, so the per-arrival \
                         switch probability 1/(rate × dwell) would exceed 1 \
                         and the achieved mean dwell would be stretched to \
                         1/rate; raise the rate or the dwell",
                        slow * mean_dwell_s,
                        slow
                    ));
                }
                Ok(())
            }
        }
    }

    /// The configured long-run mean rate in arrivals per second.
    pub fn rate_tps(&self) -> f64 {
        match *self {
            ArrivalProcess::Deterministic { rate_tps } | ArrivalProcess::Poisson { rate_tps } => {
                rate_tps
            }
            // Equal mean dwell in each state ⇒ time-weighted average rate.
            ArrivalProcess::MarkovBursty {
                base_tps,
                burst_tps,
                ..
            } => (base_tps + burst_tps) / 2.0,
        }
    }

    /// Draws the next inter-arrival interval, evolving any internal state
    /// (the Markov process switches between quiet and burst phases).
    ///
    /// # Panics
    /// Panics (debug) on configs [`ArrivalProcess::validate`] rejects;
    /// validate configs upstream ([`crate::WorkloadDriver::new`] does).
    pub fn next_interval(&mut self, rng: &mut SimRng) -> SimTime {
        debug_assert!(self.validate().is_ok(), "{:?}", self.validate());
        match self {
            ArrivalProcess::Deterministic { rate_tps } => SimTime::from_secs_f64(1.0 / *rate_tps),
            ArrivalProcess::Poisson { rate_tps } => {
                SimTime::from_secs_f64(rng.next_exp(1.0 / *rate_tps))
            }
            ArrivalProcess::MarkovBursty {
                base_tps,
                burst_tps,
                mean_dwell_s,
                in_burst,
            } => {
                let rate = if *in_burst { *burst_tps } else { *base_tps };
                // Expected arrivals per dwell = rate × dwell; switching
                // after each arrival with probability 1/(rate × dwell)
                // makes dwell times geometric with the right mean. The
                // probability is a real one (≤ 1) because validate()
                // rejects rate × dwell < 1 instead of clamping, which
                // would silently stretch the achieved dwell.
                let p_switch = 1.0 / (rate * *mean_dwell_s);
                if rng.next_f64() < p_switch {
                    *in_burst = !*in_burst;
                }
                SimTime::from_secs_f64(rng.next_exp(1.0 / rate))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_interval_is_exact() {
        let mut p = ArrivalProcess::Deterministic { rate_tps: 100.0 };
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(p.next_interval(&mut rng), SimTime::from_millis(10));
        }
        assert_eq!(p.rate_tps(), 100.0);
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let mut p = ArrivalProcess::Poisson { rate_tps: 200.0 };
        let mut rng = SimRng::new(2);
        let n = 100_000;
        let total: SimTime = (0..n).map(|_| p.next_interval(&mut rng)).sum();
        let mean_secs = total.as_secs_f64() / n as f64;
        assert!(
            (mean_secs - 0.005).abs() < 2e-4,
            "mean interval {mean_secs}"
        );
    }

    #[test]
    fn poisson_intervals_vary() {
        let mut p = ArrivalProcess::Poisson { rate_tps: 10.0 };
        let mut rng = SimRng::new(3);
        let a = p.next_interval(&mut rng);
        let b = p.next_interval(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn markov_mean_rate_between_phases() {
        let mut p = ArrivalProcess::MarkovBursty {
            base_tps: 50.0,
            burst_tps: 200.0,
            mean_dwell_s: 0.5,
            in_burst: false,
        };
        assert_eq!(p.rate_tps(), 125.0);
        let mut rng = SimRng::new(4);
        let n = 200_000;
        let total: SimTime = (0..n).map(|_| p.next_interval(&mut rng)).sum();
        let rate = n as f64 / total.as_secs_f64();
        // Arrival-weighted rate exceeds the time-weighted mean (more
        // arrivals are drawn while bursting); it must land between the
        // phase rates and above the time-weighted mean.
        assert!(rate > 125.0 && rate < 200.0, "observed rate {rate}");
    }

    #[test]
    fn markov_is_burstier_than_poisson() {
        // Compare squared coefficient of variation of inter-arrival times.
        let cv2 = |mut p: ArrivalProcess, seed: u64| {
            let mut rng = SimRng::new(seed);
            let xs: Vec<f64> = (0..100_000)
                .map(|_| p.next_interval(&mut rng).as_secs_f64())
                .collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
            var / (mean * mean)
        };
        let poisson = cv2(ArrivalProcess::Poisson { rate_tps: 100.0 }, 5);
        let markov = cv2(
            ArrivalProcess::MarkovBursty {
                base_tps: 25.0,
                burst_tps: 400.0,
                mean_dwell_s: 1.0,
                in_burst: false,
            },
            5,
        );
        assert!(
            (poisson - 1.0).abs() < 0.05,
            "Poisson CV² ≈ 1, got {poisson}"
        );
        assert!(markov > 1.5, "MMPP must be over-dispersed, CV² {markov}");
    }

    #[test]
    fn markov_switches_states() {
        let mut p = ArrivalProcess::MarkovBursty {
            base_tps: 10.0,
            burst_tps: 1000.0,
            mean_dwell_s: 0.2,
            in_burst: false,
        };
        let mut rng = SimRng::new(6);
        let mut saw_burst = false;
        for _ in 0..10_000 {
            let _ = p.next_interval(&mut rng);
            if let ArrivalProcess::MarkovBursty { in_burst, .. } = p {
                saw_burst |= in_burst;
            }
        }
        assert!(saw_burst, "process must visit the burst state");
    }

    #[test]
    fn clamped_markov_dwell_is_rejected() {
        // Regression: rate × dwell = 10 × 0.05 = 0.5 < 1 in the quiet
        // state. The old draw path clamped p_switch to 1, switching after
        // every quiet-state arrival and stretching the achieved quiet
        // dwell from 0.05 s to 1/rate = 0.1 s — double the configured
        // mean, so rate_tps()'s "dwell-weighted average" was wrong.
        // Such configs must now fail validation up front.
        let p = ArrivalProcess::MarkovBursty {
            base_tps: 10.0,
            burst_tps: 1000.0,
            mean_dwell_s: 0.05,
            in_burst: false,
        };
        let err = p.validate().unwrap_err();
        assert!(err.contains("unrealisable"), "unexpected message: {err}");

        // The boundary case rate × dwell = 1 is exactly realisable.
        let boundary = ArrivalProcess::MarkovBursty {
            base_tps: 10.0,
            burst_tps: 1000.0,
            mean_dwell_s: 0.1,
            in_burst: false,
        };
        assert!(boundary.validate().is_ok());

        // Non-positive parameters are rejected for every process kind.
        assert!(ArrivalProcess::Poisson { rate_tps: 0.0 }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Deterministic { rate_tps: -1.0 }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Deterministic { rate_tps: 100.0 }
            .validate()
            .is_ok());
    }

    #[test]
    fn rates_finer_than_the_clock_are_rejected() {
        let bursty = |base_tps, burst_tps| ArrivalProcess::MarkovBursty {
            base_tps,
            burst_tps,
            mean_dwell_s: 1.0,
            in_burst: false,
        };
        let above = f64::from_bits(MAX_RATE_TPS.to_bits() + 1);
        for (at, over) in [
            (
                ArrivalProcess::Deterministic {
                    rate_tps: MAX_RATE_TPS,
                },
                ArrivalProcess::Deterministic { rate_tps: above },
            ),
            (
                ArrivalProcess::Poisson {
                    rate_tps: MAX_RATE_TPS,
                },
                ArrivalProcess::Poisson { rate_tps: 1e9 },
            ),
            (bursty(10.0, MAX_RATE_TPS), bursty(10.0, above)),
            (bursty(MAX_RATE_TPS, 10.0), bursty(1e12, 10.0)),
        ] {
            assert!(at.validate().is_ok(), "{at:?}");
            let err = over.validate().unwrap_err();
            assert!(err.contains("microsecond"), "{over:?}: {err}");
        }
        // At the bound the deterministic interval is one clock tick.
        let mut p = ArrivalProcess::Deterministic {
            rate_tps: MAX_RATE_TPS,
        };
        assert_eq!(
            p.next_interval(&mut SimRng::new(1)),
            SimTime::from_micros(1)
        );
    }
}
