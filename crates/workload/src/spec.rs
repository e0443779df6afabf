//! The paper's transaction types and the mix of them through time.

use elog_sim::{SimRng, SimTime};
use std::fmt;

/// The fixed gap between a transaction's last data record and its COMMIT
/// record. §3: "The delay ε between the writes for the last data log record
/// and the COMMIT tx log record for a transaction is fixed at 1 ms."
pub const EPSILON: SimTime = SimTime::from_millis(1);

/// One transaction type: how long it runs and what it writes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TxType {
    /// Execution duration T (begin to commit-record write).
    pub duration: SimTime,
    /// Number of data log records written (N in Figure 3).
    pub data_records: u32,
    /// Accounting size of each data record, in bytes.
    pub record_size: u32,
}

impl TxType {
    /// Time of the `seq`-th (1-based) data-record write, relative to t0.
    ///
    /// Records are evenly spaced: record j is written at j·(T−ε)/N, so the
    /// last lands exactly ε before the COMMIT record.
    pub fn data_write_offset(&self, seq: u32) -> SimTime {
        debug_assert!(seq >= 1 && seq <= self.data_records);
        let span = self.duration.saturating_sub(EPSILON);
        span * u64::from(seq) / u64::from(self.data_records)
    }
}

/// The paper's two transaction types (§4), indexed by
/// [`TxMix::sample`]: 0 is the short type (1 s, 2 × 100 B data records),
/// 1 the long type (10 s, 4 × 100 B). Every experiment varies only the
/// fraction of long ones.
pub const TX_TYPES: [TxType; 2] = [
    TxType {
        duration: SimTime::from_secs(1),
        data_records: 2,
        record_size: 100,
    },
    TxType {
        duration: SimTime::from_secs(10),
        data_records: 4,
        record_size: 100,
    },
];

/// The workload pdf over [`TX_TYPES`] through time: a fraction
/// `frac_long` of transactions are long from time 0, the rest short, and
/// each shift switches to a new fraction from its start on — the drifting
/// workload the adaptive controller (`core::adaptive`) reacts to, e.g.
/// 0.1 → 0.4 → 0.1 over the run. The paper's mixes have no shifts.
#[derive(Clone, Debug, PartialEq)]
pub struct TxMix {
    frac_long: f64,
    /// `(start, frac_long)` after time 0, strictly ascending by start.
    shifts: Vec<(SimTime, f64)>,
}

impl TxMix {
    /// The mix with a fraction `frac_long` of long transactions for the
    /// whole run (§4 runs 5 % to 40 %).
    pub fn paper_mix(frac_long: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac_long));
        TxMix {
            frac_long,
            shifts: Vec::new(),
        }
    }

    /// A piecewise mix from `(start_secs, frac_long)` points, the first at
    /// 0, starts ascending.
    pub fn phased(points: &[(u64, f64)]) -> Self {
        TxMix::from_phases(
            points
                .iter()
                .map(|&(start, frac)| (SimTime::from_secs(start), frac)),
        )
        .expect("phased mixes list ascending starts from 0")
    }

    /// Parses the CLI syntax `start:frac_long,...` — e.g.
    /// `0:0.1,160:0.4,330:0.1`. Starts are seconds (fractional allowed).
    pub fn parse(s: &str) -> Result<Self, ScheduleError> {
        let mut phases = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            let bad = |what: &str| ScheduleError(format!("phase `{part}`: {what}"));
            let (start, frac) = part
                .split_once(':')
                .ok_or_else(|| bad("expected start:frac_long"))?;
            let start: f64 = start.parse().map_err(|_| bad("bad start time"))?;
            if !start.is_finite() || start < 0.0 {
                return Err(bad("bad start time"));
            }
            let frac: f64 = frac
                .parse()
                .map_err(|_| bad("bad long fraction, expected start:frac_long"))?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(bad("long fraction must be in [0,1]"));
            }
            phases.push((SimTime::from_secs_f64(start), frac));
        }
        TxMix::from_phases(phases)
    }

    /// A mix from `(start, frac_long)` phases: at least one, the first at
    /// 0, starts strictly increasing.
    fn from_phases(
        phases: impl IntoIterator<Item = (SimTime, f64)>,
    ) -> Result<Self, ScheduleError> {
        let mut phases = phases.into_iter();
        let (start, frac_long) = phases
            .next()
            .ok_or_else(|| ScheduleError("a schedule needs at least one phase".into()))?;
        if start != SimTime::ZERO {
            return Err(ScheduleError(format!(
                "the first phase must start at 0, not {start:?}"
            )));
        }
        let mut mix = TxMix::paper_mix(frac_long);
        for (i, (start, frac)) in phases.enumerate() {
            let prev = mix.shifts.last().map_or(SimTime::ZERO, |&(at, _)| at);
            if start <= prev {
                return Err(ScheduleError(format!(
                    "phase {}: start times must be strictly increasing",
                    i + 1
                )));
            }
            assert!((0.0..=1.0).contains(&frac));
            mix.shifts.push((start, frac));
        }
        Ok(mix)
    }

    /// The long fraction in effect at `now`: that of the last phase whose
    /// start is ≤ `now`.
    fn frac_long_at(&self, now: SimTime) -> f64 {
        match self.shifts.partition_point(|&(start, _)| start <= now) {
            0 => self.frac_long,
            i => self.shifts[i - 1].1,
        }
    }

    /// Draws a [`TX_TYPES`] index for an arrival at `now`: long when the
    /// uniform draw lies above the short type's share.
    pub fn sample(&self, now: SimTime, rng: &mut SimRng) -> usize {
        usize::from(rng.next_f64() > 1.0 - self.frac_long_at(now))
    }
}

/// Expected object-update rate at `tps` arrivals per second when a
/// fraction `frac_long` of them are long.
///
/// §4: at 100 TPS this rises from 210/s (5 % long) to 280/s (40 %).
pub fn mean_update_rate(frac_long: f64, tps: f64) -> f64 {
    let [short, long] = TX_TYPES;
    tps * ((1.0 - frac_long) * f64::from(short.data_records)
        + frac_long * f64::from(long.data_records))
}

/// Phase-schedule validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleError(String);

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid phase schedule: {}", self.0)
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_statistics() {
        // 0.95·2 + 0.05·4 = 2.1 updates per txn → 210/s at 100 TPS.
        assert!((mean_update_rate(0.05, 100.0) - 210.0).abs() < 1e-9);
        assert!((mean_update_rate(0.40, 100.0) - 280.0).abs() < 1e-9);
    }

    #[test]
    fn data_write_offsets_match_figure3() {
        let t = TX_TYPES[1];
        // span = 9.999 s; record 4 lands ε before commit.
        assert_eq!(t.data_write_offset(4), SimTime::from_millis(9_999));
        assert_eq!(t.data_write_offset(1), SimTime::from_micros(9_999_000 / 4));
        assert!(t.data_write_offset(1) < t.data_write_offset(2));
    }

    #[test]
    fn sampling_respects_pdf() {
        let mix = TxMix::paper_mix(0.25);
        let mut rng = SimRng::new(11);
        let n = 100_000;
        let long = (0..n)
            .filter(|_| mix.sample(SimTime::ZERO, &mut rng) == 1)
            .count();
        let frac = long as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "observed {frac}");
        // The end points draw one type only.
        for (frac_long, only) in [(0.0, 0), (1.0, 1)] {
            let mix = TxMix::paper_mix(frac_long);
            assert!((0..1000).all(|_| mix.sample(SimTime::ZERO, &mut rng) == only));
        }
    }

    #[test]
    fn phase_schedule_lookup() {
        let s = TxMix::phased(&[(0, 0.1), (100, 0.4), (200, 0.1)]);
        let at = |secs| s.frac_long_at(SimTime::from_secs(secs));
        assert_eq!(at(0), 0.1);
        assert_eq!(at(99), 0.1);
        assert_eq!(at(100), 0.4, "boundary is inclusive");
        assert_eq!(at(199), 0.4);
        assert_eq!(at(200), 0.1);
        assert_eq!(at(10_000), 0.1, "last phase is open");
    }

    /// A phase draws exactly what the static mix of its fraction draws
    /// from the same stream: a one-phase mix is the paper mix, and a
    /// phased run is bit-identical to one that switched mixes by hand.
    #[test]
    fn a_phase_samples_as_the_paper_mix_of_its_fraction() {
        for f in [0.0, 0.05, 0.4, 1.0] {
            assert_eq!(
                TxMix::parse(&format!("0:{f}")).unwrap(),
                TxMix::paper_mix(f)
            );
            assert_eq!(TxMix::phased(&[(0, f)]), TxMix::paper_mix(f));
        }
        let phased = TxMix::phased(&[(0, 0.3), (5, 0.7)]);
        let (light, heavy) = (TxMix::paper_mix(0.3), TxMix::paper_mix(0.7));
        let (mut a, mut b) = (SimRng::new(7), SimRng::new(7));
        for ms in (0..10_000).step_by(10) {
            let now = SimTime::from_millis(ms);
            let by_hand = if ms < 5_000 { &light } else { &heavy };
            assert_eq!(phased.sample(now, &mut a), by_hand.sample(now, &mut b));
        }
    }

    #[test]
    fn phase_schedule_parse() {
        let s = TxMix::parse("0:0.1,160:0.4,330:0.1").unwrap();
        assert_eq!(s, TxMix::phased(&[(0, 0.1), (160, 0.4), (330, 0.1)]));

        let s = TxMix::parse("0:0.05, 20.5:0.4").unwrap();
        assert_eq!(s.frac_long_at(SimTime::from_secs_f64(20.499_999)), 0.05);
        assert_eq!(s.frac_long_at(SimTime::from_secs_f64(20.5)), 0.4);

        assert!(TxMix::parse("").is_err());
        assert!(TxMix::parse("0:1.5").is_err());
        assert!(TxMix::parse("0:0.1,abc:0.4").is_err());
        assert!(TxMix::parse("5:0.1").is_err(), "must start at 0");
        // Strictly increasing starts.
        let err = TxMix::parse("0:0.1,10:0.1,10:0.1").unwrap_err();
        assert!(err.to_string().contains("phase schedule"), "{err}");
        assert!(TxMix::parse("0:0.1,10:0.1,20:0.1").is_ok());
        assert!(TxMix::parse("0:0.1,10:0.1,5:0.1").is_err());
        // A phase is a start and a long fraction, nothing more.
        let err = TxMix::parse("0:0.1@2").unwrap_err();
        assert!(err.to_string().contains("start:frac_long"), "{err}");
    }
}
