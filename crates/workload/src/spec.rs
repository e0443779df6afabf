//! Transaction types and mixes.

use elog_sim::{SimRng, SimTime};
use std::fmt;

/// The fixed gap between a transaction's last data record and its COMMIT
/// record. §3: "The delay ε between the writes for the last data log record
/// and the COMMIT tx log record for a transaction is fixed at 1 ms."
pub const EPSILON: SimTime = SimTime::from_millis(1);

/// One transaction type from the workload pdf.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TxType {
    /// Probability of occurrence, in `[0, 1]`.
    pub probability: f64,
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

    /// Validation: positive probability-compatible fields.
    fn validate(&self, idx: usize) -> Result<(), MixError> {
        if !(0.0..=1.0).contains(&self.probability) || !self.probability.is_finite() {
            return Err(MixError(format!(
                "type {idx}: probability must be in [0,1]"
            )));
        }
        if self.duration <= EPSILON {
            return Err(MixError(format!(
                "type {idx}: duration must exceed ε (1 ms)"
            )));
        }
        if self.data_records == 0 {
            return Err(MixError(format!(
                "type {idx}: needs at least one data record"
            )));
        }
        if self.record_size == 0 {
            return Err(MixError(format!(
                "type {idx}: record size must be positive"
            )));
        }
        Ok(())
    }
}

/// A validated probability mix of transaction types.
#[derive(Clone, Debug, PartialEq)]
pub struct TxMix {
    types: Vec<TxType>,
    /// Cumulative probabilities for sampling.
    cdf: Vec<f64>,
}

impl TxMix {
    /// Builds a mix, validating that probabilities sum to 1 (±1e-9).
    pub fn new(types: Vec<TxType>) -> Result<Self, MixError> {
        if types.is_empty() {
            return Err(MixError("a mix needs at least one transaction type".into()));
        }
        let mut cdf = Vec::with_capacity(types.len());
        let mut acc = 0.0;
        for (i, t) in types.iter().enumerate() {
            t.validate(i)?;
            acc += t.probability;
            cdf.push(acc);
        }
        if (acc - 1.0).abs() > 1e-9 {
            return Err(MixError(format!("probabilities sum to {acc}, expected 1")));
        }
        // Guard against floating-point shortfall at the top end.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Ok(TxMix { types, cdf })
    }

    /// The paper's standard two-type workload: a fraction `frac_long` of
    /// transactions last 10 s and write 4 × 100 B data records; the rest
    /// last 1 s and write 2 × 100 B records (§4).
    pub fn paper_mix(frac_long: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac_long));
        TxMix::new(vec![
            TxType {
                probability: 1.0 - frac_long,
                duration: SimTime::from_secs(1),
                data_records: 2,
                record_size: 100,
            },
            TxType {
                probability: frac_long,
                duration: SimTime::from_secs(10),
                data_records: 4,
                record_size: 100,
            },
        ])
        .expect("paper mix is always valid")
    }

    /// The transaction types.
    pub fn types(&self) -> &[TxType] {
        &self.types
    }

    /// Draws a type index according to the pdf.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.types.len() - 1)
    }

    /// Expected data records per transaction.
    pub fn mean_updates_per_txn(&self) -> f64 {
        self.types
            .iter()
            .map(|t| t.probability * f64::from(t.data_records))
            .sum()
    }

    /// Expected object-update rate at `tps` arrivals per second.
    ///
    /// §4: at 100 TPS this rises from 210/s (5 % long) to 280/s (40 %).
    pub fn mean_update_rate(&self, tps: f64) -> f64 {
        tps * self.mean_updates_per_txn()
    }
}

/// One segment of a piecewise workload schedule.
///
/// From `start` (inclusive) until the next phase's start, live arrivals
/// sample `mix` and the arrival process runs at `rate_factor` × its
/// configured rate (inter-arrival gaps divided by the factor).
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// When this phase begins (the first phase must start at 0).
    pub start: SimTime,
    /// The mix sampled while the phase is active.
    pub mix: TxMix,
    /// Arrival-rate multiplier (> 0; 1.0 leaves the base process alone).
    pub rate_factor: f64,
}

/// A piecewise update-mix/rate schedule over the run horizon — the
/// drifting-workload axis the adaptive controller (`core::adaptive`) reacts
/// to, e.g. long-transaction fraction 0.1 → 0.4 → 0.1 over the run.
///
/// Phases may change only the *probabilities* over a shared transaction
/// type table plus a rate factor; durations, record counts and record
/// sizes must be identical across phases. This keeps every type index
/// meaningful for the whole run: the driver resolves a transaction's
/// durations and record counts against the base mix, whichever phase it
/// arrived in.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSchedule {
    phases: Vec<Phase>,
}

impl PhaseSchedule {
    /// Builds a schedule. Phases must be non-empty, start at 0, have
    /// strictly increasing start times, positive finite rate factors, and
    /// share one transaction-type shape (see the type-level docs).
    pub fn new(phases: Vec<Phase>) -> Result<Self, MixError> {
        let first = phases
            .first()
            .ok_or_else(|| MixError("a schedule needs at least one phase".into()))?;
        if first.start != SimTime::ZERO {
            return Err(MixError(format!(
                "the first phase must start at 0, not {:?}",
                first.start
            )));
        }
        for (i, p) in phases.iter().enumerate() {
            if !p.rate_factor.is_finite() || p.rate_factor <= 0.0 {
                return Err(MixError(format!(
                    "phase {i}: rate factor must be positive and finite, got {}",
                    p.rate_factor
                )));
            }
            if i > 0 {
                if p.start <= phases[i - 1].start {
                    return Err(MixError(format!(
                        "phase {i}: start times must be strictly increasing"
                    )));
                }
                if !same_type_shape(&first.mix, &p.mix) {
                    return Err(MixError(format!(
                        "phase {i}: all phases must share one transaction \
                         type table (same durations, record counts and \
                         sizes; only probabilities and rate may change)"
                    )));
                }
            }
        }
        Ok(PhaseSchedule { phases })
    }

    /// A schedule over the paper's standard two-type workload: each
    /// `(start_secs, frac_long)` point switches to `paper_mix(frac_long)`
    /// at rate factor 1.
    pub fn paper(points: &[(u64, f64)]) -> Self {
        PhaseSchedule::new(
            points
                .iter()
                .map(|&(start, frac)| Phase {
                    start: SimTime::from_secs(start),
                    mix: TxMix::paper_mix(frac),
                    rate_factor: 1.0,
                })
                .collect(),
        )
        .expect("paper schedules share the paper type table")
    }

    /// Parses the CLI syntax `start:frac_long[@rate],...` over the paper
    /// mix — e.g. `0:0.1,160:0.4,330:0.1` or `0:0.05@1,20:0.05@2`.
    /// Starts are seconds (fractional allowed).
    pub fn parse(s: &str) -> Result<Self, MixError> {
        let mut phases = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            let (start, rest) = part
                .split_once(':')
                .ok_or_else(|| MixError(format!("phase `{part}`: expected start:frac[@rate]")))?;
            let start: f64 = start
                .parse()
                .map_err(|_| MixError(format!("phase `{part}`: bad start time")))?;
            if !start.is_finite() || start < 0.0 {
                return Err(MixError(format!("phase `{part}`: bad start time")));
            }
            let (frac, rate) = match rest.split_once('@') {
                Some((f, r)) => {
                    let rate: f64 = r
                        .parse()
                        .map_err(|_| MixError(format!("phase `{part}`: bad rate factor")))?;
                    (f, rate)
                }
                None => (rest, 1.0),
            };
            let frac: f64 = frac
                .parse()
                .map_err(|_| MixError(format!("phase `{part}`: bad long fraction")))?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(MixError(format!(
                    "phase `{part}`: long fraction must be in [0,1]"
                )));
            }
            phases.push(Phase {
                start: SimTime::from_secs_f64(start),
                mix: TxMix::paper_mix(frac),
                rate_factor: rate,
            });
        }
        PhaseSchedule::new(phases)
    }

    /// The phases, ascending by start time.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The phase active at `now` (the last phase whose start is ≤ `now`).
    pub fn phase_at(&self, now: SimTime) -> &Phase {
        let idx = self.phases.partition_point(|p| p.start <= now);
        // idx ≥ 1 because phase 0 starts at 0.
        &self.phases[idx.saturating_sub(1).min(self.phases.len() - 1)]
    }

    /// True when `base` shares this schedule's transaction type table —
    /// required of the driver's base mix so type indices stay stable.
    pub fn matches_types(&self, base: &TxMix) -> bool {
        same_type_shape(&self.phases[0].mix, base)
    }
}

/// Shape compatibility: same type count and identical per-type duration,
/// record count and record size (probabilities are free to differ).
fn same_type_shape(a: &TxMix, b: &TxMix) -> bool {
    a.types().len() == b.types().len()
        && a.types().iter().zip(b.types()).all(|(x, y)| {
            x.duration == y.duration
                && x.data_records == y.data_records
                && x.record_size == y.record_size
        })
}

/// Mix-validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixError(String);

impl fmt::Display for MixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid transaction mix: {}", self.0)
    }
}

impl std::error::Error for MixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_statistics() {
        let mix = TxMix::paper_mix(0.05);
        // 0.95·2 + 0.05·4 = 2.1 updates per txn → 210/s at 100 TPS.
        assert!((mix.mean_update_rate(100.0) - 210.0).abs() < 1e-9);
        let mix40 = TxMix::paper_mix(0.40);
        assert!((mix40.mean_update_rate(100.0) - 280.0).abs() < 1e-9);
    }

    #[test]
    fn data_write_offsets_match_figure3() {
        let t = TxType {
            probability: 1.0,
            duration: SimTime::from_secs(10),
            data_records: 4,
            record_size: 100,
        };
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
        let long = (0..n).filter(|_| mix.sample(&mut rng) == 1).count();
        let frac = long as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn degenerate_single_type_mix() {
        let mix = TxMix::new(vec![TxType {
            probability: 1.0,
            duration: SimTime::from_secs(1),
            data_records: 1,
            record_size: 50,
        }])
        .unwrap();
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut rng), 0);
        }
    }

    #[test]
    fn validation_failures() {
        assert!(TxMix::new(vec![]).is_err());

        let bad_sum = TxMix::new(vec![TxType {
            probability: 0.5,
            duration: SimTime::from_secs(1),
            data_records: 1,
            record_size: 1,
        }]);
        assert!(bad_sum.is_err());

        let base = TxType {
            probability: 1.0,
            duration: SimTime::from_secs(1),
            data_records: 1,
            record_size: 1,
        };
        assert!(TxMix::new(vec![TxType {
            duration: EPSILON,
            ..base
        }])
        .is_err());
        assert!(TxMix::new(vec![TxType {
            data_records: 0,
            ..base
        }])
        .is_err());
        assert!(TxMix::new(vec![TxType {
            record_size: 0,
            ..base
        }])
        .is_err());
        assert!(TxMix::new(vec![TxType {
            probability: f64::NAN,
            ..base
        }])
        .is_err());
        assert!(TxMix::new(vec![TxType {
            probability: 1.5,
            ..base
        }])
        .is_err());
    }

    #[test]
    fn phase_schedule_lookup() {
        let s = PhaseSchedule::paper(&[(0, 0.1), (100, 0.4), (200, 0.1)]);
        assert_eq!(s.phases().len(), 3);
        let frac_at = |secs| {
            let p = s.phase_at(SimTime::from_secs(secs));
            p.mix.types()[1].probability
        };
        assert!((frac_at(0) - 0.1).abs() < 1e-12);
        assert!((frac_at(99) - 0.1).abs() < 1e-12);
        assert!((frac_at(100) - 0.4).abs() < 1e-12, "boundary is inclusive");
        assert!((frac_at(199) - 0.4).abs() < 1e-12);
        assert!((frac_at(200) - 0.1).abs() < 1e-12);
        assert!((frac_at(10_000) - 0.1).abs() < 1e-12, "last phase is open");
        assert!(s.matches_types(&TxMix::paper_mix(0.25)));
    }

    #[test]
    fn phase_schedule_validation() {
        // Empty.
        assert!(PhaseSchedule::new(vec![]).is_err());
        // First phase must start at 0.
        assert!(PhaseSchedule::new(vec![Phase {
            start: SimTime::from_secs(5),
            mix: TxMix::paper_mix(0.1),
            rate_factor: 1.0,
        }])
        .is_err());
        // Strictly increasing starts.
        let p = |secs| Phase {
            start: SimTime::from_secs(secs),
            mix: TxMix::paper_mix(0.1),
            rate_factor: 1.0,
        };
        assert!(PhaseSchedule::new(vec![p(0), p(10), p(10)]).is_err());
        assert!(PhaseSchedule::new(vec![p(0), p(10), p(20)]).is_ok());
        // Rate factor must be positive and finite.
        assert!(PhaseSchedule::new(vec![Phase {
            rate_factor: 0.0,
            ..p(0)
        }])
        .is_err());
        assert!(PhaseSchedule::new(vec![Phase {
            rate_factor: f64::INFINITY,
            ..p(0)
        }])
        .is_err());
        // Phases must share one type table shape.
        let other_shape = TxMix::new(vec![TxType {
            probability: 1.0,
            duration: SimTime::from_secs(3),
            data_records: 1,
            record_size: 64,
        }])
        .unwrap();
        let err = PhaseSchedule::new(vec![
            p(0),
            Phase {
                start: SimTime::from_secs(10),
                mix: other_shape.clone(),
                rate_factor: 1.0,
            },
        ])
        .unwrap_err();
        assert!(err.to_string().contains("type table"), "{err}");
        let s = PhaseSchedule::paper(&[(0, 0.1)]);
        assert!(!s.matches_types(&other_shape));
    }

    #[test]
    fn phase_schedule_parse() {
        let s = PhaseSchedule::parse("0:0.1,160:0.4,330:0.1").unwrap();
        assert_eq!(s.phases().len(), 3);
        assert_eq!(s.phases()[1].start, SimTime::from_secs(160));
        assert!((s.phases()[1].mix.types()[1].probability - 0.4).abs() < 1e-12);
        assert_eq!(s.phases()[2].rate_factor, 1.0);

        let s = PhaseSchedule::parse("0:0.05@1, 20.5:0.05@2.5").unwrap();
        assert_eq!(s.phases()[1].start, SimTime::from_secs_f64(20.5));
        assert_eq!(s.phases()[1].rate_factor, 2.5);

        assert!(PhaseSchedule::parse("").is_err());
        assert!(PhaseSchedule::parse("0:1.5").is_err());
        assert!(PhaseSchedule::parse("0:0.1,abc:0.4").is_err());
        assert!(PhaseSchedule::parse("0:0.1@zzz").is_err());
        assert!(PhaseSchedule::parse("5:0.1").is_err(), "must start at 0");
        assert!(PhaseSchedule::parse("0:0.1@-1").is_err());
    }

    #[test]
    fn error_message_names_field() {
        let e = TxMix::new(vec![TxType {
            probability: 1.0,
            duration: SimTime::from_secs(1),
            data_records: 0,
            record_size: 1,
        }])
        .unwrap_err();
        assert!(e.to_string().contains("data record"));
    }
}
