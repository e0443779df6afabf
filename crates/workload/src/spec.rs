//! The paper's transaction types, the mix of them, and phase schedules.

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

/// The workload pdf over [`TX_TYPES`]: a fraction `frac_long` of
/// transactions are long, the rest short. Not `Copy` while `benchmark/`
/// calls `.clone()` on it: clippy's `clone_on_copy` would fail its lints.
#[derive(Clone, Debug, PartialEq)]
pub struct TxMix {
    frac_long: f64,
}

impl TxMix {
    /// The mix with a fraction `frac_long` of long transactions (§4 runs
    /// 5 % to 40 %).
    pub fn paper_mix(frac_long: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac_long));
        TxMix { frac_long }
    }

    /// Draws a [`TX_TYPES`] index: long when the uniform draw lies above
    /// the short type's share.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        usize::from(rng.next_f64() > 1.0 - self.frac_long)
    }

    /// Expected data records per transaction.
    pub fn mean_updates_per_txn(&self) -> f64 {
        let [short, long] = TX_TYPES;
        (1.0 - self.frac_long) * f64::from(short.data_records)
            + self.frac_long * f64::from(long.data_records)
    }

    /// Expected object-update rate at `tps` arrivals per second.
    ///
    /// §4: at 100 TPS this rises from 210/s (5 % long) to 280/s (40 %).
    pub fn mean_update_rate(&self, tps: f64) -> f64 {
        tps * self.mean_updates_per_txn()
    }
}

/// One segment of a piecewise workload schedule: from `start` (inclusive)
/// until the next phase's start, arrivals sample `mix`.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// When this phase begins (the first phase must start at 0).
    pub start: SimTime,
    /// The mix sampled while the phase is active.
    pub mix: TxMix,
}

/// A piecewise long-fraction schedule over the run horizon — the
/// drifting-workload axis the adaptive controller (`core::adaptive`) reacts
/// to, e.g. long-transaction fraction 0.1 → 0.4 → 0.1 over the run.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSchedule {
    phases: Vec<Phase>,
}

impl PhaseSchedule {
    /// Builds a schedule. Phases must be non-empty, start at 0 and have
    /// strictly increasing start times.
    pub fn new(phases: Vec<Phase>) -> Result<Self, ScheduleError> {
        let first = phases
            .first()
            .ok_or_else(|| ScheduleError("a schedule needs at least one phase".into()))?;
        if first.start != SimTime::ZERO {
            return Err(ScheduleError(format!(
                "the first phase must start at 0, not {:?}",
                first.start
            )));
        }
        if let Some(i) = (1..phases.len()).find(|&i| phases[i].start <= phases[i - 1].start) {
            return Err(ScheduleError(format!(
                "phase {i}: start times must be strictly increasing"
            )));
        }
        Ok(PhaseSchedule { phases })
    }

    /// A schedule from `(start_secs, frac_long)` points, each switching to
    /// `paper_mix(frac_long)`.
    pub fn paper(points: &[(u64, f64)]) -> Self {
        PhaseSchedule::new(
            points
                .iter()
                .map(|&(start, frac)| Phase {
                    start: SimTime::from_secs(start),
                    mix: TxMix::paper_mix(frac),
                })
                .collect(),
        )
        .expect("paper schedules list ascending starts from 0")
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
            phases.push(Phase {
                start: SimTime::from_secs_f64(start),
                mix: TxMix::paper_mix(frac),
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
        let mix = TxMix::paper_mix(0.05);
        // 0.95·2 + 0.05·4 = 2.1 updates per txn → 210/s at 100 TPS.
        assert!((mix.mean_update_rate(100.0) - 210.0).abs() < 1e-9);
        let mix40 = TxMix::paper_mix(0.40);
        assert!((mix40.mean_update_rate(100.0) - 280.0).abs() < 1e-9);
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
        let long = (0..n).filter(|_| mix.sample(&mut rng) == 1).count();
        let frac = long as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "observed {frac}");
        // The end points draw one type only.
        for (frac_long, only) in [(0.0, 0), (1.0, 1)] {
            let mix = TxMix::paper_mix(frac_long);
            assert!((0..1000).all(|_| mix.sample(&mut rng) == only));
        }
    }

    #[test]
    fn phase_schedule_lookup() {
        let s = PhaseSchedule::paper(&[(0, 0.1), (100, 0.4), (200, 0.1)]);
        assert_eq!(s.phases().len(), 3);
        let mix_at = |secs| s.phase_at(SimTime::from_secs(secs)).mix.clone();
        let (light, heavy) = (TxMix::paper_mix(0.1), TxMix::paper_mix(0.4));
        assert_eq!(mix_at(0), light);
        assert_eq!(mix_at(99), light);
        assert_eq!(mix_at(100), heavy, "boundary is inclusive");
        assert_eq!(mix_at(199), heavy);
        assert_eq!(mix_at(200), light);
        assert_eq!(mix_at(10_000), light, "last phase is open");
    }

    #[test]
    fn phase_schedule_validation() {
        let p = |secs| Phase {
            start: SimTime::from_secs(secs),
            mix: TxMix::paper_mix(0.1),
        };
        // Empty.
        assert!(PhaseSchedule::new(vec![]).is_err());
        // First phase must start at 0.
        assert!(PhaseSchedule::new(vec![p(5)]).is_err());
        // Strictly increasing starts.
        let err = PhaseSchedule::new(vec![p(0), p(10), p(10)]).unwrap_err();
        assert!(err.to_string().contains("phase schedule"), "{err}");
        assert!(PhaseSchedule::new(vec![p(0), p(10), p(20)]).is_ok());
    }

    #[test]
    fn phase_schedule_parse() {
        let s = PhaseSchedule::parse("0:0.1,160:0.4,330:0.1").unwrap();
        assert_eq!(s.phases().len(), 3);
        assert_eq!(s.phases()[1].start, SimTime::from_secs(160));
        assert_eq!(s.phases()[1].mix, TxMix::paper_mix(0.4));

        let s = PhaseSchedule::parse("0:0.05, 20.5:0.05").unwrap();
        assert_eq!(s.phases()[1].start, SimTime::from_secs_f64(20.5));

        assert!(PhaseSchedule::parse("").is_err());
        assert!(PhaseSchedule::parse("0:1.5").is_err());
        assert!(PhaseSchedule::parse("0:0.1,abc:0.4").is_err());
        assert!(PhaseSchedule::parse("5:0.1").is_err(), "must start at 0");
        // A phase is a start and a long fraction, nothing more.
        let err = PhaseSchedule::parse("0:0.1@2").unwrap_err();
        assert!(err.to_string().contains("start:frac_long"), "{err}");
    }
}
