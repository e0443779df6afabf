//! Virtual time for the simulator.
//!
//! Time is a monotone count of microseconds since the start of a run. A
//! microsecond granularity is fine enough for every latency the paper uses
//! (the smallest is the 1 ms gap between a transaction's last data record and
//! its COMMIT record) while keeping arithmetic in plain `u64`: 2^64 µs is
//! over half a million years of simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in microseconds.
///
/// `SimTime` doubles as a duration type: the event-driven simulator only ever
/// adds spans to points and subtracts points from points, so a single
/// saturating newtype keeps the API small. All arithmetic is saturating so an
/// accidental underflow in a policy computation cannot wrap into the far
/// future and wedge a run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs a time from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Constructs a time from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000))
    }

    /// Constructs a time from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000))
    }

    /// Constructs a time from fractional seconds, rounding to the nearest
    /// microsecond. Panics in debug builds on negative or non-finite input.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "invalid time {s}");
        SimTime((s * 1e6).round() as u64)
    }

    /// Raw microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference, as a span.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// True when this is the `MAX` sentinel.
    #[inline]
    pub const fn is_never(self) -> bool {
        self.0 == u64::MAX
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime underflow: {self:?} - {rhs:?}");
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        debug_assert!(self.0 >= rhs.0, "SimTime underflow");
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for SimTime {
    /// Human-oriented rendering with an adaptive unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us == u64::MAX {
            write!(f, "never")
        } else if us >= 1_000_000 {
            write!(f, "{:.3}s", us as f64 / 1e6)
        } else if us >= 1_000 {
            write!(f, "{:.3}ms", us as f64 / 1e3)
        } else {
            write!(f, "{us}us")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let a = SimTime::from_millis(15);
        let b = SimTime::from_millis(25);
        assert_eq!(a + b, SimTime::from_millis(40));
        assert_eq!(b - a, SimTime::from_millis(10));
        assert_eq!(a * 4, SimTime::from_millis(60));
        assert_eq!(b / 5, SimTime::from_millis(5));
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(SimTime::MAX + SimTime::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimTime::ZERO.saturating_sub(SimTime::from_secs(1)),
            SimTime::ZERO
        );
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn sub_underflow_panics_in_debug() {
        let _ = SimTime::ZERO - SimTime::from_micros(1);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_micros(7).to_string(), "7us");
        assert_eq!(SimTime::from_millis(7).to_string(), "7.000ms");
        assert_eq!(SimTime::from_secs(7).to_string(), "7.000s");
        assert_eq!(SimTime::MAX.to_string(), "never");
    }

    #[test]
    fn fractional_seconds_roundtrip() {
        let t = SimTime::from_secs_f64(123.456789);
        assert!((t.as_secs_f64() - 123.456789).abs() < 1e-6);
    }

    #[test]
    fn sum_of_spans() {
        let total: SimTime = (1..=4).map(SimTime::from_secs).sum();
        assert_eq!(total, SimTime::from_secs(10));
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_micros(1) < SimTime::from_millis(1));
        assert!(SimTime::MAX.is_never());
        assert!(!SimTime::ZERO.is_never());
    }
}
