//! The simulated log device.
//!
//! The paper models the log disk with a single conservative constant: a
//! buffer transfer takes τ_DiskWrite = [`LOG_WRITE_LATENCY`] (§3), and multiple buffers per
//! generation let transfers overlap record arrival. [`LogDevice`] issues
//! writes, predicts their completion times, and accounts bandwidth — the
//! "disk bandwidth (to only the log)" reported in Figure 5 is exactly
//! `writes / runtime` from these counters.
//!
//! The device imposes no queueing of its own: concurrency is bounded
//! upstream by the log manager's per-generation buffer pool (4 buffers in
//! the paper), which is the paper's own modelling choice.

use elog_model::{BLOCK_PAYLOAD_BYTES, LOG_WRITE_LATENCY};
use elog_sim::SimTime;

/// Per-generation write accounting.
#[derive(Clone, Debug, Default)]
pub struct DeviceStats {
    /// Completed block writes.
    pub writes: u64,
    /// Payload bytes carried by completed writes (accounting sizes).
    pub payload_bytes: u64,
    /// Writes currently in flight.
    pub in_flight: u32,
    /// Peak simultaneous writes (validates the buffer-count assumption).
    pub peak_in_flight: u32,
}

/// Simulated log disk shared by all generations.
#[derive(Debug)]
pub struct LogDevice {
    per_gen: Vec<DeviceStats>,
}

impl LogDevice {
    /// Creates a device serving `generations` independent block streams.
    pub fn new(generations: usize) -> Self {
        LogDevice {
            per_gen: vec![DeviceStats::default(); generations],
        }
    }

    /// Begins a buffer write for generation `gen` carrying `payload_bytes`
    /// of records; returns the virtual time at which it completes.
    ///
    /// The caller must later report the completion via
    /// [`LogDevice::complete_write`].
    pub fn begin_write(&mut self, now: SimTime, gen: usize, payload_bytes: u32) -> SimTime {
        let s = &mut self.per_gen[gen];
        s.in_flight += 1;
        s.peak_in_flight = s.peak_in_flight.max(s.in_flight);
        s.payload_bytes += u64::from(payload_bytes);
        now + LOG_WRITE_LATENCY
    }

    /// Records the completion of a write started with `begin_write`.
    pub fn complete_write(&mut self, gen: usize) {
        let s = &mut self.per_gen[gen];
        debug_assert!(s.in_flight > 0, "completion without a begin");
        s.in_flight -= 1;
        s.writes += 1;
    }

    /// Accounting for one generation.
    pub fn stats(&self, gen: usize) -> &DeviceStats {
        &self.per_gen[gen]
    }

    /// Completed writes summed over all generations.
    pub fn total_writes(&self) -> u64 {
        self.per_gen.iter().map(|s| s.writes).sum()
    }

    /// Completed block writes per second over `elapsed`, all generations.
    pub fn total_write_rate(&self, elapsed: SimTime) -> f64 {
        per_sec(self.total_writes(), elapsed)
    }

    /// Completed block writes per second for one generation.
    pub fn write_rate(&self, gen: usize, elapsed: SimTime) -> f64 {
        per_sec(self.per_gen[gen].writes, elapsed)
    }

    /// Mean payload fill of completed writes, as a fraction of
    /// [`BLOCK_PAYLOAD_BYTES`] (diagnostic for the group-commit packing).
    pub fn mean_fill(&self, gen: usize) -> Option<f64> {
        let s = &self.per_gen[gen];
        let w = s.writes;
        (w > 0).then(|| s.payload_bytes as f64 / (w as f64 * f64::from(BLOCK_PAYLOAD_BYTES)))
    }
}

/// `n` per simulated second over `elapsed` (0 over no time).
fn per_sec(n: u64, elapsed: SimTime) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs == 0.0 {
        0.0
    } else {
        n as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_completes_after_latency() {
        let mut d = LogDevice::new(2);
        let done = d.begin_write(SimTime::from_secs(1), 0, 2000);
        assert_eq!(done, SimTime::from_secs(1) + SimTime::from_millis(15));
    }

    #[test]
    fn accounting_per_generation() {
        let mut d = LogDevice::new(2);
        d.begin_write(SimTime::ZERO, 0, 1000);
        d.begin_write(SimTime::ZERO, 0, 1500);
        d.begin_write(SimTime::ZERO, 1, 500);
        assert_eq!(d.stats(0).in_flight, 2);
        assert_eq!(d.stats(0).peak_in_flight, 2);
        d.complete_write(0);
        d.complete_write(0);
        d.complete_write(1);
        assert_eq!(d.stats(0).writes, 2);
        assert_eq!(d.stats(1).writes, 1);
        assert_eq!(d.total_writes(), 3);
        assert_eq!(d.stats(0).payload_bytes, 2500);
        assert_eq!(d.stats(0).in_flight, 0);
    }

    #[test]
    fn rates() {
        let mut d = LogDevice::new(1);
        for _ in 0..50 {
            d.begin_write(SimTime::ZERO, 0, 2000);
            d.complete_write(0);
        }
        let elapsed = SimTime::from_secs(10);
        assert!((d.write_rate(0, elapsed) - 5.0).abs() < 1e-9);
        assert!((d.total_write_rate(elapsed) - 5.0).abs() < 1e-9);
        assert_eq!(d.total_write_rate(SimTime::ZERO), 0.0);
    }

    #[test]
    fn mean_fill() {
        let mut d = LogDevice::new(1);
        assert_eq!(d.mean_fill(0), None);
        d.begin_write(SimTime::ZERO, 0, 2000);
        d.complete_write(0);
        d.begin_write(SimTime::ZERO, 0, 1000);
        d.complete_write(0);
        assert!((d.mean_fill(0).unwrap() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn peak_in_flight_monotone() {
        let mut d = LogDevice::new(1);
        d.begin_write(SimTime::ZERO, 0, 1);
        d.complete_write(0);
        d.begin_write(SimTime::ZERO, 0, 1);
        d.begin_write(SimTime::ZERO, 0, 1);
        assert_eq!(d.stats(0).peak_in_flight, 2);
        d.complete_write(0);
        d.complete_write(0);
        assert_eq!(d.stats(0).peak_in_flight, 2);
    }
}
