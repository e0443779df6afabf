//! Closed-form steady-state rate equations (paper §4).
//!
//! The paper sizes generations by balancing two rates: log bytes *arrive*
//! at a generation's tail at some inflow rate, and records stop needing the
//! log (become garbage) as their transactions commit and flush. A record
//! written into generation 0 reaches the head of generation *i* only after
//! the cumulative wrap delay of generations `0..=i`; whatever fraction of
//! its cohort is still live at that age must be forwarded — that fraction
//! *is* the next generation's inflow. Iterating the pair
//!
//! ```text
//! τ_i = c_i · payload / λ_i            (wrap time of generation i)
//! λ_{i+1} = λ_0 · g(d_i + τ_i)         (surviving inflow after delay)
//! ```
//!
//! where `g(age)` is the byte-weighted fraction of freshly written log
//! bytes still live `age` seconds later (a property of the transaction
//! mix, see `elog_workload`'s `TxMix::live_byte_fraction`) gives every
//! generation's steady-state traffic without simulating anything.
//!
//! These equations are *estimates* — steady-state, fluid-limit, no queueing
//! jitter, good for sizing heuristics and reporting. The search harness's
//! probe-free *verdicts* come from none of this: they are read off one
//! instrumented run (`elog_core::cert`).

/// Steady-state traffic of one generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GenRate {
    /// Inflow at the tail, bytes per second.
    pub inflow_bytes_per_sec: f64,
    /// Wrap (residence) time head-to-tail, seconds; `f64::INFINITY` when
    /// the inflow is zero (the generation never wraps).
    pub wrap_secs: f64,
    /// Cumulative age of a record when it reaches this generation's head,
    /// seconds since it was first written.
    pub age_at_head_secs: f64,
}

/// Time for a ring of `capacity_blocks` blocks holding `payload` bytes
/// each to wrap at a sustained inflow, in seconds. Infinite at zero inflow.
pub fn wrap_secs(capacity_blocks: u64, payload: u32, inflow_bytes_per_sec: f64) -> f64 {
    if inflow_bytes_per_sec <= 0.0 {
        return f64::INFINITY;
    }
    capacity_blocks as f64 * f64::from(payload) / inflow_bytes_per_sec
}

/// Iterates the §4 balance over a generation chain.
///
/// * `total_inflow` — log bytes per second entering generation 0;
/// * `capacities` — blocks per generation, youngest first;
/// * `payload` — usable bytes per block;
/// * `live_fraction` — `g(age)`: byte-weighted fraction of written bytes
///   still live `age` seconds after their write (monotone non-increasing,
///   `g(0) ≈ 1`).
///
/// Returns one [`GenRate`] per generation.
pub fn steady_state(
    total_inflow: f64,
    capacities: &[u64],
    payload: u32,
    live_fraction: impl Fn(f64) -> f64,
) -> Vec<GenRate> {
    let mut out = Vec::with_capacity(capacities.len());
    let mut age = 0.0f64;
    let mut inflow = total_inflow;
    for &cap in capacities {
        let wrap = wrap_secs(cap, payload, inflow);
        age = if wrap.is_finite() {
            age + wrap
        } else {
            f64::INFINITY
        };
        out.push(GenRate {
            inflow_bytes_per_sec: inflow,
            wrap_secs: wrap,
            age_at_head_secs: age,
        });
        inflow = total_inflow * live_fraction(age).clamp(0.0, 1.0);
    }
    out
}

/// Estimated minimum blocks for a *last* generation that must retain every
/// record arriving at rate `inflow` until it dies, `mean_remaining_life`
/// seconds later, plus the head/tail gap: the live window in flight is
/// `inflow · life` bytes and the ring must hold it without the head
/// reaching a live record.
pub fn estimated_min_last_blocks(
    inflow_bytes_per_sec: f64,
    mean_remaining_life_secs: f64,
    payload: u32,
    gap_blocks: u32,
) -> u64 {
    let live_bytes = (inflow_bytes_per_sec * mean_remaining_life_secs).max(0.0);
    let blocks = (live_bytes / f64::from(payload)).ceil() as u64;
    blocks + u64::from(gap_blocks) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_time_scales_linearly() {
        assert_eq!(wrap_secs(10, 2000, 2000.0), 10.0);
        assert_eq!(wrap_secs(20, 2000, 2000.0), 20.0);
        assert_eq!(wrap_secs(10, 2000, 0.0), f64::INFINITY);
    }

    #[test]
    fn steady_state_attenuates_inflow() {
        // Half the bytes die per second of age: g(a) = 2^-a.
        let rates = steady_state(4000.0, &[10, 10], 2000, |age| 0.5f64.powf(age));
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0].inflow_bytes_per_sec, 4000.0);
        assert_eq!(rates[0].wrap_secs, 5.0);
        assert_eq!(rates[0].age_at_head_secs, 5.0);
        // After 5 s only 1/32 of the bytes survive into generation 1.
        assert!((rates[1].inflow_bytes_per_sec - 4000.0 / 32.0).abs() < 1e-9);
        assert!(rates[1].wrap_secs > rates[0].wrap_secs);
    }

    #[test]
    fn zero_inflow_never_wraps() {
        let rates = steady_state(1000.0, &[4, 4], 2000, |_| 0.0);
        assert_eq!(rates[1].inflow_bytes_per_sec, 0.0);
        assert_eq!(rates[1].wrap_secs, f64::INFINITY);
        assert_eq!(rates[1].age_at_head_secs, f64::INFINITY);
    }

    #[test]
    fn last_gen_estimate_includes_gap() {
        // 2 KB/s for 10 s = 20 KB live = 10 blocks of 2000 B, +2 gap +1.
        assert_eq!(estimated_min_last_blocks(2000.0, 10.0, 2000, 2), 13);
        assert_eq!(estimated_min_last_blocks(0.0, 10.0, 2000, 2), 3);
    }
}
