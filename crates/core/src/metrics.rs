//! Metrics snapshots.
//!
//! Everything Figures 4–7 and the §4 prose report is derivable from one
//! [`LmMetrics`] capture: configured disk space, per-generation and total
//! log bandwidth, peak memory under the flavour's pricing model, kill
//! counts (the minimum-space search's signal), and flush-locality
//! statistics.

use crate::manager::ElManager;
use crate::types::LmStats;
use elog_sim::SimTime;

/// A point-in-time summary of a log manager run.
#[derive(Clone, Debug)]
pub struct LmMetrics {
    /// Wall-clock span the rates below are computed over.
    pub elapsed: SimTime,
    /// Configured log capacity, total blocks across generations.
    pub total_blocks: u64,
    /// Configured capacity per generation.
    pub per_gen_blocks: Vec<u64>,
    /// Completed log-block writes per generation.
    pub per_gen_writes: Vec<u64>,
    /// Log-block writes per second per generation.
    pub per_gen_write_rate: Vec<f64>,
    /// Total completed log-block writes.
    pub log_writes: u64,
    /// Total log bandwidth in block writes per second (Figure 5/7 metric).
    pub log_write_rate: f64,
    /// Mean payload fill fraction of written blocks, per generation.
    pub per_gen_fill: Vec<Option<f64>>,
    /// Peak bytes under the memory model (Figure 6 metric).
    pub peak_memory_bytes: u64,
    /// Peak LTT entries.
    pub ltt_peak: usize,
    /// Peak LOT entries.
    pub lot_peak: usize,
    /// Completed flushes to the stable database.
    pub flushes: u64,
    /// Mean wraparound oid distance between successive flushes per drive
    /// (the §4 locality statistic), when at least one distance was observed.
    pub mean_seek_distance: Option<f64>,
    /// Flush-array utilisation over `elapsed`.
    pub flush_utilisation: f64,
    /// Flush requests currently backlogged.
    pub flush_backlog: usize,
    /// Copy of the lifetime counters (kills, forwards, drops, …).
    pub stats: LmStats,
}

impl LmMetrics {
    pub(crate) fn capture(lm: &ElManager, now: SimTime) -> Self {
        let elapsed = now.saturating_sub(lm.started_at);
        let n = lm.gens.len();
        let per_gen_blocks: Vec<u64> = lm.gens.iter().map(|g| g.ring.capacity()).collect();
        let per_gen_writes: Vec<u64> = (0..n).map(|g| lm.device.stats(g).writes).collect();
        let per_gen_write_rate: Vec<f64> =
            (0..n).map(|g| lm.device.write_rate(g, elapsed)).collect();
        let per_gen_fill: Vec<Option<f64>> = (0..n).map(|g| lm.device.mean_fill(g)).collect();
        LmMetrics {
            elapsed,
            total_blocks: per_gen_blocks.iter().sum(),
            per_gen_blocks,
            log_writes: per_gen_writes.iter().sum(),
            per_gen_writes,
            log_write_rate: lm.device.total_write_rate(elapsed),
            per_gen_write_rate,
            per_gen_fill,
            peak_memory_bytes: lm.peak_memory,
            ltt_peak: lm.ltt.peak_len(),
            lot_peak: lm.lot.peak_len(),
            flushes: lm.flush.total_flushes(),
            mean_seek_distance: lm.flush.mean_seek_distance(),
            flush_utilisation: lm.flush.utilisation(elapsed),
            flush_backlog: lm.flush.total_pending(),
            stats: lm.stats.clone(),
        }
    }
}
