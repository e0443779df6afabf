//! Simulation configuration.
//!
//! §3 of the paper fixes several parameters. The ones no experiment varies
//! are constants ([`BLOCK_PAYLOAD_BYTES`], [`LOG_WRITE_LATENCY`],
//! [`TX_RECORD_SIZE`]); the rest are defaults this module validates
//! overrides of. Three groups:
//!
//! * [`DbConfig`] — database-wide constants (object count);
//! * [`LogConfig`] — log geometry (blocks per generation, recirculation,
//!   buffer count, gap threshold, head policy);
//! * [`FlushConfig`] — the stable-database disk array used for flushing.

use elog_sim::SimTime;
use std::fmt;

/// Usable payload bytes per log block. Paper: 2000 (2048 minus 48
/// reserved).
pub const BLOCK_PAYLOAD_BYTES: u32 = 2000;

/// Time to transfer one buffer to the log device. Paper: τ_DiskWrite =
/// 15 ms.
pub const LOG_WRITE_LATENCY: SimTime = SimTime::from_millis(15);

/// Accounting size of BEGIN/COMMIT/ABORT records. Paper: 8 bytes. (The
/// codec's wire image of a transaction record is larger; this is the
/// size the log's space accounting charges.)
pub const TX_RECORD_SIZE: u32 = 8;

/// Database-wide constants.
#[derive(Clone, Debug, PartialEq)]
pub struct DbConfig {
    /// Total number of objects; oids are drawn from `[0, num_objects)`.
    /// Paper: NUM_OBJECTS = 10^7.
    pub num_objects: u64,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            num_objects: 10_000_000,
        }
    }
}

/// What to do when a *committed but unflushed* data record reaches the head
/// of a generation (§2.2 discusses both options).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum UnflushedAtHead {
    /// Keep the record in the log by forwarding/recirculating it until the
    /// flush happens. This is the behaviour the paper settles on ("we can
    /// keep an unflushed update's record in the log by forwarding or
    /// recirculating it until the update is eventually flushed") and the
    /// default here.
    #[default]
    Forward,
    /// Flush the update immediately with a random I/O, as in the naive
    /// scheme first described. Kept for ablation experiments.
    ForceFlush,
}

/// Log geometry.
#[derive(Clone, Debug, PartialEq)]
pub struct LogConfig {
    /// Capacity of each generation, youngest first, in blocks.
    /// A single entry models the FW baseline's lone log.
    pub generation_blocks: Vec<u32>,
    /// Whether records recirculate in the last generation (§2.1). Off in the
    /// Figure 4–6 experiments, on in Figure 7 and the scarce-flush study.
    pub recirculation: bool,
    /// Minimum free blocks per generation (threshold k). Paper: k = 2.
    pub gap_blocks: u32,
    /// Block buffers per generation. Paper: 4.
    pub buffers_per_generation: u32,
    /// Policy for committed-unflushed records reaching a head.
    pub unflushed_at_head: UnflushedAtHead,
    /// Backward gathering (§2.2): when forwarding, consume additional
    /// durable head blocks to fill the outgoing buffer before writing it.
    /// On (the paper's behaviour) forwarding writes are nearly full
    /// blocks; off, each head advance emits a small immediate write.
    /// Exposed for the ablation study.
    pub gather_to_fill: bool,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            generation_blocks: vec![18, 16],
            recirculation: false,
            gap_blocks: 2,
            buffers_per_generation: 4,
            unflushed_at_head: UnflushedAtHead::Forward,
            gather_to_fill: true,
        }
    }
}

impl LogConfig {
    /// Number of generations.
    pub fn generations(&self) -> usize {
        self.generation_blocks.len()
    }

    /// Total configured log capacity in blocks.
    pub fn total_blocks(&self) -> u64 {
        self.generation_blocks.iter().map(|&b| u64::from(b)).sum()
    }

    /// A FW-baseline geometry: one generation, no recirculation.
    pub fn firewall(blocks: u32) -> Self {
        LogConfig {
            generation_blocks: vec![blocks],
            recirculation: false,
            ..LogConfig::default()
        }
    }

    /// True for the FW baseline's geometry (see [`LogConfig::firewall`]):
    /// one generation, recirculation off. The technique is the geometry,
    /// so this is what prices the log manager's memory.
    pub fn is_firewall(&self) -> bool {
        self.generation_blocks.len() == 1 && !self.recirculation
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.generation_blocks.is_empty() {
            return Err(ConfigError::new("at least one generation is required"));
        }
        if self.generation_blocks.len() > 64 {
            return Err(ConfigError::new(
                "more than 64 generations is not supported",
            ));
        }
        if self.buffers_per_generation < 2 {
            return Err(ConfigError::new(
                "need at least 2 buffers per generation (one filling, one writing)",
            ));
        }
        for (i, &blocks) in self.generation_blocks.iter().enumerate() {
            // Every generation must be able to hold the k-block gap plus at
            // least one block of content.
            if blocks <= self.gap_blocks {
                return Err(ConfigError::new(format!(
                    "generation {i} has {blocks} blocks; needs more than the gap threshold ({})",
                    self.gap_blocks
                )));
            }
        }
        Ok(())
    }
}

/// The stable-database disk array that services flushes (§3).
#[derive(Clone, Debug, PartialEq)]
pub struct FlushConfig {
    /// Number of independent drives. Paper: 10.
    pub drives: u32,
    /// Time to write one object to a drive. Paper: 25 ms (45 ms in the
    /// scarce-bandwidth experiment).
    pub transfer_time: SimTime,
}

impl Default for FlushConfig {
    fn default() -> Self {
        FlushConfig {
            drives: 10,
            transfer_time: SimTime::from_millis(25),
        }
    }
}

impl FlushConfig {
    /// Aggregate service rate in flushes per second.
    pub fn max_flush_rate(&self) -> f64 {
        let per_drive = 1.0 / self.transfer_time.as_secs_f64();
        per_drive * f64::from(self.drives)
    }

    /// Validates drive count and transfer time.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.drives == 0 {
            return Err(ConfigError::new("at least one flush drive is required"));
        }
        if self.transfer_time == SimTime::ZERO {
            return Err(ConfigError::new("flush transfer time must be positive"));
        }
        Ok(())
    }
}

/// A configuration-validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    fn new(msg: impl Into<String>) -> Self {
        ConfigError(msg.into())
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(DbConfig::default().num_objects, 10_000_000);
        assert_eq!(TX_RECORD_SIZE, 8);
        assert_eq!(BLOCK_PAYLOAD_BYTES, 2000);
        assert_eq!(LOG_WRITE_LATENCY, SimTime::from_millis(15));

        let log = LogConfig::default();
        assert_eq!(log.gap_blocks, 2);
        assert_eq!(log.buffers_per_generation, 4);
        assert!(log.validate().is_ok());

        let flush = FlushConfig::default();
        assert_eq!(flush.drives, 10);
        // 10 drives at 25 ms each = 400 flushes/s (paper §4).
        assert!((flush.max_flush_rate() - 400.0).abs() < 1e-9);
        assert!(flush.validate().is_ok());
    }

    #[test]
    fn scarce_flush_rate() {
        let f = FlushConfig {
            drives: 10,
            transfer_time: SimTime::from_millis(45),
        };
        // Paper: "10 disk drives together provide a maximum bandwidth of
        // 222 writes per sec."
        assert!((f.max_flush_rate() - 222.22).abs() < 0.1);
    }

    #[test]
    fn firewall_geometry() {
        let fw = LogConfig::firewall(123);
        assert_eq!(fw.generations(), 1);
        assert_eq!(fw.total_blocks(), 123);
        assert!(!fw.recirculation && fw.is_firewall());
        assert!(!LogConfig::default().is_firewall(), "two generations");
        let recirculating = LogConfig {
            recirculation: true,
            ..fw
        };
        assert!(
            !recirculating.is_firewall(),
            "one generation, recirculating"
        );
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut c = LogConfig::default();
        c.generation_blocks.clear();
        assert!(c.validate().is_err());

        let c = LogConfig {
            generation_blocks: vec![2, 16],
            ..Default::default()
        };
        assert!(c.validate().is_err(), "gen0 == gap threshold");

        let c = LogConfig {
            buffers_per_generation: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_flush() {
        assert!(FlushConfig {
            drives: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FlushConfig {
            transfer_time: SimTime::ZERO,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn error_displays_reason() {
        let e = LogConfig {
            generation_blocks: vec![],
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(e.to_string().contains("at least one generation"));
    }

    #[test]
    fn total_blocks_sums_generations() {
        let c = LogConfig {
            generation_blocks: vec![18, 16, 8],
            ..Default::default()
        };
        assert_eq!(c.total_blocks(), 42);
        assert_eq!(c.generations(), 3);
    }
}
