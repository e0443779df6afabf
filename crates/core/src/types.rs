//! Shared types of the log-manager API.

use elog_model::config::ConfigError;
use elog_model::{DbConfig, FlushConfig, LogConfig, Tid};
use elog_sim::SimTime;

/// Timers the log manager asks its host to schedule. When one fires, pass
/// it back through [`crate::ElManager::handle_timer`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LmTimer {
    /// A log-buffer transfer completes.
    BufferWrite {
        /// Generation whose buffer was written.
        gen: usize,
        /// Ticket from the write issue (internal correlation).
        write_id: u64,
    },
    /// A flush-drive transfer completes.
    FlushDone {
        /// Index of the drive.
        drive: usize,
    },
    /// Group-commit timeout for an open buffer (only armed when
    /// [`ElConfig::group_commit_timeout`] is set).
    GroupCommitTimeout {
        /// Generation of the buffer.
        gen: usize,
        /// Block sequence the buffer was allocated at; stale timeouts
        /// (buffer already sealed) are ignored by comparing this.
        block_seq: u64,
    },
}

/// Side effects of one log-manager call: timers to schedule and
/// notifications to deliver.
#[derive(Debug, Default)]
pub struct Effects {
    /// `(fire_at, timer)` pairs the host must schedule.
    pub timers: Vec<(SimTime, LmTimer)>,
    /// Transactions whose COMMIT became durable (t4 acknowledgements).
    pub acks: Vec<Tid>,
    /// Transactions the log manager killed for space (the host must stop
    /// driving them).
    pub kills: Vec<Tid>,
}

impl Effects {
    /// True when nothing needs doing.
    pub fn is_empty(&self) -> bool {
        self.timers.is_empty() && self.acks.is_empty() && self.kills.is_empty()
    }

    /// Appends another effect set.
    pub fn merge(&mut self, other: Effects) {
        self.timers.extend(other.timers);
        self.acks.extend(other.acks);
        self.kills.extend(other.kills);
    }

    /// Empties all three lists, keeping their capacity (for reuse via
    /// [`crate::LogManager::recycle`]).
    pub fn clear(&mut self) {
        self.timers.clear();
        self.acks.clear();
        self.kills.clear();
    }
}

/// Paper constant (§4): "We estimate that the FW method requires 22 bytes
/// for each transaction … in the system." Charged when the geometry is the
/// firewall's ([`LogConfig::is_firewall`]).
pub const FW_BYTES_PER_TXN: u64 = 22;
/// Paper constant (§4): "The EL method requires 40 bytes for each
/// transaction and 40 bytes for each updated (but unflushed) object" —
/// per LTT entry.
pub const EL_BYTES_PER_TXN: u64 = 40;
/// Paper constant: EL bytes per LOT entry (see [`EL_BYTES_PER_TXN`]).
pub const EL_BYTES_PER_OBJECT: u64 = 40;

/// Full log-manager configuration.
#[derive(Clone, Debug)]
pub struct ElConfig {
    /// Database constants.
    pub db: DbConfig,
    /// Log geometry.
    pub log: LogConfig,
    /// Flush-array geometry and timing.
    pub flush: FlushConfig,
    /// Optional upper bound on how long a non-empty buffer may stay open
    /// before being force-written. The paper's group commit has no timeout
    /// (arrival rates keep buffers filling); recovery-focused deployments
    /// set one to bound commit latency.
    pub group_commit_timeout: Option<SimTime>,
}

impl ElConfig {
    /// An EL configuration with the given geometry and paper defaults.
    pub fn ephemeral(log: LogConfig, flush: FlushConfig) -> Self {
        ElConfig {
            db: DbConfig::default(),
            log,
            flush,
            group_commit_timeout: None,
        }
    }

    /// The FW baseline: a single generation of `blocks`, no recirculation
    /// ([`LogConfig::firewall`]), which the manager prices as FW.
    pub fn firewall(blocks: u32, flush: FlushConfig) -> Self {
        Self::ephemeral(LogConfig::firewall(blocks), flush)
    }

    /// Validates all sub-configurations.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.log.validate()?;
        self.flush.validate()?;
        Ok(())
    }
}

/// Lifetime counters of one log-manager run.
#[derive(Clone, Debug, Default)]
pub struct LmStats {
    /// Transactions killed for space reasons.
    pub kills: u64,
    /// Client-initiated aborts.
    pub aborts: u64,
    /// COMMIT acknowledgements delivered.
    pub acks: u64,
    /// Records dropped from the log while their flush was still pending
    /// (only possible in no-recirculation/firewall modes under flush
    /// backlog; a crash in that window would lose the update). Zero in all
    /// paper-parameter runs — asserted by the experiment harness.
    pub unsafe_drops: u64,
    /// Tail allocations that had to reuse a block whose forwarded copy was
    /// not yet durable. Zero unless the geometry is adversarially small.
    pub durability_violations: u64,
    /// Records forwarded from one generation to the next.
    pub forwarded_records: u64,
    /// Accounting bytes forwarded.
    pub forwarded_bytes: u64,
    /// Records recirculated within the last generation.
    pub recirculated_records: u64,
    /// Accounting bytes recirculated.
    pub recirculated_bytes: u64,
    /// Flush requests expedited by the ForceFlush head policy.
    pub forced_flushes: u64,
    /// Writes from unknown/killed transactions that were ignored.
    pub ignored_writes: u64,
    /// Buffer-pool overcommits (more concurrent writes than configured
    /// buffers; the paper's 4-buffer pool never overcommits at its rates).
    pub buffer_stalls: u64,
}
