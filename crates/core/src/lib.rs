#![warn(missing_docs)]

//! Ephemeral Logging — a reproduction of Keen & Dally, *Performance
//! Evaluation of Ephemeral Logging* (SIGMOD 1993).
//!
//! Ephemeral Logging (EL) manages a database log as a chain of fixed-size
//! FIFO *generations* on disk. New records enter generation 0; records that
//! must be retained are forwarded from the head of generation i to the tail
//! of generation i+1 (or recirculated within the last generation), while
//! committed updates are continuously flushed to a stable database so their
//! records become garbage in place. The result: no checkpoints, no
//! firewall, and far less disk for workloads where most transactions are
//! short and a few are long.
//!
//! The crate provides:
//!
//! * [`ElManager`] — the log manager, configurable as EL (any number of
//!   generations, recirculation on/off) or as the traditional firewall
//!   (FW) baseline (one generation, no recirculation, System-R-style
//!   kills);
//! * the in-RAM bookkeeping structures of §2: the cell arena with its
//!   circular doubly-linked lists ([`cell`]), the Logged Object Table
//!   ([`lot`]) and the Logged Transaction Table ([`ltt`]);
//! * the §6 lifetime-hint placement ([`ElManager::begin_in`]);
//! * metrics matching the paper's evaluation criteria ([`metrics`]).
//!
//! # Quickstart
//!
//! ```
//! use elog_core::{ElManager, LmTimer};
//! use elog_model::{FlushConfig, LogConfig, Oid, Tid};
//! use elog_sim::SimTime;
//!
//! let log = LogConfig { generation_blocks: vec![18, 16], ..LogConfig::default() };
//! let mut lm = ElManager::ephemeral(log, FlushConfig::default());
//!
//! let t0 = SimTime::ZERO;
//! let mut fx = lm.begin(t0, Tid(0));
//! fx.merge(lm.write_data(t0 + SimTime::from_millis(500), Tid(0), Oid(42), 1, 100));
//! fx.merge(lm.commit_request(t0 + SimTime::from_secs(1), Tid(0)));
//! // Drive the returned timers through your event loop; the commit is
//! // acknowledged when its buffer's write completes.
//! # let _ = fx;
//! ```

pub mod adaptive;
pub mod advance;
pub mod append;
pub mod cell;
pub mod cert;
pub mod host;
pub mod inlinevec;
pub mod lot;
pub mod ltt;
pub mod manager;
pub mod metrics;
pub mod tenant;
pub mod traits;
pub mod types;

pub use adaptive::{AdaptiveController, AdaptiveStats};
pub use cert::{CertVerdict, ConsumptionCert};
pub use host::SimpleHost;
pub use manager::ElManager;
pub use metrics::LmMetrics;
pub use tenant::{TenantCounters, TenantLedger};
pub use traits::LogManager;
pub use types::{
    Effects, ElConfig, LmStats, LmTimer, EL_BYTES_PER_OBJECT, EL_BYTES_PER_TXN, FW_BYTES_PER_TXN,
};
