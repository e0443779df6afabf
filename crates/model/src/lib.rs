#![warn(missing_docs)]

//! Shared vocabulary of the ephemeral-logging reproduction.
//!
//! This crate defines the objects every other crate talks about:
//!
//! * identifiers ([`Tid`], [`Oid`], [`GenId`]) and versions,
//! * the log-record model of the paper (§2.1: *data* records chronicling
//!   object updates and *transaction* records marking BEGIN/COMMIT/ABORT),
//! * the fixed simulation parameters of §3 ([`config`]),
//! * the [`stabledb`]: the version-stamped stable database that committed
//!   updates are flushed to, plus a committed-state oracle used to verify
//!   recovery end-to-end.

pub mod config;
pub mod ids;
pub mod record;
pub mod stabledb;

pub use config::{
    DbConfig, FlushConfig, LogConfig, BLOCK_PAYLOAD_BYTES, LOG_WRITE_LATENCY, TX_RECORD_SIZE,
};
pub use ids::{GenId, Oid, Tid};
pub use record::{payload_matches, synth_payload_extend, DataRecord, LogRecord, TxMark, TxRecord};
pub use stabledb::{CommittedOracle, InstallLog, ObjectVersion, StableDb};
