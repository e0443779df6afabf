#![warn(missing_docs)]

//! Transaction workload generation (§3 of the paper, Figure 3).
//!
//! The user of the paper's simulator specifies "an arbitrary number of
//! different transaction types and their probability distribution function
//! (pdf). For each type of transaction, the user states the probability of
//! occurrence, the duration of execution, the number of data log records
//! written and the size of each data log record."
//!
//! The lifecycle of one transaction (Figure 3):
//!
//! ```text
//! t0           t1      ...      t2   t3      t4
//! BEGIN        data1         dataN   COMMIT  ack
//! |<------------- T = duration ----->|
//!                        |<-- ε -->|          (ε = 1 ms, fixed)
//! ```
//!
//! Data records are written at equal spacings of (T−ε)/N after `t0`; the
//! COMMIT record is written T after `t0`; the transaction then waits for the
//! group-commit acknowledgement, which arrives when the buffer holding its
//! COMMIT record becomes durable.
//!
//! Modules:
//! * [`spec`] — transaction types and mixes, including the paper's standard
//!   two-type mix;
//! * [`arrival`] — deterministic fixed-interval arrivals (the paper's
//!   choice) plus a Poisson extension;
//! * [`oidpick`] — uniform oid selection "subject to the constraint that
//!   the number has not already been chosen for an update by a transaction
//!   which is still active";
//! * [`driver`] — the event-producing driver gluing it all together;
//! * [`trace`] — flat capture/replay of the workload-visible event stream,
//!   so geometry probes skip the RNG-driven generator entirely.

pub mod arrival;
pub mod driver;
pub mod oidpick;
pub mod spec;
pub mod trace;

pub use arrival::{ArrivalProcess, MAX_RATE_TPS};
pub use driver::{WorkloadDriver, WorkloadEvent, WorkloadStats};
pub use oidpick::OidPicker;
pub use spec::{Phase, PhaseSchedule, TxMix, TxType, EPSILON};
pub use trace::WorkloadTrace;
