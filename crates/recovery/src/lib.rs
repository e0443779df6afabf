#![warn(missing_docs)]

//! Single-pass crash recovery for ephemeral logs.
//!
//! The paper (§4) argues that once EL shrinks the log to a few dozen
//! blocks, "the traditional two pass (undo, redo) recovery method … is no
//! longer appropriate. Now, we can read the entire log into memory and
//! perform recovery with a single pass. Recovery in less than a second may
//! be feasible." The details are in the companion report it cites (\[9\],
//! Keen, *Logging and Recovery in a Highly Concurrent Stable Object
//! Store*); this crate implements the algorithm those constraints imply:
//!
//! 1. **Scan** the bytes of every readable block of every generation
//!    ([`scan_bytes`], the only scan: torn blocks are skipped).
//!    Recirculation destroys physical ordering, stale copies of forwarded
//!    records survive until overwritten, and consumed blocks remain
//!    readable — so the scan takes everything and relies on timestamps
//!    (§2.1: "We assume that all log records are timestamped, so that the
//!    recovery manager can establish the temporal order"). Each record is
//!    read once: the scan files every distinct data copy under its object,
//!    dropping duplicate copies as it goes.
//! 2. **Redo** in one walk per object ([`redo`]): a transaction is
//!    committed iff a durable COMMIT record exists; for each object the
//!    newest committed update wins, and it is applied only if newer than
//!    the stable database's version stamp (the paper's §6 version-number
//!    timestamp assumption). REDO-only rules mean there is nothing to
//!    undo. The winners overlay the stable table ([`Versions`]), which is
//!    shared, not copied.
//! 3. **Verify** ([`verify`]): compare a reconstruction against the
//!    committed-state oracle maintained outside the crash boundary.
//!
//! [`timing`] models the headline claim: recovery time proportional to log
//! size, parameterised by device read bandwidth.

pub mod redo;
pub mod scan;
pub mod timing;
pub mod verify;

pub use redo::{recover, RecoveredState, Versions};
pub use scan::{scan_bytes, LogImage, ScanStats};
pub use timing::{estimate_recovery_time, RecoveryTimeModel};
pub use verify::{check_against_oracle, VerifyReport};
