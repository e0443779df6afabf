#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! Discrete-event simulation kernel for the `elog` project.
//!
//! This crate rebuilds the substrate of the SIGMOD '93 ephemeral-logging
//! evaluation: an event-driven simulator with a microsecond virtual clock, a
//! stable priority event queue, deterministic seeded random
//! streams, statistics accumulators (counters, time-weighted gauges,
//! histograms), and the seeded case runner the workspace's randomized tests
//! share.
//!
//! The kernel is deliberately single-threaded: runs are deterministic for a
//! given seed, which the experiment harness relies on when searching for
//! minimum disk-space configurations.
//!
//! # Example
//!
//! ```
//! use elog_sim::{Engine, EventQueue, SimTime, Simulate};
//!
//! struct Countdown(u32);
//!
//! impl Simulate for Countdown {
//!     type Event = ();
//!     fn handle(&mut self, now: SimTime, _ev: (), q: &mut EventQueue<()>) {
//!         if self.0 > 0 {
//!             self.0 -= 1;
//!             q.schedule(now + SimTime::from_millis(10), ());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Countdown(3));
//! engine.queue_mut().schedule(SimTime::ZERO, ());
//! let end = engine.run_to_completion();
//! assert_eq!(end, SimTime::from_millis(30));
//! ```

pub mod cases;
pub mod engine;
pub mod event;
pub mod fxhash;
pub mod perfstats;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Engine, Simulate};
pub use event::EventQueue;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use perfstats::{CountingAlloc, PerfStats, QueueStats, SearchStats};
pub use rng::{splitmix64, SimRng};
pub use stats::Histogram;
pub use time::SimTime;
