//! The yardstick: a fixed piece of work, timed beside every pass, that
//! tells how fast the host is running *right now*.
//!
//! The host this benchmark runs on is shared and its speed drifts by tens
//! of per cent over seconds to minutes — process CPU time drifts with
//! wall, so it is the machine, not scheduling (README.md, "Noise"). A raw
//! wall time therefore says as much about the minute it was taken in as
//! about the code. The yardstick shares the minute but not the code: it
//! calls nothing from the crates under test, so a change to them cannot
//! move it, and host seconds ÷ yardstick seconds cancels the drift while
//! keeping every real slowdown.
//!
//! What it does was chosen by measurement (README.md, "The yardstick"):
//! on this host the drift is cache and memory contention from neighbours —
//! an arithmetic loop and a small binary heap barely feel it, a hash table
//! and scattered reads over a few megabytes slow down with the simulator.
//! So the yardstick is those two: insert/remove churn in a 16 k-key hash
//! table (the manager's object and transaction tables) and a random walk
//! over 4 MB.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one yardstick takes on this host in its quiet state (measured
/// at the first baseline). It only fixes the unit: a calibrated time is
/// "seconds on a host where the yardstick takes this long".
pub const NOMINAL_S: f64 = 0.009;

/// `wall` host seconds, measured between two yardstick readings, as
/// seconds on a host where the yardstick takes [`NOMINAL_S`].
pub fn calibrated(wall: f64, yard_before: f64, yard_after: f64) -> f64 {
    wall * NOMINAL_S / ((yard_before + yard_after) / 2.0)
}

const TABLE_KEYS: u64 = 1 << 14;
const TABLE_OPS: usize = 240_000;
const MEM_WORDS: usize = 1 << 19;
const MEM_OPS: usize = 500_000;

/// The yardstick and its preallocated scratch (so timing it never pays
/// for page faults after the first call).
pub struct Yardstick {
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    mem: Vec<u64>,
}

impl Yardstick {
    pub fn new() -> Self {
        let mut y = Yardstick {
            table: HashMap::with_capacity_and_hasher(
                2 * TABLE_KEYS as usize,
                BuildHasherDefault::default(),
            ),
            mem: vec![0; MEM_WORDS],
        };
        y.time(); // touch every page once
        y
    }

    /// Does the fixed work; returns a value that depends on all of it.
    fn work(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut acc = 0u64;

        self.table.clear();
        for _ in 0..TABLE_OPS {
            let key = next() % TABLE_KEYS;
            match self.table.remove(&key) {
                Some(v) => acc = acc.wrapping_add(v),
                None => {
                    self.table.insert(key, acc);
                }
            }
        }

        self.mem.fill(0);
        let mut i = 0usize;
        for _ in 0..MEM_OPS {
            i = (i + next() as usize) % MEM_WORDS;
            self.mem[i] = self.mem[i].wrapping_add(acc);
            acc ^= self.mem[i];
        }
        acc
    }

    /// Host seconds one yardstick takes now.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.work());
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed() {
        let mut y = Yardstick::new();
        let a = y.work();
        assert_eq!(a, y.work(), "same work, same value, whatever ran before");
        assert_eq!(a, Yardstick::new().work());
        assert!(y.time() > 0.0);
    }

    #[test]
    fn calibration_cancels_a_uniform_slowdown() {
        let quiet = calibrated(2.0, NOMINAL_S, NOMINAL_S);
        assert!((quiet - 2.0).abs() < 1e-12, "nominal host: seconds as read");
        let slow = calibrated(2.0 * 1.4, NOMINAL_S * 1.4, NOMINAL_S * 1.4);
        assert!((slow - quiet).abs() < 1e-12);
        let drifting = calibrated(2.4, NOMINAL_S, NOMINAL_S * 1.4);
        assert!((drifting - 2.0).abs() < 1e-12, "the mean of both readings");
    }
}
