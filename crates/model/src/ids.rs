//! Identifiers.
//!
//! The paper accesses the LTT by transaction identifier (tid) and the LOT by
//! object identifier (oid); generations are numbered 0 (youngest) through
//! N−1 (oldest). All three get dedicated newtypes so the type system keeps
//! table keys, object names and queue indices from crossing wires.

use std::fmt;

/// Transaction identifier. Assigned densely from 0 by the workload driver.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Tid(pub u64);

impl Tid {
    /// Raw value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Object identifier in `[0, NUM_OBJECTS)`.
///
/// The paper fixes NUM_OBJECTS = 10^7 and treats oid *difference* as a proxy
/// for on-disk locality in the stable database (§3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Oid(pub u64);

impl Oid {
    /// Raw value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Wraparound distance to `other` within a cyclic range of size `range`.
    ///
    /// §3: "When calculating the difference between two oids, we assume that
    /// the range of integers assigned to their disk drive wraps around."
    #[inline]
    pub fn wrap_distance(self, other: Oid, range: u64) -> u64 {
        debug_assert!(range > 0);
        let a = self.0 % range;
        let b = other.0 % range;
        let d = a.abs_diff(b);
        d.min(range - d)
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Generation index: 0 is the youngest queue, N−1 the oldest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GenId(pub u8);

impl GenId {
    /// Raw index.
    #[inline]
    pub const fn get(self) -> usize {
        self.0 as usize
    }

    /// The next-older generation.
    #[inline]
    pub const fn next(self) -> GenId {
        GenId(self.0 + 1)
    }

    /// True when this is the last (oldest) of `n` generations.
    #[inline]
    pub const fn is_last(self, n: usize) -> bool {
        self.0 as usize + 1 == n
    }
}

impl fmt::Display for GenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Tid(3).to_string(), "t3");
        assert_eq!(Oid(9).to_string(), "o9");
        assert_eq!(GenId(1).to_string(), "g1");
    }

    #[test]
    fn wrap_distance_symmetric() {
        let r = 1_000_000;
        assert_eq!(Oid(10).wrap_distance(Oid(20), r), 10);
        assert_eq!(Oid(20).wrap_distance(Oid(10), r), 10);
    }

    #[test]
    fn wrap_distance_wraps() {
        let r = 100;
        // 5 and 95 are 10 apart going through 0, not 90.
        assert_eq!(Oid(5).wrap_distance(Oid(95), r), 10);
        // Values are first reduced into the drive's local range.
        assert_eq!(Oid(205).wrap_distance(Oid(95), r), 10);
    }

    #[test]
    fn wrap_distance_max_is_half_range() {
        let r = 100;
        assert_eq!(Oid(0).wrap_distance(Oid(50), r), 50);
        assert_eq!(Oid(0).wrap_distance(Oid(51), r), 49);
    }

    #[test]
    fn generation_navigation() {
        let g = GenId(0);
        assert_eq!(g.next(), GenId(1));
        assert!(!g.is_last(2));
        assert!(g.next().is_last(2));
        assert!(GenId(0).is_last(1));
    }
}
