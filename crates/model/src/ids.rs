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
    fn generation_navigation() {
        let g = GenId(0);
        assert_eq!(g.next(), GenId(1));
        assert_eq!(g.next().next().get(), 2);
    }
}
