//! A vector whose first `N` elements live in the value itself.
//!
//! LOT and LTT entries hold a handful of elements each, yet under a flush
//! backlog hundreds of thousands are alive at once: a heap `Vec` per entry
//! was an allocation per entry that no spare pool could recycle while the
//! tables only grow. Here the common case allocates nothing.

use std::ops::Deref;

/// Up to `N` elements in place; beyond that, all of them in a heap `Vec`.
/// Reads go through the slice it derefs to.
#[derive(Clone, Debug)]
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

#[derive(Clone, Debug)]
enum Repr<T, const N: usize> {
    /// `buf[..len]` are the elements; the rest is filler.
    Inline { len: usize, buf: [T; N] },
    /// Stays spilled however short it gets: the storage is already paid.
    Spilled(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec(Repr::Inline {
            len: 0,
            buf: [T::default(); N],
        })
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len],
            Repr::Spilled(v) => v,
        }
    }
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// Appends `x`.
    pub fn push(&mut self, x: T) {
        self.insert(self.len(), x);
    }

    /// Inserts `x` at `at`, shifting the tail right. Panics if `at > len`.
    pub fn insert(&mut self, at: usize, x: T) {
        match &mut self.0 {
            Repr::Inline { len, buf } if *len < N => {
                buf.copy_within(at..*len, at + 1);
                buf[at] = x;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * N);
                v.extend_from_slice(buf);
                v.insert(at, x);
                self.0 = Repr::Spilled(v);
            }
            Repr::Spilled(v) => v.insert(at, x),
        }
    }

    /// Keeps the elements `keep` accepts, visiting each once, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let mut kept = 0;
                for i in 0..*len {
                    if keep(&buf[i]) {
                        buf[kept] = buf[i];
                        kept += 1;
                    }
                }
                *len = kept;
            }
            Repr::Spilled(v) => v.retain(keep),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_sim::{cases, SimRng};

    /// Random push / insert / retain against `Vec`. The length hovers
    /// around `N`: it crosses the spill boundary upwards and, spilled,
    /// comes back down through it, several times a case.
    fn run_case<const N: usize>(rng: &mut SimRng) {
        let mut got = InlineVec::<u64, N>::default();
        let mut want = Vec::new();
        let (mut grew, mut shrank) = (false, false);
        for step in 0..400 {
            let x = rng.next_u64() % 16;
            let at = rng.next_u64() as usize % (want.len() + 1);
            // Grow while short, shrink while long: a walk around N.
            let grow = want.len() <= N && !rng.next_u64().is_multiple_of(4);
            match rng.next_u64() % 16 {
                0..=6 if grow => {
                    got.push(x);
                    want.push(x);
                }
                _ if grow => {
                    got.insert(at, x);
                    want.insert(at, x);
                }
                // One value out (as `Ltt::remove_oid` does), a residue
                // class out, or everything out.
                shrink => {
                    let keep = |y: u64| match shrink {
                        0..=9 => y != x,
                        10..=14 => y % 3 != x % 3,
                        _ => false,
                    };
                    let mut seen = Vec::new();
                    got.retain(|&y| {
                        seen.push(y);
                        keep(y)
                    });
                    assert_eq!(seen, want, "retain visits every element once, in order");
                    want.retain(|&y| keep(y));
                    if shrink == 15 {
                        // As a fresh entry would be: inline again.
                        got = InlineVec::default();
                    }
                }
            }
            assert_eq!(&got[..], &want[..], "step {step}");
            grew |= want.len() > N;
            shrank |= grew && want.len() < N;
        }
        assert!(grew && shrank, "the case never crossed N = {N} both ways");
    }

    #[test]
    fn matches_vec_across_the_spill_boundary() {
        cases::run("inlinevec::tests::matches_vec", 200, |rng| {
            run_case::<1>(rng);
            run_case::<4>(rng);
        });
    }
}
