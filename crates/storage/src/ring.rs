//! The circular block array backing one generation.
//!
//! §2.1: "The disk space within each queue is managed as a circular array;
//! the head and tail pointers rotate through the positions of the array so
//! that records conceptually move from tail to head but physically they
//! remain in the same place on disk."
//!
//! Head and tail are monotone `u64` *block sequence numbers*; a block's
//! physical slot is `seq % capacity`. The window `[head, tail)` is the live
//! span: `tail` counts blocks *allocated* (their position promised to
//! buffered records, per §2.3 "Even though the LM has not yet written the
//! buffer to disk, it knows the position of the disk block to which it will
//! eventually be written"), and `head` counts blocks consumed. Allocated
//! blocks become *installed* (physically present) when their device write
//! completes; stale contents in a slot survive until the slot is
//! reallocated and rewritten, which is why a recovery scan reads every slot
//! and filters by block sequence and record state.

use crate::block::{Block, BlockAddr};
use elog_model::GenId;

/// Circular array of `capacity` block slots for one generation.
#[derive(Debug)]
pub struct BlockRing {
    gen: GenId,
    capacity: u64,
    /// Next block sequence number to allocate at the tail.
    tail: u64,
    /// Next block sequence number to consume at the head.
    head: u64,
    /// Physical slots; `slots[seq % capacity]` holds the most recently
    /// *installed* block for that slot (possibly one the head has already
    /// consumed but that has not been overwritten).
    slots: Vec<Option<Block>>,
}

impl BlockRing {
    /// Creates an empty ring.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(gen: GenId, capacity: u64) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        BlockRing {
            gen,
            capacity,
            tail: 0,
            head: 0,
            slots: vec![None; capacity as usize],
        }
    }

    /// The generation this ring backs.
    pub fn gen(&self) -> GenId {
        self.gen
    }

    /// Total slots.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Sequence number of the next block to be consumed.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Sequence number of the next block to be allocated.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Blocks currently in the live window (allocated, not yet consumed).
    pub fn used_blocks(&self) -> u64 {
        self.tail - self.head
    }

    /// Slots available for new allocations.
    pub fn free_blocks(&self) -> u64 {
        self.capacity - self.used_blocks()
    }

    /// Rebinds the ring to a new capacity, preserving its contents.
    ///
    /// Every physically present block is remapped to its slot under the
    /// new capacity (`seq % capacity`). When two surface blocks contend
    /// for one new slot — possible only for blocks the head has already
    /// consumed, since the live window fits by the precondition below —
    /// the newer sequence number wins, exactly as overwriting would have
    /// resolved it. Head and tail sequence numbers are untouched, so
    /// in-flight writes self-correct: [`BlockRing::install`] computes the
    /// slot from the capacity current at install time.
    ///
    /// Before the head has ever advanced the remap is the identity (every
    /// live `seq < capacity`); the general remap is what lets the adaptive
    /// controller (`core::adaptive`) grow or shrink a generation mid-run.
    ///
    /// # Panics
    /// Panics when the live window `[head, tail)` would not fit the new
    /// capacity, or when `capacity` is zero.
    pub fn set_capacity(&mut self, capacity: u64) {
        assert!(capacity > 0, "ring capacity must be positive");
        assert!(
            self.used_blocks() <= capacity,
            "cannot resize to {capacity} below {} live blocks",
            self.used_blocks()
        );
        if capacity == self.capacity {
            return;
        }
        let old = std::mem::replace(&mut self.slots, vec![None; capacity as usize]);
        let mut present: Vec<Block> = old.into_iter().flatten().collect();
        // Ascending by seq, so a later (newer) block overwrites any older
        // one contesting the same new slot.
        present.sort_unstable_by_key(|b| b.addr.seq);
        self.capacity = capacity;
        for b in present {
            let slot = (b.addr.seq % capacity) as usize;
            self.slots[slot] = Some(b);
        }
    }

    /// Allocates the next tail block, returning its address.
    ///
    /// Returns `None` when the ring is full — the caller must first advance
    /// the head (forwarding/flushing/discarding records) or declare the
    /// generation wedged.
    pub fn allocate_tail(&mut self) -> Option<BlockAddr> {
        if self.free_blocks() == 0 {
            return None;
        }
        let addr = BlockAddr {
            gen: self.gen,
            seq: self.tail,
        };
        self.tail += 1;
        Some(addr)
    }

    /// Installs a durable block into its slot (device write completed).
    ///
    /// Returns the block displaced from storage, whose buffers the caller
    /// may recycle: normally the slot's previous occupant, or the incoming
    /// block itself when the slot has already been reallocated to a newer
    /// block — possible only when the tail laps an in-flight write, which
    /// the log manager counts as a durability violation. Whether the
    /// install took effect is observable via [`BlockRing::block`].
    ///
    /// # Panics
    /// Panics if the block was never allocated, or belongs to another ring.
    pub fn install(&mut self, block: Block) -> Option<Block> {
        assert_eq!(
            block.addr.gen, self.gen,
            "block belongs to another generation"
        );
        assert!(
            block.addr.seq < self.tail,
            "installing unallocated block {}",
            block.addr.seq
        );
        if block.addr.seq + self.capacity < self.tail {
            return Some(block); // lapped: the slot belongs to a newer allocation
        }
        let slot = block.addr.slot(self.capacity) as usize;
        match &self.slots[slot] {
            Some(existing) if existing.addr.seq > block.addr.seq => Some(block),
            _ => self.slots[slot].replace(block),
        }
    }

    /// Consumes the block at the head, returning its sequence number.
    ///
    /// Returns `None` when the window is empty (head == tail). The slot's
    /// contents are left in place — they are "on disk" until overwritten.
    pub fn advance_head(&mut self) -> Option<u64> {
        if self.head == self.tail {
            return None;
        }
        let seq = self.head;
        self.head += 1;
        Some(seq)
    }

    /// The installed block with sequence `seq`, if it is still physically
    /// present (not yet overwritten by a later allocation of its slot).
    pub fn block(&self, seq: u64) -> Option<&Block> {
        let slot = (seq % self.capacity) as usize;
        self.slots[slot].as_ref().filter(|b| b.addr.seq == seq)
    }

    /// Iterates over every physically present block, in slot order.
    ///
    /// This is the crash-recovery view: everything readable from the disk
    /// surface, including blocks the head has passed.
    pub fn surface(&self) -> impl Iterator<Item = &Block> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Iterates over the live window `[head, tail)`, oldest first, yielding
    /// installed blocks only (allocated-but-unwritten gaps are skipped).
    pub fn live(&self) -> impl Iterator<Item = &Block> + '_ {
        (self.head..self.tail).filter_map(move |seq| self.block(seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_sim::SimTime;

    fn blk(gen: GenId, seq: u64) -> Block {
        let mut b = Block::new(BlockAddr { gen, seq });
        b.written_at = SimTime::from_millis(seq);
        b
    }

    #[test]
    fn allocate_until_full() {
        let mut r = BlockRing::new(GenId(0), 3);
        assert_eq!(r.free_blocks(), 3);
        for seq in 0..3 {
            let a = r.allocate_tail().unwrap();
            assert_eq!(a.seq, seq);
        }
        assert_eq!(r.allocate_tail(), None);
        assert_eq!(r.used_blocks(), 3);
    }

    #[test]
    fn head_advance_frees_slots() {
        let mut r = BlockRing::new(GenId(0), 2);
        r.allocate_tail().unwrap();
        r.allocate_tail().unwrap();
        assert_eq!(r.advance_head(), Some(0));
        assert_eq!(r.free_blocks(), 1);
        let a = r.allocate_tail().unwrap();
        assert_eq!(a.seq, 2);
        assert_eq!(a.slot(2), 0); // reuses slot 0
    }

    #[test]
    fn advance_empty_window() {
        let mut r = BlockRing::new(GenId(0), 2);
        assert_eq!(r.advance_head(), None);
    }

    #[test]
    fn install_and_lookup() {
        let mut r = BlockRing::new(GenId(0), 2);
        let a = r.allocate_tail().unwrap();
        let _ = r.install(blk(GenId(0), a.seq));
        assert!(r.block(0).is_some());
        assert!(r.block(1).is_none()); // allocated? no — never allocated
    }

    #[test]
    fn overwritten_block_disappears() {
        let mut r = BlockRing::new(GenId(0), 2);
        r.allocate_tail().unwrap();
        assert!(r.install(blk(GenId(0), 0)).is_none(), "empty slot");
        r.allocate_tail().unwrap();
        let _ = r.install(blk(GenId(0), 1));
        r.advance_head();
        r.allocate_tail().unwrap(); // seq 2, slot 0
        let displaced = r.install(blk(GenId(0), 2));
        assert_eq!(
            displaced.map(|b| b.addr.seq),
            Some(0),
            "overwritten block handed back for recycling"
        );
        assert!(r.block(0).is_none(), "seq 0 overwritten by seq 2");
        assert!(r.block(2).is_some());
    }

    #[test]
    fn consumed_but_not_overwritten_stays_on_surface() {
        let mut r = BlockRing::new(GenId(0), 3);
        r.allocate_tail().unwrap();
        let _ = r.install(blk(GenId(0), 0));
        r.advance_head(); // consumed
        assert!(r.block(0).is_some(), "still physically present");
        assert_eq!(r.surface().count(), 1);
        assert_eq!(r.live().count(), 0, "not in the live window");
    }

    #[test]
    fn live_window_skips_uninstalled() {
        let mut r = BlockRing::new(GenId(0), 4);
        r.allocate_tail().unwrap();
        r.allocate_tail().unwrap();
        let _ = r.install(blk(GenId(0), 1)); // seq 0 allocated but in flight
        let live: Vec<u64> = r.live().map(|b| b.addr.seq).collect();
        assert_eq!(live, vec![1]);
    }

    #[test]
    #[should_panic]
    fn install_unallocated_panics() {
        let mut r = BlockRing::new(GenId(0), 2);
        let _ = r.install(blk(GenId(0), 5));
    }

    #[test]
    #[should_panic]
    fn install_wrong_generation_panics() {
        let mut r = BlockRing::new(GenId(0), 2);
        r.allocate_tail().unwrap();
        let _ = r.install(blk(GenId(1), 0));
    }

    #[test]
    fn set_capacity_preserves_live_blocks() {
        let mut r = BlockRing::new(GenId(0), 8);
        for seq in 0..3 {
            let a = r.allocate_tail().unwrap();
            assert_eq!(a.seq, seq);
            let _ = r.install(blk(GenId(0), seq));
        }
        // Shrink (still above tail) and grow; contents survive both.
        r.set_capacity(4);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.free_blocks(), 1);
        assert!(r.block(2).is_some());
        r.set_capacity(16);
        assert_eq!(r.free_blocks(), 13);
        assert!((0..3).all(|s| r.block(s).is_some()));
        let a = r.allocate_tail().unwrap();
        assert_eq!(a.seq, 3);
    }

    #[test]
    #[should_panic]
    fn set_capacity_below_live_window_panics() {
        let mut r = BlockRing::new(GenId(0), 8);
        for _ in 0..3 {
            r.allocate_tail().unwrap();
        }
        r.set_capacity(2);
    }

    #[test]
    fn set_capacity_after_head_advance_remaps() {
        // Wrap a small ring so live seqs no longer map to the same slots
        // under a different modulus, then resize live both ways.
        let mut r = BlockRing::new(GenId(0), 3);
        for _ in 0..7 {
            if r.free_blocks() == 0 {
                r.advance_head();
            }
            let a = r.allocate_tail().unwrap();
            let _ = r.install(blk(GenId(0), a.seq));
        }
        // head 4, tail 7: live window {4, 5, 6}.
        assert_eq!((r.head(), r.tail()), (4, 7));
        r.set_capacity(5);
        assert_eq!(r.capacity(), 5);
        assert_eq!(r.used_blocks(), 3);
        assert_eq!(r.free_blocks(), 2);
        let live: Vec<u64> = r.live().map(|b| b.addr.seq).collect();
        assert_eq!(live, vec![4, 5, 6], "live blocks survive the remap");
        // Allocation continues from the same tail seq into the new slots.
        let a = r.allocate_tail().unwrap();
        assert_eq!(a.seq, 7);
        let _ = r.install(blk(GenId(0), 7));
        assert!(r.block(7).is_some());
        // Shrink back down to exactly the live window.
        r.advance_head(); // consume 4 → live {5, 6, 7}
        r.set_capacity(3);
        let live: Vec<u64> = r.live().map(|b| b.addr.seq).collect();
        assert_eq!(live, vec![5, 6, 7]);
        assert_eq!(r.free_blocks(), 0);
    }

    #[test]
    fn set_capacity_remap_newest_seq_wins_contested_slot() {
        // Two consumed-but-present surface blocks can land on one slot
        // under the new modulus; the newer seq must win, like overwrite.
        let mut r = BlockRing::new(GenId(0), 4);
        for _ in 0..6 {
            if r.free_blocks() == 0 {
                r.advance_head();
                r.advance_head();
            }
            let a = r.allocate_tail().unwrap();
            let _ = r.install(blk(GenId(0), a.seq));
        }
        // head 2, tail 6; consume two more so only {4, 5} stay live while
        // the surface still holds seqs {2, 3, 4, 5}.
        r.advance_head();
        r.advance_head();
        assert_eq!((r.head(), r.tail()), (4, 6));
        let mut seqs: Vec<u64> = r.surface().map(|b| b.addr.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        // Under capacity 2, slots are contested: {2, 4} → slot 0 and
        // {3, 5} → slot 1. Live window {4, 5} fits exactly.
        r.set_capacity(2);
        let mut seqs: Vec<u64> = r.surface().map(|b| b.addr.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![4, 5], "newest seq wins each contested slot");
        assert!(r.block(2).is_none());
        assert!(r.block(4).is_some());
    }

    #[test]
    fn long_wrap_stress() {
        let mut r = BlockRing::new(GenId(0), 5);
        let mut installed = 0u64;
        for _ in 0..1000 {
            if r.free_blocks() == 0 {
                r.advance_head();
            }
            let a = r.allocate_tail().unwrap();
            let _ = r.install(blk(GenId(0), a.seq));
            installed += 1;
        }
        assert_eq!(installed, 1000);
        assert_eq!(r.tail(), 1000);
        assert_eq!(r.surface().count(), 5);
        // Surface holds the 5 newest sequence numbers.
        let mut seqs: Vec<u64> = r.surface().map(|b| b.addr.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![995, 996, 997, 998, 999]);
    }
}
