//! The typed image of one log block.
//!
//! A block is the unit of log I/O (§2.2): head and tail pointers move in
//! block-sized quanta, and a cell records only the *block* its record lives
//! in, not a byte offset. [`Block`] is the in-memory (and simulated
//! on-disk) representation: the records it contains plus enough header
//! metadata for a recovery scan to order blocks and detect staleness.

use elog_model::{GenId, LogRecord, BLOCK_PAYLOAD_BYTES};
use elog_sim::SimTime;

/// Coarse address of a block: which generation, and the monotone sequence
/// number of the block within that generation's write order.
///
/// The *slot* a block occupies on disk is `seq % capacity`; keeping the
/// undecimated sequence number makes head/tail arithmetic overflow-free and
/// gives recovery a total order of writes within a generation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockAddr {
    /// Owning generation.
    pub gen: GenId,
    /// Monotone write index within the generation.
    pub seq: u64,
}

impl BlockAddr {
    /// Disk slot this block occupies in a ring of `capacity` blocks.
    #[inline]
    pub fn slot(self, capacity: u64) -> u64 {
        debug_assert!(capacity > 0);
        self.seq % capacity
    }
}

/// One log block: header metadata plus the records packed into it.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Where the block lives.
    pub addr: BlockAddr,
    /// Virtual time at which the block's device write *completed* (i.e. the
    /// moment its contents became durable).
    pub written_at: SimTime,
    /// Records packed into the payload area, in append order.
    pub records: Vec<LogRecord>,
    /// Sum of the records' accounting sizes, maintained by [`Block::push`].
    pub payload_used: u32,
}

impl Block {
    /// An empty block at `addr` (not yet durable).
    pub fn new(addr: BlockAddr) -> Self {
        Self::recycled(addr, Vec::new())
    }

    /// An empty block at `addr` reusing a retired block's record storage,
    /// so steady-state buffer turnover allocates nothing.
    pub fn recycled(addr: BlockAddr, mut records: Vec<LogRecord>) -> Self {
        records.clear();
        Block {
            addr,
            written_at: SimTime::MAX,
            records,
            payload_used: 0,
        }
    }

    /// Appends a record, tracking payload use.
    ///
    /// The caller (the log manager's buffer logic) is responsible for
    /// checking capacity before pushing; this method only asserts it in
    /// debug builds so corrupted packing fails loudly in tests.
    pub fn push(&mut self, r: LogRecord) {
        self.payload_used += r.size();
        debug_assert!(
            self.payload_used <= BLOCK_PAYLOAD_BYTES,
            "block over-packed: {} > {BLOCK_PAYLOAD_BYTES}",
            self.payload_used
        );
        self.records.push(r);
    }

    /// Remaining payload capacity of the [`BLOCK_PAYLOAD_BYTES`]-byte area.
    pub fn free_bytes(&self) -> u32 {
        BLOCK_PAYLOAD_BYTES.saturating_sub(self.payload_used)
    }

    /// True when no records are packed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records packed.
    pub fn len(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_model::{DataRecord, Oid, Tid};

    fn rec(size: u32) -> LogRecord {
        LogRecord::Data(DataRecord {
            tid: Tid(1),
            oid: Oid(2),
            seq: 1,
            ts: SimTime::ZERO,
            size,
        })
    }

    #[test]
    fn addr_slot_wraps() {
        let a = BlockAddr {
            gen: GenId(0),
            seq: 37,
        };
        assert_eq!(a.slot(16), 5);
        assert_eq!(
            BlockAddr {
                gen: GenId(0),
                seq: 15
            }
            .slot(16),
            15
        );
    }

    #[test]
    fn push_tracks_payload() {
        let mut b = Block::new(BlockAddr {
            gen: GenId(0),
            seq: 0,
        });
        assert!(b.is_empty());
        b.push(rec(100));
        b.push(rec(150));
        assert_eq!(b.payload_used, 250);
        assert_eq!(b.free_bytes(), 1750);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn overpacking_asserts_in_debug() {
        let mut b = Block::new(BlockAddr {
            gen: GenId(0),
            seq: 0,
        });
        b.push(rec(1500));
        b.push(rec(1500));
    }

    #[test]
    fn fresh_block_is_not_durable() {
        let b = Block::new(BlockAddr {
            gen: GenId(1),
            seq: 9,
        });
        assert!(b.written_at.is_never());
    }
}
