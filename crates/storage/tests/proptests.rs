//! Property-based tests for the storage substrate.

use elog_model::{DataRecord, GenId, LogRecord, Oid, Tid, TxMark, TxRecord};
use elog_sim::{cases, SimRng, SimTime};
use elog_storage::block::BlockAddr;
use elog_storage::{decode_block, encode_block, Block, BlockRing};

/// A data or tx record, one in two each, with any tid and a 32-bit
/// timestamp.
fn draw_record(rng: &mut SimRng) -> LogRecord {
    let tid = Tid(rng.next_u64());
    if rng.next_f64() < 0.5 {
        LogRecord::Data(DataRecord {
            tid,
            oid: Oid(rng.range(0..10_000_000)),
            seq: rng.range(1..100) as u32,
            ts: SimTime::from_micros(u64::from(rng.next_u64() as u32)),
            size: rng.range(35..500) as u32,
        })
    } else {
        let mark = [TxMark::Begin, TxMark::Commit, TxMark::Abort][rng.next_u64_below(3) as usize];
        LogRecord::Tx(TxRecord {
            tid,
            mark,
            ts: SimTime::from_micros(u64::from(rng.next_u64() as u32)),
            size: 8,
        })
    }
}

/// A block holding `count` drawn records.
fn draw_block(rng: &mut SimRng, addr: BlockAddr, count: u64) -> Block {
    let mut b = Block::new(addr);
    for _ in 0..count {
        let r = draw_record(rng);
        b.records.push(r);
        b.payload_used += r.size();
    }
    b
}

/// Any block of well-formed records round-trips through the codec.
#[test]
fn codec_roundtrip() {
    cases::run("codec_roundtrip", 64, |rng| {
        let count = rng.range(0..20);
        let addr = BlockAddr {
            gen: GenId(rng.range(0..4) as u8),
            seq: rng.range(0..1_000_000),
        };
        let mut b = draw_block(rng, addr, count);
        b.written_at = SimTime::from_micros(rng.range(0..10_000_000));
        let bytes = encode_block(&b);
        assert_eq!(decode_block(&bytes).unwrap(), b);
    });
}

/// Corrupting any single body byte is detected.
#[test]
fn codec_detects_any_single_flip() {
    cases::run("codec_detects_any_single_flip", 64, |rng| {
        let count = rng.range(1..8);
        let b = draw_block(
            rng,
            BlockAddr {
                gen: GenId(0),
                seq: 1,
            },
            count,
        );
        let bytes = encode_block(&b);
        if bytes.len() > 48 {
            let i = 48 + rng.next_u64_below(bytes.len() as u64 - 48) as usize;
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(decode_block(&bad).is_err(), "flip at {i} undetected");
        }
    });
}

/// The ring matches a simple window model under arbitrary
/// allocate/advance interleavings.
#[test]
fn ring_window_model() {
    cases::run("ring_window_model", 64, |rng| {
        let cap = rng.range(1..20);
        let mut ring = BlockRing::new(GenId(0), cap);
        let mut head = 0u64;
        let mut tail = 0u64;
        for _ in 0..rng.range(1..300) {
            if rng.next_f64() < 0.5 {
                match ring.allocate_tail() {
                    Some(addr) => {
                        assert_eq!(addr.seq, tail);
                        tail += 1;
                        assert!(tail - head <= cap);
                    }
                    None => assert_eq!(tail - head, cap),
                }
            } else {
                match ring.advance_head() {
                    Some(seq) => {
                        assert_eq!(seq, head);
                        head += 1;
                    }
                    None => assert_eq!(head, tail),
                }
            }
            assert_eq!(ring.head(), head);
            assert_eq!(ring.tail(), tail);
            assert_eq!(ring.free_blocks(), cap - (tail - head));
        }
    });
}

/// The surface holds at most `cap` blocks and exactly the newest
/// installed block per slot.
#[test]
fn ring_surface_keeps_newest_per_slot() {
    cases::run("ring_surface_keeps_newest_per_slot", 64, |rng| {
        let (cap, n) = (rng.range(1..8), rng.range(1..64));
        let mut ring = BlockRing::new(GenId(0), cap);
        for _ in 0..n {
            if ring.free_blocks() == 0 {
                ring.advance_head();
            }
            let addr = ring.allocate_tail().unwrap();
            let mut b = Block::new(addr);
            b.written_at = SimTime::from_micros(addr.seq);
            let _displaced = ring.install(b);
            assert!(ring.block(addr.seq).is_some());
        }
        let mut seqs: Vec<u64> = ring.surface().map(|b| b.addr.seq).collect();
        seqs.sort_unstable();
        let expect: Vec<u64> = (n.saturating_sub(cap)..n).collect();
        assert_eq!(seqs, expect);
    });
}
