//! Wire format for blocks and records.
//!
//! The simulation itself packs blocks by *accounting* size (the paper's
//! 100-byte data records and 8-byte tx records). This codec is the real,
//! self-describing byte format used when a log image is serialised — for
//! the recovery-from-bytes path and the archive example. A data record's
//! content bytes are the deterministic [`synth_payload`] of its identity,
//! sized so that header + payload equals the accounting size whenever the
//! accounting size is large enough (it always is for the paper's 100-byte
//! records); tx records need 21 wire bytes, more than the paper's 8
//! accounting bytes, which is exactly why the two notions are kept distinct
//! (DESIGN.md §5).
//!
//! Layout (little-endian):
//!
//! ```text
//! block  := magic u32 | version u16 | gen u8 | pad u8 | seq u64
//!         | written_at u64 | record_count u32 | payload_used u32
//!         | body_len u32 | body_crc u32 | pad [u8;8]        -- 48 bytes
//!         | body
//! data   := 0x00 | tid u64 | oid u64 | seq u32 | ts u64 | size u32
//!         | payload_len u16 | payload [u8; payload_len]     -- 35+len
//! tx     := mark u8 (1|2|3) | tid u64 | ts u64 | size u32   -- 21 bytes
//! ```

use crate::block::{Block, BlockAddr};
use crate::checksum::crc32;
use elog_model::{
    payload_matches, synth_payload_extend, DataRecord, GenId, LogRecord, Oid, Tid, TxMark, TxRecord,
};
use elog_sim::SimTime;
use std::fmt;

/// `"ELOG"` in ASCII.
const MAGIC: u32 = 0x454C_4F47;
const VERSION: u16 = 1;
/// Fixed header size; mirrors the paper's 48 reserved bytes per block.
pub const BLOCK_HEADER_BYTES: usize = 48;
/// Wire overhead of a data record before its payload.
pub const DATA_RECORD_HEADER_BYTES: usize = 35;
/// Wire size of a tx record.
pub const TX_RECORD_BYTES: usize = 21;

/// Decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input shorter than a header or declared body.
    Truncated,
    /// Bad magic or unsupported version.
    BadHeader,
    /// CRC mismatch: torn or corrupted block.
    BadChecksum {
        /// CRC stored in the header.
        expected: u32,
        /// CRC computed over the body.
        actual: u32,
    },
    /// Unknown record tag.
    BadRecordTag(u8),
    /// Data-record payload does not match its identity (content rot).
    BadPayload,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "block truncated"),
            CodecError::BadHeader => write!(f, "bad block magic/version"),
            CodecError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: header {expected:#010x}, body {actual:#010x}"
                )
            }
            CodecError::BadRecordTag(t) => write!(f, "unknown record tag {t:#04x}"),
            CodecError::BadPayload => write!(f, "payload does not match record identity"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Content bytes a data record carries on the wire: whatever its
/// accounting size leaves after the record header.
fn data_payload_len(d: &DataRecord) -> usize {
    (d.size as usize).saturating_sub(DATA_RECORD_HEADER_BYTES)
}

/// Exact wire size of a record.
fn wire_len(r: &LogRecord) -> usize {
    match r {
        LogRecord::Data(d) => DATA_RECORD_HEADER_BYTES + data_payload_len(d),
        LogRecord::Tx(_) => TX_RECORD_BYTES,
    }
}

fn encode_record(out: &mut Vec<u8>, r: &LogRecord) {
    match r {
        LogRecord::Data(d) => {
            out.push(0);
            out.extend_from_slice(&d.tid.get().to_le_bytes());
            out.extend_from_slice(&d.oid.get().to_le_bytes());
            out.extend_from_slice(&d.seq.to_le_bytes());
            out.extend_from_slice(&d.ts.as_micros().to_le_bytes());
            out.extend_from_slice(&d.size.to_le_bytes());
            let payload_len = data_payload_len(d);
            out.extend_from_slice(&(payload_len as u16).to_le_bytes());
            // Stream the payload straight into the output buffer: no
            // per-record temporary.
            synth_payload_extend(d.oid, d.tid, d.seq, payload_len, out);
        }
        LogRecord::Tx(t) => {
            out.push(t.mark.tag());
            out.extend_from_slice(&t.tid.get().to_le_bytes());
            out.extend_from_slice(&t.ts.as_micros().to_le_bytes());
            out.extend_from_slice(&t.size.to_le_bytes());
        }
    }
}

/// Splits the next `N` bytes off the front of `buf`. Every caller checks
/// the length first, so a short slice is a bug and panics.
#[inline]
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .expect("length checked before the read");
    *buf = rest;
    *head
}

fn decode_record(buf: &mut &[u8]) -> Result<LogRecord, CodecError> {
    if buf.is_empty() {
        return Err(CodecError::Truncated);
    }
    let [tag] = take(buf);
    match tag {
        0 => {
            if buf.len() < DATA_RECORD_HEADER_BYTES - 1 {
                return Err(CodecError::Truncated);
            }
            let tid = Tid(u64::from_le_bytes(take(buf)));
            let oid = Oid(u64::from_le_bytes(take(buf)));
            let seq = u32::from_le_bytes(take(buf));
            let ts = SimTime::from_micros(u64::from_le_bytes(take(buf)));
            let size = u32::from_le_bytes(take(buf));
            let payload_len = usize::from(u16::from_le_bytes(take(buf)));
            if buf.len() < payload_len {
                return Err(CodecError::Truncated);
            }
            let payload = &buf[..payload_len];
            // Streaming compare: no expected-payload temporary.
            if !payload_matches(oid, tid, seq, payload) {
                return Err(CodecError::BadPayload);
            }
            *buf = &buf[payload_len..];
            Ok(LogRecord::Data(DataRecord {
                tid,
                oid,
                seq,
                ts,
                size,
            }))
        }
        t => {
            let mark = TxMark::from_tag(t).ok_or(CodecError::BadRecordTag(t))?;
            if buf.len() < TX_RECORD_BYTES - 1 {
                return Err(CodecError::Truncated);
            }
            let tid = Tid(u64::from_le_bytes(take(buf)));
            let ts = SimTime::from_micros(u64::from_le_bytes(take(buf)));
            let size = u32::from_le_bytes(take(buf));
            Ok(LogRecord::Tx(TxRecord {
                tid,
                mark,
                ts,
                size,
            }))
        }
    }
}

/// Byte offset of `body_crc` in the block header.
const BODY_CRC_OFFSET: usize = 36;

/// Serialises a block: 48-byte header plus checksummed encoded records.
pub fn encode_block(b: &Block) -> Vec<u8> {
    let body_len: usize = b.records.iter().map(wire_len).sum();
    let mut out = Vec::with_capacity(BLOCK_HEADER_BYTES + body_len);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&[b.addr.gen.0, 0]);
    out.extend_from_slice(&b.addr.seq.to_le_bytes());
    out.extend_from_slice(&b.written_at.as_micros().to_le_bytes());
    out.extend_from_slice(&(b.records.len() as u32).to_le_bytes());
    out.extend_from_slice(&b.payload_used.to_le_bytes());
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    debug_assert_eq!(out.len(), BODY_CRC_OFFSET);
    // body_crc (patched below, once the body exists) and padding.
    out.extend_from_slice(&[0u8; 12]);
    debug_assert_eq!(out.len(), BLOCK_HEADER_BYTES);
    for r in &b.records {
        encode_record(&mut out, r);
    }
    debug_assert_eq!(out.len(), BLOCK_HEADER_BYTES + body_len);
    let body_crc = crc32(&out[BLOCK_HEADER_BYTES..]);
    out[BODY_CRC_OFFSET..BODY_CRC_OFFSET + 4].copy_from_slice(&body_crc.to_le_bytes());
    out
}

/// Serialises every block of a multi-generation log surface through the
/// byte-level codec, flattened in `(generation, write order)` — the crash
/// image a byte-level recovery scan ingests. The grouping into
/// generations carries no information the scan needs (block headers name
/// their generation), so a flat vector is the natural snapshot shape.
pub fn encode_surface(surface: &[Vec<Block>]) -> Vec<Vec<u8>> {
    surface
        .iter()
        .flat_map(|gen_blocks| gen_blocks.iter().map(encode_block))
        .collect()
}

/// Total byte length of an encoded surface (what a real crash scan would
/// read off the device).
pub fn surface_bytes(encoded: &[Vec<u8>]) -> u64 {
    encoded.iter().map(|b| b.len() as u64).sum()
}

/// Parses and validates a serialised block.
///
/// Allocating wrapper around [`decode_block_into`].
pub fn decode_block(buf: &[u8]) -> Result<Block, CodecError> {
    let mut block = Block::new(BlockAddr {
        gen: GenId(0),
        seq: 0,
    });
    decode_block_into(buf, &mut block)?;
    Ok(block)
}

/// [`decode_block`] into a caller-owned `Block`, reusing its record
/// storage: a scan over many blocks allocates once, not once per block.
///
/// On success every field of `block` is overwritten. On error
/// `block.records` is empty (nothing of this or any earlier block is left
/// in it) and the header fields are unspecified.
pub fn decode_block_into(buf: &[u8], block: &mut Block) -> Result<(), CodecError> {
    block.records.clear();
    let result = decode_into(buf, block);
    if result.is_err() {
        block.records.clear();
    }
    result
}

fn decode_into(mut buf: &[u8], block: &mut Block) -> Result<(), CodecError> {
    if buf.len() < BLOCK_HEADER_BYTES {
        return Err(CodecError::Truncated);
    }
    let magic = u32::from_le_bytes(take(&mut buf));
    let version = u16::from_le_bytes(take(&mut buf));
    if magic != MAGIC || version != VERSION {
        return Err(CodecError::BadHeader);
    }
    let [gen, _pad] = take(&mut buf);
    let gen = GenId(gen);
    let seq = u64::from_le_bytes(take(&mut buf));
    let written_at = SimTime::from_micros(u64::from_le_bytes(take(&mut buf)));
    let record_count = u32::from_le_bytes(take(&mut buf)) as usize;
    let payload_used = u32::from_le_bytes(take(&mut buf));
    let body_len = u32::from_le_bytes(take(&mut buf)) as usize;
    let expected_crc = u32::from_le_bytes(take(&mut buf));
    let _pad: [u8; 8] = take(&mut buf);
    if buf.len() < body_len {
        return Err(CodecError::Truncated);
    }
    let body = &buf[..body_len];
    let actual_crc = crc32(body);
    if actual_crc != expected_crc {
        return Err(CodecError::BadChecksum {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    // `record_count` sits in the header, outside `body_crc`: a torn header
    // can claim any count. Reserve only what the body could hold (a tx
    // record is the smallest); a count beyond that runs the cursor dry and
    // is reported as `Truncated` below.
    block
        .records
        .reserve(record_count.min(body_len / TX_RECORD_BYTES));
    let mut cursor = body;
    for _ in 0..record_count {
        block.records.push(decode_record(&mut cursor)?);
    }
    if !cursor.is_empty() {
        return Err(CodecError::Truncated); // trailing garbage inside body
    }
    block.addr = BlockAddr { gen, seq };
    block.written_at = written_at;
    block.payload_used = payload_used;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_sim::{cases, splitmix64, SimRng};

    fn sample_block() -> Block {
        let mut b = Block::new(BlockAddr {
            gen: GenId(1),
            seq: 77,
        });
        b.written_at = SimTime::from_millis(321);
        b.push(
            LogRecord::Tx(TxRecord {
                tid: Tid(5),
                mark: TxMark::Begin,
                ts: SimTime::from_millis(300),
                size: 8,
            }),
            2000,
        );
        b.push(
            LogRecord::Data(DataRecord {
                tid: Tid(5),
                oid: Oid(123_456),
                seq: 1,
                ts: SimTime::from_millis(310),
                size: 100,
            }),
            2000,
        );
        b.push(
            LogRecord::Tx(TxRecord {
                tid: Tid(5),
                mark: TxMark::Commit,
                ts: SimTime::from_millis(320),
                size: 8,
            }),
            2000,
        );
        b
    }

    /// 0..=24 records of every kind; data sizes straddle the 35-byte wire
    /// header (payload length 0) and run past the paper's 100.
    fn random_block(next: &mut impl FnMut() -> u64) -> Block {
        let mut b = Block::new(BlockAddr {
            gen: GenId(next() as u8),
            seq: next(),
        });
        b.written_at = SimTime::from_micros(next() >> 8);
        for _ in 0..next() % 25 {
            let tid = Tid(next() >> 16);
            let ts = SimTime::from_micros(next() >> 8);
            let r = match next() % 5 {
                0 => LogRecord::Tx(TxRecord {
                    tid,
                    mark: TxMark::from_tag(1 + (next() % 3) as u8).unwrap(),
                    ts,
                    size: 8,
                }),
                _ => LogRecord::Data(DataRecord {
                    tid,
                    oid: Oid(next() % 10_000_000),
                    seq: 1 + (next() % 9) as u32,
                    ts,
                    size: 20 + (next() % 160) as u32,
                }),
            };
            b.push(r, u32::MAX);
        }
        b
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
    }

    /// The wire format is frozen at `VERSION = 1`: these digests were
    /// taken from the two-buffer encoder this one replaced.
    #[test]
    fn encoded_bytes_are_pinned() {
        let empty = Block::new(BlockAddr {
            gen: GenId(0),
            seq: 0,
        });
        let mut state = 0x00E1_06B1_0C4B_u64;
        let random = random_block(&mut || splitmix64(&mut state));
        assert!(random.records.len() > 8, "the pinned block is not trivial");
        for (label, block, want) in [
            ("sample", sample_block(), 0x27a1_db84_9ac1_6c50u64),
            ("empty", empty, 0x6b3a_89df_57aa_b1c9),
            ("random", random, 0xe20b_f387_324d_84fe),
        ] {
            let got = fnv1a(&encode_block(&block));
            assert_eq!(
                got, want,
                "{label}: encode_block bytes changed ({got:#018x})"
            );
        }
    }

    /// A random block sequence with corrupt blocks in it (a flipped body
    /// byte, a cut tail, a forged record count), decoded through ONE
    /// reused scratch and, block by block, fresh: same results, and no
    /// record of an earlier block in a later result or after an error.
    fn reuse_case(rng: &mut SimRng) {
        let mut scratch = Block::new(BlockAddr {
            gen: GenId(0),
            seq: 0,
        });
        let mut corrupted = 0;
        for i in 0..24 {
            let mut bytes = encode_block(&random_block(&mut || rng.next_u64()));
            let n = bytes.len();
            // The middle block always; one in four of the others.
            if i == 12 || rng.next_u64().is_multiple_of(4) {
                corrupted += 1;
                match rng.next_u64() % 3 {
                    0 if n > BLOCK_HEADER_BYTES => {
                        let at =
                            BLOCK_HEADER_BYTES + rng.next_u64() as usize % (n - BLOCK_HEADER_BYTES);
                        bytes[at] ^= 0x10;
                    }
                    1 => bytes.truncate(rng.next_u64() as usize % n),
                    _ => bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes()),
                }
            }
            let fresh = decode_block(&bytes);
            let reused = decode_block_into(&bytes, &mut scratch);
            match (&fresh, &reused) {
                (Ok(want), Ok(())) => assert_eq!(&scratch, want, "block {i}"),
                (Err(want), Err(got)) => {
                    assert_eq!(got, want, "block {i}");
                    assert!(scratch.records.is_empty(), "block {i}: stale records");
                }
                _ => panic!("block {i}: fresh {fresh:?} but reused {reused:?}"),
            }
        }
        assert!(corrupted >= 1);
    }

    #[test]
    fn reused_scratch_decodes_like_fresh() {
        cases::run("codec::tests::reused_scratch", 100, reuse_case);
    }

    /// `record_count` is a header field, outside `body_crc`. Forged to
    /// 2^32 − 1 it used to size a `Vec` (≈ 172 GB: the process aborted);
    /// now the reservation is bounded by the body and the count runs dry.
    #[test]
    fn forged_record_count_is_truncated_not_allocated() {
        let mut bytes = encode_block(&sample_block());
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut scratch = Block::new(BlockAddr {
            gen: GenId(0),
            seq: 0,
        });
        assert_eq!(
            decode_block_into(&bytes, &mut scratch),
            Err(CodecError::Truncated)
        );
        let body_len = bytes.len() - BLOCK_HEADER_BYTES;
        assert!(
            scratch.records.capacity() <= body_len / TX_RECORD_BYTES,
            "reserved {} records for a {body_len}-byte body",
            scratch.records.capacity()
        );
        assert_eq!(decode_block(&bytes), Err(CodecError::Truncated));
        // A count that undershoots leaves trailing records in the body.
        bytes[24..28].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(decode_block(&bytes), Err(CodecError::Truncated));
    }

    #[test]
    fn roundtrip() {
        let b = sample_block();
        let bytes = encode_block(&b);
        let back = decode_block(&bytes).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn header_is_48_bytes_and_data_payload_fills_accounting_size() {
        let b = sample_block();
        let bytes = encode_block(&b);
        // 48 header + 21 tx + (35 + 65) data + 21 tx
        assert_eq!(bytes.len(), 48 + 21 + 100 + 21);
    }

    #[test]
    fn empty_block_roundtrip() {
        let mut b = Block::new(BlockAddr {
            gen: GenId(0),
            seq: 0,
        });
        b.written_at = SimTime::ZERO;
        let back = decode_block(&encode_block(&b)).unwrap();
        assert!(back.records.is_empty());
        assert_eq!(back.payload_used, 0);
    }

    #[test]
    fn detects_corruption_anywhere_in_body() {
        let bytes = encode_block(&sample_block());
        for i in (BLOCK_HEADER_BYTES..bytes.len()).step_by(17) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match decode_block(&bad) {
                Err(CodecError::BadChecksum { .. }) => {}
                other => panic!("byte {i}: expected checksum error, got {other:?}"),
            }
        }
    }

    #[test]
    fn detects_bad_magic_and_truncation() {
        let bytes = encode_block(&sample_block());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_block(&bad), Err(CodecError::BadHeader));

        assert_eq!(decode_block(&bytes[..10]), Err(CodecError::Truncated));
        assert_eq!(
            decode_block(&bytes[..bytes.len() - 1]),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn detects_forged_payload() {
        let mut bytes = encode_block(&sample_block());
        // Flip a payload byte AND fix up the CRC so only the content check
        // can catch it.
        let n = bytes.len();
        bytes[n - 30] ^= 0x01;
        let body_crc = crc32(&bytes[BLOCK_HEADER_BYTES..]);
        bytes[36..40].copy_from_slice(&body_crc.to_le_bytes());
        // Tampering lands either in the data payload (BadPayload) or in a
        // trailing tx record's fields (which decode but differ) — here the
        // offset targets the data payload.
        assert_eq!(decode_block(&bytes), Err(CodecError::BadPayload));
    }

    #[test]
    fn rejects_unknown_record_tag() {
        let mut b = Block::new(BlockAddr {
            gen: GenId(0),
            seq: 1,
        });
        b.written_at = SimTime::ZERO;
        b.push(
            LogRecord::Tx(TxRecord {
                tid: Tid(1),
                mark: TxMark::Abort,
                ts: SimTime::ZERO,
                size: 8,
            }),
            2000,
        );
        let mut bytes = encode_block(&b);
        bytes[BLOCK_HEADER_BYTES] = 0x77; // stomp the tag
        let body_crc = crc32(&bytes[BLOCK_HEADER_BYTES..]);
        bytes[36..40].copy_from_slice(&body_crc.to_le_bytes());
        assert_eq!(decode_block(&bytes), Err(CodecError::BadRecordTag(0x77)));
    }

    #[test]
    fn block_to_bytes_convenience() {
        let b = sample_block();
        assert_eq!(b.to_bytes(), encode_block(&b));
    }

    #[test]
    fn encode_surface_flattens_generations_in_order() {
        let b0 = sample_block();
        let mut b1 = Block::new(BlockAddr {
            gen: GenId(1),
            seq: 3,
        });
        b1.written_at = SimTime::from_millis(400);
        let surface = vec![vec![b0.clone()], vec![b1.clone()], vec![]];
        let encoded = encode_surface(&surface);
        assert_eq!(encoded.len(), 2);
        assert_eq!(decode_block(&encoded[0]).unwrap(), b0);
        assert_eq!(decode_block(&encoded[1]).unwrap(), b1);
        assert_eq!(
            surface_bytes(&encoded),
            (encoded[0].len() + encoded[1].len()) as u64
        );
    }
}
