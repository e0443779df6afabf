//! The log scan: collect every record readable from the disk surface.

use elog_model::{GenId, LogRecord, Oid, Tid, TxMark};
use elog_sim::FxHashSet;
use elog_storage::{block::BlockAddr, decode_block_into, Block, CodecError};

/// Everything the scan learned from the surface.
#[derive(Clone, Debug, Default)]
pub struct LogImage {
    /// Every distinct data record found: deduplicated by `(tid, oid, seq)`
    /// — forwarding and recirculation leave multiple physical copies of
    /// the same record.
    pub data: Vec<elog_model::DataRecord>,
    /// Tids with a durable COMMIT record.
    pub committed: FxHashSet<Tid>,
    /// Scan statistics.
    pub stats: ScanStats,
}

/// Scan accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanStats {
    /// Blocks the scan *attempted* to read — decoded plus corrupt. This is
    /// the denominator of the corruption rate and the blocks/s throughput.
    pub blocks: u64,
    /// Blocks that decoded cleanly and contributed records.
    pub decoded_blocks: u64,
    /// Records examined (before deduplication).
    pub records: u64,
    /// Duplicate physical copies skipped.
    pub duplicates: u64,
    /// Blocks the codec rejected (torn or corrupt).
    pub corrupt_blocks: u64,
}

impl ScanStats {
    /// Fraction of attempted blocks the codec rejected, in `[0, 1]`.
    pub fn corrupt_rate(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.corrupt_blocks as f64 / self.blocks as f64
        }
    }
}

impl LogImage {
    fn ingest(&mut self, block: &Block) {
        self.stats.blocks += 1;
        self.stats.decoded_blocks += 1;
        for rec in &block.records {
            self.stats.records += 1;
            match rec {
                LogRecord::Tx(t) => match t.mark {
                    TxMark::Commit => {
                        self.committed.insert(t.tid);
                    }
                    // REDO-only: an abort leaves nothing to undo.
                    TxMark::Begin | TxMark::Abort => {}
                },
                LogRecord::Data(d) => self.data.push(*d),
            }
        }
    }

    fn dedup(&mut self) {
        let mut seen: FxHashSet<(Tid, Oid, u32)> =
            FxHashSet::with_capacity_and_hasher(self.data.len(), Default::default());
        let before = self.data.len();
        self.data.retain(|d| seen.insert((d.tid, d.oid, d.seq)));
        self.stats.duplicates += (before - self.data.len()) as u64;
    }
}

/// Scans serialised blocks — the bytes a crash leaves on the log device —
/// skipping (and counting) corrupt ones: a torn block write must not
/// poison recovery.
pub fn scan_bytes<'a, I>(blocks: I) -> (LogImage, Vec<CodecError>)
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut image = LogImage::default();
    let mut errors = Vec::new();
    // One record buffer for the whole image: the scan allocates per image,
    // not per block.
    let mut scratch = Block::new(BlockAddr {
        gen: GenId(0),
        seq: 0,
    });
    for bytes in blocks {
        match decode_block_into(bytes, &mut scratch) {
            Ok(()) => image.ingest(&scratch),
            Err(e) => {
                // A corrupt block was still an attempted read: count it in
                // `blocks` so totals and the corruption *rate* are right.
                image.stats.blocks += 1;
                image.stats.corrupt_blocks += 1;
                errors.push(e);
            }
        }
    }
    image.dedup();
    (image, errors)
}

/// Encodes `surface` and scans the bytes, which must all decode: how a
/// test hands hand-built blocks to recovery.
#[cfg(test)]
pub(crate) fn scan(surface: &[Vec<Block>]) -> LogImage {
    let encoded = elog_storage::encode_surface(surface);
    let (image, errors) = scan_bytes(encoded.iter().map(Vec::as_slice));
    assert!(errors.is_empty(), "{errors:?}");
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_model::{DataRecord, TxRecord};
    use elog_sim::SimTime;
    use elog_storage::encode_block;

    fn block(gen: u8, seq: u64, records: Vec<LogRecord>) -> Block {
        let mut b = Block::new(BlockAddr {
            gen: GenId(gen),
            seq,
        });
        b.written_at = SimTime::from_micros(seq);
        for r in records {
            b.payload_used += r.size();
            b.records.push(r);
        }
        b
    }

    fn data(tid: u64, oid: u64, seq: u32, ms: u64) -> LogRecord {
        LogRecord::Data(DataRecord {
            tid: Tid(tid),
            oid: Oid(oid),
            seq,
            ts: SimTime::from_millis(ms),
            size: 100,
        })
    }

    fn tx(tid: u64, mark: TxMark, ms: u64) -> LogRecord {
        LogRecord::Tx(TxRecord {
            tid: Tid(tid),
            mark,
            ts: SimTime::from_millis(ms),
            size: 8,
        })
    }

    #[test]
    fn scan_classifies_records() {
        let g0 = vec![block(0, 0, vec![tx(1, TxMark::Begin, 0), data(1, 5, 1, 1)])];
        let g1 = vec![block(
            1,
            0,
            vec![tx(1, TxMark::Commit, 2), tx(2, TxMark::Abort, 3)],
        )];
        let image = scan(&[g0, g1]);
        assert_eq!(image.data.len(), 1);
        assert!(image.committed.contains(&Tid(1)));
        assert!(!image.committed.contains(&Tid(2)));
        assert_eq!(image.stats.blocks, 2);
        assert_eq!(image.stats.records, 4);
    }

    #[test]
    fn duplicate_copies_deduplicated() {
        // Same record physically present in gen0 (stale) and gen1
        // (forwarded copy).
        let g0 = vec![block(0, 0, vec![data(1, 5, 1, 1)])];
        let g1 = vec![block(1, 0, vec![data(1, 5, 1, 1)])];
        let image = scan(&[g0, g1]);
        assert_eq!(image.data.len(), 1);
        assert_eq!(image.stats.duplicates, 1);
    }

    #[test]
    fn distinct_updates_not_merged() {
        let g0 = vec![block(
            0,
            0,
            vec![data(1, 5, 1, 1), data(1, 5, 2, 2), data(2, 5, 1, 3)],
        )];
        assert_eq!(scan(&[g0]).data.len(), 3);
    }

    #[test]
    fn byte_scan_skips_corrupt_blocks() {
        let good = block(0, 0, vec![data(1, 5, 1, 1), tx(1, TxMark::Commit, 2)]);
        let good_bytes = encode_block(&good);
        let mut bad_bytes = good_bytes.clone();
        let n = bad_bytes.len();
        bad_bytes[n - 1] ^= 0xFF;
        let (image, errors) = scan_bytes([good_bytes.as_slice(), bad_bytes.as_slice()]);
        assert_eq!(image.stats.corrupt_blocks, 1);
        assert_eq!(errors.len(), 1);
        assert_eq!(image.data.len(), 1);
        assert!(image.committed.contains(&Tid(1)));
        // Attempted = decoded + corrupt; the rate uses attempted blocks.
        assert_eq!(image.stats.blocks, 2);
        assert_eq!(image.stats.decoded_blocks, 1);
        assert!((image.stats.corrupt_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn forged_record_count_is_one_corrupt_block_and_the_scan_goes_on() {
        // The header is outside `body_crc`: a torn header claiming 2^32 − 1
        // records must cost one skipped block, not the process.
        let before = encode_block(&block(0, 0, vec![data(1, 5, 1, 1)]));
        let mut forged = encode_block(&block(
            0,
            1,
            vec![data(2, 6, 1, 2), tx(2, TxMark::Commit, 3)],
        ));
        forged[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        let after = encode_block(&block(
            0,
            2,
            vec![data(3, 7, 1, 4), tx(3, TxMark::Commit, 5)],
        ));
        let (image, errors) = scan_bytes([before.as_slice(), forged.as_slice(), after.as_slice()]);
        assert_eq!(errors, vec![CodecError::Truncated]);
        assert_eq!(image.stats.corrupt_blocks, 1);
        assert_eq!(image.stats.decoded_blocks, 2);
        assert_eq!(image.stats.records, 3, "nothing of the forged block");
        let oids: Vec<u64> = image.data.iter().map(|d| d.oid.get()).collect();
        assert_eq!(oids, [5, 7]);
        assert!(image.committed.contains(&Tid(3)) && !image.committed.contains(&Tid(2)));
    }

    #[test]
    fn corrupt_rate_zero_on_clean_or_empty_scans() {
        assert_eq!(ScanStats::default().corrupt_rate(), 0.0);
        let image = scan(&[vec![block(0, 0, vec![data(1, 5, 1, 1)])]]);
        assert_eq!(image.stats.corrupt_rate(), 0.0);
        assert_eq!(image.stats.blocks, image.stats.decoded_blocks);
    }

    #[test]
    fn empty_scan() {
        let image = scan(&[]);
        assert!(image.data.is_empty());
        assert!(image.committed.is_empty());
        assert_eq!(image.stats.blocks, 0);
    }
}
