//! The log scan: collect every record readable from the disk surface, and
//! file each distinct data copy under its object for REDO.

use elog_model::{DataRecord, GenId, LogRecord, Oid, Tid, TxMark};
use elog_sim::{FxHashMap, FxHashSet};
use elog_storage::codec::{DATA_RECORD_HEADER_BYTES, TX_RECORD_BYTES};
use elog_storage::{block::BlockAddr, decode_block_into, Block, CodecError};
use std::collections::hash_map::Entry;

/// Distinct copies of one object that dedup compares one by one; an
/// object with this many files every copy in [`LogImage`]'s hot set, so a
/// record costs one probe however many versions its object has.
const WALK_LIMIT: u32 = 8;

/// The end of an object's copy chain.
const END: u32 = u32::MAX;

/// Wire bytes of the smallest committed update: one data record and its
/// transaction's COMMIT record.
const MIN_COMMITTED_UPDATE_BYTES: usize = DATA_RECORD_HEADER_BYTES + TX_RECORD_BYTES;

/// Everything the scan learned from the surface: the distinct data
/// copies, filed by object, and the committed transactions.
#[derive(Clone, Debug, Default)]
pub struct LogImage {
    /// Distinct data copies in first-occurrence order.
    data: Vec<DataRecord>,
    /// `next[i]`: the index in `data` of the copy of `data[i]`'s object
    /// filed before it, or [`END`].
    next: Vec<u32>,
    /// Each object's copy chain.
    objects: FxHashMap<Oid, Chain>,
    /// `(tid, oid, seq)` of every copy of an object with at least
    /// [`WALK_LIMIT`] copies.
    hot: FxHashSet<(Tid, Oid, u32)>,
    /// Tids with a durable COMMIT record.
    committed: FxHashSet<Tid>,
    /// Scan statistics.
    pub stats: ScanStats,
}

/// One object's distinct copies, threaded through [`LogImage`]'s `next`.
#[derive(Clone, Copy, Debug)]
struct Chain {
    /// Index in `data` of the copy filed last.
    head: u32,
    /// Copies on the chain.
    len: u32,
}

/// One object's distinct data copies, newest-filed first.
pub(crate) struct Copies<'a> {
    data: &'a [DataRecord],
    next: &'a [u32],
    at: u32,
}

impl<'a> Copies<'a> {
    /// The chain from `head` through `data` and `next`.
    fn new(data: &'a [DataRecord], next: &'a [u32], head: u32) -> Copies<'a> {
        Copies {
            data,
            next,
            at: head,
        }
    }
}

impl<'a> Iterator for Copies<'a> {
    type Item = &'a DataRecord;

    fn next(&mut self) -> Option<&'a DataRecord> {
        if self.at == END {
            return None;
        }
        let i = self.at as usize;
        self.at = self.next[i];
        Some(&self.data[i])
    }
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
    /// An empty image sized once from the byte length of `bytes` of
    /// blocks, never from a header's record count, which a torn header
    /// forges. `data` and `next` hold every data copy the bytes can carry
    /// (their unused capacity is never touched). The two hash tables hold
    /// one entry per committed update the bytes can carry, so only
    /// uncommitted copies or several updates under one COMMIT can grow
    /// them; sized for every possible data copy, they were sparse enough
    /// that REDO, which probes them once a copy, ran ~8 % slower on the
    /// paper's crash images and twice as slow on a 2.8 MB one.
    fn sized_for(bytes: usize) -> LogImage {
        let records = bytes / DATA_RECORD_HEADER_BYTES;
        let updates = bytes / MIN_COMMITTED_UPDATE_BYTES;
        // Every copy index then fits below `END`.
        assert!(
            records < END as usize,
            "a log image holds fewer than 2^32 - 1 data records"
        );
        LogImage {
            data: Vec::with_capacity(records),
            next: Vec::with_capacity(records),
            objects: FxHashMap::with_capacity_and_hasher(updates, Default::default()),
            hot: FxHashSet::default(),
            committed: FxHashSet::with_capacity_and_hasher(updates, Default::default()),
            stats: ScanStats::default(),
        }
    }

    /// Every distinct data record found, in first-occurrence order:
    /// deduplicated by `(tid, oid, seq)` — forwarding and recirculation
    /// leave multiple physical copies of the same record.
    pub fn data(&self) -> &[DataRecord] {
        &self.data
    }

    /// Tids with a durable COMMIT record.
    pub fn committed(&self) -> &FxHashSet<Tid> {
        &self.committed
    }

    /// Objects with at least one data copy.
    pub(crate) fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Each object with a data copy, and its distinct copies: the index
    /// REDO walks once per object.
    pub(crate) fn objects(&self) -> impl Iterator<Item = (Oid, Copies<'_>)> + '_ {
        self.objects
            .iter()
            .map(|(&oid, chain)| (oid, Copies::new(&self.data, &self.next, chain.head)))
    }

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
                LogRecord::Data(d) => self.file(d),
            }
        }
    }

    /// Files `d` on its object's chain, unless a copy of the same update
    /// `(tid, oid, seq)` is filed there already.
    fn file(&mut self, d: &DataRecord) {
        let at = u32::try_from(self.data.len()).expect("sized_for bounds the copies");
        let chain = match self.objects.entry(d.oid) {
            Entry::Vacant(slot) => slot.insert(Chain { head: END, len: 0 }),
            Entry::Occupied(slot) => {
                let chain = slot.into_mut();
                let filed = if chain.len < WALK_LIMIT {
                    Copies::new(&self.data, &self.next, chain.head)
                        .any(|c| (c.tid, c.seq) == (d.tid, d.seq))
                } else {
                    !self.hot.insert((d.tid, d.oid, d.seq))
                };
                if filed {
                    self.stats.duplicates += 1;
                    return;
                }
                chain
            }
        };
        self.data.push(*d);
        self.next.push(chain.head);
        chain.head = at;
        chain.len += 1;
        if chain.len == WALK_LIMIT {
            let copies = Copies::new(&self.data, &self.next, at);
            self.hot.extend(copies.map(|c| (c.tid, c.oid, c.seq)));
        }
    }
}

/// Scans serialised blocks — the bytes a crash leaves on the log device —
/// skipping (and counting) corrupt ones: a torn block write must not
/// poison recovery.
pub fn scan_bytes<'a, I>(blocks: I) -> (LogImage, Vec<CodecError>)
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let blocks: Vec<&[u8]> = blocks.into_iter().collect();
    let mut image = LogImage::sized_for(blocks.iter().map(|b| b.len()).sum());
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
        assert_eq!(image.data().len(), 1);
        assert!(image.committed().contains(&Tid(1)));
        assert!(!image.committed().contains(&Tid(2)));
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
        assert_eq!(image.data().len(), 1);
        assert_eq!(image.stats.duplicates, 1);
    }

    #[test]
    fn an_object_past_the_walk_limit_still_dedups_every_copy() {
        // Versions 1..=3·WALK_LIMIT of one object, each copied twice: the
        // first copies arrive in order, the second in reverse, so
        // duplicates hit both walked and hot-set copies.
        let n = 3 * WALK_LIMIT;
        let firsts: Vec<_> = (1..=n).map(|s| data(s.into(), 5, s, s.into())).collect();
        let seconds: Vec<_> = firsts.iter().rev().copied().collect();
        let g0 = firsts.chunks(4).map(|c| block(0, 0, c.to_vec())).collect();
        let g1 = seconds.chunks(4).map(|c| block(1, 0, c.to_vec())).collect();
        let image = scan(&[g0, g1]);
        assert_eq!(image.stats.duplicates, u64::from(n));
        let tids: Vec<u64> = image.data().iter().map(|d| d.tid.get()).collect();
        assert_eq!(tids, (1..=u64::from(n)).collect::<Vec<_>>());
        let (oid, copies) = image.objects().next().unwrap();
        assert_eq!((oid, copies.count()), (Oid(5), n as usize));
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
        assert_eq!(image.data().len(), 1);
        assert!(image.committed().contains(&Tid(1)));
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
        let oids: Vec<u64> = image.data().iter().map(|d| d.oid.get()).collect();
        assert_eq!(oids, [5, 7]);
        assert!(image.committed().contains(&Tid(3)) && !image.committed().contains(&Tid(2)));
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
        assert!(image.data().is_empty());
        assert!(image.committed().is_empty());
        assert_eq!(image.stats.blocks, 0);
    }
}
