//! File-backed log archives.
//!
//! The paper's §6 notes that "previously known techniques for archiving
//! continue to provide fault tolerance to media failures". This module
//! provides the mechanical half of that: serialising a log surface (plus
//! the stable database's version stamps) to real files through the
//! checksummed block codec, and loading it back for recovery. Each
//! generation becomes one file of length-prefixed encoded blocks, so a
//! partial final write (torn archive) is detected rather than
//! misinterpreted.

use crate::scan::{scan_bytes, LogImage};
use elog_model::{ObjectVersion, Oid, StableDb, Tid};
use elog_sim::SimTime;
use elog_storage::{encode_block, Block};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic prefix of a generation archive file.
const GEN_MAGIC: &[u8; 8] = b"ELOGGEN1";
/// Magic prefix of the stable-database file.
const DB_MAGIC: &[u8; 8] = b"ELOGSDB1";

/// Archive read/write failure.
#[derive(Debug)]
pub enum ArchiveError {
    /// Underlying I/O error.
    Io(io::Error),
    /// A file did not start with the expected magic.
    BadMagic,
    /// A file ended inside a length prefix, a block or a stable-database
    /// entry it had announced (torn write).
    Torn,
}

impl From<io::Error> for ArchiveError {
    fn from(e: io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive i/o: {e}"),
            ArchiveError::BadMagic => write!(f, "archive has wrong magic"),
            ArchiveError::Torn => write!(f, "archive truncated mid-write"),
        }
    }
}

impl std::error::Error for ArchiveError {}

/// A file that ends inside something it announced was torn mid-write.
fn torn_on_eof(e: io::Error) -> ArchiveError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        ArchiveError::Torn
    } else {
        ArchiveError::Io(e)
    }
}

/// Writes one generation's blocks as `gen-<i>.elog` files plus the stable
/// database as `stable.elog` under `dir`, entries in oid order so the
/// bytes are a function of the table's contents and not of the order and
/// capacity it was built with. Returns the number of blocks archived.
pub fn save_archive(
    dir: &Path,
    surface: &[Vec<Block>],
    stable: &StableDb,
) -> Result<u64, ArchiveError> {
    std::fs::create_dir_all(dir)?;
    let mut blocks = 0u64;
    for (gi, gen_blocks) in surface.iter().enumerate() {
        let path = dir.join(format!("gen-{gi}.elog"));
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(GEN_MAGIC)?;
        for b in gen_blocks {
            let bytes = encode_block(b);
            w.write_all(&(bytes.len() as u32).to_le_bytes())?;
            w.write_all(&bytes)?;
            blocks += 1;
        }
        w.flush()?;
    }
    let mut w = BufWriter::new(File::create(dir.join("stable.elog"))?);
    w.write_all(DB_MAGIC)?;
    w.write_all(&(stable.len() as u64).to_le_bytes())?;
    let mut entries: Vec<(Oid, ObjectVersion)> = stable.iter().collect();
    entries.sort_unstable_by_key(|&(oid, _)| oid);
    for (oid, v) in entries {
        w.write_all(&oid.get().to_le_bytes())?;
        w.write_all(&v.tid.get().to_le_bytes())?;
        w.write_all(&v.seq.to_le_bytes())?;
        w.write_all(&v.ts.as_micros().to_le_bytes())?;
    }
    w.flush()?;
    Ok(blocks)
}

/// Loads an archive: returns the scanned log image (corrupt blocks are
/// skipped and counted, as in a crash scan) and the stable database.
pub fn load_archive(dir: &Path) -> Result<(LogImage, StableDb), ArchiveError> {
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let mut gi = 0usize;
    loop {
        let path = dir.join(format!("gen-{gi}.elog"));
        if !path.exists() {
            break;
        }
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic).map_err(torn_on_eof)?;
        if &magic != GEN_MAGIC {
            return Err(ArchiveError::BadMagic);
        }
        loop {
            // Zero bytes of a length prefix is the end of the file; one to
            // three is a write torn inside the prefix.
            let mut len = Vec::with_capacity(4);
            r.by_ref().take(4).read_to_end(&mut len)?;
            let n = match len.as_slice() {
                [] => break,
                &[a, b, c, d] => u32::from_le_bytes([a, b, c, d]),
                _ => return Err(ArchiveError::Torn),
            };
            // Read what the file holds, not what the prefix claims: a
            // garbage prefix must not size an allocation.
            let mut buf = Vec::new();
            r.by_ref().take(u64::from(n)).read_to_end(&mut buf)?;
            if buf.len() < n as usize {
                return Err(ArchiveError::Torn);
            }
            encoded.push(buf);
        }
        gi += 1;
    }
    let (image, _errors) = scan_bytes(encoded.iter().map(Vec::as_slice));

    let mut stable = StableDb::new();
    let path = dir.join("stable.elog");
    if path.exists() {
        let mut r = BufReader::new(File::open(path)?);
        let mut read = |buf: &mut [u8]| r.read_exact(buf).map_err(torn_on_eof);
        let mut magic = [0u8; 8];
        read(&mut magic)?;
        if &magic != DB_MAGIC {
            return Err(ArchiveError::BadMagic);
        }
        let mut count = [0u8; 8];
        read(&mut count)?;
        for _ in 0..u64::from_le_bytes(count) {
            let mut b8 = [0u8; 8];
            let mut b4 = [0u8; 4];
            read(&mut b8)?;
            let oid = Oid(u64::from_le_bytes(b8));
            read(&mut b8)?;
            let tid = Tid(u64::from_le_bytes(b8));
            read(&mut b4)?;
            let seq = u32::from_le_bytes(b4);
            read(&mut b8)?;
            let ts = SimTime::from_micros(u64::from_le_bytes(b8));
            stable.install(oid, ObjectVersion { tid, seq, ts });
        }
    }
    Ok((image, stable))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redo::recover;
    use elog_model::{DataRecord, GenId, InstallLog, LogRecord, TxMark, TxRecord};
    use elog_storage::block::BlockAddr;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("elog-archive-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_surface() -> Vec<Vec<Block>> {
        let mut b0 = Block::new(BlockAddr {
            gen: GenId(0),
            seq: 0,
        });
        b0.written_at = SimTime::from_millis(1);
        for r in [
            LogRecord::Tx(TxRecord {
                tid: Tid(1),
                mark: TxMark::Begin,
                ts: SimTime::ZERO,
                size: 8,
            }),
            LogRecord::Data(DataRecord {
                tid: Tid(1),
                oid: Oid(5),
                seq: 1,
                ts: SimTime::from_millis(1),
                size: 100,
            }),
            LogRecord::Tx(TxRecord {
                tid: Tid(1),
                mark: TxMark::Commit,
                ts: SimTime::from_millis(2),
                size: 8,
            }),
        ] {
            b0.payload_used += r.size();
            b0.records.push(r);
        }
        let mut b1 = Block::new(BlockAddr {
            gen: GenId(1),
            seq: 0,
        });
        b1.written_at = SimTime::from_millis(3);
        vec![vec![b0], vec![b1]]
    }

    #[test]
    fn roundtrip_surface_and_stable_db() {
        let dir = temp_dir("roundtrip");
        let surface = sample_surface();
        let mut stable = StableDb::new();
        stable.install(
            Oid(9),
            ObjectVersion {
                tid: Tid(7),
                seq: 2,
                ts: SimTime::from_millis(4),
            },
        );

        let blocks = save_archive(&dir, &surface, &stable).unwrap();
        assert_eq!(blocks, 2);

        let (image, loaded_db) = load_archive(&dir).unwrap();
        assert_eq!(image.stats.blocks, 2);
        assert_eq!(image.data.len(), 1);
        assert!(image.committed.contains(&Tid(1)));
        assert_eq!(loaded_db.version(Oid(9)).unwrap().tid, Tid(7));

        // Recovery over the loaded archive behaves like the in-memory path.
        let state = recover(&image, &loaded_db);
        assert_eq!(state.versions.len(), 2);
        assert_eq!(state.versions[&Oid(5)].tid, Tid(1));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stable_file_bytes_depend_on_contents_only() {
        let v = |tid: u64, ms: u64| ObjectVersion {
            tid: Tid(tid),
            seq: 1,
            ts: SimTime::from_millis(ms),
        };
        // Grown one insert at a time, ascending.
        let mut grown = StableDb::new();
        for oid in 0..500u64 {
            grown.install(Oid(oid * 7919 % 10_007), v(oid, oid + 2));
        }
        // Folded from a log three times as long (two stale rounds first, so
        // the pre-sized table has a larger capacity), descending.
        let mut log = InstallLog::new();
        for round in 0..3u64 {
            for oid in (0..500u64).rev() {
                log.install(Oid(oid * 7919 % 10_007), v(oid, oid + round));
            }
        }
        let folded = log.db();
        assert!(folded.versions().capacity() > grown.versions().capacity());
        assert_eq!(folded.versions(), grown.versions());

        let (dir_a, dir_b) = (temp_dir("sorted-a"), temp_dir("sorted-b"));
        save_archive(&dir_a, &sample_surface(), &grown).unwrap();
        save_archive(&dir_b, &sample_surface(), folded).unwrap();
        let bytes = std::fs::read(dir_a.join("stable.elog")).unwrap();
        assert_eq!(bytes, std::fs::read(dir_b.join("stable.elog")).unwrap());
        assert_eq!(bytes.len(), 16 + 500 * 28);

        let (_, loaded) = load_archive(&dir_b).unwrap();
        assert_eq!(loaded.versions(), grown.versions());
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn torn_final_block_detected() {
        let dir = temp_dir("torn");
        save_archive(&dir, &sample_surface(), &StableDb::new()).unwrap();
        // Truncate the last byte of gen-0.
        let path = dir.join("gen-0.elog");
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 1]).unwrap();
        match load_archive(&dir) {
            Err(ArchiveError::Torn) => {}
            other => panic!("expected Torn, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_length_prefix_detected() {
        // 1–3 bytes of a length prefix are a torn write, not the end of
        // the file; 0 bytes (cut exactly after a block) is the clean end.
        let dir = temp_dir("torn-prefix");
        save_archive(&dir, &sample_surface(), &StableDb::new()).unwrap();
        let path = dir.join("gen-1.elog");
        let whole = std::fs::read(&path).unwrap();
        for extra in 1..=3 {
            let mut data = whole.clone();
            data.extend_from_slice(&[0x30, 0, 0][..extra]);
            std::fs::write(&path, &data).unwrap();
            match load_archive(&dir) {
                Err(ArchiveError::Torn) => {}
                other => panic!("{extra} prefix bytes: expected Torn, got {other:?}"),
            }
        }
        std::fs::write(&path, &whole).unwrap();
        assert_eq!(load_archive(&dir).unwrap().0.stats.blocks, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_stable_file_detected() {
        let dir = temp_dir("torn-stable");
        let mut stable = StableDb::new();
        for oid in 0..3 {
            stable.install(
                Oid(oid),
                ObjectVersion {
                    tid: Tid(1),
                    seq: 1,
                    ts: SimTime::from_millis(oid),
                },
            );
        }
        save_archive(&dir, &sample_surface(), &stable).unwrap();
        let path = dir.join("stable.elog");
        let whole = std::fs::read(&path).unwrap();
        // Inside the magic, the count, and an entry (between and within
        // its fields).
        for keep in [3, 12, 16 + 28, 16 + 28 + 8, whole.len() - 1] {
            std::fs::write(&path, &whole[..keep]).unwrap();
            match load_archive(&dir) {
                Err(ArchiveError::Torn) => {}
                other => panic!("cut at {keep}: expected Torn, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_magic_detected() {
        let dir = temp_dir("magic");
        save_archive(&dir, &sample_surface(), &StableDb::new()).unwrap();
        let path = dir.join("gen-0.elog");
        let mut data = std::fs::read(&path).unwrap();
        data[0] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(load_archive(&dir), Err(ArchiveError::BadMagic)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_block_skipped_not_fatal() {
        let dir = temp_dir("corrupt");
        save_archive(&dir, &sample_surface(), &StableDb::new()).unwrap();
        let path = dir.join("gen-0.elog");
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 5] ^= 0x01; // inside the last block's body
        std::fs::write(&path, &data).unwrap();
        let (image, _) = load_archive(&dir).unwrap();
        assert_eq!(image.stats.corrupt_blocks, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_archive_dir_loads_empty() {
        let dir = temp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let (image, db) = load_archive(&dir).unwrap();
        assert_eq!(image.stats.blocks, 0);
        assert!(db.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
