//! Log records.
//!
//! §2.1 of the paper: "There are two types of log records. *Data log records*
//! chronicle changes to the contents of the database (creation, modification
//! or deletion of data objects). *Transaction (tx) log records* mark
//! important milestones (e.g., begin, commit or abort) during the lives of
//! transactions."
//!
//! Every record is timestamped (§2.1: recirculation destroys physical order,
//! so the recovery manager relies on timestamps to re-establish temporal
//! order). Records also carry their *accounting size*: the number of log
//! bytes they occupy for block-packing purposes. The paper's experiments fix
//! these at 100 B per data record and 8 B per tx record; the sizes are part
//! of the workload specification, not of this type.

use crate::ids::{Oid, Tid};
use elog_sim::{splitmix64, SimTime};

/// The milestone a transaction record marks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TxMark {
    /// Transaction initiated.
    Begin,
    /// Transaction requests commit. Durability of this record *is* the
    /// commit point.
    Commit,
    /// Transaction aborted (voluntarily or killed by the log manager).
    Abort,
}

impl TxMark {
    /// Stable one-byte wire tag.
    pub const fn tag(self) -> u8 {
        match self {
            TxMark::Begin => 1,
            TxMark::Commit => 2,
            TxMark::Abort => 3,
        }
    }

    /// Inverse of [`TxMark::tag`].
    pub const fn from_tag(t: u8) -> Option<TxMark> {
        match t {
            1 => Some(TxMark::Begin),
            2 => Some(TxMark::Commit),
            3 => Some(TxMark::Abort),
            _ => None,
        }
    }
}

/// A transaction log record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxRecord {
    /// Which transaction.
    pub tid: Tid,
    /// Which milestone.
    pub mark: TxMark,
    /// When the record was written to the log (virtual time).
    pub ts: SimTime,
    /// Accounting size in log bytes (paper default: 8).
    pub size: u32,
}

/// A data log record: the REDO image of one object update.
///
/// The paper uses pure REDO logging (uncommitted updates never reach the
/// stable database), so a data record carries only the *new* value. We do
/// not materialise the value in the simulator; `(tid, seq)` identifies the
/// update and [`synth_payload`] regenerates deterministic content bytes for
/// the wire codec and recovery verification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataRecord {
    /// Updating transaction.
    pub tid: Tid,
    /// Updated object.
    pub oid: Oid,
    /// 1-based index of this update within its transaction.
    pub seq: u32,
    /// When the record was written to the log (virtual time).
    pub ts: SimTime,
    /// Accounting size in log bytes (paper default: 100).
    pub size: u32,
}

/// Any log record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LogRecord {
    /// Transaction milestone.
    Tx(TxRecord),
    /// Object update.
    Data(DataRecord),
}

impl LogRecord {
    /// The record's accounting size in log bytes.
    #[inline]
    pub fn size(&self) -> u32 {
        match self {
            LogRecord::Tx(r) => r.size,
            LogRecord::Data(r) => r.size,
        }
    }

    /// The owning transaction.
    #[inline]
    pub fn tid(&self) -> Tid {
        match self {
            LogRecord::Tx(r) => r.tid,
            LogRecord::Data(r) => r.tid,
        }
    }

    /// The write timestamp.
    #[inline]
    pub fn ts(&self) -> SimTime {
        match self {
            LogRecord::Tx(r) => r.ts,
            LogRecord::Data(r) => r.ts,
        }
    }

    /// The updated object, for data records.
    #[inline]
    pub fn oid(&self) -> Option<Oid> {
        match self {
            LogRecord::Tx(_) => None,
            LogRecord::Data(r) => Some(r.oid),
        }
    }
}

/// The splitmix64 word stream behind [`synth_payload`]: the seed for an
/// update plus the per-word mix, shared by the generator and the streaming
/// verifier so they can never disagree.
struct PayloadWords {
    x: u64,
}

impl PayloadWords {
    #[inline]
    fn new(oid: Oid, tid: Tid, seq: u32) -> Self {
        PayloadWords {
            x: oid
                .get()
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(tid.get().rotate_left(32))
                .wrapping_add(u64::from(seq)),
        }
    }

    #[inline]
    fn next_word(&mut self) -> [u8; 8] {
        splitmix64(&mut self.x).to_le_bytes()
    }
}

/// Deterministically synthesises the content bytes of an update.
///
/// The simulation never stores real object values, but the recovery tests
/// verify byte-exact reconstruction, so each `(oid, tid, seq)` triple maps to
/// reproducible pseudo-random content via splitmix64.
///
/// Allocating wrapper around [`synth_payload_into`].
pub fn synth_payload(oid: Oid, tid: Tid, seq: u32, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    synth_payload_into(oid, tid, seq, len, &mut out);
    out
}

/// [`synth_payload`] writing into a caller-provided buffer (cleared first).
///
/// The block codec serialises every data record's payload; reusing one
/// buffer per block keeps the encode path allocation-free.
pub fn synth_payload_into(oid: Oid, tid: Tid, seq: u32, len: usize, out: &mut Vec<u8>) {
    out.clear();
    synth_payload_extend(oid, tid, seq, len, out);
}

/// [`synth_payload`] *appending* `len` bytes to `out` — for serialisers
/// that stream the payload straight into an output buffer.
pub fn synth_payload_extend(oid: Oid, tid: Tid, seq: u32, len: usize, out: &mut Vec<u8>) {
    let end = out.len() + len;
    out.reserve(len);
    let mut words = PayloadWords::new(oid, tid, seq);
    while out.len() < end {
        let bytes = words.next_word();
        let take = bytes.len().min(end - out.len());
        out.extend_from_slice(&bytes[..take]);
    }
}

/// Streaming check that `payload` is exactly the synthesised content for
/// `(oid, tid, seq)` — equivalent to `payload == synth_payload(..)` without
/// materialising the expected bytes.
pub fn payload_matches(oid: Oid, tid: Tid, seq: u32, payload: &[u8]) -> bool {
    let mut words = PayloadWords::new(oid, tid, seq);
    let mut chunks = payload.chunks_exact(8);
    for chunk in &mut chunks {
        if chunk != words.next_word() {
            return false;
        }
    }
    let rest = chunks.remainder();
    rest.is_empty() || rest == &words.next_word()[..rest.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(tid: u64, oid: u64) -> LogRecord {
        LogRecord::Data(DataRecord {
            tid: Tid(tid),
            oid: Oid(oid),
            seq: 1,
            ts: SimTime::from_millis(5),
            size: 100,
        })
    }

    fn tx(tid: u64, mark: TxMark) -> LogRecord {
        LogRecord::Tx(TxRecord {
            tid: Tid(tid),
            mark,
            ts: SimTime::from_millis(2),
            size: 8,
        })
    }

    #[test]
    fn accessors() {
        let d = data(7, 42);
        assert_eq!(d.size(), 100);
        assert_eq!(d.tid(), Tid(7));
        assert_eq!(d.oid(), Some(Oid(42)));

        let t = tx(7, TxMark::Commit);
        assert_eq!(t.size(), 8);
        assert_eq!(t.oid(), None);
        assert_eq!(t.ts(), SimTime::from_millis(2));
    }

    #[test]
    fn mark_tags_roundtrip() {
        for m in [TxMark::Begin, TxMark::Commit, TxMark::Abort] {
            assert_eq!(TxMark::from_tag(m.tag()), Some(m));
        }
        assert_eq!(TxMark::from_tag(0), None);
        assert_eq!(TxMark::from_tag(99), None);
    }

    #[test]
    fn payload_is_deterministic() {
        let a = synth_payload(Oid(5), Tid(6), 2, 81);
        let b = synth_payload(Oid(5), Tid(6), 2, 81);
        assert_eq!(a, b);
        assert_eq!(a.len(), 81);
    }

    #[test]
    fn payload_varies_with_inputs() {
        let base = synth_payload(Oid(5), Tid(6), 2, 32);
        assert_ne!(base, synth_payload(Oid(6), Tid(6), 2, 32));
        assert_ne!(base, synth_payload(Oid(5), Tid(7), 2, 32));
        assert_ne!(base, synth_payload(Oid(5), Tid(6), 3, 32));
    }

    #[test]
    fn payload_prefix_stable_across_lengths() {
        let short = synth_payload(Oid(1), Tid(2), 1, 8);
        let long = synth_payload(Oid(1), Tid(2), 1, 64);
        assert_eq!(&long[..8], &short[..]);
    }

    #[test]
    fn zero_length_payload() {
        assert!(synth_payload(Oid(0), Tid(0), 0, 0).is_empty());
    }

    #[test]
    fn into_reuses_buffer_and_agrees() {
        let mut buf = vec![0xAA; 200]; // stale content must be cleared
        synth_payload_into(Oid(5), Tid(6), 2, 81, &mut buf);
        assert_eq!(buf, synth_payload(Oid(5), Tid(6), 2, 81));
    }

    #[test]
    fn matches_agrees_with_generation() {
        for len in [0usize, 1, 7, 8, 9, 100] {
            let p = synth_payload(Oid(3), Tid(4), 5, len);
            assert!(payload_matches(Oid(3), Tid(4), 5, &p), "len {len}");
        }
        let mut p = synth_payload(Oid(3), Tid(4), 5, 100);
        p[99] ^= 1; // corrupt the unaligned tail
        assert!(!payload_matches(Oid(3), Tid(4), 5, &p));
        p[99] ^= 1;
        p[0] ^= 1; // corrupt an aligned word
        assert!(!payload_matches(Oid(3), Tid(4), 5, &p));
        assert!(!payload_matches(Oid(9), Tid(4), 5, &p), "wrong oid");
    }
}
