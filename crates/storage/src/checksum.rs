//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Implemented in-tree rather than pulled in as a crate: the project's
//! dependency budget is deliberately small, and sixty lines of table-driven
//! CRC are easier to audit than a new transitive tree. The block codec uses
//! it to detect torn or corrupted blocks during recovery scans, where it is
//! the largest single cost — hence slice-by-8 (eight bytes per step) rather
//! than one; the one-byte loop lives on in the tests as its oracle.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic one-byte table; `TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, which lets one step fold eight input bytes with
/// eight independent lookups instead of eight dependent ones.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental form: feeds `data` into a running (pre-inverted) state.
///
/// Start from `0xFFFF_FFFF`, feed chunks, and finish by XOR-ing with
/// `0xFFFF_FFFF`; `crc32` is the one-shot convenience wrapper.
pub fn update(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_sim::{cases, SimRng};

    /// The one-table, one-byte-per-step CRC `update` used to be, with its
    /// own bit-by-bit table: the oracle the slice-by-8 loop is held to.
    fn update_bytewise(mut state: u32, data: &[u8]) -> u32 {
        const TABLE: [u32; 256] = {
            let mut table = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut crc = i as u32;
                let mut bit = 0;
                while bit < 8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ POLY
                    } else {
                        crc >> 1
                    };
                    bit += 1;
                }
                table[i] = crc;
                i += 1;
            }
            table
        };
        for &b in data {
            state = (state >> 8) ^ TABLE[((state ^ u32::from(b)) & 0xFF) as usize];
        }
        state
    }

    /// One random buffer: every length 0..=67 at every start offset 0..8
    /// (all eight alignments of the 8-byte step, tails of every length on
    /// both sides of several whole steps), then random multi-chunk splits
    /// fed incrementally from a random running state.
    fn run_case(rng: &mut SimRng) {
        let buf: Vec<u8> = (0..2048).map(|_| rng.next_u64() as u8).collect();
        for start in 0..8 {
            for len in 0..=67 {
                let data = &buf[start..start + len];
                let state = rng.next_u64() as u32;
                assert_eq!(
                    update(state, data),
                    update_bytewise(state, data),
                    "start {start} len {len} state {state:#x}"
                );
            }
        }
        for _ in 0..32 {
            let from = rng.next_u64() as usize % buf.len();
            let data = &buf[from..];
            let start_state = rng.next_u64() as u32;
            let mut state = start_state;
            let mut rest = data;
            while !rest.is_empty() {
                let take = 1 + rng.next_u64() as usize % rest.len().min(40);
                state = update(state, &rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(
                state,
                update_bytewise(start_state, data),
                "split from {from}"
            );
            assert_eq!(
                state,
                update(start_state, data),
                "split vs whole from {from}"
            );
        }
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_reference() {
        cases::run("checksum::tests::slice_by_8", 50, run_case);
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value; the reference must agree on each.
        for (data, want) in [
            (&b"123456789"[..], 0xCBF4_3926),
            (b"", 0),
            (b"a", 0xE8B7_BE43),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(crc32(data), want);
            assert_eq!(update_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF, want);
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"ephemeral logging, sigmod 1993";
        let oneshot = crc32(data);
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            state = update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, oneshot);
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 2048];
        data[100] = 0xAA;
        let good = crc32(&data);
        for bit in [0usize, 777, 2047 * 8 + 7] {
            let mut bad = data.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&bad), good, "flip at bit {bit} undetected");
        }
    }

    #[test]
    fn detects_transpositions() {
        let a = crc32(b"ab");
        let b = crc32(b"ba");
        assert_ne!(a, b);
    }
}
