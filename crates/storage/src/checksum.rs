//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Implemented in-tree rather than pulled in as a crate: the project's
//! dependency budget is deliberately small, and a table loop plus one
//! `std::arch` kernel are easier to audit than a new transitive tree. The
//! block codec uses it to detect torn or corrupted blocks during recovery
//! scans. [`update`] is the one entry point and has two paths:
//!
//! * on x86_64 with PCLMULQDQ, an input of 64 bytes or more is folded with
//!   carry-less multiplies, 64 bytes a step, over its longest prefix of
//!   whole 16-byte blocks (the private `clmul` kernel);
//! * everything else — the kernel's tail of fewer than 16 bytes, shorter
//!   inputs, other CPUs and architectures — runs slice-by-8, the portable
//!   path (eight compile-time tables, eight bytes a step).
//!
//! The one-table, one-byte loop lives on in the tests as the oracle both
//! paths are held to.

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
pub fn update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU has PCLMULQDQ, checked on the line above.
        return unsafe { clmul::update(state, data) };
    }
    slice_by_8(state, data)
}

/// The portable path: eight bytes a step through [`TABLES`], then a
/// byte at a time.
fn slice_by_8(mut state: u32, data: &[u8]) -> u32 {
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

/// Carry-less-multiply folding, bit-reflected (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009). Four 128-bit lanes fold 64 bytes a step; the lanes then
/// fold into one, each further 16-byte block folds into it, and the
/// 128-bit remainder is reduced to 64 bits and, by Barrett reduction, to
/// the 32-bit state.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::slice_by_8;
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Each fold constant is the reflected `x^n mod P(x)` shifted left one
    // bit (the reflected product lands one bit low). K1/K2 carry a lane
    // 512 bits forward, K3/K4 128 bits; K5 reduces 96 bits to 64. P is
    // the reflected 33-bit polynomial and MU the reflected Barrett
    // constant floor(x^64 / P(x)). The tests derive all seven.
    pub(super) const K1: i64 = 0x1_5444_2bd4; // n = 512 + 32
    pub(super) const K2: i64 = 0x1_c6e4_1596; // n = 512 - 32
    pub(super) const K3: i64 = 0x1_7519_97d0; // n = 128 + 32
    pub(super) const K4: i64 = 0x0_ccaa_009e; // n = 128 - 32
    pub(super) const K5: i64 = 0x1_63cd_6124; // n = 64
    pub(super) const P: i64 = 0x1_db71_0641;
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// [`super::update`] on a CPU with PCLMULQDQ: an input of 64 bytes or
    /// more folds its whole 16-byte blocks here and hands the tail to
    /// slice-by-8; a shorter one runs slice-by-8 alone.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn update(state: u32, data: &[u8]) -> u32 {
        if data.len() < 64 {
            return slice_by_8(state, data);
        }
        let (whole, tail) = data.split_at(data.len() & !15);
        slice_by_8(fold(state, whole), tail)
    }

    /// The kernel proper; `data` is at least 64 bytes, in 16-byte blocks.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(state: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let (first, rest) = data.split_at(64);
        let mut lanes = [
            load(&first[..16]),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut steps = rest.chunks_exact(64);
        for step in &mut steps {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold_16(*lane, load(&step[16 * i..16 * i + 16]), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_16(lanes[0], lanes[1], k3k4);
        x = fold_16(x, lanes[2], k3k4);
        x = fold_16(x, lanes[3], k3k4);
        for block in steps.remainder().chunks_exact(16) {
            x = fold_16(x, load(block), k3k4);
        }

        // 128 → 96 bits: the low half times K4, onto the high half.
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits: the low 32 times K5, onto the upper 64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett, 64 → 32 bits: T1 = (R mod x^32)·MU, T2 = (T1 mod x^32)·P;
        // the state is bits 32..64 of R ^ T2.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32
    }

    /// Carries `acc` forward by the distance `k` encodes and adds `next`.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_16(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The first 16 bytes of `block`, unaligned; panics if it is shorter.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ (the loads are SSE2, which every
    /// x86_64 CPU has; the attribute lets the kernel inline this).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn load(block: &[u8]) -> __m128i {
        _mm_loadu_si128(block[..16].as_ptr().cast())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elog_sim::{cases, SimRng};

    /// The one-table, one-byte-per-step CRC `update` used to be, with its
    /// own bit-by-bit table: the oracle both paths are held to.
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

    /// One random buffer through `path`, each input from a random running
    /// state: every length 0..=300 at 16 start offsets (all alignments of
    /// the 16-byte block, both sides of the 64-byte threshold and several
    /// whole steps), a whole 2 KB body, then the body fed incrementally in
    /// pieces of 16k − 1, 16k or 16k + 1 bytes, so the splits cross 16- and
    /// 64-byte boundaries.
    fn hold_to_oracle(rng: &mut SimRng, path: impl Fn(u32, &[u8]) -> u32) {
        let buf: Vec<u8> = (0..2048 + 16).map(|_| rng.next_u64() as u8).collect();
        for start in 0..16 {
            for len in 0..=300 {
                let data = &buf[start..start + len];
                let state = rng.next_u64() as u32;
                assert_eq!(
                    path(state, data),
                    update_bytewise(state, data),
                    "start {start} len {len} state {state:#x}"
                );
            }
        }
        let from = rng.range(0..16) as usize;
        let body = &buf[from..from + 2048];
        let start_state = rng.next_u64() as u32;
        let want = update_bytewise(start_state, body);
        assert_eq!(path(start_state, body), want, "2 KB body from {from}");
        for _ in 0..8 {
            let mut state = start_state;
            let mut rest = body;
            while !rest.is_empty() {
                let piece = 16 * rng.range(1..9) + rng.range(0..3) - 1;
                let take = (piece as usize).min(rest.len());
                state = path(state, &rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(state, want, "split 2 KB body from {from}");
        }
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_reference() {
        cases::run("checksum::tests::slice_by_8", 32, |rng| {
            hold_to_oracle(rng, slice_by_8)
        });
    }

    #[test]
    fn clmul_kernel_matches_the_bytewise_reference() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") {
            cases::run("checksum::tests::clmul_kernel", 32, |rng| {
                // SAFETY: the CPU has PCLMULQDQ, checked above.
                hold_to_oracle(rng, |state, data| unsafe { clmul::update(state, data) })
            });
            return;
        }
        eprintln!("checksum::tests::clmul_kernel skipped: this CPU has no PCLMULQDQ");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_derive_from_the_polynomial() {
        // P(x) in normal form, x^32 included.
        const P33: u64 = 0x1_04C1_1DB7;
        let reflect = |v: u64, bits: u32| v.reverse_bits() >> (64 - bits);
        let x_pow_mod = |n: u32| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 != 0 {
                    r ^= P33;
                }
            }
            r
        };
        let k = |n: u32| (reflect(x_pow_mod(n), 32) << 1) as i64;
        assert_eq!(clmul::K1, k(512 + 32));
        assert_eq!(clmul::K2, k(512 - 32));
        assert_eq!(clmul::K3, k(128 + 32));
        assert_eq!(clmul::K4, k(128 - 32));
        assert_eq!(clmul::K5, k(64));
        assert_eq!(clmul::P, reflect(P33, 33) as i64);
        // floor(x^64 / P(x)) by long division.
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if rem >> bit & 1 != 0 {
                quot |= 1 << (bit - 32);
                rem ^= u128::from(P33) << (bit - 32);
            }
        }
        assert_eq!(clmul::MU, reflect(quot, 33) as i64);
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
