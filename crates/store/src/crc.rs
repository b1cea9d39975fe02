//! CRC-32 (IEEE 802.3 polynomial) under every WAL frame, run block, run
//! meta section and snapshot — implemented locally so the store has no
//! external checksum dependency.
//!
//! Every append, replay, spill, merge and block load checksums its full
//! payload, so this *is* a storage hot path (a tiered `shard_chains`
//! repetition pushes over a gigabyte through it).  Three functions, one
//! value:
//!
//! * [`crc32`] — what the store calls.  On x86-64 hosts whose CPU
//!   reports `pclmulqdq` it folds 64 bytes per step with carry-less
//!   multiplies (the Intel folding constants for the reflected
//!   polynomial, as zlib uses them; Barrett reduction at the end; the
//!   tail of up to 15 bytes through the table) for buffers of at least
//!   64 bytes.  The choice is the platform's — run-time
//!   feature detection — and nothing else selects it.
//! * [`crc32_portable`] — slicing-by-8 (eight 256-entry tables, one
//!   8-byte block per iteration): the only path on other hosts and for
//!   short buffers, where the fold's set-up and reduction do not pay.
//! * [`crc32_bytewise`] — the classic table-driven loop, the reference
//!   the tests hold the other two to.

/// Polynomial 0xEDB88320 (reflected IEEE).
const POLY: u32 = 0xEDB8_8320;

/// Eight 256-entry lookup tables, computed at compile time.
/// `TABLES[0]` is the classic single-byte table; `TABLES[k][i]` extends a
/// byte's contribution through `k` further zero bytes, which is what lets
/// eight bytes be folded in one step.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
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
};

/// Shortest buffer the carry-less-multiply kernel takes: one 64-byte
/// fold block.  Below it the fold's set-up and reduction cost more than
/// the table walk they replace.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN: usize = 64;

/// Compute the CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN && std::is_x86_feature_detected!("pclmulqdq") {
        let (blocks, tail) = data.split_at(data.len() & !15);
        // SAFETY: `is_x86_feature_detected!("pclmulqdq")` just said the
        // CPU has the one feature `clmul::fold` is compiled for (SSE2 is
        // part of the x86-64 baseline).
        let state = unsafe { clmul::fold(!0, blocks) };
        return !update_sliced(state, tail);
    }
    crc32_portable(data)
}

/// Which kernel [`crc32`] runs on this host for buffers of at least one
/// fold block: `"pclmulqdq"` or `"portable"`.  For benchmarks
/// and tests to say what they measured.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("pclmulqdq") {
        return "pclmulqdq";
    }
    "portable"
}

/// Slicing-by-8: the one path on hosts without a carry-less multiply,
/// and [`crc32`]'s path for buffers shorter than one fold block.
pub fn crc32_portable(data: &[u8]) -> u32 {
    !update_sliced(!0, data)
}

/// Advance the raw (un-inverted) CRC register over `data`, eight bytes
/// per table step.
fn update_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The reference byte-at-a-time implementation: the oracle the tests
/// hold both faster paths to.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The carry-less-multiply kernel (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009; the
/// constants are the paper's for the bit-reflected IEEE polynomial, the
/// ones zlib ships).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Carry a lane's two halves forward by 64 bytes (the paper's k1, k2):
    /// the four-lane loop.
    const K1K2: (i64, i64) = (0x01_5444_2bd4, 0x01_c6e4_1596);
    /// Carry a lane's two halves forward by 16 bytes (k3, k4): four lanes
    /// into one, and the remaining 16-byte chunks.
    const K3K4: (i64, i64) = (0x01_7519_97d0, 0x00_ccaa_009e);
    /// 96 bits down to 64 (k5).
    const K5: i64 = 0x01_63cd_6124;
    /// The polynomial and its Barrett constant, bit-reflected (P', µ).
    const POLY_MU: (i64, i64) = (0x01_db71_0641, 0x01_f701_1641);

    /// The 16 bytes at `chunk` as one little-endian lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lane(chunk: &[u8]) -> __m128i {
        let (lo, hi) = chunk.split_at(8);
        let word = |b: &[u8]| i64::from_le_bytes(b.try_into().expect("a 16-byte chunk"));
        _mm_set_epi64x(word(hi), word(lo))
    }

    /// `a * k` folded onto `next`: both halves of `a` carried forward by
    /// the distance `k`'s two constants encode.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_onto(a: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, k);
        let hi = _mm_clmulepi64_si128::<0x11>(a, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the raw CRC register `state` over `data`, whose length is
    /// a multiple of 16 and at least 64 (checked: a shorter or ragged
    /// buffer would be checksummed wrongly, never read out of bounds —
    /// every load goes through a slice).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(state: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let (head, rest) = data.split_at(64);
        let mut x = [
            _mm_xor_si128(lane(&head[..16]), _mm_cvtsi32_si128(state as i32)),
            lane(&head[16..32]),
            lane(&head[32..48]),
            lane(&head[48..]),
        ];
        let mut blocks = rest.chunks_exact(64);
        let k = _mm_set_epi64x(K1K2.1, K1K2.0);
        for b in &mut blocks {
            for (x, c) in x.iter_mut().zip(b.chunks_exact(16)) {
                *x = fold_onto(*x, k, lane(c));
            }
        }
        // Four lanes into one, then any remaining 16-byte chunks.
        let k = _mm_set_epi64x(K3K4.1, K3K4.0);
        let mut x1 = fold_onto(x[0], k, x[1]);
        x1 = fold_onto(x1, k, x[2]);
        x1 = fold_onto(x1, k, x[3]);
        for c in blocks.remainder().chunks_exact(16) {
            x1 = fold_onto(x1, k, lane(c));
        }
        // 128 bits to 64.
        let low32 = _mm_set_epi32(0, -1, 0, -1);
        let x2 = _mm_clmulepi64_si128::<0x10>(x1, k);
        x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), x2);
        let x2 = _mm_srli_si128::<4>(x1);
        x1 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), _mm_set_epi64x(0, K5));
        x1 = _mm_xor_si128(x1, x2);
        // Barrett reduction to 32.
        let pm = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
        let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, low32), pm);
        t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), pm);
        x1 = _mm_xor_si128(x1, t);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(x1)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"the navigator persists every transition".to_vec();
        let original = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), original, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn differs_for_prefix() {
        let data = b"abcdef";
        assert_ne!(crc32(&data[..5]), crc32(data));
    }

    #[test]
    fn both_fast_paths_match_bytewise_at_every_length_and_alignment() {
        // Deterministic pseudo-random buffer; check every length 0..=257
        // so all chunk remainders (0..8), the fold threshold, its 16-byte
        // lanes and multi-block paths are hit.  (The seeded differential
        // in `bioopera-harness` goes to 1 MiB.)
        let mut state = 0x9E37_79B9u32;
        let data: Vec<u8> = (0..257)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect();
        let check = |data: &[u8], what: &dyn std::fmt::Display| {
            let want = crc32_bytewise(data);
            assert_eq!(crc32_portable(data), want, "portable, {what}");
            assert_eq!(crc32(data), want, "{}, {what}", kernel());
        };
        for len in 0..=data.len() {
            check(&data[..len], &format_args!("len {len}"));
        }
        // Unaligned starts too.
        for start in 1..16 {
            check(&data[start..], &format_args!("start {start}"));
        }
    }
}
