//! **Per-run bloom filter** — a compact membership summary written into
//! each sorted-run file's metadata so point lookups can skip runs that
//! cannot contain a key without touching their data blocks.
//!
//! Double hashing (Kirsch–Mitzenmacher): two independent 64-bit FNV-1a
//! style hashes `h1`, `h2` derive all `k` probe positions as
//! `h1 + i * h2`.  `h2` is forced odd so the probe sequence cycles
//! through the whole bit array.  Keys are inserted as `(space, key)`
//! pairs, matching the run lookup granularity.
//!
//! Guarantees:
//! * **Zero false negatives by construction** — `may_contain` returns
//!   `true` for every inserted pair (property-tested).
//! * At the default ~10 bits/key with `k = 7` probes the false-positive
//!   rate is below ~2% in expectation; the measured rate is asserted
//!   under [`FP_BOUND`] in the property tests.

/// Bits reserved per expected key.  10 bits/key with 7 probes gives a
/// theoretical false-positive rate of about 0.8%.
pub const BITS_PER_KEY: usize = 10;

/// Number of probe positions per key.
pub const PROBES: u32 = 7;

/// Stated upper bound on the measured false-positive rate at
/// [`BITS_PER_KEY`] density (generous headroom over the ~0.8%
/// expectation; asserted by the property tests).
pub const FP_BOUND: f64 = 0.03;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Two independent hashes of `(space, key)` for double hashing.
/// Public so a point lookup probing many runs can hash the key once
/// and reuse the pair via [`Bloom::may_contain_hashed`].
pub fn hash_pair(space: u8, key: &str) -> (u64, u64) {
    let mut h1 = FNV_OFFSET;
    let mut h2 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;
    h1 = (h1 ^ space as u64).wrapping_mul(FNV_PRIME);
    h2 = (h2 ^ space as u64).wrapping_mul(FNV_PRIME ^ 0xff);
    for &b in key.as_bytes() {
        h1 = (h1 ^ b as u64).wrapping_mul(FNV_PRIME);
        h2 = (h2 ^ b as u64).wrapping_mul(FNV_PRIME ^ 0xff);
    }
    // Final avalanche so short keys still spread across the bit array.
    h1 ^= h1 >> 33;
    h1 = h1.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h1 ^= h1 >> 33;
    h2 ^= h2 >> 29;
    h2 = h2.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h2 ^= h2 >> 29;
    (h1, h2 | 1)
}

/// A fixed-size bloom filter over `(space, key)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    k: u32,
    words: Vec<u64>,
}

impl Bloom {
    /// An empty filter sized for `expected_keys` insertions at
    /// [`BITS_PER_KEY`] density (minimum one word so the probe math
    /// never divides by zero).
    pub fn with_capacity(expected_keys: usize) -> Bloom {
        let bits = (expected_keys * BITS_PER_KEY).max(64);
        Bloom {
            k: PROBES,
            words: vec![0u64; bits.div_ceil(64)],
        }
    }

    /// Total bits in the array.
    pub fn bits(&self) -> usize {
        self.words.len() * 64
    }

    /// Map a probe hash onto a bit index without a division: Lemire's
    /// multiply-shift reduction, uniform over `0..nbits` (a u64 modulo
    /// costs tens of cycles and sits on the hot read path 7x per run).
    #[inline]
    fn reduce(h: u64, nbits: u64) -> u64 {
        ((h as u128 * nbits as u128) >> 64) as u64
    }

    pub fn insert(&mut self, space: u8, key: &str) {
        self.insert_hashed(hash_pair(space, key));
    }

    /// [`Bloom::insert`] with the hash pair precomputed — a run writer
    /// hashes each key as it arrives and fills the filter, sized by the
    /// final count, at the end.
    pub fn insert_hashed(&mut self, (h1, h2): (u64, u64)) {
        let nbits = self.bits() as u64;
        for i in 0..self.k as u64 {
            let bit = Self::reduce(h1.wrapping_add(i.wrapping_mul(h2)), nbits);
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// `false` means the pair was definitely never inserted; `true`
    /// means it *may* have been.
    pub fn may_contain(&self, space: u8, key: &str) -> bool {
        self.may_contain_hashed(hash_pair(space, key))
    }

    /// [`Bloom::may_contain`] with the hash pair precomputed — a lookup
    /// across many runs hashes the key once and probes every filter.
    pub fn may_contain_hashed(&self, (h1, h2): (u64, u64)) -> bool {
        let nbits = self.bits() as u64;
        for i in 0..self.k as u64 {
            let bit = Self::reduce(h1.wrapping_add(i.wrapping_mul(h2)), nbits);
            if self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Append the wire encoding: `k` (u32 LE), word count (u32 LE),
    /// then each word as u64 LE.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&(self.words.len() as u32).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decode from the front of `input`, returning the filter and the
    /// number of bytes consumed, or `None` when the input is truncated
    /// or degenerate (zero probes / zero words).
    pub fn decode(input: &[u8]) -> Option<(Bloom, usize)> {
        if input.len() < 8 {
            return None;
        }
        let k = u32::from_le_bytes(input[0..4].try_into().ok()?);
        let nwords = u32::from_le_bytes(input[4..8].try_into().ok()?) as usize;
        if k == 0 || nwords == 0 {
            return None;
        }
        let need = 8 + nwords * 8;
        if input.len() < need {
            return None;
        }
        let mut words = Vec::with_capacity(nwords);
        for i in 0..nwords {
            let at = 8 + i * 8;
            words.push(u64::from_le_bytes(input[at..at + 8].try_into().ok()?));
        }
        Some((Bloom { k, words }, need))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_the_wire_encoding() {
        let mut b = Bloom::with_capacity(100);
        for i in 0..100 {
            b.insert((i % 4) as u8, &format!("key/{i}"));
        }
        let mut buf = vec![0xAA]; // leading garbage the decoder must skip past
        b.encode_into(&mut buf);
        buf.extend_from_slice(&[0xBB, 0xCC]); // trailing bytes ignored
        let (decoded, consumed) = Bloom::decode(&buf[1..]).unwrap();
        assert_eq!(decoded, b);
        assert_eq!(consumed, buf.len() - 3);
    }

    #[test]
    fn truncated_or_degenerate_encodings_are_rejected() {
        let mut b = Bloom::with_capacity(10);
        b.insert(0, "x");
        let mut buf = Vec::new();
        b.encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(Bloom::decode(&buf[..cut]).is_none(), "cut at {cut}");
        }
        assert!(Bloom::decode(&[0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]).is_none());
        assert!(Bloom::decode(&[7, 0, 0, 0, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn spaces_are_part_of_the_identity() {
        let mut b = Bloom::with_capacity(4);
        b.insert(1, "same-key");
        assert!(b.may_contain(1, "same-key"));
        // A single insertion in a generously-sized filter must not alias
        // the identical key under a different space.
        assert!(!b.may_contain(2, "same-key"));
    }
}
