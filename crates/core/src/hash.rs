//! A small deterministic hasher for integer-keyed maps on hot paths.
//!
//! std's default `RandomState` (SipHash-1-3) is built to resist
//! hash-flooding by untrusted keys. Guest memory words and memory-op
//! indices are integers hashed once per guest load or store and up to
//! O(n²) times per translated region, where SipHash's cost dominates the
//! lookup. [`FastHasher`] is an Fx-style word hasher instead: each
//! written word is folded in with a rotate, an xor and one multiply.
//!
//! A multiply only carries entropy upwards, so keys that differ only in
//! high bits (power-of-two strides, the common guest address pattern)
//! would otherwise all land in the same low bits, which are exactly the
//! bits hashbrown uses to pick a bucket. [`FastHasher::finish`]
//! therefore rotates the well-mixed high bits down into the low ones.
//!
//! The hash is unkeyed, so map iteration order is a pure function of the
//! insertion sequence, and a caller that picks keys adversarially can
//! force collisions. Neither matters for the keys hashed here.
//!
//! ```
//! use smarq::hash::FastMap;
//! let mut m: FastMap<u64, u64> = FastMap::default();
//! m.insert(1 << 40, 7);
//! assert_eq!(m.get(&(1 << 40)), Some(&7));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit multiplier of FxHash (rustc's hasher): odd, with well
/// spread bits, so every input bit reaches the product's high half.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Distance [`FastHasher::finish`] rotates left: brings product bits
/// 37.. (mixed from every key bit) into the bucket-index bits. Keys with
/// strides up to 2^32 leave bits 32.. non-zero, so 27..=32 spread them;
/// 27 spreads dense keys best (the stride test below), while 26 or less
/// halves the buckets dense keys reach with this multiplier.
const FINISH_ROTATE: u32 = 27;

/// Fx-style word hasher: per word, rotate, xor, multiply. See the
/// [module docs](self).
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }
}

/// `HashMap` on [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` on [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(x)
    }

    /// Bucket-index bits of a 4096-bucket table.
    const BUCKET_MASK: u64 = 4095;

    /// Power-of-two key strides, from dense words up to 4 GiB strides of
    /// byte addresses, must still spread across the low bucket bits. A
    /// `finish` without the final rotate collapses every stride of 4096
    /// or more onto a single bucket.
    #[test]
    fn power_of_two_strides_spread_across_bucket_bits() {
        for shift in 0..=32u32 {
            let stride = 1u64 << shift;
            for base in [0u64, 0x1000_0000, u64::MAX - 4096 * stride] {
                let buckets: HashSet<u64> = (0..4096u64)
                    .map(|i| hash_of(base.wrapping_add(i * stride)) & BUCKET_MASK)
                    .collect();
                assert!(
                    buckets.len() >= 2000,
                    "stride 2^{shift} from {base:#x}: only {} of 4096 buckets used",
                    buckets.len()
                );
            }
        }
    }

    #[test]
    fn deterministic_and_distinguishes_tuple_order() {
        assert_eq!(hash_of((3u32, 4u32)), hash_of((3u32, 4u32)));
        assert_ne!(hash_of((3u32, 4u32)), hash_of((4u32, 3u32)));
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        let h = |b: &[u8]| {
            let mut s = FastHasher::default();
            s.write(b);
            s.finish()
        };
        assert_ne!(h(&[1; 9]), h(&[1; 8]));
        assert_ne!(
            h(&[0, 0, 0, 0, 0, 0, 0, 0, 1]),
            h(&[0, 0, 0, 0, 0, 0, 0, 0, 2])
        );
    }
}
