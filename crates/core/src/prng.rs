//! A small, dependency-free, deterministic pseudo-random number generator.
//!
//! The workspace builds in fully offline environments, so the usual
//! `rand`/`proptest` crates are not available. Everything that needs
//! randomness — workload generators, differential property tests, benchmark
//! input synthesis — uses this SplitMix64-based generator instead. It is
//! *not* cryptographic; it only needs to be fast, well distributed and
//! bit-reproducible across platforms so seeded tests stay deterministic.
//!
//! ```
//! use smarq::prng::Prng;
//! let mut a = Prng::new(7);
//! let mut b = Prng::new(7);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! let x = a.range_u32(10, 20);
//! assert!((10..20).contains(&x));
//! ```

/// A SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).
///
/// One 64-bit word of state, advanced by a Weyl sequence and finalized with
/// a variance-of-MurmurHash3 mixer. Passes BigCrush when used as a stream;
/// every seed (including 0) produces a full-period sequence.
#[derive(Clone, Debug)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Creates a generator from a 64-bit seed. Equal seeds yield equal
    /// streams on every platform.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns the next value reduced to `[0, bound)`. `bound` must be
    /// non-zero. Uses the widening-multiply reduction (Lemire); the modulo
    /// bias is below 2⁻³² for every bound used in this workspace.
    pub fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bounded(0) is meaningless");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform value in the half-open range `[lo, hi)` (`hi > lo`).
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(hi > lo, "empty range");
        lo + self.bounded(hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `i64` in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(hi > lo, "empty range");
        lo.wrapping_add(self.bounded(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// Bernoulli draw: `true` with probability `num / denom`.
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.bounded(denom) < num
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range_usize(0, items.len())]
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }

    /// Applies one seeded mutation to `bytes`: a bit flip, an inserted
    /// random byte, a deleted byte, or a duplicated line. Front-door
    /// tests feed parsers real inputs mutated this way.
    pub fn mutate_bytes(&mut self, bytes: &mut Vec<u8>) {
        let kind = if bytes.is_empty() { 1 } else { self.bounded(4) };
        let len = bytes.len();
        match kind {
            0 => bytes[self.range_usize(0, len)] ^= 1 << self.bounded(8),
            1 => bytes.insert(self.range_usize(0, len + 1), self.next_u64() as u8),
            2 => {
                bytes.remove(self.range_usize(0, len));
            }
            _ => {
                let at = self.range_usize(0, len);
                let start = bytes[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                let end = bytes[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(len, |i| at + i + 1);
                let line = bytes[start..end].to_vec();
                bytes.splice(end..end, line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = Prng::new(1);
        let mut b = Prng::new(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut p = Prng::new(9);
        for _ in 0..10_000 {
            let v = p.range_u32(5, 17);
            assert!((5..17).contains(&v));
            let w = p.range_i64(-8, 3);
            assert!((-8..3).contains(&w));
            let f = p.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn singleton_ranges_are_constant() {
        let mut p = Prng::new(3);
        for _ in 0..100 {
            assert_eq!(p.range_u32(7, 8), 7);
        }
    }

    #[test]
    fn bounded_covers_all_residues() {
        let mut p = Prng::new(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[p.bounded(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues of 8 reachable");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut p = Prng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        p.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn mutate_bytes_reaches_every_kind() {
        let mut p = Prng::new(13);
        let src = b"ab\ncd\n".to_vec();
        let (mut flips, mut inserts, mut deletes, mut dups) = (0, 0, 0, 0);
        for _ in 0..400 {
            let mut m = src.clone();
            p.mutate_bytes(&mut m);
            match m.len() {
                5 => deletes += 1,
                6 => {
                    assert_eq!(m.iter().zip(&src).filter(|(a, b)| a != b).count(), 1);
                    flips += 1;
                }
                7 => inserts += 1,
                9 => {
                    assert!(m == b"ab\nab\ncd\n" || m == b"ab\ncd\ncd\n", "{m:?}");
                    dups += 1;
                }
                n => panic!("unexpected length {n}"),
            }
        }
        assert!(flips > 0 && inserts > 0 && deletes > 0 && dups > 0);
        let mut empty = Vec::new();
        p.mutate_bytes(&mut empty);
        assert_eq!(empty.len(), 1, "an empty input only grows");
    }
}
