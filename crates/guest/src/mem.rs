//! Sparse guest memory.

use smarq::hash::FastMap;

/// The byte range `[lo, hi]` one guest access touches. Every access is
/// one aligned 8-byte word ([`MemRange::word`]), the footprint both
/// [`Memory`] and the alias hardware use: two accesses alias exactly when
/// their words overlap.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemRange {
    /// First byte.
    pub lo: u64,
    /// Last byte (inclusive).
    pub hi: u64,
}

impl MemRange {
    /// The 8-byte range starting at `addr` (aligned down).
    pub fn word(addr: u64) -> Self {
        let lo = addr & !7;
        MemRange { lo, hi: lo + 7 }
    }

    /// Whether two ranges overlap.
    pub fn overlaps(self, other: MemRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

/// A sparse, word-addressed (8-byte) memory.
///
/// Addresses are byte addresses; accesses are aligned down to 8 bytes (the
/// guest ISA only issues 8-byte accesses and the workloads keep them
/// aligned). Uninitialized memory reads as zero.
///
/// Every guest load and store of every executor goes through this type,
/// so the word map hashes with [`smarq::hash::FastHasher`] rather than
/// SipHash. Only non-zero words are stored: writing zero removes the
/// word, and equality compares the non-zero words.
///
/// ```
/// use smarq_guest::Memory;
/// let mut m = Memory::new();
/// m.write(0x1000, 42);
/// assert_eq!(m.read(0x1000), 42);
/// assert_eq!(m.read(0x2000), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Memory {
    words: FastMap<u64, u64>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the 8-byte word containing `addr`.
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        self.words.get(&(addr >> 3)).copied().unwrap_or(0)
    }

    /// Writes the 8-byte word containing `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        self.replace(addr, value);
    }

    /// Writes the 8-byte word containing `addr` and returns the word it
    /// held, with one map probe (a store that keeps an undo log would
    /// otherwise [`read`](Self::read) and then [`write`](Self::write)).
    ///
    /// ```
    /// use smarq_guest::Memory;
    /// let mut m = Memory::new();
    /// assert_eq!(m.replace(0x10, 5), 0);
    /// assert_eq!(m.replace(0x10, 0), 5);
    /// assert_eq!(m.footprint_words(), 0);
    /// ```
    #[inline]
    pub fn replace(&mut self, addr: u64, value: u64) -> u64 {
        let key = addr >> 3;
        let old = if value == 0 {
            self.words.remove(&key)
        } else {
            self.words.insert(key, value)
        };
        old.unwrap_or(0)
    }

    /// Reads an `f64` stored at `addr`.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read(addr))
    }

    /// Writes an `f64` at `addr`.
    #[inline]
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write(addr, value.to_bits());
    }

    /// Number of non-zero words (for tests and statistics).
    pub fn footprint_words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq::prng::Prng;
    use std::collections::BTreeMap;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(0xffff_ffff_fff8), 0);
        assert_eq!(m.footprint_words(), 0);
    }

    #[test]
    fn word_aliasing_within_8_bytes() {
        let mut m = Memory::new();
        m.write(0x100, 7);
        // Any byte address within the word maps to the same cell.
        assert_eq!(m.read(0x101), 7);
        assert_eq!(m.read(0x107), 7);
        assert_eq!(m.read(0x108), 0);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = Memory::new();
        m.write_f64(0x200, -3.75);
        assert_eq!(m.read_f64(0x200), -3.75);
    }

    #[test]
    fn writing_zero_frees_the_word() {
        let mut m = Memory::new();
        m.write(0x300, 9);
        assert_eq!(m.footprint_words(), 1);
        m.write(0x300, 0);
        assert_eq!(m.footprint_words(), 0);
        assert_eq!(m.read(0x300), 0);
    }

    /// An address from the mix the memory must handle: dense words,
    /// power-of-two strides from 8 B to 4 GiB, and the top of the
    /// address space (including unaligned bytes within a word).
    fn pick_addr(rng: &mut Prng) -> u64 {
        let i = rng.bounded(64);
        match rng.bounded(3) {
            0 => 0x1000 + 8 * i,
            1 => {
                let stride = 8u64 << rng.bounded(30);
                0x10_0000u64.wrapping_add(i.wrapping_mul(stride))
            }
            _ => u64::MAX - 8 * i - rng.bounded(8),
        }
    }

    /// Memory holding exactly the model's words, inserted in key order
    /// (the opposite insertion history from the memory under test).
    fn rebuilt(model: &BTreeMap<u64, u64>) -> Memory {
        let mut m = Memory::new();
        for (&word, &value) in model {
            m.write(word << 3, value);
        }
        m
    }

    #[test]
    fn matches_a_btreemap_model() {
        for seed in 0..8 {
            let mut rng = Prng::new(seed);
            let mut mem = Memory::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for step in 0..4000 {
                let addr = pick_addr(&mut rng);
                match rng.bounded(8) {
                    0..=2 => {
                        let want = model.get(&(addr >> 3)).copied().unwrap_or(0);
                        assert_eq!(
                            mem.read(addr),
                            want,
                            "seed {seed} step {step} read {addr:#x}"
                        );
                    }
                    3..=5 => {
                        let value = if rng.chance(1, 4) {
                            0
                        } else {
                            rng.next_u64() | 1
                        };
                        let old = model.get(&(addr >> 3)).copied().unwrap_or(0);
                        if rng.chance(1, 2) {
                            assert_eq!(mem.replace(addr, value), old, "seed {seed} step {step}");
                        } else {
                            mem.write(addr, value);
                        }
                        if value == 0 {
                            model.remove(&(addr >> 3));
                        } else {
                            model.insert(addr >> 3, value);
                        }
                    }
                    6 => {
                        // Zero write to a word that may never have existed.
                        mem.write(addr, 0);
                        model.remove(&(addr >> 3));
                    }
                    _ => {
                        let copy = mem.clone();
                        assert_eq!(copy, mem);
                        mem = copy;
                    }
                }
                assert_eq!(mem.footprint_words(), model.len());
                if step % 500 == 499 {
                    let other = rebuilt(&model);
                    assert_eq!(mem, other, "seed {seed} step {step}");
                    assert_eq!(other, mem, "seed {seed} step {step}");
                    let mut differs = other.clone();
                    let probe = pick_addr(&mut rng);
                    differs.write(probe, differs.read(probe) ^ 1);
                    assert_ne!(mem, differs, "seed {seed} step {step}");
                    assert_ne!(differs, mem, "seed {seed} step {step}");
                }
            }
            for (&word, &value) in &model {
                assert_eq!(mem.read(word << 3), value);
            }
        }
    }

    #[test]
    fn equality_ignores_zero_writes() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write(8, 1);
        b.write(8, 1);
        b.write(16, 0);
        assert_eq!(a, b);
    }
}
