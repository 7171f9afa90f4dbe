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

/// log2 of the words in one directory page: 512 words, 4 KiB.
const PAGE_SHIFT: u32 = 9;
/// Word offset within a page.
const PAGE_MASK: u64 = (1 << PAGE_SHIFT) - 1;
/// Words below this index live in the page directory: the low 16 MiB of
/// the address space. Every stand-in and generated workload keeps its
/// data there; addresses above it go to a hash map.
const WINDOW_WORDS: u64 = 1 << 21;

/// One 4 KiB page of the directory, holding only the contiguous extent
/// of words it has been written at: word `lo + i` of the page is
/// `words[i]`, and every word outside the extent is zero. The extent may
/// hold zeros (a word written and later cleared), so it is a superset of
/// the page's non-zero words.
#[derive(Clone, Debug, Default)]
struct Page {
    /// Page offset (in words) of `words[0]`.
    lo: u32,
    /// The extent; empty for a page never written with a non-zero value.
    words: Vec<u64>,
}

impl Page {
    /// Index into `words` of page offset `off`, if the extent covers it.
    /// An offset below `lo` wraps to an index past the end.
    #[inline]
    fn index(&self, off: u64) -> usize {
        (off as u32).wrapping_sub(self.lo) as usize
    }

    /// Grows the extent (up or down) to cover page offset `off` and
    /// returns its slot.
    fn cover(&mut self, off: u32) -> &mut u64 {
        if self.words.is_empty() {
            self.lo = off;
            self.words.push(0);
        } else if off < self.lo {
            let gap = (self.lo - off) as usize;
            self.words.splice(0..0, std::iter::repeat_n(0, gap));
            self.lo = off;
        } else {
            let len = (off - self.lo) as usize + 1;
            if len > self.words.len() {
                self.words.resize(len, 0);
            }
        }
        &mut self.words[(off - self.lo) as usize]
    }

    /// Whether every word of the page is zero.
    fn is_zero(&self) -> bool {
        all_zero(&self.words)
    }

    /// Whether two pages hold the same words, whatever their extents: the
    /// overlap compares as one slice, and what lies outside it on either
    /// side must be zero.
    fn same_words(&self, other: &Page) -> bool {
        let (a_lo, b_lo) = (self.lo as usize, other.lo as usize);
        let lo = a_lo.max(b_lo);
        let hi = (a_lo + self.words.len()).min(b_lo + other.words.len());
        if lo >= hi {
            return self.is_zero() && other.is_zero();
        }
        let (a, b) = (&self.words, &other.words);
        a[lo - a_lo..hi - a_lo] == b[lo - b_lo..hi - b_lo]
            && all_zero(&a[..lo - a_lo])
            && all_zero(&a[hi - a_lo..])
            && all_zero(&b[..lo - b_lo])
            && all_zero(&b[hi - b_lo..])
    }
}

fn all_zero(words: &[u64]) -> bool {
    words.iter().all(|&w| w == 0)
}

/// A sparse, word-addressed (8-byte) memory.
///
/// Addresses are byte addresses; accesses are aligned down to 8 bytes (the
/// guest ISA only issues 8-byte accesses and the workloads keep them
/// aligned). Uninitialized memory reads as zero.
///
/// Every guest load and store of every executor goes through this type,
/// so an access below a fixed 16 MiB window makes no hash probe: the word
/// indexes a directory of 4 KiB pages, and each page stores only the
/// contiguous extent of words written to it. A store outside a page's
/// extent grows it; a zero store outside it changes nothing, so a zero
/// write to an untouched page allocates nothing. Within an extent a zero
/// store keeps its slot. Addresses at or above the window live in a word
/// map hashed with [`smarq::hash::FastHasher`], where writing zero
/// removes the word. Equality compares the non-zero words, whatever the
/// layout that holds them.
///
/// ```
/// use smarq_guest::Memory;
/// let mut m = Memory::new();
/// m.write(0x1000, 42);
/// assert_eq!(m.read(0x1000), 42);
/// assert_eq!(m.read(0x2000), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// Page `p` covers words `p << PAGE_SHIFT ..`; the directory grows to
    /// the highest page written with a non-zero value.
    pages: Vec<Page>,
    /// Words at or above [`WINDOW_WORDS`], non-zero only.
    high: FastMap<u64, u64>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the 8-byte word containing `addr`.
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        let word = addr >> 3;
        if word >= WINDOW_WORDS {
            return self.read_high(word);
        }
        match self.pages.get((word >> PAGE_SHIFT) as usize) {
            Some(page) => page
                .words
                .get(page.index(word & PAGE_MASK))
                .copied()
                .unwrap_or(0),
            None => 0,
        }
    }

    // The hash probes stay out of line, so the inlined directory path of
    // `read` and `replace` stays small at every executor's access sites.
    #[inline(never)]
    fn read_high(&self, word: u64) -> u64 {
        self.high.get(&word).copied().unwrap_or(0)
    }

    /// Writes the 8-byte word containing `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        self.replace(addr, value);
    }

    /// Writes the 8-byte word containing `addr` and returns the word it
    /// held, with one lookup (a store that keeps an undo log would
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
        let word = addr >> 3;
        if word >= WINDOW_WORDS {
            return self.replace_high(word, value);
        }
        if let Some(page) = self.pages.get_mut((word >> PAGE_SHIFT) as usize) {
            let i = page.index(word & PAGE_MASK);
            if let Some(slot) = page.words.get_mut(i) {
                return std::mem::replace(slot, value);
            }
        }
        if value != 0 {
            self.grow(word, value);
        }
        0
    }

    /// Stores non-zero `value` at directory word `word`, outside its
    /// page's extent.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, word: u64, value: u64) {
        let p = (word >> PAGE_SHIFT) as usize;
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, Page::default);
        }
        *self.pages[p].cover((word & PAGE_MASK) as u32) = value;
    }

    #[inline(never)]
    fn replace_high(&mut self, word: u64, value: u64) -> u64 {
        let old = if value == 0 {
            self.high.remove(&word)
        } else {
            self.high.insert(word, value)
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
        let low: usize = self
            .pages
            .iter()
            .map(|p| p.words.iter().filter(|&&w| w != 0).count())
            .sum();
        low + self.high.len()
    }
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        let common = self.pages.len().min(other.pages.len());
        self.high == other.high
            && self.pages[..common]
                .iter()
                .zip(&other.pages[..common])
                .all(|(a, b)| a.same_words(b))
            && self.pages[common..].iter().all(Page::is_zero)
            && other.pages[common..].iter().all(Page::is_zero)
    }
}

impl Eq for Memory {}

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
    /// power-of-two strides from 8 B to 4 GiB, the top of the address
    /// space (including unaligned bytes within a word), the first and
    /// last word of a directory page, the words just below and above an
    /// extent `mem` holds (so extents grow both ways), and the last
    /// directory page next to the first hashed one.
    fn pick_addr(rng: &mut Prng, mem: &Memory) -> u64 {
        let i = rng.bounded(64);
        match rng.bounded(6) {
            0 => 0x1000 + 8 * i,
            1 => {
                let stride = 8u64 << rng.bounded(30);
                0x10_0000u64.wrapping_add(i.wrapping_mul(stride))
            }
            2 => u64::MAX - 8 * i - rng.bounded(8),
            3 => {
                let page = rng.bounded(8) << (PAGE_SHIFT + 3);
                page + if rng.chance(1, 2) { 0 } else { PAGE_MASK << 3 }
            }
            4 => {
                let touched: Vec<(usize, &Page)> = mem
                    .pages
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| !p.words.is_empty())
                    .collect();
                if touched.is_empty() {
                    return 0x2000 + 8 * i;
                }
                let (p, page) = touched[rng.bounded(touched.len() as u64) as usize];
                let lo = ((p as u64) << PAGE_SHIFT) + page.lo as u64;
                let word = if rng.chance(1, 2) {
                    lo.saturating_sub(1)
                } else {
                    lo + page.words.len() as u64
                };
                word << 3
            }
            _ => (WINDOW_WORDS << 3) - 8 * 8 + 8 * (i % 16),
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
                let addr = pick_addr(&mut rng, &mem);
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
                    let probe = pick_addr(&mut rng, &other);
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

    /// Memories holding the same non-zero words in different layouts:
    /// filled upward, downward, and with extents widened by words written
    /// and then zeroed at their edges.
    #[test]
    fn equality_is_independent_of_layout() {
        let words: Vec<(u64, u64)> = [0x1000u64, 0x1008, 0x1ff8, 0x2000, 0x2400, 0x8000, 0xa_0000]
            .iter()
            .map(|&a| (a, a ^ 0xdead_beef))
            .chain([(WINDOW_WORDS << 3, 3), (u64::MAX - 7, 4)])
            .collect();
        let mut up = Memory::new();
        for &(a, v) in &words {
            up.write(a, v);
        }
        let mut down = Memory::new();
        for &(a, v) in words.iter().rev() {
            down.write(a, v);
        }
        let mut widened = Memory::new();
        for &(a, v) in &words {
            // Grow the extent one word past each edge, then clear those
            // words again: the slots stay, holding zero.
            widened.write(a.wrapping_sub(8), 1);
            widened.write(a.wrapping_add(8), 1);
            widened.write(a, v);
        }
        for &(a, _) in &words {
            widened.write(a.wrapping_sub(8), 0);
            widened.write(a.wrapping_add(8), 0);
        }
        for &(a, v) in &words {
            widened.write(a, v); // restores neighbours cleared above
        }
        assert_ne!(up.pages[2].words.len(), widened.pages[2].words.len());
        let layouts = [up, down, widened];
        for a in &layouts {
            assert_eq!(a.footprint_words(), words.len());
            for b in &layouts {
                assert_eq!(a, b);
                assert_eq!(b, a);
            }
        }
        for (i, &(addr, _)) in words.iter().enumerate() {
            for probe in [addr, addr.wrapping_add(8)] {
                let mut flipped = layouts[i % 3].clone();
                flipped.write(probe, flipped.read(probe) ^ 1);
                for other in &layouts {
                    assert_ne!(&flipped, other, "flip at {probe:#x}");
                    assert_ne!(other, &flipped, "flip at {probe:#x}");
                }
            }
        }
    }

    #[test]
    fn zero_write_to_an_untouched_page_allocates_nothing() {
        let mut m = Memory::new();
        m.write(0x1_0000, 0);
        assert_eq!(m.pages.len(), 0);
        m.write(0x8000, 5);
        let dir = m.pages.len();
        for addr in [0x10u64, 0x1000, 0x2ff8, 0x7ff8, 0x9000, 0x80_0000] {
            m.write(addr, 0);
            assert_eq!(m.replace(addr, 0), 0);
        }
        assert_eq!(m.footprint_words(), 1);
        assert_eq!(m.pages.len(), dir);
        let allocated: Vec<usize> = m
            .pages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.words.capacity() > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(allocated, [8]);
        assert_eq!(m.pages[8].words, [5]);
    }
}
