//! The single-word SMARQ alias queue.
//!
//! [`FastAliasQueue`] is the SMARQ ordered queue flattened onto a single
//! `u64` occupancy word (the paper's machine has 64 alias registers),
//! replicating [`smarq::queue::AliasQueue`]'s first-hit scan order,
//! load-set filtering, rotation and AMOV semantics. The cycle simulator
//! runs it through [`AnyAliasHw::Smarq`](crate::AnyAliasHw::Smarq).
//!
//! The functional tier has no alias hardware of its own: its lowering
//! (`smarq_opt::fastcomp`) replays the region's hardware once at
//! translation time, reading each check's ordered producer list off
//! [`AnyAliasHw::walk`](crate::AnyAliasHw::walk), so its hot loop only
//! compares addresses. Both tiers run over the one atomic-region state,
//! [`VliwState`](crate::VliwState).

use crate::alias_hw::{contract_violation, AliasViolation, HwKind};
use crate::isa::{AliasAnnot, MemRange};

/// Bitmask for physical slots `[a, b)` of a single-word queue.
#[inline]
fn span_mask(a: u32, b: u32) -> u64 {
    debug_assert!(a <= b && b <= 64);
    if b - a >= 64 {
        u64::MAX
    } else {
        ((1u64 << (b - a)) - 1) << a
    }
}

/// The SMARQ ordered alias register queue flattened onto one `u64`
/// occupancy word — the form the cycle simulator runs and the functional
/// tier's planner replays, for files of up to
/// [`MAX_REGS`](Self::MAX_REGS) registers.
///
/// Bit-exact with [`smarq::queue::AliasQueue`]: checks scan offsets
/// `from..n` in ascending order and report the *first* conflicting
/// producer, loads skip load-set entries, rotation clears the registers
/// that rotate out, and AMOV moves (or clears, for `src == dst`) a single
/// entry. Offsets, rotations and AMOV operands are bounds-checked in
/// every build. The unit tests drive both implementations through random
/// operation sequences and assert identical observable behavior.
#[derive(Clone, Debug)]
pub struct FastAliasQueue {
    /// Recorded access range per physical slot (valid where `occ` set).
    ranges: Box<[MemRange]>,
    /// Producer tag per physical slot (valid where `occ` set).
    tags: Box<[u32]>,
    /// Occupancy bitmask over physical slots.
    occ: u64,
    /// Set-by-load bitmask (meaningful only where `occ` is set).
    by_load: u64,
    /// Physical slot currently at offset 0.
    base: u32,
    /// Register count.
    n: u32,
}

impl FastAliasQueue {
    /// Largest register file one occupancy word covers.
    pub const MAX_REGS: u32 = 64;

    /// Creates a queue with `num_regs` registers, all free.
    ///
    /// # Panics
    /// Panics unless `1 <= num_regs <= 64` — the single-word fast form
    /// only covers hardware-sized files.
    pub fn new(num_regs: u32) -> Self {
        assert!(
            (1..=Self::MAX_REGS).contains(&num_regs),
            "fast alias queue covers 1..=64 registers, got {num_regs}"
        );
        FastAliasQueue {
            ranges: vec![MemRange { lo: 0, hi: 0 }; num_regs as usize].into_boxed_slice(),
            tags: vec![0; num_regs as usize].into_boxed_slice(),
            occ: 0,
            by_load: 0,
            base: 0,
            n: num_regs,
        }
    }

    /// Register count.
    pub fn num_regs(&self) -> u32 {
        self.n
    }

    /// Clears every register and resets the base (atomic region entry).
    #[inline]
    pub fn reset(&mut self) {
        self.occ = 0;
        self.by_load = 0;
        self.base = 0;
    }

    /// Enforces the bounds contract on `offset`.
    #[inline]
    fn check_bounds(&self, offset: u32) {
        if offset >= self.n {
            contract_violation(HwKind::Smarq, offset, self.n);
        }
    }

    /// Physical slot of an in-bounds `offset`.
    #[inline]
    fn phys(&self, offset: u32) -> u32 {
        let p = self.base + offset;
        if p >= self.n {
            p - self.n
        } else {
            p
        }
    }

    /// The physical runs covering offsets `from..n` in increasing-offset
    /// order (the circular window splits into at most two linear runs).
    #[inline]
    fn window(&self, from: u32) -> [(u32, u32); 2] {
        let start = self.phys(from);
        let len = self.n - from;
        if start + len <= self.n {
            [(start, start + len), (0, 0)]
        } else {
            [(start, self.n), (0, start + len - self.n)]
        }
    }

    /// One annotated memory access — the SMARQ semantics both tiers
    /// share. The `C` check runs before the `P` set, so an op never
    /// aliases with itself; a hit raises an [`AliasViolation`] naming the
    /// first conflicting producer, otherwise the result is the number of
    /// valid entries the check examined (the `entries_scanned` energy
    /// proxy). Non-SMARQ annotations are ignored.
    ///
    /// # Errors
    /// [`AliasViolation`] when the check finds an overlapping entry.
    ///
    /// # Panics
    /// Panics when `offset` is outside the register file (the bounds
    /// contract).
    #[inline]
    pub fn access(
        &mut self,
        annot: AliasAnnot,
        range: MemRange,
        is_load: bool,
        tag: u32,
    ) -> Result<u32, AliasViolation> {
        let AliasAnnot::Smarq { p, c, offset } = annot else {
            debug_assert!(
                matches!(annot, AliasAnnot::None),
                "SMARQ hardware received a foreign annotation: {annot:?}"
            );
            return Ok(0);
        };
        self.check_bounds(offset);
        let mut examined = 0;
        if c {
            examined = self.valid_from(offset);
            if let Some(producer) = self.check_first(offset, is_load, range) {
                return Err(AliasViolation {
                    checker_tag: tag,
                    producer_tag: producer,
                });
            }
        }
        if p {
            self.set(offset, range, tag, is_load);
        }
        Ok(examined)
    }

    /// **set** (`P` bit): records `range`/`tag` at an in-bounds `offset`.
    #[inline]
    fn set(&mut self, offset: u32, range: MemRange, tag: u32, is_load: bool) {
        let idx = self.phys(offset);
        self.ranges[idx as usize] = range;
        self.tags[idx as usize] = tag;
        self.occ |= 1u64 << idx;
        if is_load {
            self.by_load |= 1u64 << idx;
        } else {
            self.by_load &= !(1u64 << idx);
        }
    }

    /// **check** (`C` bit): the producer tag of the *first* entry in
    /// the check window of `offset` that overlaps `range`, if any.
    #[inline]
    fn check_first(&self, offset: u32, is_load: bool, range: MemRange) -> Option<u32> {
        self.walk_window(offset, is_load, |r, _| r.overlaps(range))
    }

    /// The ordered window walk of a check at an in-bounds `offset`:
    /// visits the valid entries at offsets `>= offset` in ascending
    /// order (a load skips load-set entries) and returns the tag of the
    /// first one for which `hit(range, tag)` holds. The runtime check
    /// stops at an overlap; the functional tier's planner never stops
    /// and so reads off the whole ordered producer list.
    #[inline]
    pub fn walk_window(
        &self,
        offset: u32,
        is_load: bool,
        mut hit: impl FnMut(MemRange, u32) -> bool,
    ) -> Option<u32> {
        let candidates = if is_load {
            self.occ & !self.by_load
        } else {
            self.occ
        };
        for (a, b) in self.window(offset) {
            let mut m = candidates & span_mask(a, b);
            while m != 0 {
                let idx = m.trailing_zeros() as usize;
                if hit(self.ranges[idx], self.tags[idx]) {
                    return Some(self.tags[idx]);
                }
                m &= m - 1;
            }
        }
        None
    }

    /// Number of valid entries a check starting at `offset` examines
    /// (the energy proxy; a popcount over the occupancy window).
    #[inline]
    fn valid_from(&self, offset: u32) -> u32 {
        let [r1, r2] = self.window(offset);
        (self.occ & (span_mask(r1.0, r1.1) | span_mask(r2.0, r2.1))).count_ones()
    }

    /// **rotate k**: advances the base by `amount`, clearing the
    /// registers that rotate out.
    ///
    /// # Panics
    /// Panics when `amount` exceeds the register count (the bounds
    /// contract).
    #[inline]
    pub fn rotate(&mut self, amount: u32) {
        if amount > self.n {
            contract_violation(HwKind::Smarq, amount, self.n);
        }
        // Offsets 0..amount occupy the physical window starting at base.
        let start = self.base;
        let released = if start + amount <= self.n {
            span_mask(start, start + amount)
        } else {
            span_mask(start, self.n) | span_mask(0, start + amount - self.n)
        };
        self.occ &= !released;
        self.base += amount;
        if self.base >= self.n {
            self.base -= self.n;
        }
    }

    /// **AMOV src, dst**: moves the entry at `src` to `dst`, clearing
    /// `src`; `src == dst` just clears. Moving an empty register clears
    /// `dst` (exactly as the reference queue does).
    ///
    /// # Panics
    /// Panics when either offset is outside the register file (the
    /// bounds contract).
    #[inline]
    pub fn amov(&mut self, src: u32, dst: u32) {
        self.check_bounds(src);
        self.check_bounds(dst);
        let sidx = self.phys(src);
        let present = self.occ & (1u64 << sidx) != 0;
        let was_load = self.by_load & (1u64 << sidx) != 0;
        self.occ &= !(1u64 << sidx);
        if src != dst {
            let didx = self.phys(dst);
            if present {
                self.ranges[didx as usize] = self.ranges[sidx as usize];
                self.tags[didx as usize] = self.tags[sidx as usize];
                self.occ |= 1u64 << didx;
            } else {
                self.occ &= !(1u64 << didx);
            }
            if present && was_load {
                self.by_load |= 1u64 << didx;
            } else {
                self.by_load &= !(1u64 << didx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::AliasAnnot;
    use smarq::prng::Prng;
    use smarq::queue::AliasQueue;

    /// The functional tier's state is the cycle simulator's state: guest
    /// registers marshal in and out through it, and a sampled tier-down
    /// hands the very same value to the simulator with no copy step.
    #[test]
    fn state_marshal_roundtrips() {
        let mut fs = crate::FastState::new();
        let mut regs = [0i64; 32];
        let mut fregs = [0f64; 32];
        regs[5] = 99;
        fregs[7] = 2.5;
        fs.load_guest(&regs, &fregs);
        assert_eq!(fs.regs[5], 99);
        let mut r2 = [0i64; 32];
        let mut f2 = [0f64; 32];
        fs.store_guest(&mut r2, &mut f2);
        assert_eq!(r2, regs);
        assert_eq!(f2, fregs);

        fs.regs[40] = -7;
        fs.fregs[63] = 0.5;
        let vs: crate::VliwState = fs.clone();
        assert_eq!(vs.regs, fs.regs);
        assert_eq!(vs.fregs, fs.fregs);
    }

    /// One SMARQ access on the generic reference queue, with the
    /// semantics [`FastAliasQueue::access`] documents: the `C` check
    /// first (examined count or first-hit producer), then the `P` set.
    fn reference_access(
        queue: &mut AliasQueue<(MemRange, u32)>,
        annot: AliasAnnot,
        range: MemRange,
        is_load: bool,
        tag: u32,
    ) -> Result<u32, AliasViolation> {
        let AliasAnnot::Smarq { p, c, offset } = annot else {
            unreachable!("the stream carries SMARQ annotations only")
        };
        let mut examined = 0;
        if c {
            examined = queue.valid_from(offset).unwrap();
            let hits = queue
                .check(offset, is_load, |&(r, _)| r.overlaps(range))
                .unwrap();
            if let Some(&h) = hits.first() {
                let producer = queue.get(h).unwrap().expect("hit valid").payload.1;
                return Err(AliasViolation {
                    checker_tag: tag,
                    producer_tag: producer,
                });
            }
        }
        if p {
            queue.set(offset, (range, tag), is_load).unwrap();
        }
        Ok(examined)
    }

    /// Drives the shared access routine of the single-word queue and the
    /// generic reference queue through random operation sequences: every
    /// access must agree on the examined-entry count, or on the
    /// first-hit producer tag when the check fires.
    #[test]
    fn fast_queue_matches_reference_hardware() {
        for &regs in &[1u32, 2, 5, 16, 63, 64] {
            let mut rng = Prng::new(u64::from(regs) * 977 + 5);
            let mut fast = FastAliasQueue::new(regs);
            let mut reference = AliasQueue::new(regs);
            let mut tag = 0u32;
            let (mut hits, mut scanned) = (0, 0);
            for step in 0..600 {
                match rng.bounded(8) {
                    0..=4 => {
                        // A memory access with random P/C bits.
                        let annot = AliasAnnot::Smarq {
                            p: rng.chance(1, 2),
                            c: rng.chance(1, 2),
                            offset: rng.range_u32(0, regs),
                        };
                        let is_load = rng.chance(1, 2);
                        let addr = u64::from(rng.range_u32(0, 6)) * 8 + 0x100;
                        let range = MemRange::word(addr);
                        tag += 1;
                        let expect = reference_access(&mut reference, annot, range, is_load, tag);
                        let got = fast.access(annot, range, is_load, tag);
                        assert_eq!(got, expect, "regs={regs} step={step}");
                        match got {
                            Ok(n) => scanned += n,
                            Err(_) => hits += 1,
                        }
                    }
                    5 => {
                        let amount = rng.range_u32(0, regs.min(4) + 1);
                        reference.rotate(amount).unwrap();
                        fast.rotate(amount);
                    }
                    6 => {
                        let src = rng.range_u32(0, regs);
                        let dst = rng.range_u32(0, regs);
                        reference.amov(src, dst).unwrap();
                        fast.amov(src, dst);
                    }
                    _ => {
                        if rng.chance(1, 8) {
                            reference.reset();
                            fast.reset();
                        }
                    }
                }
            }
            assert!(hits > 0 && scanned > 0, "regs={regs}: stream too tame");
        }
    }

    #[test]
    #[should_panic(expected = "SMARQ queue contract violated")]
    fn over_long_rotation_panics() {
        FastAliasQueue::new(4).rotate(5);
    }

    #[test]
    #[should_panic(expected = "SMARQ queue contract violated")]
    fn out_of_range_amov_panics() {
        FastAliasQueue::new(4).amov(0, 4);
    }

    #[test]
    fn rotation_wraps_and_releases_like_the_paper() {
        // Mirror the AliasQueue rotation test: set 0 and 1, rotate 1 —
        // old offset 1 is now offset 0, the released slot is reusable.
        let mut q = FastAliasQueue::new(2);
        q.set(0, MemRange::word(0x100), 10, false);
        q.set(1, MemRange::word(0x200), 11, false);
        q.rotate(1);
        assert_eq!(q.check_first(0, false, MemRange::word(0x200)), Some(11));
        assert_eq!(q.check_first(0, false, MemRange::word(0x100)), None);
        assert_eq!(q.valid_from(0), 1);
        q.set(1, MemRange::word(0x300), 12, false);
        assert_eq!(q.valid_from(0), 2);
    }

    #[test]
    fn full_width_queue_edge_cases() {
        // n = 64 exercises the shift-by-64 edge in the span masks.
        let mut q = FastAliasQueue::new(64);
        for off in 0..64 {
            q.set(off, MemRange::word(0x100), off, false);
        }
        assert_eq!(q.valid_from(0), 64);
        assert_eq!(q.check_first(0, false, MemRange::word(0x100)), Some(0));
        q.rotate(64);
        assert_eq!(q.valid_from(0), 0);
        assert_eq!(q.check_first(0, false, MemRange::word(0x100)), None);
    }

    #[test]
    fn load_checkers_skip_load_set_entries() {
        let mut q = FastAliasQueue::new(4);
        q.set(0, MemRange::word(0x100), 1, true);
        q.set(1, MemRange::word(0x100), 2, false);
        assert_eq!(q.check_first(0, true, MemRange::word(0x100)), Some(2));
        assert_eq!(q.check_first(0, false, MemRange::word(0x100)), Some(1));
    }
}
