//! Functional model of the order-based alias register queue hardware
//! (paper §2.4 and §3).
//!
//! The queue is a circular file of `N` alias registers with a rotating
//! `BASE` pointer. Instructions reference registers by *offset* relative to
//! the current `BASE`; the absolute position `BASE + offset` is the
//! register's *order*. The hardware operations are:
//!
//! * **set** (`P` bit): write the memory access range into the register at
//!   a given offset, marking whether the producer was a load;
//! * **check** (`C` bit): scan every *valid* register at offsets `>=` the
//!   instruction's own offset; report any entry whose range overlaps the
//!   access (loads never check entries set by loads). An instruction with
//!   both `P` and `C` checks **before** setting, so it cannot alias with
//!   itself;
//! * **rotate k**: advance `BASE` by `k`, releasing (clearing) the `k`
//!   registers that rotate out; they logically become free registers at the
//!   tail of the queue;
//! * **AMOV o1, o2**: move the contents of the register at `o1` to the
//!   register at `o2`, clearing `o1` (`o1 == o2` is a pure clean-up).
//!
//! The model is generic over the entry payload `T` so the same semantics
//! serve the symbolic allocation validator (payload = producing op id),
//! the cycle simulator and the functional tier's planner (payload =
//! address range and tag).

use std::fmt;
use std::iter::{Chain, Enumerate};
use std::slice;

/// A valid alias register entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Entry<T> {
    /// Caller-defined payload (e.g. an address range or a producer tag).
    pub payload: T,
    /// Whether the producing memory operation was a load. Hardware marks
    /// load-set registers so later loads do not check them.
    pub set_by_load: bool,
}

/// Errors raised by queue operations that reference registers outside the
/// hardware file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueueOverflow {
    /// The offending offset.
    pub offset: u32,
    /// The hardware register count.
    pub num_regs: u32,
}

impl fmt::Display for QueueOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alias register offset {} out of range for {} registers",
            self.offset, self.num_regs
        )
    }
}

impl std::error::Error for QueueOverflow {}

/// The alias register queue model. See the [module docs](self).
///
/// A plain ring of `N` slots; `BASE` stays in `0..N`, so the slot of an
/// offset is one add and one compare. The symbolic validator, the cycle
/// simulator and the functional tier's planner all run this one model.
#[derive(Clone, Debug)]
pub struct AliasQueue<T> {
    slots: Vec<Option<Entry<T>>>,
    /// Slot of the register currently at offset 0.
    base: u32,
}

impl<T: Clone> AliasQueue<T> {
    /// Creates a queue with `num_regs` hardware alias registers, all free,
    /// with `BASE = 0`.
    ///
    /// # Panics
    /// Panics if `num_regs == 0`.
    pub fn new(num_regs: u32) -> Self {
        assert!(num_regs > 0, "alias register file cannot be empty");
        AliasQueue {
            slots: vec![None; num_regs as usize],
            base: 0,
        }
    }

    /// The hardware register count.
    #[inline]
    pub fn num_regs(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Slot of an in-range `offset`.
    #[inline]
    fn slot_index(&self, offset: u32) -> usize {
        let idx = self.base + offset;
        (if idx >= self.num_regs() {
            idx - self.num_regs()
        } else {
            idx
        }) as usize
    }

    #[inline]
    fn bounds(&self, offset: u32) -> Result<(), QueueOverflow> {
        if offset < self.num_regs() {
            Ok(())
        } else {
            Err(QueueOverflow {
                offset,
                num_regs: self.num_regs(),
            })
        }
    }

    /// Reads the entry at `offset`, if any.
    ///
    /// # Errors
    /// [`QueueOverflow`] if `offset` is outside the register file.
    pub fn get(&self, offset: u32) -> Result<Option<&Entry<T>>, QueueOverflow> {
        self.bounds(offset)?;
        Ok(self.slots[self.slot_index(offset)].as_ref())
    }

    /// **set**: writes `payload` into the register at `offset`.
    ///
    /// # Errors
    /// [`QueueOverflow`] if `offset` is outside the register file.
    #[inline]
    pub fn set(&mut self, offset: u32, payload: T, set_by_load: bool) -> Result<(), QueueOverflow> {
        self.bounds(offset)?;
        let idx = self.slot_index(offset);
        self.slots[idx] = Some(Entry {
            payload,
            set_by_load,
        });
        Ok(())
    }

    /// **check**: one pass over the registers at offsets `>= from_offset`,
    /// in offset order. The returned [`Scan`] yields, lazily, each valid
    /// entry whose payload satisfies `conflicts` — skipping load-set
    /// entries when `checker_is_load` (loads never alias loads) — and
    /// counts the valid entries it passes ([`Scan::examined`]). The
    /// hardware raises its exception on the first hit; the symbolic
    /// validator's precision proof takes every one.
    ///
    /// No hit means no alias exception.
    ///
    /// # Errors
    /// [`QueueOverflow`] if `from_offset` is outside the register file.
    #[inline]
    pub fn check<F: FnMut(&T) -> bool>(
        &self,
        from_offset: u32,
        checker_is_load: bool,
        conflicts: F,
    ) -> Result<Scan<'_, T, F>, QueueOverflow> {
        self.bounds(from_offset)?;
        // The window from..N starts at slot BASE + from and wraps at most
        // once: a tail of the ring followed by a head.
        let start = self.slot_index(from_offset);
        let len = (self.num_regs() - from_offset) as usize;
        let (tail, head) = if start + len <= self.slots.len() {
            (&self.slots[start..start + len], &self.slots[..0])
        } else {
            (
                &self.slots[start..],
                &self.slots[..start + len - self.slots.len()],
            )
        };
        Ok(Scan {
            window: tail.iter().chain(head).enumerate(),
            from: from_offset,
            checker_is_load,
            conflicts,
            examined: 0,
        })
    }

    /// **rotate k**: advances `BASE` by `amount`, clearing the registers
    /// that rotate out.
    ///
    /// # Errors
    /// [`QueueOverflow`] if `amount` exceeds the register count (the
    /// hardware cannot release more registers than it has in one go).
    #[inline]
    pub fn rotate(&mut self, amount: u32) -> Result<(), QueueOverflow> {
        if amount > self.num_regs() {
            return Err(QueueOverflow {
                offset: amount,
                num_regs: self.num_regs(),
            });
        }
        for off in 0..amount {
            let idx = self.slot_index(off);
            self.slots[idx] = None;
        }
        self.base = self.slot_index(amount) as u32;
        Ok(())
    }

    /// **AMOV src, dst**: moves the entry at `src` to `dst`, clearing
    /// `src`. When `src == dst` the entry is simply cleared (the paper's
    /// clean-up form). Moving an empty register clears `dst`.
    ///
    /// # Errors
    /// [`QueueOverflow`] if either offset is outside the register file.
    #[inline]
    pub fn amov(&mut self, src: u32, dst: u32) -> Result<(), QueueOverflow> {
        self.bounds(src)?;
        self.bounds(dst)?;
        let sidx = self.slot_index(src);
        let entry = self.slots[sidx].take();
        if src != dst {
            let didx = self.slot_index(dst);
            self.slots[didx] = entry;
        }
        Ok(())
    }

    /// Clears every register and resets `BASE` to 0 (atomic region
    /// boundaries: commit or rollback invalidates all alias registers).
    #[inline]
    pub fn reset(&mut self) {
        self.slots.fill(None);
        self.base = 0;
    }

    /// Number of valid entries a check starting at `from_offset` examines
    /// (an energy proxy — paper §2.4 notes unnecessary detections cost
    /// energy).
    ///
    /// # Errors
    /// [`QueueOverflow`] if `from_offset` is outside the register file.
    pub fn valid_from(&self, from_offset: u32) -> Result<u32, QueueOverflow> {
        let mut scan = self.check(from_offset, false, |_| false)?;
        scan.by_ref().for_each(drop);
        Ok(scan.examined())
    }
}

/// A run of ring slots in offset order.
type Slots<'q, T> = slice::Iter<'q, Option<Entry<T>>>;

/// One pass of a check over its window, from [`AliasQueue::check`]: an
/// iterator over the hits, as `(offset, entry)` in offset order.
pub struct Scan<'q, T, F> {
    window: Enumerate<Chain<Slots<'q, T>, Slots<'q, T>>>,
    from: u32,
    checker_is_load: bool,
    conflicts: F,
    examined: u32,
}

impl<T, F> Scan<'_, T, F> {
    /// Valid entries the scan has passed so far, hits and load-set
    /// entries a load skips included: once the scan is exhausted, the
    /// number the check examines.
    #[inline]
    pub fn examined(&self) -> u32 {
        self.examined
    }
}

impl<'q, T, F: FnMut(&T) -> bool> Iterator for Scan<'q, T, F> {
    type Item = (u32, &'q Entry<T>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        for (i, slot) in self.window.by_ref() {
            let Some(entry) = slot else { continue };
            self.examined += 1;
            if !(self.checker_is_load && entry.set_by_load) && (self.conflicts)(&entry.payload) {
                return Some((self.from + i as u32, entry));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges_overlap(a: (u64, u64), b: (u64, u64)) -> bool {
        a.0 <= b.1 && b.0 <= a.1
    }

    /// The offsets of every hit of a check, in scan order.
    fn hits<T: Clone>(
        q: &AliasQueue<T>,
        from: u32,
        is_load: bool,
        conflicts: impl FnMut(&T) -> bool,
    ) -> Vec<u32> {
        q.check(from, is_load, conflicts)
            .unwrap()
            .map(|(off, _)| off)
            .collect()
    }

    #[test]
    fn set_then_check_detects_overlap() {
        let mut q: AliasQueue<(u64, u64)> = AliasQueue::new(4);
        q.set(1, (100, 103), true).unwrap();
        // A store checking from offset 0 sees the load-set entry.
        let found = hits(&q, 0, false, |r| ranges_overlap(*r, (102, 105)));
        assert_eq!(found, vec![1]);
        // Disjoint range: no exception.
        let found = hits(&q, 0, false, |r| ranges_overlap(*r, (104, 107)));
        assert!(found.is_empty());
    }

    #[test]
    fn check_only_scans_later_or_equal_offsets() {
        let mut q: AliasQueue<u32> = AliasQueue::new(4);
        q.set(0, 7, false).unwrap();
        q.set(2, 7, false).unwrap();
        // Checking from offset 1 must not see offset 0.
        assert_eq!(hits(&q, 1, false, |&v| v == 7), vec![2]);
    }

    #[test]
    fn loads_skip_load_set_entries() {
        let mut q: AliasQueue<u32> = AliasQueue::new(2);
        q.set(0, 1, true).unwrap();
        q.set(1, 1, false).unwrap();
        assert_eq!(hits(&q, 0, true, |&v| v == 1), vec![1]); // only the store-set entry
        assert_eq!(hits(&q, 0, false, |&v| v == 1), vec![0, 1]); // a store checks both
                                                                 // A load still examines the load-set entry it skips.
        let mut scan = q.check(0, true, |&v| v == 1).unwrap();
        assert_eq!(scan.next().map(|(off, e)| (off, e.payload)), Some((1, 1)));
        assert_eq!(scan.examined(), 2);
    }

    #[test]
    fn rotation_releases_and_renumbers() {
        let mut q: AliasQueue<u32> = AliasQueue::new(2);
        q.set(0, 10, false).unwrap();
        q.set(1, 11, false).unwrap();
        q.rotate(1).unwrap();
        // Old offset 1 is now offset 0.
        assert_eq!(q.get(0).unwrap().map(|e| e.payload), Some(11));
        // The rotated-out register is free and reusable at the tail.
        assert_eq!(q.get(1).unwrap(), None);
        q.set(1, 12, false).unwrap();
        assert_eq!(q.get(1).unwrap().map(|e| e.payload), Some(12));
        assert_eq!(q.valid_from(0).unwrap(), 2);
    }

    #[test]
    fn figure7_rotation_reuses_registers_with_only_two_regs() {
        // Paper Figure 7(b): 5 memory ops run on 2 alias registers thanks to
        // rotation. Offsets: M5:0 P, M3:1 P, M0:0 C then rotate 1,
        // M4:1 P? ... simplified faithful sequence:
        let mut q: AliasQueue<u32> = AliasQueue::new(2);
        q.set(0, 5, true).unwrap(); // M5 sets AR0
        q.set(1, 3, true).unwrap(); // M3 sets AR1
        assert!(hits(&q, 0, false, |_| false).is_empty()); // M0 checks offsets 0..
        q.rotate(1).unwrap(); // release AR0
        q.set(1, 4, true).unwrap(); // M4 sets (reused) register at offset 1
        assert!(hits(&q, 0, false, |_| false).is_empty());
        q.rotate(1).unwrap();
        assert!(hits(&q, 0, false, |_| false).is_empty()); // M2 checks last reg

        // Two rotations released M5 and M3; M4 sits at offset 0 now.
        assert_eq!(q.get(0).unwrap().map(|e| e.payload), Some(4));
        assert_eq!(q.valid_from(0).unwrap(), 1);
    }

    #[test]
    fn amov_moves_and_cleans() {
        let mut q: AliasQueue<u32> = AliasQueue::new(4);
        q.set(2, 42, false).unwrap();
        q.amov(2, 0).unwrap();
        assert_eq!(q.get(2).unwrap(), None);
        assert_eq!(q.get(0).unwrap().map(|e| e.payload), Some(42));
        // Clean-up form.
        q.amov(0, 0).unwrap();
        assert_eq!(q.get(0).unwrap(), None);
        assert_eq!(q.valid_from(0).unwrap(), 0);
    }

    #[test]
    fn out_of_range_offsets_error() {
        let mut q: AliasQueue<u32> = AliasQueue::new(2);
        assert!(q.set(2, 0, false).is_err());
        assert!(q.check(2, false, |_| true).is_err());
        assert!(q.amov(0, 2).is_err());
        assert!(q.rotate(3).is_err());
        let err = q.set(5, 0, false).unwrap_err();
        assert_eq!(err.offset, 5);
        assert_eq!(err.num_regs, 2);
    }

    #[test]
    fn valid_from_counts_examined_entries() {
        let mut q: AliasQueue<u32> = AliasQueue::new(4);
        q.set(0, 1, false).unwrap();
        q.set(2, 2, false).unwrap();
        assert_eq!(q.valid_from(0).unwrap(), 2);
        assert_eq!(q.valid_from(1).unwrap(), 1);
        assert_eq!(q.valid_from(3).unwrap(), 0);
        assert!(q.valid_from(4).is_err());
    }

    #[test]
    fn reset_clears_everything() {
        let mut q: AliasQueue<u32> = AliasQueue::new(3);
        q.set(0, 1, false).unwrap();
        q.rotate(2).unwrap();
        q.set(0, 2, false).unwrap();
        q.reset();
        assert_eq!(q.valid_from(0).unwrap(), 0);
    }

    /// Random streams of sets, checks, rotations, AMOVs and resets on the
    /// ring agree with the plainest statement of the model: a vector
    /// indexed by offset that a rotation shifts down.
    #[test]
    fn ring_matches_a_shifting_vector() {
        use crate::prng::Prng;
        for regs in [1u32, 2, 5, 16, 64] {
            let mut rng = Prng::new(u64::from(regs) * 977 + 5);
            let mut q: AliasQueue<u32> = AliasQueue::new(regs);
            let mut model: Vec<Option<Entry<u32>>> = vec![None; regs as usize];
            for step in 0..2000u32 {
                match rng.bounded(8) {
                    0..=2 => {
                        let (off, by_load) = (rng.range_u32(0, regs), rng.chance(1, 2));
                        let value = rng.range_u32(0, 4);
                        q.set(off, value, by_load).unwrap();
                        model[off as usize] = Some(Entry {
                            payload: value,
                            set_by_load: by_load,
                        });
                    }
                    3 | 4 => {
                        let (from, is_load) = (rng.range_u32(0, regs), rng.chance(1, 2));
                        let value = rng.range_u32(0, 4);
                        let mut scan = q.check(from, is_load, |&v| v == value).unwrap();
                        let found: Vec<_> = scan.by_ref().map(|(off, e)| (off, *e)).collect();
                        let window = || (from..regs).filter_map(|o| Some((o, model[o as usize]?)));
                        let expect: Vec<_> = window()
                            .filter(|(_, e)| !(is_load && e.set_by_load) && e.payload == value)
                            .collect();
                        assert_eq!(found, expect, "regs={regs} step={step}");
                        assert_eq!(scan.examined(), window().count() as u32);
                    }
                    5 => {
                        let amount = rng.range_u32(0, regs + 1);
                        q.rotate(amount).unwrap();
                        model.drain(..amount as usize);
                        model.resize(regs as usize, None);
                    }
                    6 => {
                        let (src, dst) = (rng.range_u32(0, regs), rng.range_u32(0, regs));
                        q.amov(src, dst).unwrap();
                        let entry = model[src as usize].take();
                        if src != dst {
                            model[dst as usize] = entry;
                        }
                    }
                    _ => {
                        if rng.chance(1, 4) {
                            q.reset();
                            model.fill(None);
                        }
                    }
                }
                for off in 0..regs {
                    assert_eq!(q.get(off).unwrap(), model[off as usize].as_ref());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "alias register file cannot be empty")]
    fn zero_registers_rejected() {
        let _: AliasQueue<u32> = AliasQueue::new(0);
    }
}
