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
//! serve the symbolic allocation validator (payload = producing op id) and,
//! as the reference, the differential test of the executors' single-word
//! queue (payload = address range and tag).

use std::fmt;

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
/// A plain reference model: a ring of `N` slots indexed by
/// `(BASE + offset) mod N`, scanned slot by slot. The executors run the
/// single-word `smarq_vliw::FastAliasQueue` or, on the functional tier,
/// no queue at all (the region's checks are compiled out).
#[derive(Clone, Debug)]
pub struct AliasQueue<T> {
    slots: Vec<Option<Entry<T>>>,
    /// Absolute order of the register currently at offset 0.
    base: u64,
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

    fn num_regs(&self) -> u32 {
        self.slots.len() as u32
    }

    fn slot_index(&self, offset: u32) -> usize {
        ((self.base + offset as u64) % self.slots.len() as u64) as usize
    }

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

    /// The valid entries at offsets `from_offset..N`, in offset order.
    fn entries_from(&self, from_offset: u32) -> impl Iterator<Item = (u32, &Entry<T>)> {
        (from_offset..self.num_regs())
            .filter_map(move |off| Some((off, self.slots[self.slot_index(off)].as_ref()?)))
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
    pub fn set(&mut self, offset: u32, payload: T, set_by_load: bool) -> Result<(), QueueOverflow> {
        self.bounds(offset)?;
        let idx = self.slot_index(offset);
        self.slots[idx] = Some(Entry {
            payload,
            set_by_load,
        });
        Ok(())
    }

    /// **check**: scans every valid register at offsets `>= from_offset`
    /// and returns *all* offsets whose entries satisfy `conflicts`, in
    /// offset order — skipping load-set entries when `checker_is_load`
    /// (loads never alias loads). The hardware raises its exception on the
    /// first; the symbolic validator's precision proof needs every one.
    ///
    /// An empty result means no alias exception.
    ///
    /// # Errors
    /// [`QueueOverflow`] if `from_offset` is outside the register file.
    pub fn check(
        &self,
        from_offset: u32,
        checker_is_load: bool,
        mut conflicts: impl FnMut(&T) -> bool,
    ) -> Result<Vec<u32>, QueueOverflow> {
        self.bounds(from_offset)?;
        Ok(self
            .entries_from(from_offset)
            .filter(|(_, e)| !(checker_is_load && e.set_by_load) && conflicts(&e.payload))
            .map(|(off, _)| off)
            .collect())
    }

    /// **rotate k**: advances `BASE` by `amount`, clearing the registers
    /// that rotate out.
    ///
    /// # Errors
    /// [`QueueOverflow`] if `amount` exceeds the register count (the
    /// hardware cannot release more registers than it has in one go).
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
        self.base += amount as u64;
        Ok(())
    }

    /// **AMOV src, dst**: moves the entry at `src` to `dst`, clearing
    /// `src`. When `src == dst` the entry is simply cleared (the paper's
    /// clean-up form). Moving an empty register clears `dst`.
    ///
    /// # Errors
    /// [`QueueOverflow`] if either offset is outside the register file.
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
        self.bounds(from_offset)?;
        Ok(self.entries_from(from_offset).count() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges_overlap(a: (u64, u64), b: (u64, u64)) -> bool {
        a.0 <= b.1 && b.0 <= a.1
    }

    #[test]
    fn set_then_check_detects_overlap() {
        let mut q: AliasQueue<(u64, u64)> = AliasQueue::new(4);
        q.set(1, (100, 103), true).unwrap();
        // A store checking from offset 0 sees the load-set entry.
        let hits = q
            .check(0, false, |r| ranges_overlap(*r, (102, 105)))
            .unwrap();
        assert_eq!(hits, vec![1]);
        // Disjoint range: no exception.
        let hits = q
            .check(0, false, |r| ranges_overlap(*r, (104, 107)))
            .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn check_only_scans_later_or_equal_offsets() {
        let mut q: AliasQueue<u32> = AliasQueue::new(4);
        q.set(0, 7, false).unwrap();
        q.set(2, 7, false).unwrap();
        // Checking from offset 1 must not see offset 0.
        let hits = q.check(1, false, |&v| v == 7).unwrap();
        assert_eq!(hits, vec![2]);
    }

    #[test]
    fn loads_skip_load_set_entries() {
        let mut q: AliasQueue<u32> = AliasQueue::new(2);
        q.set(0, 1, true).unwrap();
        q.set(1, 1, false).unwrap();
        let hits = q.check(0, true, |&v| v == 1).unwrap();
        assert_eq!(hits, vec![1]); // only the store-set entry
        let hits = q.check(0, false, |&v| v == 1).unwrap();
        assert_eq!(hits, vec![0, 1]); // a store checks both
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
        let _ = q.check(0, false, |_| false).unwrap(); // M0 checks offsets 0..
        q.rotate(1).unwrap(); // release AR0
        q.set(1, 4, true).unwrap(); // M4 sets (reused) register at offset 1
        let _ = q.check(0, false, |_| false).unwrap();
        q.rotate(1).unwrap();
        let _ = q.check(0, false, |_| false).unwrap(); // M2 checks last reg

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

    #[test]
    #[should_panic(expected = "alias register file cannot be empty")]
    fn zero_registers_rejected() {
        let _: AliasQueue<u32> = AliasQueue::new(0);
    }
}
