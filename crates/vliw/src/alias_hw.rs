//! The four alias-detection hardware models compared by the paper
//! (Table 1 and §2): the SMARQ ordered register queue, a
//! Transmeta-Efficeon-style bit-mask file, an Itanium-ALAT-style table, and
//! no hardware at all.
//!
//! SMARQ has two storage forms with one semantics. Files of up to 64
//! registers (every shipped configuration) run on
//! [`FastAliasQueue`], a single occupancy word that the cycle simulator
//! runs (through [`AnyAliasHw`]) and the functional tier compiles out of
//! each region at translation time; wider files
//! (`smarq-run --regs 128`) fall back to [`SmarqQueueHw`] over the generic
//! [`smarq::queue::AliasQueue`], which also stays the symbolic
//! validator's model. Both forms enforce one bounds contract and panic
//! with one message when a translated region breaks it.

use crate::fast::FastAliasQueue;
use crate::isa::{AliasAnnot, MemRange};
use smarq::queue::{AliasQueue, QueueOverflow};
use std::fmt;

/// The SMARQ bounds contract: every offset a translated region names is
/// below the register count, and one rotation releases at most that many
/// registers. A violation is a translator bug, so every SMARQ queue form
/// panics here, with one message on every execution tier, instead of
/// reading a wrapped or empty window.
#[cold]
#[inline(never)]
pub(crate) fn contract_violation(e: QueueOverflow) -> ! {
    panic!("SMARQ queue contract violated: {e}")
}

/// A detected (or spuriously detected) alias: the running memory operation
/// `checker_tag` conflicted with the range set by `producer_tag`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AliasViolation {
    /// Tag of the memory operation that triggered the exception.
    pub checker_tag: u32,
    /// Tag of the memory operation whose recorded range overlapped.
    pub producer_tag: u32,
}

impl fmt::Display for AliasViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alias exception: op {} conflicts with op {}",
            self.checker_tag, self.producer_tag
        )
    }
}

/// Which hardware scheme a simulator/optimizer targets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HwKind {
    /// SMARQ ordered alias register queue.
    Smarq,
    /// Efficeon-style bit-mask alias registers (≤ 15).
    Efficeon,
    /// Itanium-ALAT-style (false positives; no store-store detection).
    Alat,
    /// No alias-detection hardware.
    None,
}

/// Common interface of the alias-detection hardware models.
///
/// The simulator calls [`AliasHardware::mem_access`] for every executed
/// load/store, passing the instruction's annotation and the concrete
/// access range, and [`AliasHardware::rotate`]/[`AliasHardware::amov`] for
/// the SMARQ queue-management instructions. `reset` is invoked at atomic
/// region boundaries (entry, commit and rollback all invalidate the
/// detection state).
pub trait AliasHardware {
    /// Processes one memory access, returning the number of alias entries
    /// the hardware had to examine (an energy proxy — paper §2.4 points
    /// out that unnecessary detections cost energy).
    ///
    /// # Errors
    /// [`AliasViolation`] when the hardware detects (possibly spuriously —
    /// that is the point of modeling ALAT) an alias that requires a region
    /// rollback.
    fn mem_access(
        &mut self,
        annot: AliasAnnot,
        range: MemRange,
        is_load: bool,
        tag: u32,
    ) -> Result<u32, AliasViolation>;

    /// Rotates the register queue (SMARQ only; others ignore it).
    fn rotate(&mut self, amount: u32);

    /// Moves/clears an alias register (SMARQ only; others ignore it).
    fn amov(&mut self, src: u32, dst: u32);

    /// Invalidates one ALAT entry (ALAT only; others ignore it).
    fn alat_clear(&mut self, _entry: u32) {}

    /// Invalidates all detection state (atomic region boundary).
    fn reset(&mut self);
}

/// The SMARQ ordered alias register queue with P/C bits, rotation and AMOV
/// (paper §3), backed by the functional model in [`smarq::queue`]. It
/// serves files wider than one occupancy word; [`AnyAliasHw::for_kind`]
/// builds [`FastAliasQueue`] for everything up to 64 registers, and the
/// unit tests hold the two bit-exact.
#[derive(Clone, Debug)]
pub struct SmarqQueueHw {
    queue: AliasQueue<(MemRange, u32)>,
    num_regs: u32,
}

impl SmarqQueueHw {
    /// Creates a queue with `num_regs` hardware registers.
    pub fn new(num_regs: u32) -> Self {
        SmarqQueueHw {
            queue: AliasQueue::new(num_regs),
            num_regs,
        }
    }

    /// Hardware register count.
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }
}

impl AliasHardware for SmarqQueueHw {
    fn mem_access(
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
        if offset >= self.num_regs {
            contract_violation(QueueOverflow {
                offset,
                num_regs: self.num_regs,
            });
        }
        let mut examined = 0;
        if c {
            examined = self.queue.valid_from(offset).expect("offset checked");
            // Allocation-free first-hit scan: an alias exception fires on
            // the first conflicting entry, so later hits are irrelevant.
            let hit = self
                .queue
                .check_first(offset, is_load, |&(r, _)| r.overlaps(range))
                .expect("offset checked");
            if let Some(h) = hit {
                let producer = self
                    .queue
                    .get(h)
                    .expect("hit in range")
                    .expect("hit valid")
                    .payload
                    .1;
                return Err(AliasViolation {
                    checker_tag: tag,
                    producer_tag: producer,
                });
            }
        }
        if p {
            self.queue
                .set(offset, (range, tag), is_load)
                .expect("offset checked");
        }
        Ok(examined)
    }

    fn rotate(&mut self, amount: u32) {
        self.queue
            .rotate(amount)
            .unwrap_or_else(|e| contract_violation(e));
    }

    fn amov(&mut self, src: u32, dst: u32) {
        self.queue
            .amov(src, dst)
            .unwrap_or_else(|e| contract_violation(e));
    }

    fn reset(&mut self) {
        self.queue.reset();
    }
}

/// Efficeon-style alias registers: instructions name the register to set
/// and carry an explicit bit-mask of registers to check (paper §2.2). The
/// encoding limits the file to at most 15 registers — the scalability
/// problem SMARQ removes.
#[derive(Clone, Debug)]
pub struct EfficeonHw {
    regs: Vec<Option<(MemRange, u32)>>,
}

impl EfficeonHw {
    /// Maximum register count the bit-mask encoding supports.
    pub const MAX_REGS: u32 = 15;

    /// Creates a file with `num_regs` registers.
    ///
    /// # Panics
    /// Panics if `num_regs` exceeds [`EfficeonHw::MAX_REGS`] — the
    /// encoding has no room for more, which is the paper's point.
    pub fn new(num_regs: u32) -> Self {
        assert!(
            num_regs <= Self::MAX_REGS,
            "Efficeon bit-mask encoding supports at most 15 alias registers"
        );
        EfficeonHw {
            regs: vec![None; num_regs as usize],
        }
    }
}

impl AliasHardware for EfficeonHw {
    fn mem_access(
        &mut self,
        annot: AliasAnnot,
        range: MemRange,
        _is_load: bool,
        tag: u32,
    ) -> Result<u32, AliasViolation> {
        let AliasAnnot::Efficeon { set, check_mask } = annot else {
            debug_assert!(matches!(annot, AliasAnnot::None));
            return Ok(0);
        };
        let mut examined = 0;
        for (i, slot) in self.regs.iter().enumerate() {
            if check_mask & (1 << i) != 0 {
                if let Some((r, producer)) = slot {
                    examined += 1;
                    if r.overlaps(range) {
                        return Err(AliasViolation {
                            checker_tag: tag,
                            producer_tag: *producer,
                        });
                    }
                }
            }
        }
        if let Some(idx) = set {
            self.regs[idx as usize] = Some((range, tag));
        }
        Ok(examined)
    }

    fn rotate(&mut self, _amount: u32) {}

    fn amov(&mut self, _src: u32, _dst: u32) {}

    fn reset(&mut self) {
        self.regs.iter_mut().for_each(|r| *r = None);
    }
}

/// Itanium-ALAT-style detection (paper §2.3): advanced loads allocate
/// entries; **every store checks every valid entry**, which detects all the
/// aliases the optimizer cares about but also raises *false positives*
/// (a store that genuinely overlaps an entry it never needed to check), and
/// it cannot detect store-store aliases at all. The entry file grows on
/// demand (an idealized, capacity-unconstrained ALAT — generous to the
/// comparison baseline; see EXPERIMENTS.md).
#[derive(Clone, Debug, Default)]
pub struct AlatHw {
    entries: Vec<Option<(MemRange, u32)>>,
}

impl AlatHw {
    /// Creates an empty ALAT.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, entry: u32) {
        if self.entries.len() <= entry as usize {
            self.entries.resize(entry as usize + 1, None);
        }
    }
}

impl AliasHardware for AlatHw {
    fn mem_access(
        &mut self,
        annot: AliasAnnot,
        range: MemRange,
        is_load: bool,
        tag: u32,
    ) -> Result<u32, AliasViolation> {
        let mut examined = 0;
        if !is_load {
            // Stores implicitly check ALL valid entries.
            for (r, producer) in self.entries.iter().flatten() {
                examined += 1;
                if r.overlaps(range) {
                    return Err(AliasViolation {
                        checker_tag: tag,
                        producer_tag: *producer,
                    });
                }
            }
        }
        match annot {
            AliasAnnot::AlatSet { entry } => {
                self.ensure(entry);
                self.entries[entry as usize] = Some((range, tag));
            }
            AliasAnnot::None => {}
            other => debug_assert!(false, "ALAT received a foreign annotation: {other:?}"),
        }
        Ok(examined)
    }

    fn rotate(&mut self, _amount: u32) {}

    fn amov(&mut self, _src: u32, _dst: u32) {}

    fn alat_clear(&mut self, entry: u32) {
        self.ensure(entry);
        self.entries[entry as usize] = None;
    }

    fn reset(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
    }
}

/// A dispatching wrapper over the four hardware models, so runtimes can
/// pick the scheme at run time without generics.
#[derive(Clone, Debug)]
pub enum AnyAliasHw {
    /// SMARQ ordered queue on one occupancy word (≤ 64 registers).
    Smarq(FastAliasQueue),
    /// SMARQ ordered queue wider than one occupancy word.
    SmarqWide(SmarqQueueHw),
    /// Efficeon bit-mask file.
    Efficeon(EfficeonHw),
    /// Itanium-like ALAT.
    Alat(AlatHw),
    /// No hardware.
    None(NoAliasHw),
}

impl AnyAliasHw {
    /// Builds the hardware for `kind`. `num_regs` sizes the SMARQ queue or
    /// the Efficeon file; the ALAT grows on demand. SMARQ files of up to
    /// [`FastAliasQueue::MAX_REGS`] registers get the single-word queue,
    /// wider ones [`SmarqQueueHw`].
    pub fn for_kind(kind: HwKind, num_regs: u32) -> Self {
        match kind {
            HwKind::Smarq => match num_regs.max(1) {
                n if n <= FastAliasQueue::MAX_REGS => AnyAliasHw::Smarq(FastAliasQueue::new(n)),
                n => AnyAliasHw::SmarqWide(SmarqQueueHw::new(n)),
            },
            HwKind::Efficeon => {
                AnyAliasHw::Efficeon(EfficeonHw::new(num_regs.min(EfficeonHw::MAX_REGS)))
            }
            HwKind::Alat => AnyAliasHw::Alat(AlatHw::new()),
            HwKind::None => AnyAliasHw::None(NoAliasHw),
        }
    }
}

impl AliasHardware for AnyAliasHw {
    fn mem_access(
        &mut self,
        annot: AliasAnnot,
        range: MemRange,
        is_load: bool,
        tag: u32,
    ) -> Result<u32, AliasViolation> {
        match self {
            AnyAliasHw::Smarq(q) => q.access(annot, range, is_load, tag),
            AnyAliasHw::SmarqWide(h) => h.mem_access(annot, range, is_load, tag),
            AnyAliasHw::Efficeon(h) => h.mem_access(annot, range, is_load, tag),
            AnyAliasHw::Alat(h) => h.mem_access(annot, range, is_load, tag),
            AnyAliasHw::None(h) => h.mem_access(annot, range, is_load, tag),
        }
    }

    fn rotate(&mut self, amount: u32) {
        match self {
            AnyAliasHw::Smarq(q) => q.rotate(amount),
            AnyAliasHw::SmarqWide(h) => h.rotate(amount),
            AnyAliasHw::Efficeon(h) => h.rotate(amount),
            AnyAliasHw::Alat(h) => h.rotate(amount),
            AnyAliasHw::None(h) => h.rotate(amount),
        }
    }

    fn amov(&mut self, src: u32, dst: u32) {
        match self {
            AnyAliasHw::Smarq(q) => q.amov(src, dst),
            AnyAliasHw::SmarqWide(h) => h.amov(src, dst),
            AnyAliasHw::Efficeon(h) => h.amov(src, dst),
            AnyAliasHw::Alat(h) => h.amov(src, dst),
            AnyAliasHw::None(h) => h.amov(src, dst),
        }
    }

    fn alat_clear(&mut self, entry: u32) {
        match self {
            // SMARQ hardware ignores ALAT entry management.
            AnyAliasHw::Smarq(_) => {}
            AnyAliasHw::SmarqWide(h) => h.alat_clear(entry),
            AnyAliasHw::Efficeon(h) => h.alat_clear(entry),
            AnyAliasHw::Alat(h) => h.alat_clear(entry),
            AnyAliasHw::None(h) => h.alat_clear(entry),
        }
    }

    fn reset(&mut self) {
        match self {
            AnyAliasHw::Smarq(q) => q.reset(),
            AnyAliasHw::SmarqWide(h) => h.reset(),
            AnyAliasHw::Efficeon(h) => h.reset(),
            AnyAliasHw::Alat(h) => h.reset(),
            AnyAliasHw::None(h) => h.reset(),
        }
    }
}

/// No alias-detection hardware: every access succeeds (the optimizer must
/// not speculate on memory at all when targeting this).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoAliasHw;

impl AliasHardware for NoAliasHw {
    fn mem_access(
        &mut self,
        annot: AliasAnnot,
        _range: MemRange,
        _is_load: bool,
        _tag: u32,
    ) -> Result<u32, AliasViolation> {
        debug_assert!(
            matches!(annot, AliasAnnot::None),
            "no-alias hardware cannot honor {annot:?}"
        );
        Ok(0)
    }

    fn rotate(&mut self, _amount: u32) {}

    fn amov(&mut self, _src: u32, _dst: u32) {}

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(addr: u64) -> MemRange {
        MemRange::word(addr)
    }

    #[test]
    fn smarq_hw_detects_ordered_aliases_only() {
        let mut hw = SmarqQueueHw::new(4);
        // Load sets offset 1; a later store checks from offset 0: conflict.
        hw.mem_access(
            AliasAnnot::Smarq {
                p: true,
                c: false,
                offset: 1,
            },
            rng(0x100),
            true,
            7,
        )
        .unwrap();
        let err = hw
            .mem_access(
                AliasAnnot::Smarq {
                    p: false,
                    c: true,
                    offset: 0,
                },
                rng(0x100),
                false,
                9,
            )
            .unwrap_err();
        assert_eq!(
            err,
            AliasViolation {
                checker_tag: 9,
                producer_tag: 7
            }
        );
        // A checker at offset 2 scans only later registers: no conflict.
        hw.mem_access(
            AliasAnnot::Smarq {
                p: false,
                c: true,
                offset: 2,
            },
            rng(0x100),
            false,
            10,
        )
        .unwrap();
    }

    #[test]
    fn smarq_hw_rotation_and_amov() {
        let mut hw = SmarqQueueHw::new(2);
        hw.mem_access(
            AliasAnnot::Smarq {
                p: true,
                c: false,
                offset: 0,
            },
            rng(0x100),
            true,
            1,
        )
        .unwrap();
        hw.amov(0, 1); // relocate
        hw.rotate(1); // release the (now empty) first register
                      // The moved entry is now at offset 0.
        let err = hw
            .mem_access(
                AliasAnnot::Smarq {
                    p: false,
                    c: true,
                    offset: 0,
                },
                rng(0x100),
                false,
                2,
            )
            .unwrap_err();
        assert_eq!(err.producer_tag, 1);
        hw.reset();
        hw.mem_access(
            AliasAnnot::Smarq {
                p: false,
                c: true,
                offset: 0,
            },
            rng(0x100),
            false,
            3,
        )
        .unwrap();
    }

    #[test]
    fn smarq_hw_load_load_filter() {
        let mut hw = SmarqQueueHw::new(2);
        hw.mem_access(
            AliasAnnot::Smarq {
                p: true,
                c: false,
                offset: 0,
            },
            rng(0x100),
            true,
            1,
        )
        .unwrap();
        // A load checker skips load-set entries.
        hw.mem_access(
            AliasAnnot::Smarq {
                p: false,
                c: true,
                offset: 0,
            },
            rng(0x100),
            true,
            2,
        )
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "SMARQ queue contract violated")]
    fn wide_queue_enforces_the_same_bounds_contract() {
        // A P-only access names no window, yet its offset is still checked.
        let mut hw = AnyAliasHw::for_kind(HwKind::Smarq, 65);
        assert!(matches!(hw, AnyAliasHw::SmarqWide(_)));
        let annot = AliasAnnot::Smarq {
            p: true,
            c: false,
            offset: 65,
        };
        let _ = hw.mem_access(annot, rng(0x100), true, 1);
    }

    #[test]
    fn efficeon_checks_only_the_mask() {
        let mut hw = EfficeonHw::new(4);
        hw.mem_access(
            AliasAnnot::Efficeon {
                set: Some(2),
                check_mask: 0,
            },
            rng(0x100),
            true,
            1,
        )
        .unwrap();
        // Mask excluding register 2: no exception even though ranges alias.
        hw.mem_access(
            AliasAnnot::Efficeon {
                set: None,
                check_mask: 0b0011,
            },
            rng(0x100),
            false,
            2,
        )
        .unwrap();
        // Mask including register 2: exception.
        let err = hw
            .mem_access(
                AliasAnnot::Efficeon {
                    set: None,
                    check_mask: 0b0100,
                },
                rng(0x100),
                false,
                3,
            )
            .unwrap_err();
        assert_eq!(err.producer_tag, 1);
    }

    #[test]
    #[should_panic(expected = "at most 15")]
    fn efficeon_cannot_scale_past_15() {
        EfficeonHw::new(16);
    }

    #[test]
    fn alat_store_checks_everything_including_false_positives() {
        let mut hw = AlatHw::new();
        hw.mem_access(AliasAnnot::AlatSet { entry: 0 }, rng(0x100), true, 1)
            .unwrap();
        // This store never needed to check op 1 (it was not reordered with
        // it), but ALAT has no way to express that: spurious exception.
        let err = hw
            .mem_access(AliasAnnot::None, rng(0x100), false, 2)
            .unwrap_err();
        assert_eq!(err.producer_tag, 1);
        // Clearing the entry at the load's home position stops the checks.
        let mut hw = AlatHw::new();
        hw.mem_access(AliasAnnot::AlatSet { entry: 0 }, rng(0x100), true, 1)
            .unwrap();
        hw.alat_clear(0);
        hw.mem_access(AliasAnnot::None, rng(0x100), false, 2)
            .unwrap();
    }

    #[test]
    fn alat_cannot_detect_store_store() {
        let mut hw = AlatHw::new();
        // Two aliasing stores — ALAT is silent (loads only).
        hw.mem_access(AliasAnnot::None, rng(0x100), false, 1)
            .unwrap();
        hw.mem_access(AliasAnnot::None, rng(0x100), false, 2)
            .unwrap();
    }

    #[test]
    fn no_alias_hw_never_faults() {
        let mut hw = NoAliasHw;
        hw.mem_access(AliasAnnot::None, rng(0x100), false, 1)
            .unwrap();
        hw.mem_access(AliasAnnot::None, rng(0x100), true, 2)
            .unwrap();
        hw.rotate(3);
        hw.amov(0, 1);
        hw.reset();
    }
}
