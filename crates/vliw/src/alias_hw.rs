//! The four alias-detection hardware models compared by the paper
//! (Table 1 and §2): the SMARQ ordered register queue (the one model
//! [`smarq::queue::AliasQueue`], which the allocation validator also
//! replays, here holding each entry's access range and tag), a
//! Transmeta-Efficeon-style bit-mask file, an Itanium-ALAT-style table, and
//! no hardware at all.
//!
//! [`AnyAliasHw`] is the one type the cycle simulator runs: each model
//! states its check rule once, as a walk over the producers the check
//! compares against, in scan order, and one access runs that walk with a
//! hit test ([`AnyAliasHw::access_with`]; `mem_access` tests for
//! overlap). The functional tier (`smarq_opt::fastcomp`) replays the same
//! accesses once per region, with a test that never hits, and keeps only
//! each check's producer list and examined count. Both tiers enforce one bounds
//! contract per scheme, with one panic message.

use crate::isa::{AliasAnnot, MemRange};
use smarq::queue::{AliasQueue, QueueOverflow};
use std::fmt;

/// The largest SMARQ register file: the paper's machine has 64 alias
/// registers (§6, Table 2).
pub const SMARQ_MAX_REGS: u32 = 64;

/// The bounds contract of the register-file schemes: every SMARQ offset
/// or AMOV operand and every Efficeon set index a translated region
/// names is below the register count, and one SMARQ rotation releases at
/// most that many registers. A violation is a translator bug, so every
/// execution tier panics here, with one message per scheme, instead of
/// reading a wrapped window or indexing past the file.
#[cold]
#[inline(never)]
pub(crate) fn contract_violation(kind: HwKind, offset: u32, num_regs: u32) -> ! {
    let hw = match kind {
        HwKind::Efficeon => "Efficeon alias file",
        _ => "SMARQ queue",
    };
    panic!(
        "{hw} contract violated: {}",
        QueueOverflow { offset, num_regs }
    )
}

/// The value of a SMARQ queue operation, or the bounds-contract panic
/// when it names a register (or a rotation) past the file.
#[inline]
fn smarq_contract<T>(result: Result<T, QueueOverflow>) -> T {
    result.unwrap_or_else(|e| contract_violation(HwKind::Smarq, e.offset, e.num_regs))
}

/// Enforces the bounds contract of a `kind` file of `num_regs` registers
/// for a whole region up front, given the largest register it names
/// (`None` when it names none) and its largest rotation: panics exactly
/// as the first offending access, AMOV or rotation would.
///
/// # Panics
/// Panics when `max_reg >= num_regs` or `max_rotation > num_regs`.
#[inline]
pub fn enforce_alias_bounds(kind: HwKind, num_regs: u32, max_reg: Option<u32>, max_rotation: u32) {
    if let Some(reg) = max_reg.filter(|&r| r >= num_regs) {
        contract_violation(kind, reg, num_regs);
    }
    if max_rotation > num_regs {
        contract_violation(kind, max_rotation, num_regs);
    }
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

impl HwKind {
    /// The register count of the file [`AnyAliasHw::for_kind`] builds for
    /// a requested `num_regs`: 1 to 64 for SMARQ, at most 15 for
    /// Efficeon, and `u32::MAX` (no bound) for the ALAT, which grows on
    /// demand, and for no hardware.
    ///
    /// # Panics
    /// Panics for a SMARQ file of more than 64 registers, the paper's
    /// machine.
    pub fn file_regs(self, num_regs: u32) -> u32 {
        match self {
            HwKind::Smarq => {
                assert!(
                    num_regs <= SMARQ_MAX_REGS,
                    "SMARQ alias files hold at most 64 registers, got {num_regs}"
                );
                num_regs.max(1)
            }
            HwKind::Efficeon => num_regs.min(EfficeonHw::MAX_REGS),
            HwKind::Alat | HwKind::None => u32::MAX,
        }
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

    /// The check walk: visits the valid registers in `check_mask` in
    /// ascending order and returns the tag of the first one for which
    /// `hit(range, tag)` holds. Mask bits past the file name no register.
    pub fn walk(&self, check_mask: u64, mut hit: impl FnMut(MemRange, u32) -> bool) -> Option<u32> {
        self.regs
            .iter()
            .enumerate()
            .filter(|&(i, _)| check_mask & (1 << i) != 0)
            .filter_map(|(_, slot)| *slot)
            .find(|&(r, tag)| hit(r, tag))
            .map(|(_, tag)| tag)
    }

    /// One memory access: checks the registers in the annotation's mask,
    /// then sets its register. Returns the number of valid registers the
    /// check examined.
    ///
    /// # Errors
    /// [`AliasViolation`] when a checked register's range overlaps.
    ///
    /// # Panics
    /// Panics when the set index is outside the file (the bounds
    /// contract).
    pub fn mem_access(
        &mut self,
        annot: AliasAnnot,
        range: MemRange,
        is_load: bool,
        tag: u32,
    ) -> Result<u32, AliasViolation> {
        self.access_with(annot, range, is_load, tag, |r, _| r.overlaps(range))
    }

    /// [`EfficeonHw::mem_access`] with the check's hit test supplied (see
    /// [`AnyAliasHw::access_with`]).
    ///
    /// # Errors
    /// [`AliasViolation`] when `hit` holds for a checked register.
    ///
    /// # Panics
    /// As [`EfficeonHw::mem_access`].
    pub fn access_with(
        &mut self,
        annot: AliasAnnot,
        range: MemRange,
        _is_load: bool,
        tag: u32,
        mut hit: impl FnMut(MemRange, u32) -> bool,
    ) -> Result<u32, AliasViolation> {
        let AliasAnnot::Efficeon { set, check_mask } = annot else {
            debug_assert!(matches!(annot, AliasAnnot::None));
            return Ok(0);
        };
        let num_regs = self.regs.len() as u32;
        enforce_alias_bounds(HwKind::Efficeon, num_regs, set.map(u32::from), 0);
        let mut examined = 0;
        let hit = self.walk(check_mask, |r, t| {
            examined += 1;
            hit(r, t)
        });
        if let Some(producer) = hit {
            return Err(AliasViolation {
                checker_tag: tag,
                producer_tag: producer,
            });
        }
        if let Some(idx) = set {
            self.regs[usize::from(idx)] = Some((range, tag));
        }
        Ok(examined)
    }

    /// Invalidates every register (atomic region boundary).
    pub fn reset(&mut self) {
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

    /// The check walk: a store visits every valid entry in entry order,
    /// a load visits none; returns the tag of the first entry for which
    /// `hit(range, tag)` holds.
    pub fn walk(&self, is_load: bool, mut hit: impl FnMut(MemRange, u32) -> bool) -> Option<u32> {
        if is_load {
            return None;
        }
        self.entries
            .iter()
            .flatten()
            .find(|&&(r, tag)| hit(r, tag))
            .map(|&(_, tag)| tag)
    }

    /// One memory access: a store checks every valid entry, then an
    /// `AlatSet` load allocates its entry. Returns the number of entries
    /// the check examined.
    ///
    /// # Errors
    /// [`AliasViolation`] when a store overlaps any valid entry, needed or
    /// not (the ALAT's false positives).
    pub fn mem_access(
        &mut self,
        annot: AliasAnnot,
        range: MemRange,
        is_load: bool,
        tag: u32,
    ) -> Result<u32, AliasViolation> {
        self.access_with(annot, range, is_load, tag, |r, _| r.overlaps(range))
    }

    /// [`AlatHw::mem_access`] with the check's hit test supplied (see
    /// [`AnyAliasHw::access_with`]).
    ///
    /// # Errors
    /// [`AliasViolation`] when `hit` holds for a checked entry.
    pub fn access_with(
        &mut self,
        annot: AliasAnnot,
        range: MemRange,
        is_load: bool,
        tag: u32,
        mut hit: impl FnMut(MemRange, u32) -> bool,
    ) -> Result<u32, AliasViolation> {
        let mut examined = 0;
        let hit = self.walk(is_load, |r, t| {
            examined += 1;
            hit(r, t)
        });
        if let Some(producer) = hit {
            return Err(AliasViolation {
                checker_tag: tag,
                producer_tag: producer,
            });
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

    /// Invalidates one entry.
    pub fn alat_clear(&mut self, entry: u32) {
        self.ensure(entry);
        self.entries[entry as usize] = None;
    }

    /// Invalidates every entry (atomic region boundary).
    pub fn reset(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
    }
}

/// The four hardware models behind one type, so the simulator and the
/// runtimes pick the scheme at run time. The simulator calls
/// [`AnyAliasHw::mem_access`] for every executed load/store,
/// [`AnyAliasHw::rotate`]/[`AnyAliasHw::amov`] for the SMARQ
/// queue-management instructions and [`AnyAliasHw::alat_clear`] for the
/// ALAT's; each of these reaches only the models it concerns.
/// [`AnyAliasHw::reset`] runs at atomic region boundaries (entry and
/// rollback both invalidate the detection state).
#[derive(Clone, Debug)]
pub enum AnyAliasHw {
    /// SMARQ ordered queue; each entry holds its producer's access range
    /// and tag.
    Smarq(AliasQueue<(MemRange, u32)>),
    /// Efficeon bit-mask file.
    Efficeon(EfficeonHw),
    /// Itanium-like ALAT.
    Alat(AlatHw),
    /// No alias-detection hardware: every access succeeds (the optimizer
    /// must not speculate on memory at all when targeting this).
    None,
}

impl AnyAliasHw {
    /// Builds the hardware for `kind`, with the file
    /// [`HwKind::file_regs`] sizes from `num_regs`: the SMARQ queue or
    /// the Efficeon file; the ALAT grows on demand.
    ///
    /// # Panics
    /// Panics for a SMARQ file of more than [`SMARQ_MAX_REGS`] registers.
    pub fn for_kind(kind: HwKind, num_regs: u32) -> Self {
        let n = kind.file_regs(num_regs);
        match kind {
            HwKind::Smarq => AnyAliasHw::Smarq(AliasQueue::new(n)),
            HwKind::Efficeon => AnyAliasHw::Efficeon(EfficeonHw::new(n)),
            HwKind::Alat => AnyAliasHw::Alat(AlatHw::new()),
            HwKind::None => AnyAliasHw::None,
        }
    }

    /// Processes one memory access, returning the number of alias entries
    /// the hardware had to examine (an energy proxy — paper §2.4 points
    /// out that unnecessary detections cost energy).
    ///
    /// # Errors
    /// [`AliasViolation`] when the hardware detects (possibly spuriously —
    /// that is the point of modeling ALAT) an alias that requires a region
    /// rollback.
    ///
    /// # Panics
    /// Panics when a SMARQ offset or Efficeon set index is outside the
    /// file (the bounds contract).
    #[inline]
    pub fn mem_access(
        &mut self,
        annot: AliasAnnot,
        range: MemRange,
        is_load: bool,
        tag: u32,
    ) -> Result<u32, AliasViolation> {
        self.access_with(annot, range, is_load, tag, |r, _| r.overlaps(range))
    }

    /// [`AnyAliasHw::mem_access`] with the check's hit test supplied:
    /// `hit(range, tag)` is asked of each producer the access's check
    /// compares against, in the order the hardware scans them, until one
    /// holds. The producers are the SMARQ window from a `C` bit's offset
    /// (load-set entries skipped for a load), the registers of an Efficeon
    /// mask, or every valid ALAT entry for a store; an access without a
    /// check asks none. The access then records `range` as usual.
    ///
    /// A test that never holds visits every producer, so one call yields
    /// an op's producer list, its examined count and its recording: the
    /// fast-tier planner replays the hardware this way.
    ///
    /// # Errors
    /// [`AliasViolation`] naming the first producer `hit` holds for.
    ///
    /// # Panics
    /// As [`AnyAliasHw::mem_access`].
    #[inline]
    pub fn access_with(
        &mut self,
        annot: AliasAnnot,
        range: MemRange,
        is_load: bool,
        tag: u32,
        hit: impl FnMut(MemRange, u32) -> bool,
    ) -> Result<u32, AliasViolation> {
        match self {
            AnyAliasHw::Smarq(q) => smarq_access(q, annot, range, is_load, tag, hit),
            AnyAliasHw::Efficeon(h) => h.access_with(annot, range, is_load, tag, hit),
            AnyAliasHw::Alat(h) => h.access_with(annot, range, is_load, tag, hit),
            AnyAliasHw::None => {
                debug_assert!(
                    matches!(annot, AliasAnnot::None),
                    "no-alias hardware cannot honor {annot:?}"
                );
                Ok(0)
            }
        }
    }

    /// **rotate k** on the SMARQ queue; no other model has a queue.
    ///
    /// # Panics
    /// Panics when `amount` exceeds the SMARQ register count.
    #[inline]
    pub fn rotate(&mut self, amount: u32) {
        if let AnyAliasHw::Smarq(q) = self {
            smarq_contract(q.rotate(amount));
        }
    }

    /// **AMOV src, dst** on the SMARQ queue; no other model has a queue.
    ///
    /// # Panics
    /// Panics when either offset is outside the SMARQ file.
    #[inline]
    pub fn amov(&mut self, src: u32, dst: u32) {
        if let AnyAliasHw::Smarq(q) = self {
            smarq_contract(q.amov(src, dst));
        }
    }

    /// Invalidates one ALAT entry; no other model has entries to clear.
    #[inline]
    pub fn alat_clear(&mut self, entry: u32) {
        if let AnyAliasHw::Alat(h) = self {
            h.alat_clear(entry);
        }
    }

    /// Invalidates all detection state (atomic region boundary).
    #[inline]
    pub fn reset(&mut self) {
        match self {
            AnyAliasHw::Smarq(q) => q.reset(),
            AnyAliasHw::Efficeon(h) => h.reset(),
            AnyAliasHw::Alat(h) => h.reset(),
            AnyAliasHw::None => {}
        }
    }
}

/// One SMARQ memory access. The `C` check runs before the `P` set, so an
/// op never aliases with itself; the first producer `hit` holds for
/// raises an [`AliasViolation`], otherwise the result is the number of
/// valid entries the check examined (the `entries_scanned` energy proxy).
/// The offset is bounds-checked even when the access only sets.
/// Non-SMARQ annotations are ignored.
#[inline]
fn smarq_access(
    q: &mut AliasQueue<(MemRange, u32)>,
    annot: AliasAnnot,
    range: MemRange,
    is_load: bool,
    tag: u32,
    mut hit: impl FnMut(MemRange, u32) -> bool,
) -> Result<u32, AliasViolation> {
    let AliasAnnot::Smarq { p, c, offset } = annot else {
        debug_assert!(
            matches!(annot, AliasAnnot::None),
            "SMARQ hardware received a foreign annotation: {annot:?}"
        );
        return Ok(0);
    };
    if offset >= q.num_regs() {
        contract_violation(HwKind::Smarq, offset, q.num_regs());
    }
    let mut examined = 0;
    if c {
        let mut scan = smarq_contract(q.check(offset, is_load, |&(r, t)| hit(r, t)));
        if let Some((_, e)) = scan.next() {
            return Err(AliasViolation {
                checker_tag: tag,
                producer_tag: e.payload.1,
            });
        }
        examined = scan.examined();
    }
    if p {
        smarq_contract(q.set(offset, (range, tag), is_load));
    }
    Ok(examined)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(addr: u64) -> MemRange {
        MemRange::word(addr)
    }

    #[test]
    fn smarq_hw_detects_ordered_aliases_only() {
        let mut hw = AnyAliasHw::for_kind(HwKind::Smarq, 4);
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
        let mut hw = AnyAliasHw::for_kind(HwKind::Smarq, 2);
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

        // The full file: every register set, then one rotation of the
        // whole file leaves nothing valid.
        let mut hw = AnyAliasHw::for_kind(HwKind::Smarq, SMARQ_MAX_REGS);
        let smarq = |p, c, offset| AliasAnnot::Smarq { p, c, offset };
        for off in 0..SMARQ_MAX_REGS {
            hw.mem_access(smarq(true, false, off), rng(0x100), false, off)
                .unwrap();
        }
        assert_eq!(
            hw.mem_access(smarq(false, true, 0), rng(0x200), false, 100),
            Ok(SMARQ_MAX_REGS)
        );
        let err = hw
            .mem_access(smarq(false, true, 0), rng(0x100), false, 101)
            .unwrap_err();
        assert_eq!(err.producer_tag, 0);
        hw.rotate(SMARQ_MAX_REGS);
        assert_eq!(
            hw.mem_access(smarq(false, true, 0), rng(0x100), false, 102),
            Ok(0)
        );
    }

    #[test]
    #[should_panic(expected = "SMARQ queue contract violated")]
    fn over_long_rotation_panics() {
        AnyAliasHw::for_kind(HwKind::Smarq, 4).rotate(5);
    }

    #[test]
    #[should_panic(expected = "SMARQ queue contract violated")]
    fn out_of_range_amov_panics() {
        AnyAliasHw::for_kind(HwKind::Smarq, 4).amov(0, 4);
    }

    #[test]
    fn smarq_hw_load_load_filter() {
        let mut hw = AnyAliasHw::for_kind(HwKind::Smarq, 2);
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
    fn p_only_access_past_the_full_file_panics() {
        // A P-only access names no window, yet its offset is still checked.
        let mut hw = AnyAliasHw::for_kind(HwKind::Smarq, 64);
        let annot = AliasAnnot::Smarq {
            p: true,
            c: false,
            offset: 64,
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
        let mut hw = AnyAliasHw::for_kind(HwKind::None, 0);
        hw.mem_access(AliasAnnot::None, rng(0x100), false, 1)
            .unwrap();
        hw.mem_access(AliasAnnot::None, rng(0x100), true, 2)
            .unwrap();
        hw.rotate(3);
        hw.amov(0, 1);
        hw.reset();
    }
}
