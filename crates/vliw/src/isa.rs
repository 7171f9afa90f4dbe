//! The target VLIW instruction set the dynamic optimizer emits.
//!
//! The machine has 64 integer and 64 floating-point registers. The dynamic
//! binary translator keeps guest architectural state in registers 0–31 of
//! each file and uses 32–63 as scratch (e.g. for renaming loads hoisted
//! above side exits). Instructions are grouped into [`Bundle`]s issued
//! in order, one bundle per cycle at best.

use crate::alias_hw::HwKind;
pub use smarq_guest::MemRange;
use smarq_guest::{AluOp, CmpOp, FpuOp, RegUses};
use std::fmt;

/// Alias-detection annotation attached to a memory operation. Which
/// variants appear depends on the hardware model the optimizer targets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AliasAnnot {
    /// No alias hardware interaction.
    None,
    /// SMARQ ordered-queue annotation: P/C bits plus a register offset
    /// (paper §3.1).
    Smarq {
        /// Set an alias register after the access.
        p: bool,
        /// Check alias registers (at offsets `>=` `offset`) before the
        /// access.
        c: bool,
        /// Register offset relative to the current `BASE`.
        offset: u32,
    },
    /// Efficeon-style annotation: optionally set one register by index and
    /// check an explicit bit-mask of registers (paper §2.2).
    Efficeon {
        /// Register index to set, if any.
        set: Option<u8>,
        /// Bit-mask of register indices to check.
        check_mask: u64,
    },
    /// Itanium-ALAT-style: this (advanced) load allocates ALAT entry
    /// `entry` (paper §2.3). Stores check **all** valid entries implicitly.
    AlatSet {
        /// Entry index.
        entry: u32,
    },
}

/// A conditional side exit out of the atomic region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CondExit {
    /// Predicate over two integer registers.
    pub op: CmpOp,
    /// First compared register.
    pub ra: u8,
    /// Second compared register.
    pub rb: u8,
}

/// One VLIW operation (slot content).
///
/// The tag is a `u8` starting at 8. The functional tier's op stream wraps
/// `VliwOp` in an enum with eight forms of its own, which take tag values
/// 0–7: the wrapper stays the size of a `VliwOp` and dispatches on one
/// jump table. Forms that do not fit below the first tag go after the
/// last one, and the compiler then switches twice per op. `repr(u8)`
/// keeps each variant's fields in declaration order, so a memory op
/// lists its `tag` before `disp` to fit 32 bytes.
#[derive(Clone, Copy, PartialEq, Debug)]
#[repr(u8)]
pub enum VliwOp {
    /// No operation.
    Nop = 8,
    /// `rd = value`.
    IConst {
        /// Destination (integer file).
        rd: u8,
        /// Immediate.
        value: i64,
    },
    /// `rd = ra <op> rb`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: u8,
        /// First source.
        ra: u8,
        /// Second source.
        rb: u8,
    },
    /// `rd = ra <op> imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: u8,
        /// Source.
        ra: u8,
        /// Immediate.
        imm: i64,
    },
    /// `rd = ra` (integer copy; used by load renaming and load elimination).
    Copy {
        /// Destination.
        rd: u8,
        /// Source.
        ra: u8,
    },
    /// `fd = value`.
    FConst {
        /// Destination (fp file).
        fd: u8,
        /// Immediate.
        value: f64,
    },
    /// `fd = fa <op> fb`.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination.
        fd: u8,
        /// First source.
        fa: u8,
        /// Second source.
        fb: u8,
    },
    /// `fd = fa` (fp copy).
    FCopy {
        /// Destination.
        fd: u8,
        /// Source.
        fa: u8,
    },
    /// `fd = (f64) ra`.
    ItoF {
        /// Destination.
        fd: u8,
        /// Source.
        ra: u8,
    },
    /// `rd = (i64) fa`.
    FtoI {
        /// Destination.
        rd: u8,
        /// Source.
        fa: u8,
    },
    /// Integer load `rd = mem[base + disp]`.
    Load {
        /// Destination.
        rd: u8,
        /// Base register.
        base: u8,
        /// Region-local memory-op tag for exception reporting.
        tag: u32,
        /// Displacement.
        disp: i64,
        /// Alias-detection annotation.
        alias: AliasAnnot,
    },
    /// Integer store `mem[base + disp] = rs`.
    Store {
        /// Source.
        rs: u8,
        /// Base register.
        base: u8,
        /// Region-local memory-op tag.
        tag: u32,
        /// Displacement.
        disp: i64,
        /// Alias-detection annotation.
        alias: AliasAnnot,
    },
    /// FP load `fd = mem[base + disp]`.
    FLoad {
        /// Destination.
        fd: u8,
        /// Base register.
        base: u8,
        /// Region-local memory-op tag.
        tag: u32,
        /// Displacement.
        disp: i64,
        /// Alias-detection annotation.
        alias: AliasAnnot,
    },
    /// FP store `mem[base + disp] = fs`.
    FStore {
        /// Source.
        fs: u8,
        /// Base register.
        base: u8,
        /// Region-local memory-op tag.
        tag: u32,
        /// Displacement.
        disp: i64,
        /// Alias-detection annotation.
        alias: AliasAnnot,
    },
    /// Invalidate ALAT entry `entry` (the hoisted load's home position has
    /// been passed: its aliases no longer matter). Analogous to Itanium's
    /// `chk.a` releasing the entry.
    AlatClear {
        /// Entry index.
        entry: u32,
    },
    /// Rotate the alias register queue by `amount` (paper §3.2).
    Rotate {
        /// Rotation amount.
        amount: u32,
    },
    /// Move alias register contents `src -> dst`, clearing `src`
    /// (paper §3.3). `src == dst` is the clean-up form.
    Amov {
        /// Source offset.
        src: u32,
        /// Destination offset.
        dst: u32,
    },
    /// Leave the region through exit `exit_id`; unconditional when `cond`
    /// is `None`, otherwise only when the condition holds.
    Exit {
        /// Exit index into [`VliwProgram::exits`].
        exit_id: u32,
        /// Optional predicate.
        cond: Option<CondExit>,
    },
}

impl VliwOp {
    /// The functional-unit class this op occupies.
    pub fn slot_class(&self) -> SlotClass {
        match self {
            VliwOp::Load { .. }
            | VliwOp::Store { .. }
            | VliwOp::FLoad { .. }
            | VliwOp::FStore { .. } => SlotClass::Mem,
            VliwOp::Fpu { .. } | VliwOp::FCopy { .. } | VliwOp::FConst { .. } => SlotClass::Fpu,
            VliwOp::Exit { .. } => SlotClass::Branch,
            _ => SlotClass::Alu,
        }
    }

    /// `true` for loads and stores.
    pub fn is_mem(&self) -> bool {
        self.slot_class() == SlotClass::Mem
    }

    /// Integer source registers.
    pub fn int_sources(&self) -> RegUses {
        match *self {
            VliwOp::Alu { ra, rb, .. } => RegUses::two(ra, rb),
            VliwOp::AluImm { ra, .. } | VliwOp::Copy { ra, .. } | VliwOp::ItoF { ra, .. } => {
                RegUses::one(ra)
            }
            VliwOp::Load { base, .. }
            | VliwOp::FLoad { base, .. }
            | VliwOp::FStore { base, .. } => RegUses::one(base),
            VliwOp::Store { rs, base, .. } => RegUses::two(rs, base),
            VliwOp::Exit {
                cond: Some(CondExit { ra, rb, .. }),
                ..
            } => RegUses::two(ra, rb),
            _ => RegUses::NONE,
        }
    }

    /// FP source registers.
    pub fn fp_sources(&self) -> RegUses {
        match *self {
            VliwOp::Fpu { fa, fb, .. } => RegUses::two(fa, fb),
            VliwOp::FCopy { fa, .. } | VliwOp::FtoI { fa, .. } => RegUses::one(fa),
            VliwOp::FStore { fs, .. } => RegUses::one(fs),
            _ => RegUses::NONE,
        }
    }

    /// Destination integer register, if any.
    pub fn int_def(&self) -> Option<u8> {
        match *self {
            VliwOp::IConst { rd, .. }
            | VliwOp::Alu { rd, .. }
            | VliwOp::AluImm { rd, .. }
            | VliwOp::Copy { rd, .. }
            | VliwOp::FtoI { rd, .. }
            | VliwOp::Load { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// Destination FP register, if any.
    pub fn fp_def(&self) -> Option<u8> {
        match *self {
            VliwOp::FConst { fd, .. }
            | VliwOp::Fpu { fd, .. }
            | VliwOp::FCopy { fd, .. }
            | VliwOp::ItoF { fd, .. }
            | VliwOp::FLoad { fd, .. } => Some(fd),
            _ => None,
        }
    }

    /// The largest register index any field of the op names (`0` for
    /// ops without register operands).
    pub fn max_reg(&self) -> u8 {
        match *self {
            VliwOp::IConst { rd, .. } => rd,
            VliwOp::Alu { rd, ra, rb, .. } => rd.max(ra).max(rb),
            VliwOp::AluImm { rd, ra, .. } | VliwOp::Copy { rd, ra } => rd.max(ra),
            VliwOp::FConst { fd, .. } => fd,
            VliwOp::Fpu { fd, fa, fb, .. } => fd.max(fa).max(fb),
            VliwOp::FCopy { fd, fa } => fd.max(fa),
            VliwOp::ItoF { fd, ra } => fd.max(ra),
            VliwOp::FtoI { rd, fa } => rd.max(fa),
            VliwOp::Load { rd, base, .. } => rd.max(base),
            VliwOp::Store { rs, base, .. } => rs.max(base),
            VliwOp::FLoad { fd, base, .. } => fd.max(base),
            VliwOp::FStore { fs, base, .. } => fs.max(base),
            VliwOp::Exit { cond, .. } => cond.map_or(0, |c| c.ra.max(c.rb)),
            VliwOp::Nop
            | VliwOp::AlatClear { .. }
            | VliwOp::Rotate { .. }
            | VliwOp::Amov { .. } => 0,
        }
    }

    /// `(annotation, is_load, tag)` of a memory op; `None` for the rest.
    pub fn mem_access(&self) -> Option<(AliasAnnot, bool, u32)> {
        match *self {
            VliwOp::Load { alias, tag, .. } | VliwOp::FLoad { alias, tag, .. } => {
                Some((alias, true, tag))
            }
            VliwOp::Store { alias, tag, .. } | VliwOp::FStore { alias, tag, .. } => {
                Some((alias, false, tag))
            }
            _ => None,
        }
    }

    /// The alias-hardware scheme the op targets: [`HwKind::None`] for ops
    /// that touch no alias hardware.
    pub fn alias_kind(&self) -> HwKind {
        match *self {
            VliwOp::Rotate { .. } | VliwOp::Amov { .. } => HwKind::Smarq,
            VliwOp::AlatClear { .. } => HwKind::Alat,
            _ => match self.mem_access() {
                Some((AliasAnnot::Smarq { .. }, ..)) => HwKind::Smarq,
                Some((AliasAnnot::Efficeon { .. }, ..)) => HwKind::Efficeon,
                Some((AliasAnnot::AlatSet { .. }, ..)) => HwKind::Alat,
                _ => HwKind::None,
            },
        }
    }
}

/// Functional-unit classes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SlotClass {
    /// Integer/branch-prep/copy/rotate/amov slot.
    Alu,
    /// Memory slot.
    Mem,
    /// Floating-point slot.
    Fpu,
    /// Branch/exit slot.
    Branch,
}

impl fmt::Display for SlotClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SlotClass::Alu => "alu",
            SlotClass::Mem => "mem",
            SlotClass::Fpu => "fpu",
            SlotClass::Branch => "br",
        };
        f.write_str(s)
    }
}

/// A VLIW bundle: operations issued together in one cycle.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Bundle {
    /// Slot contents.
    pub ops: Vec<VliwOp>,
}

/// Where a region exit transfers control.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExitTarget {
    /// The guest block to continue at; `None` means program halt.
    pub guest_block: Option<u32>,
}

/// A translated, optimized atomic region.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct VliwProgram {
    /// Bundles in issue order.
    pub bundles: Vec<Bundle>,
    /// Exit table; `Exit { exit_id }` indexes here.
    pub exits: Vec<ExitTarget>,
}

impl VliwProgram {
    /// Total operation count (excluding NOPs).
    pub fn op_count(&self) -> usize {
        self.bundles
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|op| !matches!(op, VliwOp::Nop))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_range_word_and_overlap() {
        let a = MemRange::word(0x103);
        assert_eq!((a.lo, a.hi), (0x100, 0x107));
        let b = MemRange::word(0x108);
        assert!(!a.overlaps(b));
        assert!(a.overlaps(MemRange::word(0x100)));
        assert!(a.overlaps(MemRange {
            lo: 0x107,
            hi: 0x110
        }));
    }

    #[test]
    fn slot_classes() {
        let ld = VliwOp::Load {
            rd: 1,
            base: 2,
            disp: 0,
            alias: AliasAnnot::None,
            tag: 0,
        };
        assert_eq!(ld.slot_class(), SlotClass::Mem);
        assert!(ld.is_mem());
        assert_eq!(
            VliwOp::Fpu {
                op: smarq_guest::FpuOp::Add,
                fd: 1,
                fa: 2,
                fb: 3
            }
            .slot_class(),
            SlotClass::Fpu
        );
        assert_eq!(
            VliwOp::Exit {
                exit_id: 0,
                cond: None
            }
            .slot_class(),
            SlotClass::Branch
        );
        assert_eq!(VliwOp::Rotate { amount: 1 }.slot_class(), SlotClass::Alu);
        assert_eq!(VliwOp::Nop.slot_class(), SlotClass::Alu);
    }

    /// The declared field order packs every op into 32 bytes.
    #[test]
    fn ops_are_32_bytes() {
        assert_eq!(std::mem::size_of::<VliwOp>(), 32);
    }

    #[test]
    fn op_count_skips_nops() {
        let p = VliwProgram {
            bundles: vec![Bundle {
                ops: vec![VliwOp::Nop, VliwOp::Rotate { amount: 1 }],
            }],
            exits: vec![],
        };
        assert_eq!(p.op_count(), 1);
    }
}
