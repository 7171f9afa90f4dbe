//! The superblock IR.

use smarq_guest::{AluOp, BlockId, CmpOp, FpuOp, RegUses};

/// Where an IR operation came from in the guest program (used to identify
/// memory operations stably across re-translations, e.g. for the runtime's
/// alias blacklist). Ordered by block, then instruction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpOrigin {
    /// Guest block.
    pub block: BlockId,
    /// Instruction index within the block; `u32::MAX` marks operations
    /// synthesized from the block terminator (side exits).
    pub instr: u32,
}

impl OpOrigin {
    /// Origin of a terminator-synthesized op.
    pub fn terminator(block: BlockId) -> Self {
        OpOrigin {
            block,
            instr: u32::MAX,
        }
    }
}

/// A region exit target.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IrExit {
    /// The guest block to continue at; `None` means program halt.
    pub target: Option<BlockId>,
}

/// A straight-line IR operation. Registers are physical target registers
/// (`0..64` in each file); guest state lives in `0..32`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum IrOp {
    /// `rd = value`.
    IConst {
        /// Destination.
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
    /// `rd = ra`.
    Copy {
        /// Destination.
        rd: u8,
        /// Source.
        ra: u8,
    },
    /// `fd = value`.
    FConst {
        /// Destination.
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
    /// `fd = fa`.
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
    /// Integer load.
    Ld {
        /// Destination.
        rd: u8,
        /// Base register.
        base: u8,
        /// Displacement.
        disp: i64,
    },
    /// Integer store.
    St {
        /// Source.
        rs: u8,
        /// Base register.
        base: u8,
        /// Displacement.
        disp: i64,
    },
    /// FP load.
    FLd {
        /// Destination.
        fd: u8,
        /// Base register.
        base: u8,
        /// Displacement.
        disp: i64,
    },
    /// FP store.
    FSt {
        /// Source.
        fs: u8,
        /// Base register.
        base: u8,
        /// Displacement.
        disp: i64,
    },
    /// Region exit: unconditional when `cond` is `None`, otherwise taken
    /// when the predicate holds. Exits are scheduling barriers.
    Exit {
        /// Index into [`Superblock::exits`].
        exit_id: u32,
        /// Optional predicate `(op, ra, rb)`.
        cond: Option<(CmpOp, u8, u8)>,
    },
}

impl IrOp {
    /// `true` for loads and stores.
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            IrOp::Ld { .. } | IrOp::St { .. } | IrOp::FLd { .. } | IrOp::FSt { .. }
        )
    }

    /// `true` for stores.
    pub fn is_store(&self) -> bool {
        matches!(self, IrOp::St { .. } | IrOp::FSt { .. })
    }

    /// `true` for region exits.
    pub fn is_exit(&self) -> bool {
        matches!(self, IrOp::Exit { .. })
    }

    /// `(base, disp)` of a memory operation, if it is one.
    pub fn mem_addr(&self) -> Option<(u8, i64)> {
        match *self {
            IrOp::Ld { base, disp, .. }
            | IrOp::St { base, disp, .. }
            | IrOp::FLd { base, disp, .. }
            | IrOp::FSt { base, disp, .. } => Some((base, disp)),
            _ => None,
        }
    }

    /// Destination integer register, if any.
    pub fn int_def(&self) -> Option<u8> {
        match *self {
            IrOp::IConst { rd, .. }
            | IrOp::Alu { rd, .. }
            | IrOp::AluImm { rd, .. }
            | IrOp::Copy { rd, .. }
            | IrOp::FtoI { rd, .. }
            | IrOp::Ld { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// Destination FP register, if any.
    pub fn fp_def(&self) -> Option<u8> {
        match *self {
            IrOp::FConst { fd, .. }
            | IrOp::Fpu { fd, .. }
            | IrOp::FCopy { fd, .. }
            | IrOp::ItoF { fd, .. }
            | IrOp::FLd { fd, .. } => Some(fd),
            _ => None,
        }
    }

    /// Integer source registers.
    pub fn int_uses(&self) -> RegUses {
        match *self {
            IrOp::Alu { ra, rb, .. } => RegUses::two(ra, rb),
            IrOp::AluImm { ra, .. } | IrOp::Copy { ra, .. } | IrOp::ItoF { ra, .. } => {
                RegUses::one(ra)
            }
            IrOp::Ld { base, .. } | IrOp::FLd { base, .. } | IrOp::FSt { base, .. } => {
                RegUses::one(base)
            }
            IrOp::St { rs, base, .. } => RegUses::two(rs, base),
            IrOp::Exit {
                cond: Some((_, ra, rb)),
                ..
            } => RegUses::two(ra, rb),
            _ => RegUses::NONE,
        }
    }

    /// FP source registers.
    pub fn fp_uses(&self) -> RegUses {
        match *self {
            IrOp::Fpu { fa, fb, .. } => RegUses::two(fa, fb),
            IrOp::FCopy { fa, .. } | IrOp::FtoI { fa, .. } => RegUses::one(fa),
            IrOp::FSt { fs, .. } => RegUses::one(fs),
            _ => RegUses::NONE,
        }
    }
}

/// A superblock region: straight-line ops with side exits, plus provenance.
#[derive(Clone, PartialEq, Debug)]
pub struct Superblock {
    /// Operations in original (guest) program order.
    pub ops: Vec<IrOp>,
    /// Provenance of each op (same length as `ops`).
    pub origins: Vec<OpOrigin>,
    /// Exit table.
    pub exits: Vec<IrExit>,
    /// The guest block the region starts at.
    pub entry: BlockId,
    /// The guest blocks forming the trace, in order.
    pub trace: Vec<BlockId>,
    /// Memory-operation pairs seen aliasing while the trace's blocks
    /// warmed up in the interpreter (see [`crate::form_superblock`]): each
    /// pair ordered, the list sorted and deduplicated. The optimizer never
    /// speculates across such a pair.
    pub profiled_aliases: Vec<(OpOrigin, OpOrigin)>,
}

impl Superblock {
    /// Whether the memory operations from `a` and `b` are a profiled-alias
    /// pair (in either order).
    pub fn profiled_alias(&self, a: OpOrigin, b: OpOrigin) -> bool {
        self.profiled_aliases
            .binary_search(&(a.min(b), a.max(b)))
            .is_ok()
    }

    /// Number of memory operations.
    pub fn mem_op_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_mem()).count()
    }

    /// Indices of memory operations, in program order.
    pub fn mem_op_indices(&self) -> Vec<usize> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_mem())
            .map(|(i, _)| i)
            .collect()
    }

    /// Basic structural validation (exit ids in range, final op is an
    /// unconditional exit, origins aligned).
    pub fn validate(&self) -> Result<(), String> {
        if self.ops.len() != self.origins.len() {
            return Err("origins out of sync with ops".into());
        }
        match self.ops.last() {
            Some(IrOp::Exit { cond: None, .. }) => {}
            _ => return Err("superblock must end with an unconditional exit".into()),
        }
        for op in &self.ops {
            if let IrOp::Exit { exit_id, .. } = op {
                if *exit_id as usize >= self.exits.len() {
                    return Err(format!("exit id {exit_id} out of range"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification_and_uses() {
        let st = IrOp::St {
            rs: 3,
            base: 4,
            disp: 8,
        };
        assert!(st.is_mem() && st.is_store());
        assert_eq!(st.mem_addr(), Some((4, 8)));
        assert_eq!(*st.int_uses(), [3, 4]);
        assert_eq!(st.int_def(), None);

        let ld = IrOp::Ld {
            rd: 1,
            base: 2,
            disp: 0,
        };
        assert_eq!(ld.int_def(), Some(1));
        assert_eq!(*ld.int_uses(), [2]);

        let fst = IrOp::FSt {
            fs: 5,
            base: 6,
            disp: 0,
        };
        assert_eq!(*fst.fp_uses(), [5]);
        assert_eq!(*fst.int_uses(), [6]);
        assert!(fst.int_uses().into_iter().eq([6]));

        let exit = IrOp::Exit {
            exit_id: 0,
            cond: Some((smarq_guest::CmpOp::Lt, 1, 2)),
        };
        assert!(exit.is_exit());
        assert_eq!(*exit.int_uses(), [1, 2]);
        assert!(exit.fp_uses().is_empty());
    }

    #[test]
    fn validation_catches_missing_final_exit() {
        let sb = Superblock {
            ops: vec![IrOp::IConst { rd: 1, value: 0 }],
            origins: vec![OpOrigin {
                block: BlockId(0),
                instr: 0,
            }],
            exits: vec![],
            entry: BlockId(0),
            trace: vec![BlockId(0)],
            profiled_aliases: Vec::new(),
        };
        assert!(sb.validate().is_err());
    }

    #[test]
    fn validation_checks_exit_range() {
        let sb = Superblock {
            ops: vec![IrOp::Exit {
                exit_id: 1,
                cond: None,
            }],
            origins: vec![OpOrigin::terminator(BlockId(0))],
            exits: vec![IrExit { target: None }],
            entry: BlockId(0),
            trace: vec![BlockId(0)],
            profiled_aliases: Vec::new(),
        };
        assert!(sb.validate().is_err());
    }

    #[test]
    fn mem_op_indexing() {
        let sb = Superblock {
            ops: vec![
                IrOp::IConst { rd: 1, value: 1 },
                IrOp::Ld {
                    rd: 2,
                    base: 1,
                    disp: 0,
                },
                IrOp::St {
                    rs: 2,
                    base: 1,
                    disp: 8,
                },
                IrOp::Exit {
                    exit_id: 0,
                    cond: None,
                },
            ],
            origins: vec![
                OpOrigin {
                    block: BlockId(0),
                    instr: 0,
                },
                OpOrigin {
                    block: BlockId(0),
                    instr: 1,
                },
                OpOrigin {
                    block: BlockId(0),
                    instr: 2,
                },
                OpOrigin::terminator(BlockId(0)),
            ],
            exits: vec![IrExit { target: None }],
            entry: BlockId(0),
            trace: vec![BlockId(0)],
            profiled_aliases: Vec::new(),
        };
        assert!(sb.validate().is_ok());
        assert_eq!(sb.mem_op_count(), 2);
        assert_eq!(sb.mem_op_indices(), vec![1, 2]);
    }
}
