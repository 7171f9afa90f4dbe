//! The guest instruction set.
//!
//! A minimal RISC-like ISA: 32 integer registers (`r0`–`r31`, 64-bit), 32
//! floating-point registers (`f0`–`f31`, `f64`), 8-byte aligned memory
//! accesses with `base + displacement` addressing, and block-structured
//! control flow (every [`Block`] ends in exactly one [`Terminator`]).

use std::fmt;

/// An integer guest register, `r0`–`r31`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The source registers of one operation in one register file: at most
/// two, held inline so asking for them allocates nothing. Derefs to the
/// register slice and iterates by value. The optimizer IR and the VLIW
/// ISA both answer their source-register queries with it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegUses {
    regs: [u8; 2],
    len: u8,
}

impl RegUses {
    /// No source register.
    pub const NONE: RegUses = RegUses {
        regs: [0; 2],
        len: 0,
    };

    /// The one source register `r`.
    pub fn one(r: u8) -> Self {
        RegUses {
            regs: [r, 0],
            len: 1,
        }
    }

    /// The two source registers `a` and `b`, in that order.
    pub fn two(a: u8, b: u8) -> Self {
        RegUses {
            regs: [a, b],
            len: 2,
        }
    }
}

impl std::ops::Deref for RegUses {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.regs[..self.len as usize]
    }
}

impl IntoIterator for RegUses {
    type Item = u8;
    type IntoIter = std::iter::Take<std::array::IntoIter<u8, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(self.len as usize)
    }
}

/// A floating-point guest register, `f0`–`f31`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FReg(pub u8);

impl fmt::Debug for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Identifier of a basic block within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Dense index of the block.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Integer ALU operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (division by zero yields 0, keeping random programs total).
    Div,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (modulo 64).
    Shl,
    /// Arithmetic shift right (modulo 64).
    Shr,
    /// Set-less-than: 1 if `a < b` else 0.
    Slt,
}

impl AluOp {
    /// Applies the operation.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Slt => i64::from(a < b),
        }
    }
}

/// Floating-point operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpuOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl FpuOp {
    /// Applies the operation.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            FpuOp::Add => a + b,
            FpuOp::Sub => a - b,
            FpuOp::Mul => a * b,
            FpuOp::Div => a / b,
            FpuOp::Min => a.min(b),
            FpuOp::Max => a.max(b),
        }
    }
}

/// Integer comparison predicates used by branches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Evaluates the predicate.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The negated predicate.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// A straight-line guest instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Instr {
    /// `rd = value`.
    IConst {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        value: i64,
    },
    /// `rd = ra <op> rb`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        ra: Reg,
        /// Second source.
        rb: Reg,
    },
    /// `rd = ra <op> imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        ra: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// `fd = value`.
    FConst {
        /// Destination.
        fd: FReg,
        /// Immediate value.
        value: f64,
    },
    /// `fd = fa <op> fb`.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination.
        fd: FReg,
        /// First source.
        fa: FReg,
        /// Second source.
        fb: FReg,
    },
    /// `fd = (f64) ra`.
    ItoF {
        /// Destination.
        fd: FReg,
        /// Integer source.
        ra: Reg,
    },
    /// `rd = (i64) fa` (truncating; NaN/overflow saturate per Rust `as`).
    FtoI {
        /// Destination.
        rd: Reg,
        /// FP source.
        fa: FReg,
    },
    /// `rd = mem[ra + disp]` (8 bytes).
    Ld {
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte displacement.
        disp: i64,
    },
    /// `mem[base + disp] = rs` (8 bytes).
    St {
        /// Source.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Byte displacement.
        disp: i64,
    },
    /// `fd = mem[base + disp]` (8 bytes, fp).
    FLd {
        /// Destination.
        fd: FReg,
        /// Base address register.
        base: Reg,
        /// Byte displacement.
        disp: i64,
    },
    /// `mem[base + disp] = fs` (8 bytes, fp).
    FSt {
        /// Source.
        fs: FReg,
        /// Base address register.
        base: Reg,
        /// Byte displacement.
        disp: i64,
    },
}

impl Instr {
    /// `true` for loads and stores.
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instr::Ld { .. } | Instr::St { .. } | Instr::FLd { .. } | Instr::FSt { .. }
        )
    }

    /// `true` for stores.
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::St { .. } | Instr::FSt { .. })
    }

    /// `(base, disp)` of a load or store: its effective address is
    /// `base + disp`.
    pub fn mem_operand(&self) -> Option<(Reg, i64)> {
        match *self {
            Instr::Ld { base, disp, .. }
            | Instr::St { base, disp, .. }
            | Instr::FLd { base, disp, .. }
            | Instr::FSt { base, disp, .. } => Some((base, disp)),
            _ => None,
        }
    }
}

/// Block terminator.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch: to `taken` when `ra <op> rb`, else `fallthrough`.
    Branch {
        /// Predicate.
        op: CmpOp,
        /// First compared register.
        ra: Reg,
        /// Second compared register.
        rb: Reg,
        /// Target when the predicate holds.
        taken: BlockId,
        /// Target otherwise.
        fallthrough: BlockId,
    },
    /// Program end.
    Halt,
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, PartialEq, Debug)]
pub struct Block {
    /// The block body.
    pub instrs: Vec<Instr>,
    /// The terminator.
    pub term: Terminator,
}

/// A guest program: a set of blocks, an entry point and an initialized
/// data image (absolute address → 8-byte word).
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    blocks: Vec<Block>,
    entry: BlockId,
    data: Vec<(u64, u64)>,
}

impl Program {
    /// Creates a program from blocks.
    ///
    /// # Panics
    /// Panics if `entry` or any terminator target is out of range.
    pub fn new(blocks: Vec<Block>, entry: BlockId) -> Self {
        Self::with_data(blocks, entry, Vec::new())
    }

    /// Creates a program with an initialized data image.
    ///
    /// # Panics
    /// Panics if `entry` or any terminator target is out of range.
    pub fn with_data(blocks: Vec<Block>, entry: BlockId, data: Vec<(u64, u64)>) -> Self {
        let n = blocks.len();
        let check = |b: BlockId| assert!(b.index() < n, "block {b} out of range");
        check(entry);
        for block in &blocks {
            match block.term {
                Terminator::Jump(t) => check(t),
                Terminator::Branch {
                    taken, fallthrough, ..
                } => {
                    check(taken);
                    check(fallthrough);
                }
                Terminator::Halt => {}
            }
        }
        Program {
            blocks,
            entry,
            data,
        }
    }

    /// The initialized data image (absolute address, word bits).
    pub fn data(&self) -> &[(u64, u64)] {
        &self.data
    }

    /// Entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The block with id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over `(id, block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total static instruction count (excluding terminators).
    pub fn static_instrs(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), -1);
        assert_eq!(AluOp::Mul.apply(4, -3), -12);
        assert_eq!(AluOp::Div.apply(7, 2), 3);
        assert_eq!(AluOp::Div.apply(7, 0), 0, "division by zero is total");
        assert_eq!(AluOp::Slt.apply(1, 2), 1);
        assert_eq!(AluOp::Slt.apply(2, 1), 0);
        assert_eq!(AluOp::Shl.apply(1, 65), 2, "shift amounts are mod 64");
        assert_eq!(AluOp::Add.apply(i64::MAX, 1), i64::MIN, "wrapping");
    }

    #[test]
    fn fpu_semantics() {
        assert_eq!(FpuOp::Add.apply(1.5, 2.0), 3.5);
        assert_eq!(FpuOp::Min.apply(1.0, 2.0), 1.0);
        assert_eq!(FpuOp::Max.apply(1.0, 2.0), 2.0);
        assert!(FpuOp::Div.apply(1.0, 0.0).is_infinite());
    }

    #[test]
    fn cmp_negation_is_involutive() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            assert_eq!(op.negate().negate(), op);
            assert_ne!(op.eval(1, 2), op.negate().eval(1, 2));
        }
    }

    #[test]
    fn program_validates_targets() {
        let b = Block {
            instrs: vec![],
            term: Terminator::Halt,
        };
        let p = Program::new(vec![b.clone()], BlockId(0));
        assert_eq!(p.num_blocks(), 1);
        assert_eq!(p.entry(), BlockId(0));
        assert_eq!(p.static_instrs(), 0);
        let _ = p.block(BlockId(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_jump_target_rejected() {
        let b = Block {
            instrs: vec![],
            term: Terminator::Jump(BlockId(7)),
        };
        Program::new(vec![b], BlockId(0));
    }

    #[test]
    fn mem_classification() {
        let ld = Instr::Ld {
            rd: Reg(1),
            base: Reg(2),
            disp: 0,
        };
        let st = Instr::St {
            rs: Reg(1),
            base: Reg(2),
            disp: 8,
        };
        let add = Instr::AluImm {
            op: AluOp::Add,
            rd: Reg(1),
            ra: Reg(1),
            imm: 1,
        };
        assert!(ld.is_mem() && !ld.is_store());
        assert!(st.is_mem() && st.is_store());
        assert!(!add.is_mem());
    }
}
