//! Convenience builder for guest programs.

use crate::isa::{AluOp, Block, BlockId, CmpOp, FReg, FpuOp, Instr, Program, Reg, Terminator};

/// Incrementally assembles a [`Program`].
///
/// Blocks are created first (so they can reference each other in branches),
/// then filled with instructions; every block must be sealed with exactly
/// one terminator before [`ProgramBuilder::finish`].
///
/// ```
/// use smarq_guest::{ProgramBuilder, Reg, CmpOp, AluOp};
/// let mut b = ProgramBuilder::new();
/// let head = b.block();
/// let exit = b.block();
/// b.iconst(head, Reg(1), 3);
/// b.alu_imm(head, AluOp::Sub, Reg(1), Reg(1), 1);
/// b.branch(head, CmpOp::Ne, Reg(1), Reg(0), head, exit);
/// b.halt(exit);
/// let program = b.finish(head);
/// assert_eq!(program.num_blocks(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    blocks: Vec<(Vec<Instr>, Option<Terminator>)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a new, empty, unterminated block.
    pub fn block(&mut self) -> BlockId {
        self.blocks.push((Vec::new(), None));
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Appends a raw instruction to `block`.
    ///
    /// # Panics
    /// Panics if the block is already terminated.
    pub fn push(&mut self, block: BlockId, instr: Instr) {
        let (instrs, term) = &mut self.blocks[block.index()];
        assert!(term.is_none(), "block {block} already terminated");
        instrs.push(instr);
    }

    /// `rd = value`.
    pub fn iconst(&mut self, block: BlockId, rd: Reg, value: i64) {
        self.push(block, Instr::IConst { rd, value });
    }

    /// `rd = value`, passed through the memory word at `slot`: stores
    /// `value` there through `rd` and loads it back. Execution sees an
    /// `iconst` (and the written word); a static range analysis sees a
    /// loaded, unknown value, as it sees an array a caller passes by
    /// reference.
    pub fn iconst_via_memory(&mut self, block: BlockId, rd: Reg, value: i64, slot: i64) {
        let disp = slot.wrapping_sub(value);
        self.iconst(block, rd, value);
        self.st(block, rd, rd, disp);
        self.ld(block, rd, rd, disp);
    }

    /// `rd = ra <op> rb`.
    pub fn alu(&mut self, block: BlockId, op: AluOp, rd: Reg, ra: Reg, rb: Reg) {
        self.push(block, Instr::Alu { op, rd, ra, rb });
    }

    /// `rd = ra <op> imm`.
    pub fn alu_imm(&mut self, block: BlockId, op: AluOp, rd: Reg, ra: Reg, imm: i64) {
        self.push(block, Instr::AluImm { op, rd, ra, imm });
    }

    /// `fd = value`.
    pub fn fconst(&mut self, block: BlockId, fd: FReg, value: f64) {
        self.push(block, Instr::FConst { fd, value });
    }

    /// `fd = fa <op> fb`.
    pub fn fpu(&mut self, block: BlockId, op: FpuOp, fd: FReg, fa: FReg, fb: FReg) {
        self.push(block, Instr::Fpu { op, fd, fa, fb });
    }

    /// `fd = (f64) ra`.
    pub fn itof(&mut self, block: BlockId, fd: FReg, ra: Reg) {
        self.push(block, Instr::ItoF { fd, ra });
    }

    /// `rd = (i64) fa`.
    pub fn ftoi(&mut self, block: BlockId, rd: Reg, fa: FReg) {
        self.push(block, Instr::FtoI { rd, fa });
    }

    /// `rd = mem[base + disp]`.
    pub fn ld(&mut self, block: BlockId, rd: Reg, base: Reg, disp: i64) {
        self.push(block, Instr::Ld { rd, base, disp });
    }

    /// `mem[base + disp] = rs`.
    pub fn st(&mut self, block: BlockId, rs: Reg, base: Reg, disp: i64) {
        self.push(block, Instr::St { rs, base, disp });
    }

    /// `fd = mem[base + disp]`.
    pub fn fld(&mut self, block: BlockId, fd: FReg, base: Reg, disp: i64) {
        self.push(block, Instr::FLd { fd, base, disp });
    }

    /// `mem[base + disp] = fs`.
    pub fn fst(&mut self, block: BlockId, fs: FReg, base: Reg, disp: i64) {
        self.push(block, Instr::FSt { fs, base, disp });
    }

    fn terminate(&mut self, block: BlockId, term: Terminator) {
        let slot = &mut self.blocks[block.index()].1;
        assert!(slot.is_none(), "block {block} already terminated");
        *slot = Some(term);
    }

    /// Ends `block` with an unconditional jump.
    pub fn jump(&mut self, block: BlockId, target: BlockId) {
        self.terminate(block, Terminator::Jump(target));
    }

    /// Ends `block` with a conditional branch.
    pub fn branch(
        &mut self,
        block: BlockId,
        op: CmpOp,
        ra: Reg,
        rb: Reg,
        taken: BlockId,
        fallthrough: BlockId,
    ) {
        self.terminate(
            block,
            Terminator::Branch {
                op,
                ra,
                rb,
                taken,
                fallthrough,
            },
        );
    }

    /// Ends `block` with a halt.
    pub fn halt(&mut self, block: BlockId) {
        self.terminate(block, Terminator::Halt);
    }

    /// Finalizes the program.
    ///
    /// # Panics
    /// Panics if any block lacks a terminator or a target is out of range.
    pub fn finish(self, entry: BlockId) -> Program {
        let blocks = self
            .blocks
            .into_iter()
            .enumerate()
            .map(|(i, (instrs, term))| Block {
                instrs,
                term: term.unwrap_or_else(|| panic!("block B{i} lacks a terminator")),
            })
            .collect();
        Program::new(blocks, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_termination_panics() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.halt(e);
        b.halt(e);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn push_after_terminator_panics() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.halt(e);
        b.iconst(e, Reg(1), 1);
    }

    #[test]
    #[should_panic(expected = "lacks a terminator")]
    fn unterminated_block_panics() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let _dangling = b.block();
        b.halt(e);
        b.finish(e);
    }

    #[test]
    fn builds_multi_block_programs() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let f = b.block();
        b.iconst(e, Reg(1), 1);
        b.jump(e, f);
        b.halt(f);
        let p = b.finish(e);
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.static_instrs(), 1);
    }
}
