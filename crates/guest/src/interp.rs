//! Guest interpreter with execution profiling.

use crate::isa::{BlockId, Instr, Program, Terminator};
use crate::mem::Memory;

/// Per-block profile counters, kept together so the interpreter's
/// per-block dispatch path touches one slot (one bounds check, one cache
/// line) instead of three parallel vectors.
#[derive(Clone, Copy, Debug, Default)]
struct BlockCounters {
    /// Block execution count.
    count: u64,
    /// Taken count of the block's branch terminator.
    taken: u64,
    /// Fall-through count of the block's branch terminator.
    fall: u64,
}

/// `addr_base` slot of a block whose addresses were never recorded.
const NOT_RECORDED: u32 = u32::MAX;

/// Block-level execution profile collected by the interpreter. This is what
/// the dynamic optimizer consumes for hot-region formation (paper §6:
/// "the system profiles the execution for hot basic blocks").
///
/// A dynamic optimizer's interpreter also records the last effective
/// address of every memory instruction it executes
/// ([`Interpreter::step_block_recording`]), so region formation can tell
/// which memory pairs aliased while their blocks warmed up
/// ([`Profile::last_addr`]).
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// One counter slot per block.
    blocks: Vec<BlockCounters>,
    /// Per block: the index of its first instruction's slot in `addrs`,
    /// or [`NOT_RECORDED`]. Slots are handed out on a block's first
    /// recorded execution, one per instruction.
    addr_base: Vec<u32>,
    /// The last effective address of each recorded instruction (unused
    /// for non-memory instructions).
    addrs: Vec<u64>,
}

impl Profile {
    fn ensure(&mut self, n: usize) {
        if self.blocks.len() < n {
            self.blocks.resize(n, BlockCounters::default());
        }
    }

    /// The first `addrs` slot of `block`, handing out its slots on first
    /// use.
    fn addr_slots(&mut self, block: BlockId, instrs: usize) -> usize {
        if self.addr_base.len() <= block.index() {
            self.addr_base.resize(block.index() + 1, NOT_RECORDED);
        }
        let base = &mut self.addr_base[block.index()];
        if *base == NOT_RECORDED {
            *base = u32::try_from(self.addrs.len()).expect("fewer than 2^32 recorded instructions");
            self.addrs.resize(self.addrs.len() + instrs, 0);
        }
        *base as usize
    }

    /// The effective address instruction `instr` of `block` accessed the
    /// last time the block was stepped with
    /// [`Interpreter::step_block_recording`]; `None` when it never was or
    /// `instr` is not a memory instruction of `program`.
    pub fn last_addr(&self, program: &Program, block: BlockId, instr: u32) -> Option<u64> {
        let base = *self.addr_base.get(block.index())?;
        let i = program.block(block).instrs.get(instr as usize)?;
        (base != NOT_RECORDED && i.is_mem()).then(|| self.addrs[base as usize + instr as usize])
    }

    /// Execution count of `block`.
    pub fn block_count(&self, block: BlockId) -> u64 {
        self.blocks.get(block.index()).map_or(0, |b| b.count)
    }

    /// `(taken, fallthrough)` counts for a block's branch terminator.
    pub fn branch_bias(&self, block: BlockId) -> (u64, u64) {
        self.blocks
            .get(block.index())
            .map_or((0, 0), |b| (b.taken, b.fall))
    }

    /// The most-frequent successor of `block` per this profile, if any.
    pub fn biased_successor(&self, program: &Program, block: BlockId) -> Option<BlockId> {
        match program.block(block).term {
            Terminator::Jump(t) => Some(t),
            Terminator::Branch {
                taken, fallthrough, ..
            } => {
                let (t, f) = self.branch_bias(block);
                if t + f == 0 {
                    None
                } else if t >= f {
                    Some(taken)
                } else {
                    Some(fallthrough)
                }
            }
            Terminator::Halt => None,
        }
    }

    /// Resets all counters and recorded addresses.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.addr_base.clear();
        self.addrs.clear();
    }
}

/// A snapshot of the architectural guest state, used to compare optimized
/// execution against pure interpretation.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchState {
    /// Integer registers.
    pub regs: [i64; 32],
    /// Floating-point register bit patterns (bitwise comparison keeps the
    /// snapshot `Eq`-friendly in the presence of NaN).
    pub fregs: [u64; 32],
    /// Memory contents.
    pub mem: Memory,
}

/// Why a [`Interpreter::run`] call stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The program executed a `Halt` terminator.
    Halted,
    /// The instruction budget was exhausted.
    BudgetExhausted,
}

/// The guest interpreter.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct Interpreter {
    /// Integer register file.
    pub regs: [i64; 32],
    /// Floating-point register file.
    pub fregs: [f64; 32],
    /// Guest memory.
    pub mem: Memory,
    profile: Profile,
    executed: u64,
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// Creates an interpreter with zeroed state.
    pub fn new() -> Self {
        Interpreter {
            regs: [0; 32],
            fregs: [0.0; 32],
            mem: Memory::new(),
            profile: Profile::default(),
            executed: 0,
        }
    }

    /// The accumulated execution profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Dynamic guest instructions executed so far (terminators count as one
    /// instruction each).
    pub fn executed_instrs(&self) -> u64 {
        self.executed
    }

    /// Snapshots the architectural state.
    pub fn arch_state(&self) -> ArchState {
        ArchState {
            regs: self.regs,
            fregs: self.fregs.map(f64::to_bits),
            mem: self.mem.clone(),
        }
    }

    /// Executes a single straight-line instruction against the state.
    pub fn exec_instr(&mut self, instr: &Instr) {
        match *instr {
            Instr::IConst { rd, value } => self.regs[rd.0 as usize] = value,
            Instr::Alu { op, rd, ra, rb } => {
                self.regs[rd.0 as usize] =
                    op.apply(self.regs[ra.0 as usize], self.regs[rb.0 as usize]);
            }
            Instr::AluImm { op, rd, ra, imm } => {
                self.regs[rd.0 as usize] = op.apply(self.regs[ra.0 as usize], imm);
            }
            Instr::FConst { fd, value } => self.fregs[fd.0 as usize] = value,
            Instr::Fpu { op, fd, fa, fb } => {
                self.fregs[fd.0 as usize] =
                    op.apply(self.fregs[fa.0 as usize], self.fregs[fb.0 as usize]);
            }
            Instr::ItoF { fd, ra } => self.fregs[fd.0 as usize] = self.regs[ra.0 as usize] as f64,
            Instr::FtoI { rd, fa } => self.regs[rd.0 as usize] = self.fregs[fa.0 as usize] as i64,
            Instr::Ld { rd, base, disp } => {
                let addr = (self.regs[base.0 as usize].wrapping_add(disp)) as u64;
                self.regs[rd.0 as usize] = self.mem.read(addr) as i64;
            }
            Instr::St { rs, base, disp } => {
                let addr = (self.regs[base.0 as usize].wrapping_add(disp)) as u64;
                self.mem.write(addr, self.regs[rs.0 as usize] as u64);
            }
            Instr::FLd { fd, base, disp } => {
                let addr = (self.regs[base.0 as usize].wrapping_add(disp)) as u64;
                self.fregs[fd.0 as usize] = self.mem.read_f64(addr);
            }
            Instr::FSt { fs, base, disp } => {
                let addr = (self.regs[base.0 as usize].wrapping_add(disp)) as u64;
                self.mem.write_f64(addr, self.fregs[fs.0 as usize]);
            }
        }
        self.executed += 1;
    }

    /// Executes one whole block (body + terminator), updating the profile's
    /// counters, and returns the successor (`None` on `Halt`).
    pub fn step_block(&mut self, program: &Program, block: BlockId) -> Option<BlockId> {
        self.step::<false>(program, block)
    }

    /// Like [`step_block`](Self::step_block), and also records the
    /// effective address of each of the block's memory instructions in
    /// the profile ([`Profile::last_addr`]). A dynamic optimizer steps
    /// its interpreter this way; [`run`](Self::run) records no addresses.
    pub fn step_block_recording(&mut self, program: &Program, block: BlockId) -> Option<BlockId> {
        self.step::<true>(program, block)
    }

    #[inline]
    fn step<const RECORD: bool>(&mut self, program: &Program, block: BlockId) -> Option<BlockId> {
        self.profile.ensure(program.num_blocks());
        self.profile.blocks[block.index()].count += 1;
        let b = program.block(block);
        if RECORD {
            let slots = self.profile.addr_slots(block, b.instrs.len());
            for (i, instr) in b.instrs.iter().enumerate() {
                if let Some((base, disp)) = instr.mem_operand() {
                    let addr = self.regs[base.0 as usize].wrapping_add(disp) as u64;
                    self.profile.addrs[slots + i] = addr;
                }
                self.exec_instr(instr);
            }
        } else {
            for instr in &b.instrs {
                self.exec_instr(instr);
            }
        }
        self.executed += 1; // the terminator
        match b.term {
            Terminator::Jump(t) => Some(t),
            Terminator::Branch {
                op,
                ra,
                rb,
                taken,
                fallthrough,
            } => {
                if op.eval(self.regs[ra.0 as usize], self.regs[rb.0 as usize]) {
                    self.profile.blocks[block.index()].taken += 1;
                    Some(taken)
                } else {
                    self.profile.blocks[block.index()].fall += 1;
                    Some(fallthrough)
                }
            }
            Terminator::Halt => None,
        }
    }

    /// Writes the program's initialized data image into memory.
    pub fn load_data(&mut self, program: &Program) {
        for &(addr, word) in program.data() {
            self.mem.write(addr, word);
        }
    }

    /// Runs the program from its entry until `Halt` or until roughly
    /// `budget` dynamic instructions have executed. The program's data
    /// image is (re-)applied first.
    pub fn run(&mut self, program: &Program, budget: u64) -> RunOutcome {
        self.load_data(program);
        let mut block = program.entry();
        let limit = self.executed.saturating_add(budget);
        loop {
            match self.step_block(program, block) {
                Some(next) => block = next,
                None => return RunOutcome::Halted,
            }
            if self.executed >= limit {
                return RunOutcome::BudgetExhausted;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::isa::{AluOp, CmpOp, FReg, FpuOp, Reg};

    /// sum = Σ i for i in 0..10, via a counted loop.
    fn loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let done = b.block();
        b.iconst(entry, Reg(1), 0); // i
        b.iconst(entry, Reg(2), 0); // sum
        b.iconst(entry, Reg(3), 10); // limit
        b.jump(entry, body);
        b.alu(body, AluOp::Add, Reg(2), Reg(2), Reg(1));
        b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(body, CmpOp::Lt, Reg(1), Reg(3), body, done);
        b.halt(done);
        b.finish(entry)
    }

    #[test]
    fn loop_sums_correctly_and_profiles() {
        let p = loop_program();
        let mut i = Interpreter::new();
        assert_eq!(i.run(&p, 10_000), RunOutcome::Halted);
        assert_eq!(i.regs[2], 45);
        assert_eq!(i.profile().block_count(BlockId(1)), 10);
        assert_eq!(i.profile().block_count(BlockId(0)), 1);
        let (taken, fall) = i.profile().branch_bias(BlockId(1));
        assert_eq!((taken, fall), (9, 1));
        assert_eq!(
            i.profile().biased_successor(&p, BlockId(1)),
            Some(BlockId(1)),
            "backedge is the biased successor"
        );
    }

    #[test]
    fn budget_stops_infinite_loops() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.jump(e, e);
        let p = b.finish(e);
        let mut i = Interpreter::new();
        assert_eq!(i.run(&p, 100), RunOutcome::BudgetExhausted);
        assert!(i.executed_instrs() >= 100);
    }

    #[test]
    fn memory_and_fp_roundtrip() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.iconst(e, Reg(1), 0x1000);
        b.fconst(e, FReg(1), 2.5);
        b.fconst(e, FReg(2), 4.0);
        b.fpu(e, FpuOp::Mul, FReg(3), FReg(1), FReg(2));
        b.fst(e, FReg(3), Reg(1), 8);
        b.fld(e, FReg(4), Reg(1), 8);
        b.halt(e);
        let p = b.finish(e);
        let mut i = Interpreter::new();
        i.run(&p, 1000);
        assert_eq!(i.fregs[4], 10.0);
        assert_eq!(i.mem.read_f64(0x1008), 10.0);
    }

    #[test]
    fn arch_state_snapshot_equality() {
        let p = loop_program();
        let mut a = Interpreter::new();
        let mut b2 = Interpreter::new();
        a.run(&p, 10_000);
        b2.run(&p, 10_000);
        assert_eq!(a.arch_state(), b2.arch_state());
    }

    #[test]
    fn conversions() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.iconst(e, Reg(1), -7);
        b.itof(e, FReg(1), Reg(1));
        b.ftoi(e, Reg(2), FReg(1));
        b.halt(e);
        let p = b.finish(e);
        let mut i = Interpreter::new();
        i.run(&p, 100);
        assert_eq!(i.fregs[1], -7.0);
        assert_eq!(i.regs[2], -7);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::isa::Reg;

    #[test]
    fn profile_clear_resets_counts() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.iconst(e, Reg(1), 1);
        b.halt(e);
        let p = b.finish(e);
        let mut i = Interpreter::new();
        i.run(&p, 100);
        assert_eq!(i.profile().block_count(BlockId(0)), 1);
        let mut prof = i.profile().clone();
        prof.clear();
        assert_eq!(prof.block_count(BlockId(0)), 0);
    }

    #[test]
    fn only_recording_steps_record_addresses() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.iconst(e, Reg(1), 0x1000);
        b.st(e, Reg(1), Reg(1), 12);
        b.ld(e, Reg(2), Reg(1), 0);
        b.halt(e);
        let p = b.finish(e);
        let mut i = Interpreter::new();
        i.run(&p, 100);
        assert_eq!(i.profile().last_addr(&p, e, 1), None, "run records nothing");
        let mut i = Interpreter::new();
        i.step_block_recording(&p, e);
        assert_eq!(i.profile().last_addr(&p, e, 1), Some(0x100c));
        assert_eq!(i.profile().last_addr(&p, e, 2), Some(0x1000));
        assert_eq!(
            i.profile().last_addr(&p, e, 0),
            None,
            "not a memory instruction"
        );
        assert_eq!(i.profile().last_addr(&p, e, 9), None, "out of range");
        let mut prof = i.profile().clone();
        prof.clear();
        assert_eq!(prof.last_addr(&p, e, 1), None);
    }

    #[test]
    fn biased_successor_of_jump_and_halt() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let f = b.block();
        b.jump(e, f);
        b.halt(f);
        let p = b.finish(e);
        let mut i = Interpreter::new();
        i.run(&p, 100);
        assert_eq!(
            i.profile().biased_successor(&p, BlockId(0)),
            Some(BlockId(1))
        );
        assert_eq!(i.profile().biased_successor(&p, BlockId(1)), None);
    }

    #[test]
    fn unprofiled_branch_has_no_bias() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let f = b.block();
        b.branch(e, crate::isa::CmpOp::Eq, Reg(0), Reg(0), f, e);
        b.halt(f);
        let p = b.finish(e);
        let prof = Profile::default();
        assert_eq!(prof.biased_successor(&p, BlockId(0)), None);
    }
}
