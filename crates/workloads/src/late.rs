//! Loops whose may-alias pair starts to alias only once they are hot.
//!
//! A pair that aliases while its block warms up in the interpreter is
//! recorded at formation and never speculated, so it never raises an
//! alias exception. Rollback, blacklisting and retranslation are reached
//! only by aliasing that starts later; these workloads are that case,
//! with the late pointer computed inside the hot loop
//! ([`late_aliasing`]) or arriving from memory before it
//! ([`late_entry_aliasing`]).

use crate::kernels::Workload;
use smarq_guest::{AluOp, CmpOp, ProgramBuilder, Reg};

/// Where [`late_entry_aliasing`] passes its inner-loop pointer through
/// memory.
const POINTER_SLOT: i64 = 0x8000;

/// A counted loop of `iters` iterations that stores through `r3` and then
/// loads through `r5`, two registers the alias analysis cannot
/// disambiguate. The load reads a different word while `i < flip` and the
/// store's word from iteration `flip` on. With `flip` past the runtime's
/// hot threshold, the translated region speculates on the pair and faults
/// at iteration `flip`.
///
/// ```
/// use smarq_guest::Interpreter;
/// let w = smarq_workloads::late_aliasing(100, 60);
/// let mut i = Interpreter::new();
/// i.run(&w.program, u64::MAX);
/// assert_eq!(i.regs[1], 100);
/// ```
pub fn late_aliasing(iters: i64, flip: i64) -> Workload {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), iters);
    b.iconst(entry, Reg(3), 0x1000);
    b.iconst(entry, Reg(7), flip);
    b.iconst(entry, Reg(8), 0x1000);
    b.jump(entry, body);
    // r5 = 0x1000 + (i < flip) * 0x1000.
    b.alu(body, AluOp::Slt, Reg(6), Reg(1), Reg(7));
    b.alu(body, AluOp::Mul, Reg(6), Reg(6), Reg(8));
    b.alu(body, AluOp::Add, Reg(5), Reg(3), Reg(6));
    b.st(body, Reg(1), Reg(3), 0);
    b.ld(body, Reg(4), Reg(5), 0);
    b.alu(body, AluOp::Add, Reg(9), Reg(9), Reg(4));
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    Workload {
        name: "late-aliasing",
        program: b.finish(entry),
        description: "a may-alias pair that truly aliases only after warm-up (rollbacks)",
    }
}

/// A loop nest whose inner loop stores through `r3` and loads through
/// `r5`, neither written inside it, for `inner` iterations per outer
/// iteration. The outer loop computes `r5` and passes it through memory
/// before each inner loop, so the alias analysis cannot tell it from
/// `r3`, and the inner region sees a pointer that is fixed for the whole
/// entry: the load reads a word of its own in outer iterations before
/// `flip` and the store's word from outer iteration `flip` on. With the
/// inner loop hot within the first outer iteration and `flip` past it,
/// the translated inner region speculates on the pair, and its first
/// entry in outer iteration `flip` faults.
///
/// ```
/// use smarq_guest::Interpreter;
/// let w = smarq_workloads::late_entry_aliasing(6, 40, 3);
/// let mut i = Interpreter::new();
/// i.run(&w.program, u64::MAX);
/// assert_eq!(i.regs[1], 6);
/// // Each outer iteration from `flip` on reads back inner counters.
/// assert_eq!(i.regs[9], 3 * (0..40).sum::<i64>());
/// ```
pub fn late_entry_aliasing(outer: i64, inner: i64, flip: i64) -> Workload {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let head = b.block();
    let body = b.block();
    let latch = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), outer);
    b.iconst(entry, Reg(3), 0x1000);
    b.iconst(entry, Reg(7), flip);
    b.iconst(entry, Reg(8), 0x1000);
    b.iconst(entry, Reg(10), inner);
    b.iconst(entry, Reg(13), POINTER_SLOT);
    b.jump(entry, head);
    // r5 = 0x1000 + (k < flip) * 0x1000, through memory.
    b.alu(head, AluOp::Slt, Reg(6), Reg(1), Reg(7));
    b.alu(head, AluOp::Mul, Reg(6), Reg(6), Reg(8));
    b.alu(head, AluOp::Add, Reg(6), Reg(3), Reg(6));
    b.st(head, Reg(6), Reg(13), 0);
    b.ld(head, Reg(5), Reg(13), 0);
    b.iconst(head, Reg(11), 0);
    b.jump(head, body);
    b.st(body, Reg(11), Reg(3), 0);
    b.ld(body, Reg(4), Reg(5), 0);
    b.alu(body, AluOp::Add, Reg(9), Reg(9), Reg(4));
    b.alu_imm(body, AluOp::Add, Reg(11), Reg(11), 1);
    b.branch(body, CmpOp::Lt, Reg(11), Reg(10), body, latch);
    b.alu_imm(latch, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(latch, CmpOp::Lt, Reg(1), Reg(2), head, done);
    b.halt(done);
    Workload {
        name: "late-entry-aliasing",
        program: b.finish(entry),
        description: "an inner-loop pointer from memory that aliases the store base from a \
                      late outer iteration on (guard misses, rollbacks)",
    }
}
