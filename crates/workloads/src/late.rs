//! A loop whose may-alias pair starts to alias only once it is hot.
//!
//! A pair that aliases while its block warms up in the interpreter is
//! recorded at formation and never speculated, so it never raises an
//! alias exception. Rollback, blacklisting and retranslation are reached
//! only by aliasing that starts later; this workload is that case.

use crate::kernels::Workload;
use smarq_guest::{AluOp, CmpOp, ProgramBuilder, Reg};

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
