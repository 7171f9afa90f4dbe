//! Superblock loop unrolling.
//!
//! The paper (§2.2) argues that "large scheduling/optimization regions are
//! critical for achieving good performance on in-order processors" and
//! that larger regions need more alias registers — the scalability
//! motivation for SMARQ. Unrolling is the standard way a dynamic optimizer
//! grows loop regions.
//!
//! A superblock whose final exit returns to its own entry (a loop region)
//! is unrolled by replicating its body: the unconditional back-edge exit
//! between replicas disappears, while every conditional side exit is kept
//! (each iteration can still leave early). Registers carry from replica to
//! replica exactly as they would across iterations, so the transformation
//! is semantics-preserving by construction; op origins repeat, so runtime
//! alias blacklisting applies to every replica at once.

use crate::sblock::{IrOp, Superblock};

/// Unrolls `sb` by `factor` if it is a self-loop region, bounded by
/// `max_ops`. Returns the unrolled superblock and the factor actually
/// applied (1 when the region is not a self-loop, `factor <= 1`, or the
/// body would exceed `max_ops`).
///
/// ```
/// use smarq_guest::{ProgramBuilder, Interpreter, Reg, CmpOp, AluOp};
/// use smarq_ir::{form_superblock, unroll_superblock, FormationParams};
///
/// let mut b = ProgramBuilder::new();
/// let head = b.block();
/// let done = b.block();
/// b.iconst(head, Reg(2), 100);
/// b.alu_imm(head, AluOp::Add, Reg(1), Reg(1), 1);
/// b.branch(head, CmpOp::Lt, Reg(1), Reg(2), head, done);
/// b.halt(done);
/// let p = b.finish(head);
/// let mut i = Interpreter::new();
/// i.run(&p, 10_000);
/// let sb = form_superblock(&p, i.profile(), head, FormationParams::default());
/// let (unrolled, applied) = unroll_superblock(&sb, 4, 512);
/// assert_eq!(applied, 4);
/// assert!(unrolled.ops.len() > 3 * sb.ops.len());
/// unrolled.validate().unwrap();
/// ```
pub fn unroll_superblock(sb: &Superblock, factor: u32, max_ops: usize) -> (Superblock, u32) {
    debug_assert!(sb.validate().is_ok());
    let is_self_loop = sb
        .exits
        .last()
        .map(|e| e.target == Some(sb.entry))
        .unwrap_or(false)
        && matches!(sb.ops.last(), Some(IrOp::Exit { cond: None, .. }));
    if !is_self_loop || factor <= 1 {
        return (sb.clone(), 1);
    }

    let body_len = sb.ops.len() - 1; // without the final back-edge exit
    let mut applied = factor.min(((max_ops.saturating_sub(1)) / body_len.max(1)) as u32);
    if applied <= 1 {
        return (sb.clone(), 1);
    }
    let final_exit = *sb.ops.last().expect("non-empty superblock");
    let final_origin = *sb.origins.last().expect("origins aligned");

    let mut ops = Vec::with_capacity(body_len * applied as usize + 1);
    let mut origins = Vec::with_capacity(ops.capacity());
    for _ in 0..applied {
        ops.extend_from_slice(&sb.ops[..body_len]);
        origins.extend_from_slice(&sb.origins[..body_len]);
    }
    ops.push(final_exit);
    origins.push(final_origin);

    let out = Superblock {
        ops,
        origins,
        exits: sb.exits.clone(),
        entry: sb.entry,
        trace: sb.trace.clone(),
        profiled_aliases: sb.profiled_aliases.clone(),
    };
    debug_assert!(out.validate().is_ok());
    // `applied` is at least 2 here.
    if out.ops.len() > max_ops {
        applied = 1;
        return (sb.clone(), applied);
    }
    (out, applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::form::{form_superblock, FormationParams};
    use smarq_guest::{AluOp, CmpOp, Interpreter, ProgramBuilder, Reg};

    fn loop_program() -> (smarq_guest::Program, smarq_guest::BlockId) {
        let mut b = ProgramBuilder::new();
        let head = b.block();
        let done = b.block();
        b.iconst(head, Reg(2), 500);
        b.ld(head, Reg(4), Reg(3), 0);
        b.st(head, Reg(4), Reg(3), 8);
        b.alu_imm(head, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(head, CmpOp::Lt, Reg(1), Reg(2), head, done);
        b.halt(done);
        (b.finish(head), head)
    }

    fn loop_sb() -> Superblock {
        let (p, head) = loop_program();
        let mut i = Interpreter::new();
        i.run(&p, 100_000);
        form_superblock(&p, i.profile(), head, FormationParams::default())
    }

    #[test]
    fn unrolls_self_loops() {
        let sb = loop_sb();
        let body = sb.ops.len() - 1;
        let (u, applied) = unroll_superblock(&sb, 3, 512);
        assert_eq!(applied, 3);
        assert_eq!(u.ops.len(), 3 * body + 1);
        u.validate().unwrap();
        // Side exits replicate; the exit table does not.
        assert_eq!(u.exits.len(), sb.exits.len());
        let orig_side_exits = sb.ops.iter().filter(|o| o.is_exit()).count() - 1;
        let side_exits = u.ops.iter().filter(|o| o.is_exit()).count();
        assert_eq!(side_exits, 3 * orig_side_exits + 1);
        // Memory operations scale with the factor.
        assert_eq!(u.mem_op_count(), 3 * sb.mem_op_count());
    }

    #[test]
    fn factor_capped_by_max_ops() {
        let sb = loop_sb();
        let body = sb.ops.len() - 1;
        let (u, applied) = unroll_superblock(&sb, 100, body * 4 + 1);
        assert!(applied <= 4, "applied {applied}");
        assert!(u.ops.len() <= body * 4 + 1);
    }

    #[test]
    fn non_loops_are_untouched() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.iconst(e, Reg(1), 1);
        b.halt(e);
        let p = b.finish(e);
        let mut i = Interpreter::new();
        i.run(&p, 100);
        let sb = form_superblock(&p, i.profile(), e, FormationParams::default());
        let (u, applied) = unroll_superblock(&sb, 8, 512);
        assert_eq!(applied, 1);
        assert_eq!(u, sb);
    }

    #[test]
    fn factor_one_is_identity() {
        let sb = loop_sb();
        let (u, applied) = unroll_superblock(&sb, 1, 512);
        assert_eq!(applied, 1);
        assert_eq!(u, sb);
    }
}
