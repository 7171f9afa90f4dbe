//! Whole-program interval dataflow over guest control-flow graphs.
//!
//! A classic worklist fixpoint over the abstract domain of
//! [`smarq::range`]: every block gets an entry [`RegState`] (one interval
//! per guest integer register), seeded from the interpreter's true start
//! state (all registers exactly zero) at the program entry and ⊥
//! everywhere else, and propagated through each block's straight-line
//! transfer to its terminator successors until nothing changes.
//!
//! Loops are handled by **widening**: after a block's entry state has
//! been joined [`WIDEN_AFTER`] times, further growth jumps the moving
//! bounds straight to ±∞ ([`smarq::range::widen_state`]), which bounds
//! the iteration count regardless of loop trip counts. A generous
//! iteration cap backstops the claim; [`ProgramDataflow::converged`]
//! reports whether the fixpoint was actually reached (it always is for
//! programs the widening argument covers — the cap exists so a bug here
//! degrades to imprecision, never to a hang).
//!
//! The result feeds two consumers:
//!
//! * the **runtime**, which hands each region's entry-block state to the
//!   optimizer: its alias relation calls a memory pair disjoint when the
//!   derived address intervals prove it (`smarq_ir::AliasAnalysis`), and
//!   the unspeculatable-address-range taint ([`smarq_ir::nospec_taint`])
//!   is range-precise instead of assume-the-worst;
//! * the **chain analyzer** ([`crate::chain`]), which seeds its
//!   cross-region fixpoint from these states and re-derives every taint
//!   decision and every range-derived disjointness independently.
//!
//! [`analyze`] honours the `SMARQ_FAULT_WIDEN_RANGE` mutation switch
//! (`smarq::fault`): at widening points the faulted analysis keeps the
//! old, unsoundly narrow state and pretends it converged — the planted
//! bug the chain analyzer's never-faulted [`analyze_reference`] twin must
//! flag in the mutation-sanity tests.

use smarq::range::{join_state, widen_state, zeroed_state, Interval, RegState};
use smarq_guest::{Block, BlockId, Instr, Program, Terminator};
use smarq_ir::apply_alu;
use std::collections::VecDeque;

/// Joins applied to a block's entry state before growth widens to ±∞.
pub const WIDEN_AFTER: usize = 8;

/// Result of the whole-program fixpoint: the abstract register state at
/// every block entry.
#[derive(Clone, Debug)]
pub struct ProgramDataflow {
    entry_states: Vec<RegState>,
    /// Block transfers performed before the fixpoint stabilized.
    pub iterations: usize,
    /// `false` only if the iteration cap fired before stabilization —
    /// the remaining states are still sound joins, just not provably
    /// maximal-fixpoint. Widening makes this unreachable in practice.
    pub converged: bool,
}

impl ProgramDataflow {
    /// The derived register state at `b`'s entry. Blocks the analysis
    /// proved unreachable keep the all-⊥ state.
    pub fn entry_state(&self, b: BlockId) -> &RegState {
        &self.entry_states[b.index()]
    }

    /// Entry states for every block, indexed by [`BlockId::index`].
    pub fn entry_states(&self) -> &[RegState] {
        &self.entry_states
    }
}

/// Runs the fixpoint, honouring the `SMARQ_FAULT_WIDEN_RANGE` mutation
/// switch (see module docs). This is what the runtime calls.
pub fn analyze(program: &Program) -> ProgramDataflow {
    run(program, smarq::fault::widen_range_enabled())
}

/// Runs the fixpoint with fault injection unconditionally disabled — the
/// chain analyzer's reference computation.
pub fn analyze_reference(program: &Program) -> ProgramDataflow {
    run(program, false)
}

/// Straight-line transfer of one block body (terminators read registers
/// but never write them). Mirrors `smarq_ir::range::analyze_superblock`'s
/// per-op transfer on the guest [`Instr`] level.
fn transfer_block(block: &Block, state: &mut RegState) {
    let r = |reg: smarq_guest::Reg| reg.0 as usize & 63;
    for i in &block.instrs {
        match *i {
            Instr::IConst { rd, value } => state[r(rd)] = Interval::exact(value),
            Instr::Alu { op, rd, ra, rb } => {
                state[r(rd)] = apply_alu(op, state[r(ra)], state[r(rb)]);
            }
            Instr::AluImm { op, rd, ra, imm } => {
                state[r(rd)] = apply_alu(op, state[r(ra)], Interval::exact(imm));
            }
            // Values entering the integer file from memory or the FP file
            // are unconstrained.
            Instr::Ld { rd, .. } | Instr::FtoI { rd, .. } => state[r(rd)] = Interval::TOP,
            Instr::FConst { .. }
            | Instr::Fpu { .. }
            | Instr::ItoF { .. }
            | Instr::St { .. }
            | Instr::FLd { .. }
            | Instr::FSt { .. } => {}
        }
    }
}

fn successors(term: &Terminator) -> impl Iterator<Item = BlockId> {
    let (a, b) = match *term {
        Terminator::Jump(t) => (Some(t), None),
        Terminator::Branch {
            taken, fallthrough, ..
        } => (Some(taken), Some(fallthrough)),
        Terminator::Halt => (None, None),
    };
    a.into_iter().chain(b)
}

fn run(program: &Program, faulted: bool) -> ProgramDataflow {
    let n = program.num_blocks();
    let mut entry_states = vec![[Interval::BOTTOM; 64]; n];
    entry_states[program.entry().index()] = zeroed_state();
    // Per-block join count, for the widening threshold.
    let mut joins = vec![0usize; n];
    let mut queued = vec![false; n];
    let mut work = VecDeque::with_capacity(n);
    work.push_back(program.entry());
    queued[program.entry().index()] = true;

    // Each changed join moves at least one interval bound strictly up the
    // lattice; per block that can happen at most WIDEN_AFTER times before
    // widening, and widening moves each of the 128 bounds at most once
    // more. The cap is that bound with headroom — hitting it means a bug
    // in the lattice, and the result degrades to "not converged".
    let cap = n.max(1) * 64 * (WIDEN_AFTER + 4);
    let mut iterations = 0usize;
    let mut converged = true;

    while let Some(b) = work.pop_front() {
        queued[b.index()] = false;
        iterations += 1;
        if iterations > cap {
            converged = false;
            break;
        }
        let mut out = entry_states[b.index()];
        let block = program.block(b);
        transfer_block(block, &mut out);
        for s in successors(&block.term) {
            let si = s.index();
            let changed = if joins[si] < WIDEN_AFTER {
                join_state(&mut entry_states[si], &out)
            } else if faulted {
                // Injected bug (SMARQ_FAULT_WIDEN_RANGE): skip the
                // widening, keep the narrow state, report convergence.
                false
            } else {
                widen_state(&mut entry_states[si], &out)
            };
            if changed {
                joins[si] += 1;
                if !queued[si] {
                    queued[si] = true;
                    work.push_back(s);
                }
            }
        }
    }

    ProgramDataflow {
        entry_states,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq_guest::{AluOp, CmpOp, ProgramBuilder, Reg};

    /// entry: r1 = 0x1000; r2 = r1 + 8 → body: r3 = load; → done.
    fn straight_line() -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let done = b.block();
        b.iconst(entry, Reg(1), 0x1000);
        b.alu_imm(entry, AluOp::Add, Reg(2), Reg(1), 8);
        b.jump(entry, body);
        b.ld(body, Reg(3), Reg(2), 0);
        b.jump(body, done);
        b.halt(done);
        b.finish(entry)
    }

    /// A counted loop advancing a pointer by 8 every iteration.
    fn pointer_loop(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let done = b.block();
        b.iconst(entry, Reg(1), 0); // induction
        b.iconst(entry, Reg(2), iters);
        b.iconst(entry, Reg(3), 0x1000); // pointer
        b.jump(entry, body);
        b.ld(body, Reg(4), Reg(3), 0);
        b.alu_imm(body, AluOp::Add, Reg(3), Reg(3), 8);
        b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
        b.halt(done);
        b.finish(entry)
    }

    #[test]
    fn straight_line_states_are_exact() {
        let p = straight_line();
        let df = analyze_reference(&p);
        assert!(df.converged);
        let body = df.entry_state(BlockId(1));
        assert_eq!(body[1], Interval::exact(0x1000));
        assert_eq!(body[2], Interval::exact(0x1008));
        // Never-written registers stay exactly zero (interpreter start).
        assert_eq!(body[9], Interval::exact(0));
        let done = df.entry_state(BlockId(2));
        assert!(done[3].is_top(), "loaded value is unconstrained");
    }

    #[test]
    fn loop_terminates_by_widening() {
        let p = pointer_loop(1_000_000);
        let df = analyze_reference(&p);
        assert!(df.converged);
        // Widening must have pushed the growing bounds to +∞ long before
        // a trip-count-proportional iteration count.
        assert!(df.iterations < 200, "iterations = {}", df.iterations);
        let body = df.entry_state(BlockId(1));
        // The growing bound is widened to +∞; the add's corner then
        // overflows i64 (guest ALUs wrap), so the transfer soundly
        // collapses the pointer to ⊤ — every address it really reaches
        // is contained either way.
        assert_eq!(body[3].hi, i64::MAX, "widened growing bound");
        assert!(body[3].contains(0x1000 + 8 * 999_999));
        assert_eq!(body[1].hi, i64::MAX, "widened induction bound");
    }

    #[test]
    fn unreachable_blocks_stay_bottom() {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let orphan = b.block();
        b.halt(entry);
        b.iconst(orphan, Reg(1), 5);
        b.halt(orphan);
        let p = b.finish(entry);
        let df = analyze_reference(&p);
        assert!(df.entry_state(BlockId(1)).iter().all(|iv| iv.is_bottom()));
    }

    #[test]
    fn faulted_run_is_unsoundly_narrow_but_claims_convergence() {
        // The WIDEN_RANGE fault keeps pre-widening states: the pointer's
        // derived range stops a few joins past 0x1000 instead of reaching
        // +∞ — exactly the kind of miss that lets the optimizer speculate
        // across a nospec range the pointer really reaches.
        let p = pointer_loop(1_000_000);
        let faulted = run(&p, true);
        let reference = run(&p, false);
        assert!(faulted.converged, "the fault pretends convergence");
        let f = faulted.entry_state(BlockId(1))[3];
        let r = reference.entry_state(BlockId(1))[3];
        assert_eq!(r.hi, i64::MAX);
        assert!(
            f.hi < 0x1000 + 8 * (WIDEN_AFTER as i64 + 2),
            "faulted bound should stall near the join threshold, got {f}"
        );
        // Concretely: iteration 20 puts the pointer at 0x1000 + 160,
        // outside the faulted range — the unsoundness witness.
        assert!(!f.contains(0x1000 + 160));
        assert!(r.contains(0x1000 + 160));
    }
}
