//! Superblock formation from execution profiles (paper §6: "the dynamic
//! optimizer forms a region along the hot execution paths starting from the
//! basic block until it reaches a cold block").

use crate::alias::AliasRel;
use crate::sblock::{IrExit, IrOp, OpOrigin, Superblock};
use smarq_guest::{BlockId, Instr, MemRange, Profile, Program, Terminator};

/// Parameters of hot-region formation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FormationParams {
    /// A block joins the trace only if its execution count reaches this.
    pub cold_threshold: u64,
    /// Maximum number of guest blocks per superblock.
    pub max_blocks: usize,
    /// Maximum number of IR operations per superblock.
    pub max_ops: usize,
}

impl Default for FormationParams {
    fn default() -> Self {
        FormationParams {
            cold_threshold: 10,
            max_blocks: 16,
            max_ops: 512,
        }
    }
}

fn translate_instr(i: &Instr) -> IrOp {
    match *i {
        Instr::IConst { rd, value } => IrOp::IConst { rd: rd.0, value },
        Instr::Alu { op, rd, ra, rb } => IrOp::Alu {
            op,
            rd: rd.0,
            ra: ra.0,
            rb: rb.0,
        },
        Instr::AluImm { op, rd, ra, imm } => IrOp::AluImm {
            op,
            rd: rd.0,
            ra: ra.0,
            imm,
        },
        Instr::FConst { fd, value } => IrOp::FConst { fd: fd.0, value },
        Instr::Fpu { op, fd, fa, fb } => IrOp::Fpu {
            op,
            fd: fd.0,
            fa: fa.0,
            fb: fb.0,
        },
        Instr::ItoF { fd, ra } => IrOp::ItoF { fd: fd.0, ra: ra.0 },
        Instr::FtoI { rd, fa } => IrOp::FtoI { rd: rd.0, fa: fa.0 },
        Instr::Ld { rd, base, disp } => IrOp::Ld {
            rd: rd.0,
            base: base.0,
            disp,
        },
        Instr::St { rs, base, disp } => IrOp::St {
            rs: rs.0,
            base: base.0,
            disp,
        },
        Instr::FLd { fd, base, disp } => IrOp::FLd {
            fd: fd.0,
            base: base.0,
            disp,
        },
        Instr::FSt { fs, base, disp } => IrOp::FSt {
            fs: fs.0,
            base: base.0,
            disp,
        },
    }
}

/// Forms a superblock starting at `start`, following the profile's biased
/// successors until a halt, a trace cycle (loop back-edge), a cold block,
/// or a size limit. Every off-trace branch direction becomes a conditional
/// side exit; the region ends with an unconditional exit to the next guest
/// block (or to `None` for halt).
///
/// The region's memory pairs that aliased while its blocks warmed up
/// become [`Superblock::profiled_aliases`]: a pair of memory operations
/// of which at least one is a store, both with a recorded last address
/// ([`Profile::last_addr`]), and whose words overlap under the alias
/// hardware's footprint test ([`MemRange::word`]). The optimizer never
/// speculates across such a pair, so a pair that aliases from its first
/// iteration costs no alias exception. A profile recorded without
/// addresses (such as [`Interpreter::run`](smarq_guest::Interpreter::run)'s)
/// yields no pairs.
///
/// ```
/// use smarq_guest::{ProgramBuilder, Interpreter, Reg, CmpOp, AluOp};
/// use smarq_ir::{form_superblock, FormationParams};
///
/// let mut b = ProgramBuilder::new();
/// let head = b.block();
/// let done = b.block();
/// b.iconst(head, Reg(2), 1);
/// b.alu_imm(head, AluOp::Add, Reg(1), Reg(1), 1);
/// b.branch(head, CmpOp::Lt, Reg(1), Reg(2), head, done);
/// b.halt(done);
/// let p = b.finish(head);
/// let mut interp = Interpreter::new();
/// interp.run(&p, 10_000);
/// let sb = form_superblock(&p, interp.profile(), head, FormationParams::default());
/// assert_eq!(sb.entry, head);
/// sb.validate().unwrap();
/// ```
pub fn form_superblock(
    program: &Program,
    profile: &Profile,
    start: BlockId,
    params: FormationParams,
) -> Superblock {
    let mut ops = Vec::new();
    let mut origins = Vec::new();
    let mut exits = Vec::new();
    let mut trace = Vec::new();

    let push_exit = |ops: &mut Vec<IrOp>,
                     origins: &mut Vec<OpOrigin>,
                     exits: &mut Vec<IrExit>,
                     block: BlockId,
                     target: Option<BlockId>,
                     cond: Option<(smarq_guest::CmpOp, u8, u8)>| {
        let exit_id = exits.len() as u32;
        exits.push(IrExit { target });
        ops.push(IrOp::Exit { exit_id, cond });
        origins.push(OpOrigin::terminator(block));
    };

    let mut cur = start;
    loop {
        trace.push(cur);
        let block = program.block(cur);
        for (i, instr) in block.instrs.iter().enumerate() {
            ops.push(translate_instr(instr));
            origins.push(OpOrigin {
                block: cur,
                instr: i as u32,
            });
        }

        // Decide the on-trace successor. An unprofiled branch (possible
        // only for the start block in pathological cases) falls back to its
        // fall-through direction; the cold-threshold test below will then
        // terminate the trace.
        let succ = profile.biased_successor(program, cur).or(match block.term {
            Terminator::Branch { fallthrough, .. } => Some(fallthrough),
            _ => None,
        });
        let stop_reason = match succ {
            None => Some(None), // Halt (or unprofiled block): end the region.
            Some(next) => {
                if trace.contains(&next)
                    || trace.len() >= params.max_blocks
                    || ops.len() >= params.max_ops
                    || profile.block_count(next) < params.cold_threshold
                {
                    Some(Some(next))
                } else {
                    None
                }
            }
        };

        match block.term {
            Terminator::Halt => {
                push_exit(&mut ops, &mut origins, &mut exits, cur, None, None);
                break;
            }
            Terminator::Jump(t) => {
                match stop_reason {
                    Some(target) => {
                        push_exit(&mut ops, &mut origins, &mut exits, cur, target, None);
                        break;
                    }
                    None => {
                        cur = t; // fall through along the trace
                    }
                }
            }
            Terminator::Branch {
                op,
                ra,
                rb,
                taken,
                fallthrough,
            } => {
                let next = succ.expect("branch always has a successor");
                // Side exit toward the off-trace direction.
                if taken == fallthrough {
                    // Degenerate branch: behaves like a jump.
                } else if next == taken {
                    push_exit(
                        &mut ops,
                        &mut origins,
                        &mut exits,
                        cur,
                        Some(fallthrough),
                        Some((op.negate(), ra.0, rb.0)),
                    );
                } else {
                    push_exit(
                        &mut ops,
                        &mut origins,
                        &mut exits,
                        cur,
                        Some(taken),
                        Some((op, ra.0, rb.0)),
                    );
                }
                match stop_reason {
                    Some(target) => {
                        push_exit(&mut ops, &mut origins, &mut exits, cur, target, None);
                        break;
                    }
                    None => cur = next,
                }
            }
        }
    }

    // Guarantee the final unconditional exit exists (Jump/Branch paths that
    // broke out pushed it; Halt pushed one too).
    let profiled_aliases = profiled_aliases(program, profile, &ops, &origins);
    let sb = Superblock {
        ops,
        origins,
        exits,
        entry: start,
        trace,
        profiled_aliases,
    };
    debug_assert!(sb.validate().is_ok(), "{:?}", sb.validate());
    sb
}

/// The memory pairs of `ops` whose last recorded addresses overlap, with
/// at least one store (the rule of [`form_superblock`]): each pair ordered,
/// sorted, deduplicated. A pair the alias analysis already calls
/// must-alias (same base value, same displacement) is left out: it is
/// never speculated on, so recording it would change no decision.
fn profiled_aliases(
    program: &Program,
    profile: &Profile,
    ops: &[IrOp],
    origins: &[OpOrigin],
) -> Vec<(OpOrigin, OpOrigin)> {
    let mut seen: Vec<(MemRange, usize)> = ops
        .iter()
        .zip(origins)
        .enumerate()
        .filter(|(_, (op, _))| op.is_mem())
        .filter_map(|(i, (_, o))| {
            let addr = profile.last_addr(program, o.block, o.instr)?;
            Some((MemRange::word(addr), i))
        })
        .collect();
    // Sorted by first byte, the words overlapping one are the run after
    // it (every access is one word wide).
    seen.sort_unstable_by_key(|&(r, i)| (r.lo, i));
    let refs = crate::alias::mem_refs(ops);
    let must = |a: usize, b: usize| match (refs[a], refs[b]) {
        (Some(x), Some(y)) => x.relation(&y) == AliasRel::Must,
        _ => false,
    };
    let mut pairs = Vec::new();
    for (k, &(ra, a)) in seen.iter().enumerate() {
        for &(_, b) in seen[k + 1..].iter().take_while(|(rb, _)| rb.overlaps(ra)) {
            if (ops[a].is_store() || ops[b].is_store()) && !must(a, b) {
                let (x, y) = (origins[a], origins[b]);
                pairs.push((x.min(y), x.max(y)));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq_guest::{AluOp, CmpOp, Interpreter, ProgramBuilder, Reg};

    /// A loop head with a biased branch back to itself and a cold exit.
    fn looping_program() -> (Program, BlockId) {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let done = b.block();
        b.iconst(entry, Reg(1), 0);
        b.iconst(entry, Reg(2), 100);
        b.iconst(entry, Reg(3), 0x1000);
        b.jump(entry, body);
        b.ld(body, Reg(4), Reg(3), 0);
        b.alu(body, AluOp::Add, Reg(4), Reg(4), Reg(1));
        b.st(body, Reg(4), Reg(3), 0);
        b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
        b.halt(done);
        (b.finish(entry), body)
    }

    #[test]
    fn loop_body_forms_single_block_region_with_backedge() {
        let (p, body) = looping_program();
        let mut i = Interpreter::new();
        i.run(&p, 100_000);
        let sb = form_superblock(&p, i.profile(), body, FormationParams::default());
        sb.validate().unwrap();
        assert_eq!(sb.trace, vec![body]);
        // Side exit to `done` (the cold direction) + final exit back to body.
        assert_eq!(sb.exits.len(), 2);
        assert_eq!(sb.exits[1].target, Some(body), "loop back-edge");
        assert_eq!(sb.mem_op_count(), 2);
        // The conditional exit tests the *negated* loop condition.
        let cond_exit = sb
            .ops
            .iter()
            .find_map(|o| match o {
                IrOp::Exit { cond: Some(c), .. } => Some(*c),
                _ => None,
            })
            .unwrap();
        assert_eq!(cond_exit.0, CmpOp::Ge);
    }

    #[test]
    fn multi_block_trace_follows_bias() {
        // entry -> a -> b -> a (loop over two blocks), c cold.
        let mut bld = ProgramBuilder::new();
        let entry = bld.block();
        let a = bld.block();
        let bb = bld.block();
        let cold = bld.block();
        bld.iconst(entry, Reg(1), 0);
        bld.iconst(entry, Reg(2), 50);
        bld.jump(entry, a);
        bld.alu_imm(a, AluOp::Add, Reg(1), Reg(1), 1);
        bld.jump(a, bb);
        bld.alu_imm(bb, AluOp::Add, Reg(3), Reg(3), 2);
        bld.branch(bb, CmpOp::Lt, Reg(1), Reg(2), a, cold);
        bld.halt(cold);
        let p = bld.finish(entry);
        let mut i = Interpreter::new();
        i.run(&p, 100_000);
        let sb = form_superblock(&p, i.profile(), a, FormationParams::default());
        sb.validate().unwrap();
        assert_eq!(sb.trace, vec![a, bb]);
        assert_eq!(sb.exits.last().unwrap().target, Some(a));
    }

    #[test]
    fn cold_successor_ends_the_trace() {
        let (p, body) = looping_program();
        let mut i = Interpreter::new();
        i.run(&p, 100_000);
        // Form from the entry block: its successor (body) is hot, then the
        // trace stops when it would revisit body.
        let sb = form_superblock(&p, i.profile(), p.entry(), FormationParams::default());
        sb.validate().unwrap();
        assert_eq!(sb.trace, vec![p.entry(), body]);
    }

    #[test]
    fn max_blocks_is_respected() {
        let (p, _body) = looping_program();
        let mut i = Interpreter::new();
        i.run(&p, 100_000);
        let sb = form_superblock(
            &p,
            i.profile(),
            p.entry(),
            FormationParams {
                max_blocks: 1,
                ..FormationParams::default()
            },
        );
        assert_eq!(sb.trace.len(), 1);
        sb.validate().unwrap();
    }

    /// Steps `p` from its entry with address recording until it halts.
    fn run_recording(p: &Program) -> Interpreter {
        let mut i = Interpreter::new();
        let mut block = Some(p.entry());
        while let Some(b) = block {
            block = i.step_block_recording(p, b);
        }
        i
    }

    fn origin(block: BlockId, instr: u32) -> OpOrigin {
        OpOrigin { block, instr }
    }

    /// `entry` stores to `0x1004`; the loop body stores to `0x1000 + 4`,
    /// loads `0x1000`, `0x1007` and `0x1008`, and loads `0x1000` again.
    fn pair_program() -> (Program, BlockId, BlockId) {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let done = b.block();
        b.iconst(entry, Reg(2), 20);
        b.iconst(entry, Reg(3), 0x1000);
        b.st(entry, Reg(2), Reg(3), 4); // 2
        b.jump(entry, body);
        b.st(body, Reg(1), Reg(3), 4); // 0: word 0x1000, unaligned
        b.ld(body, Reg(4), Reg(3), 0); // 1: word 0x1000
        b.ld(body, Reg(5), Reg(3), 7); // 2: word 0x1000, unaligned
        b.ld(body, Reg(6), Reg(3), 8); // 3: word 0x1008
        b.ld(body, Reg(7), Reg(3), 0); // 4: word 0x1000
        b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
        b.halt(done);
        (b.finish(entry), entry, body)
    }

    #[test]
    fn overlapping_words_with_a_store_are_profiled_pairs() {
        let (p, _, body) = pair_program();
        let i = run_recording(&p);
        let sb = form_superblock(&p, i.profile(), body, FormationParams::default());
        // The store pairs with every load of its word, aligned or not;
        // the load/load pairs (1, 2), (1, 4), (2, 4) and the load of the
        // next word are not pairs.
        let want = vec![
            (origin(body, 0), origin(body, 1)),
            (origin(body, 0), origin(body, 2)),
            (origin(body, 0), origin(body, 4)),
        ];
        assert_eq!(sb.profiled_aliases, want);
        assert!(
            sb.profiled_alias(origin(body, 2), origin(body, 0)),
            "either order"
        );
        assert!(!sb.profiled_alias(origin(body, 1), origin(body, 4)));
        assert!(!sb.profiled_alias(origin(body, 0), origin(body, 3)));
    }

    #[test]
    fn an_op_the_profile_never_executed_pairs_with_nothing() {
        let (p, entry, body) = pair_program();
        // The entry block runs once without recording, the loop with it.
        let mut i = Interpreter::new();
        let mut block = i.step_block(&p, entry);
        while let Some(b) = block {
            block = i.step_block_recording(&p, b);
        }
        let sb = form_superblock(&p, i.profile(), entry, FormationParams::default());
        assert_eq!(sb.trace, vec![entry, body]);
        assert!(!sb.profiled_alias(origin(entry, 2), origin(body, 1)));
        assert!(sb.profiled_alias(origin(body, 0), origin(body, 1)));
        // Recorded, the entry store pairs with the loads of its word. The
        // body's store writes the same base value at the same
        // displacement: must-alias, never speculated, so not recorded.
        let i = run_recording(&p);
        let sb = form_superblock(&p, i.profile(), entry, FormationParams::default());
        assert!(!sb.profiled_alias(origin(entry, 2), origin(body, 0)));
        assert!(sb.profiled_alias(origin(entry, 2), origin(body, 1)));
        assert!(!sb.profiled_alias(origin(entry, 2), origin(body, 3)));
        // A profile without addresses yields no pairs.
        let mut i = Interpreter::new();
        i.run(&p, 100_000);
        let sb = form_superblock(&p, i.profile(), body, FormationParams::default());
        assert!(sb.profiled_aliases.is_empty());
    }

    #[test]
    fn halting_block_ends_with_halt_exit() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.iconst(e, Reg(1), 1);
        b.halt(e);
        let p = b.finish(e);
        let mut i = Interpreter::new();
        i.run(&p, 100);
        let sb = form_superblock(&p, i.profile(), e, FormationParams::default());
        sb.validate().unwrap();
        assert_eq!(sb.exits.len(), 1);
        assert_eq!(sb.exits[0].target, None);
    }
}
