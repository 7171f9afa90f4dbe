//! Interval transfer over superblock IR.
//!
//! Steps a [`Superblock`]'s straight-line ops from an abstract entry
//! register state ([`smarq::RegState`]), deriving:
//!
//! * the **address interval** of every memory operation (the base
//!   register's interval shifted by the displacement), evaluated at the
//!   op's program point;
//! * the register state at every region **exit**, for chain-graph
//!   propagation in `crates/verify`.
//!
//! Superblocks are loop-free, so this is a single pass with no widening.
//! The same transfer is used by the optimizer (to disambiguate memory
//! pairs whose intervals are disjoint, and to *taint* operations whose
//! address can touch an unspeculatable range) and by the static chain
//! analyzer (to independently re-derive those ranges) — keeping the two
//! in one place is what makes the analyzer's verdicts exact rather than
//! heuristic.

use crate::sblock::{IrOp, Superblock};
use smarq::range::{Interval, NospecRanges, RegState};
use smarq_guest::AluOp;

/// Sound abstract counterpart of [`AluOp::apply`] (wrapping semantics:
/// any result that may wrap is ⊤). Exact inputs always fold concretely.
pub fn apply_alu(op: AluOp, a: Interval, b: Interval) -> Interval {
    if a.is_bottom() || b.is_bottom() {
        return Interval::BOTTOM;
    }
    if let (Some(x), Some(y)) = (a.as_exact(), b.as_exact()) {
        return Interval::exact(op.apply(x, y));
    }
    match op {
        AluOp::Add => a + b,
        AluOp::Sub => a - b,
        AluOp::Mul => a * b,
        // 1 iff a < b; without exact inputs the best sound bound.
        AluOp::Slt => Interval::of(0, 1),
        // Bit ops, shifts and division distribute poorly over intervals;
        // ⊤ is the sound default and precision there has no consumer.
        AluOp::Div | AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Shl | AluOp::Shr => Interval::TOP,
    }
}

/// Result of [`analyze_superblock`].
#[derive(Clone, Debug)]
pub struct SbRanges {
    /// Per superblock op index: the interval of the access **start
    /// address**, for memory operations (`None` otherwise).
    pub addr: Vec<Option<Interval>>,
    /// Register state at each exit (indexed by `exit_id`; joined when an
    /// id is reachable from several `Exit` ops). Exits never reached by
    /// the scan keep the all-⊥ state.
    pub exit_states: Vec<RegState>,
}

/// The all-⊥ register state (identity of [`smarq::range::join_state`]).
pub fn bottom_state() -> RegState {
    [Interval::BOTTOM; 64]
}

/// Runs the interval transfer over `sb` from `entry`. `entry` abstracts
/// the **guest** registers (`0..32`) at region entry; translator
/// temporaries (`32..`) are reset to ⊤ regardless of what `entry` says,
/// since no value flows into a region through them.
pub fn analyze_superblock(sb: &Superblock, entry: &RegState) -> SbRanges {
    let mut exit_states = vec![bottom_state(); sb.exits.len()];
    let addr = transfer(sb, entry, |exit_id, state| {
        smarq::range::join_state(&mut exit_states[exit_id as usize], state);
    });
    SbRanges { addr, exit_states }
}

/// The address intervals of [`analyze_superblock`] alone
/// ([`SbRanges::addr`]), without the exit states, which only the chain
/// analysis reads.
pub fn address_intervals(sb: &Superblock, entry: &RegState) -> Vec<Option<Interval>> {
    transfer(sb, entry, |_, _| {})
}

/// The interval transfer: the start-address interval of every op, with
/// the register state at each exit handed to `at_exit`.
fn transfer(
    sb: &Superblock,
    entry: &RegState,
    mut at_exit: impl FnMut(u32, &RegState),
) -> Vec<Option<Interval>> {
    let mut state = *entry;
    for r in state.iter_mut().skip(32) {
        *r = Interval::TOP;
    }
    let mut addr = Vec::with_capacity(sb.ops.len());
    for op in &sb.ops {
        addr.push(
            op.mem_addr()
                .map(|(base, disp)| state[base as usize & 63] + Interval::exact(disp)),
        );
        match *op {
            IrOp::IConst { rd, value } => state[rd as usize & 63] = Interval::exact(value),
            IrOp::Alu { op, rd, ra, rb } => {
                state[rd as usize & 63] =
                    apply_alu(op, state[ra as usize & 63], state[rb as usize & 63]);
            }
            IrOp::AluImm { op, rd, ra, imm } => {
                state[rd as usize & 63] =
                    apply_alu(op, state[ra as usize & 63], Interval::exact(imm));
            }
            IrOp::Copy { rd, ra } => state[rd as usize & 63] = state[ra as usize & 63],
            // Values entering the integer file from memory or the FP file
            // are unconstrained.
            IrOp::FtoI { rd, .. } | IrOp::Ld { rd, .. } => state[rd as usize & 63] = Interval::TOP,
            IrOp::Exit { exit_id, .. } => at_exit(exit_id, &state),
            IrOp::FConst { .. }
            | IrOp::Fpu { .. }
            | IrOp::FCopy { .. }
            | IrOp::ItoF { .. }
            | IrOp::St { .. }
            | IrOp::FLd { .. }
            | IrOp::FSt { .. } => {}
        }
    }
    addr
}

/// Per-op *taint*: `true` when the op is a memory operation whose access
/// (word footprint) can touch a configured unspeculatable range given the
/// derived address intervals `addr` ([`address_intervals`]). Tainted ops must never be reordered,
/// eliminated, or given P/C bits. With an unknown entry state
/// (`top_state`) every memory op is tainted — the sound fallback.
pub fn nospec_taint(addr: &[Option<Interval>], nospec: &NospecRanges) -> Vec<bool> {
    if nospec.is_empty() {
        return vec![false; addr.len()];
    }
    addr.iter()
        .map(|a| a.is_some_and(|iv| nospec.intersects_access(iv)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sblock::{IrExit, OpOrigin};
    use smarq::range::{top_state, zeroed_state};
    use smarq_guest::BlockId;

    fn sb(ops: Vec<IrOp>) -> Superblock {
        let n = ops.len();
        let mut ops = ops;
        ops.push(IrOp::Exit {
            exit_id: 0,
            cond: None,
        });
        Superblock {
            origins: vec![
                OpOrigin {
                    block: BlockId(0),
                    instr: 0
                };
                n + 1
            ],
            ops,
            exits: vec![IrExit { target: None }],
            entry: BlockId(0),
            trace: vec![BlockId(0)],
            profiled_aliases: Vec::new(),
        }
    }

    #[test]
    fn constants_flow_into_addresses() {
        let s = sb(vec![
            IrOp::IConst {
                rd: 1,
                value: 0x100,
            },
            IrOp::AluImm {
                op: AluOp::Add,
                rd: 2,
                ra: 1,
                imm: 8,
            },
            IrOp::Ld {
                rd: 3,
                base: 2,
                disp: 16,
            },
        ]);
        let r = analyze_superblock(&s, &zeroed_state());
        assert_eq!(r.addr[2], Some(Interval::exact(0x100 + 8 + 16)));
        // Loaded values are unconstrained.
        let exit = &r.exit_states[0];
        assert!(exit[3].is_top());
        assert_eq!(exit[2], Interval::exact(0x108));
    }

    #[test]
    fn temporaries_start_top_even_with_exact_entry() {
        let s = sb(vec![IrOp::Ld {
            rd: 1,
            base: 40,
            disp: 0,
        }]);
        let mut entry = zeroed_state();
        entry[40] = Interval::exact(7); // must be ignored: 40 is a temp
        let r = analyze_superblock(&s, &entry);
        assert_eq!(r.addr[0], Some(Interval::TOP));
    }

    #[test]
    fn taint_follows_nospec_ranges() {
        let s = sb(vec![
            IrOp::IConst {
                rd: 1,
                value: 0x1000,
            },
            IrOp::Ld {
                rd: 2,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 2,
                base: 1,
                disp: 0x100,
            },
        ]);
        let ranges = analyze_superblock(&s, &zeroed_state());
        let nospec = NospecRanges::parse("0x1100..0x1108").unwrap();
        let taint = nospec_taint(&ranges.addr, &nospec);
        assert_eq!(taint, vec![false, false, true, false]);
        assert!(nospec_taint(&ranges.addr, &NospecRanges::none())
            .iter()
            .all(|&t| !t));
        // In-superblock constants pin the address even from ⊤ entry.
        let top = address_intervals(&s, &top_state());
        assert_eq!(nospec_taint(&top, &nospec), taint);
        // An entry-dependent base is only tainted when entry is unknown.
        let s2 = sb(vec![IrOp::Ld {
            rd: 2,
            base: 1,
            disp: 0,
        }]);
        let zero = analyze_superblock(&s2, &zeroed_state());
        assert_eq!(nospec_taint(&zero.addr, &nospec), vec![false, false]);
        let t2 = nospec_taint(&address_intervals(&s2, &top_state()), &nospec);
        assert_eq!(t2, vec![true, false]);
    }

    #[test]
    fn alu_transfer_is_sound_on_samples() {
        use smarq::prng::Prng;
        let mut rng = Prng::new(42);
        let ivs = [
            Interval::exact(3),
            Interval::of(-5, 9),
            Interval::of(0, 1 << 40),
            Interval::TOP,
            Interval::of(i64::MIN / 2, -3),
        ];
        let ops = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::Div,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::Shr,
            AluOp::Slt,
        ];
        for &a in &ivs {
            for &b in &ivs {
                for &op in &ops {
                    let out = apply_alu(op, a, b);
                    for _ in 0..64 {
                        let x = sample(&mut rng, a);
                        let y = sample(&mut rng, b);
                        assert!(
                            out.contains(op.apply(x, y)),
                            "{op:?} {a} {b}: {x} op {y} = {} not in {out}",
                            op.apply(x, y)
                        );
                    }
                }
            }
        }
    }

    fn sample(rng: &mut smarq::prng::Prng, iv: Interval) -> i64 {
        let span = iv.hi.wrapping_sub(iv.lo) as u64;
        if span == u64::MAX {
            rng.next_u64() as i64
        } else {
            iv.lo.wrapping_add((rng.next_u64() % (span + 1)) as i64)
        }
    }
}
