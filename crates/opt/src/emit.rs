//! Annotation and VLIW code emission.
//!
//! Turns the scheduled linear operation order into annotated, bundled
//! VLIW code:
//!
//! * **SMARQ targets**: every memory operation receives its P/C bits and
//!   register offset from the [`Allocation`]; the allocator's `AMOV`s are
//!   inserted immediately before and its rotations immediately after the
//!   memory operation they belong to.
//! * **ALAT targets**: every load that ended up hoisted above a may-alias
//!   store becomes an *advanced load* (`AlatSet`); its entry is released
//!   (`AlatClear`) right after the last store that had to check it —
//!   stores scheduled in between suffer the scheme's false positives.
//! * Bundling is greedy in-order: an op joins the current bundle while a
//!   slot of its class is free and none of its sources are defined within
//!   the bundle.

use crate::config::OptConfig;
use crate::dag::WorkList;
use crate::pairs::PairPolicy;
use crate::sched::ScheduleResult;
use smarq::alloc::{AliasCode, Allocation};
use smarq_ir::{AliasRel, IrOp, RegionMap, Superblock};
use smarq_vliw::{
    AliasAnnot, Bundle, CondExit, ExitTarget, HwKind, MachineConfig, VliwOp, VliwProgram,
};

/// Efficeon annotation plan: a physical bit-mask register per checked op
/// (assigned by linear scan over its live range) and the exact check mask
/// per checking op, both derived from the ordered-queue allocation's final
/// check pairs.
struct EfficeonPlan {
    /// Register set by each work op, if it must be checked.
    set_reg: Vec<Option<u8>>,
    /// Check mask carried by each work op.
    check_mask: Vec<u64>,
}

fn efficeon_plan(
    alloc: &Allocation,
    work: &WorkList,
    linear: &[usize],
    map: &RegionMap,
    num_regs: u32,
) -> EfficeonPlan {
    let n = work.ops.len();
    let mut pos = vec![usize::MAX; n];
    for (p, &k) in linear.iter().enumerate() {
        pos[k] = p;
    }
    // Work index of a region memory op.
    let mut work_of_mem = vec![usize::MAX; map.len()];
    for (k, &orig) in work.orig.iter().enumerate() {
        if let Some(id) = map.mem_id(orig) {
            if work.ops[k].is_mem() {
                work_of_mem[id.index()] = k;
            }
        }
    }

    // Live range of each checked op: [its position, last checker position].
    let mut range_end = vec![0usize; n];
    let mut checked = vec![false; n];
    let mut checkees_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(checker, checkee) in alloc.final_checks() {
        let (cw, pw) = (work_of_mem[checker.index()], work_of_mem[checkee.index()]);
        debug_assert!(cw != usize::MAX && pw != usize::MAX);
        checked[pw] = true;
        range_end[pw] = range_end[pw].max(pos[cw]);
        checkees_of[cw].push(pw);
    }

    // Linear scan in schedule order: assign the lowest free register at
    // each set point, releasing registers whose last checker has passed.
    // The ordered-queue working set bounds the maximum overlap, so at most
    // `num_regs` registers are ever live.
    let mut set_reg = vec![None; n];
    let mut free: Vec<u8> = (0..num_regs as u8).rev().collect();
    let mut active: Vec<(usize, usize, u8)> = Vec::new(); // (end, op, reg)
    for &k in linear {
        active.retain(|&(end, _, reg)| {
            if end < pos[k] {
                free.push(reg);
                false
            } else {
                true
            }
        });
        if checked[k] {
            let reg = free
                .pop()
                .expect("live check ranges bounded by the queue working set");
            set_reg[k] = Some(reg);
            active.push((range_end[k], k, reg));
        }
    }

    // Masks: each checker checks exactly its checkees' registers.
    let mut check_mask = vec![0u64; n];
    for (cw, checkees) in checkees_of.iter().enumerate() {
        for &pw in checkees {
            let reg = set_reg[pw].expect("checked op has a register");
            check_mask[cw] |= 1 << reg;
        }
    }
    EfficeonPlan {
        set_reg,
        check_mask,
    }
}

/// ALAT annotation plan: advanced-load entries and the stores after which
/// each entry is released.
struct AlatPlan {
    set_entry: Vec<Option<u32>>,
    clear_after: Vec<Vec<u32>>,
}

fn alat_plan(pairs: &PairPolicy, work: &WorkList, linear: &[usize]) -> AlatPlan {
    let n = work.ops.len();
    let mut pos = vec![usize::MAX; n];
    for (p, &k) in linear.iter().enumerate() {
        pos[k] = p;
    }
    let mut set_entry = vec![None; n];
    let mut clear_after = vec![Vec::new(); n];
    let mut next_entry = 0u32;
    for l in 0..n {
        if !work.ops[l].is_mem() || work.ops[l].is_store() {
            continue;
        }
        // Stores this load was hoisted above (detection required).
        let mut last_checker: Option<usize> = None;
        for s in 0..l {
            if !work.ops[s].is_store() {
                continue;
            }
            if pos[s] > pos[l]
                && pairs.verdict(work.orig[s], work.orig[l]).relation() == AliasRel::May
            {
                last_checker = match last_checker {
                    Some(prev) if pos[prev] >= pos[s] => Some(prev),
                    _ => Some(s),
                };
            }
        }
        if let Some(s) = last_checker {
            let entry = next_entry;
            next_entry += 1;
            set_entry[l] = Some(entry);
            clear_after[s].push(entry);
        }
    }
    AlatPlan {
        set_entry,
        clear_after,
    }
}

fn translate(op: &IrOp, alias: AliasAnnot, tag: u32) -> VliwOp {
    match *op {
        IrOp::IConst { rd, value } => VliwOp::IConst { rd, value },
        IrOp::Alu { op, rd, ra, rb } => VliwOp::Alu { op, rd, ra, rb },
        IrOp::AluImm { op, rd, ra, imm } => VliwOp::AluImm { op, rd, ra, imm },
        IrOp::Copy { rd, ra } => VliwOp::Copy { rd, ra },
        IrOp::FConst { fd, value } => VliwOp::FConst { fd, value },
        IrOp::Fpu { op, fd, fa, fb } => VliwOp::Fpu { op, fd, fa, fb },
        IrOp::FCopy { fd, fa } => VliwOp::FCopy { fd, fa },
        IrOp::ItoF { fd, ra } => VliwOp::ItoF { fd, ra },
        IrOp::FtoI { rd, fa } => VliwOp::FtoI { rd, fa },
        IrOp::Ld { rd, base, disp } => VliwOp::Load {
            rd,
            base,
            disp,
            alias,
            tag,
        },
        IrOp::St { rs, base, disp } => VliwOp::Store {
            rs,
            base,
            disp,
            alias,
            tag,
        },
        IrOp::FLd { fd, base, disp } => VliwOp::FLoad {
            fd,
            base,
            disp,
            alias,
            tag,
        },
        IrOp::FSt { fs, base, disp } => VliwOp::FStore {
            fs,
            base,
            disp,
            alias,
            tag,
        },
        IrOp::Exit { exit_id, cond } => VliwOp::Exit {
            exit_id,
            cond: cond.map(|(op, ra, rb)| CondExit { op, ra, rb }),
        },
    }
}

/// Greedy in-order bundling for the machine's slot mix: an op joins the
/// current bundle while a slot of its class is free and none of its
/// sources are defined within the bundle. The bundle boundaries are found
/// first (into the reused
/// `ends`), so every bundle is allocated once at its final size.
fn pack(vops: &[VliwOp], machine: &MachineConfig, ends: &mut Vec<usize>) -> Vec<Bundle> {
    ends.clear();
    let (mut mem, mut fpu, mut alu) = (machine.mem_slots, machine.fpu_slots, machine.alu_slots);
    let mut int_defs = [false; 64];
    let mut fp_defs = [false; 64];
    for (k, op) in vops.iter().enumerate() {
        let slot = match op.slot_class() {
            smarq_vliw::SlotClass::Mem => &mut mem,
            smarq_vliw::SlotClass::Fpu => &mut fpu,
            smarq_vliw::SlotClass::Alu | smarq_vliw::SlotClass::Branch => &mut alu,
        };
        let raw_conflict = op.int_sources().iter().any(|&r| int_defs[r as usize])
            || op.fp_sources().iter().any(|&r| fp_defs[r as usize]);
        if *slot == 0 || raw_conflict {
            ends.push(k);
            mem = machine.mem_slots;
            fpu = machine.fpu_slots;
            alu = machine.alu_slots;
            int_defs = [false; 64];
            fp_defs = [false; 64];
            match op.slot_class() {
                smarq_vliw::SlotClass::Mem => mem -= 1,
                smarq_vliw::SlotClass::Fpu => fpu -= 1,
                _ => alu -= 1,
            }
        } else {
            *slot -= 1;
        }
        if let Some(r) = op.int_def() {
            int_defs[r as usize] = true;
        }
        if let Some(r) = op.fp_def() {
            fp_defs[r as usize] = true;
        }
    }
    if !vops.is_empty() {
        ends.push(vops.len());
    }
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let ops = vops[start..end].to_vec();
            start = end;
            Bundle { ops }
        })
        .collect()
}

/// Working memory of [`emit`], reused across regions.
#[derive(Clone, Debug, Default)]
pub struct EmitScratch {
    /// The annotated ops in schedule order.
    vops: Vec<VliwOp>,
    /// The bundle boundaries.
    ends: Vec<usize>,
}

/// Emits the final annotated, bundled region, building it in the reusable
/// buffers of `scratch`.
#[allow(clippy::too_many_arguments)]
pub fn emit(
    sb: &Superblock,
    pairs: &PairPolicy,
    work: &WorkList,
    sched: &ScheduleResult,
    config: &OptConfig,
    machine: &MachineConfig,
    map: &RegionMap,
    scratch: &mut EmitScratch,
) -> VliwProgram {
    // SMARQ: the allocation's code lists, per memory op in schedule
    // order, the AMOVs to insert before it, its annotation and the
    // rotations after it; `code` is the cursor into it.
    let mut code: &[AliasCode] = match (config.hw, &sched.allocation) {
        (HwKind::Smarq, Some(alloc)) => alloc.code(),
        _ => &[],
    };
    let alat = (config.hw == HwKind::Alat).then(|| alat_plan(pairs, work, &sched.linear));
    let efficeon = (config.hw == HwKind::Efficeon)
        .then(|| {
            sched.allocation.as_ref().map(|alloc| {
                efficeon_plan(
                    alloc,
                    work,
                    &sched.linear,
                    map,
                    config.num_alias_regs.max(1),
                )
            })
        })
        .flatten();

    let vops = &mut scratch.vops;
    vops.clear();
    for &k in &sched.linear {
        let op = &work.ops[k];
        if op.is_mem() {
            let tag = map
                .mem_id(work.orig[k])
                .expect("live memory op has a region id")
                .index() as u32;
            let annot = match config.hw {
                HwKind::Smarq => loop {
                    match code.split_first() {
                        Some((&AliasCode::Amov(a), rest)) => {
                            vops.push(VliwOp::Amov {
                                src: a.src_offset.value(),
                                dst: a.dst_offset.value(),
                            });
                            code = rest;
                        }
                        Some((
                            &AliasCode::Op {
                                p_bit,
                                c_bit,
                                offset,
                                ..
                            },
                            rest,
                        )) => {
                            code = rest;
                            break offset
                                .map(|o| AliasAnnot::Smarq {
                                    p: p_bit,
                                    c: c_bit,
                                    offset: o.value(),
                                })
                                .unwrap_or(AliasAnnot::None);
                        }
                        Some((AliasCode::Rotate(_), _)) => {
                            unreachable!("rotation always follows a memory op")
                        }
                        // Without an allocation no op is annotated.
                        None => break AliasAnnot::None,
                    }
                },
                HwKind::Alat => alat
                    .as_ref()
                    .and_then(|p| p.set_entry[k])
                    .map(|entry| AliasAnnot::AlatSet { entry })
                    .unwrap_or(AliasAnnot::None),
                HwKind::Efficeon => efficeon
                    .as_ref()
                    .map(|p| {
                        let set = p.set_reg[k];
                        let check_mask = p.check_mask[k];
                        if set.is_none() && check_mask == 0 {
                            AliasAnnot::None
                        } else {
                            AliasAnnot::Efficeon { set, check_mask }
                        }
                    })
                    .unwrap_or(AliasAnnot::None),
                _ => AliasAnnot::None,
            };
            vops.push(translate(op, annot, tag));
            while let Some((&AliasCode::Rotate(r), rest)) = code.split_first() {
                vops.push(VliwOp::Rotate { amount: r.amount });
                code = rest;
            }
            if let Some(plan) = &alat {
                for &entry in &plan.clear_after[k] {
                    vops.push(VliwOp::AlatClear { entry });
                }
            }
        } else {
            vops.push(translate(op, AliasAnnot::None, 0));
        }
    }

    let exits = sb
        .exits
        .iter()
        .map(|e| ExitTarget {
            guest_block: e.target.map(|b| b.0),
        })
        .collect();

    VliwProgram {
        bundles: pack(vops, machine, &mut scratch.ends),
        exits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_respects_slots_and_raw() {
        let m = MachineConfig::default();
        // Three dependent ALU ops: each must start a new bundle.
        let vops = vec![
            VliwOp::IConst { rd: 1, value: 1 },
            VliwOp::AluImm {
                op: smarq_guest::AluOp::Add,
                rd: 2,
                ra: 1,
                imm: 1,
            },
            VliwOp::AluImm {
                op: smarq_guest::AluOp::Add,
                rd: 3,
                ra: 2,
                imm: 1,
            },
        ];
        let bundles = pack(&vops, &m, &mut Vec::new());
        assert_eq!(bundles.len(), 3);

        // Independent ops pack together.
        let vops = vec![
            VliwOp::IConst { rd: 1, value: 1 },
            VliwOp::IConst { rd: 2, value: 2 },
            VliwOp::FConst { fd: 1, value: 1.0 },
        ];
        let bundles = pack(&vops, &m, &mut Vec::new());
        assert_eq!(bundles.len(), 1);
    }

    #[test]
    fn packing_respects_mem_slot_limit() {
        let m = MachineConfig::default(); // 2 mem slots
        let ld = |rd: u8, base: u8| VliwOp::Load {
            rd,
            base,
            disp: 0,
            alias: AliasAnnot::None,
            tag: 0,
        };
        let vops = vec![ld(1, 10), ld(2, 11), ld(3, 12)];
        let bundles = pack(&vops, &m, &mut Vec::new());
        assert_eq!(bundles.len(), 2);
        assert_eq!(bundles[0].ops.len(), 2);
    }
}

#[cfg(test)]
mod efficeon_tests {
    use super::*;
    use crate::blacklist::AliasBlacklist;
    use crate::OptConfig;
    use smarq_guest::BlockId;
    use smarq_ir::{IrExit, OpOrigin, Superblock};

    /// Two loads hoisted above a store that may-alias both: the masks must
    /// check exactly the loads' registers, nothing else.
    #[test]
    fn efficeon_masks_are_exact() {
        let mut sb = Superblock {
            ops: vec![
                IrOp::St {
                    rs: 1,
                    base: 2,
                    disp: 0,
                },
                IrOp::Ld {
                    rd: 3,
                    base: 4,
                    disp: 0,
                },
                IrOp::Ld {
                    rd: 5,
                    base: 6,
                    disp: 0,
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
        // Make the loads latency-critical so the scheduler hoists them.
        sb.ops.insert(
            3,
            IrOp::Fpu {
                op: smarq_guest::FpuOp::Mul,
                fd: 1,
                fa: 1,
                fb: 1,
            },
        );
        sb.origins.insert(
            3,
            OpOrigin {
                block: BlockId(0),
                instr: 3,
            },
        );

        let opt = crate::optimize_superblock(
            &sb,
            &OptConfig::efficeon(),
            &MachineConfig::default(),
            &AliasBlacklist::new(),
        );
        let mut set_regs = Vec::new();
        let mut masks = Vec::new();
        for b in &opt.vliw.bundles {
            for op in &b.ops {
                match op {
                    VliwOp::Load {
                        alias: AliasAnnot::Efficeon { set, check_mask },
                        ..
                    } => {
                        assert_eq!(*check_mask, 0, "loads only set here");
                        set_regs.extend(*set);
                    }
                    VliwOp::Store {
                        alias: AliasAnnot::Efficeon { set, check_mask },
                        ..
                    } => {
                        assert!(set.is_none(), "the store sets nothing");
                        masks.push(*check_mask);
                    }
                    VliwOp::Amov { .. } | VliwOp::Rotate { .. } => {
                        panic!("Efficeon code must not contain queue ops")
                    }
                    _ => {}
                }
            }
        }
        // Whichever loads actually hoisted above the store are exactly the
        // registers its mask checks.
        assert!(!set_regs.is_empty(), "at least one load was hoisted");
        assert_eq!(masks.len(), 1);
        let expected: u64 = set_regs.iter().map(|&r| 1u64 << r).sum();
        assert_eq!(masks[0], expected);
    }
}
