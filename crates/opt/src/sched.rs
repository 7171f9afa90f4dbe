//! The list scheduler with the embedded SMARQ alias register allocator
//! (paper §5.3–§5.4: "we embed our alias register allocation within a list
//! scheduling framework so that we can allocate alias registers during the
//! instruction scheduling").

use crate::config::OptConfig;
use crate::dag::{Dag, WorkList};
use smarq::{AllocError, AllocScratch, Allocation, Allocator, DepGraph, RegionSpec, SchedulerMode};
use smarq_ir::{IrOp, RegionMap};
use smarq_vliw::{HwKind, MachineConfig};

/// The scheduling result: a linear operation order plus (for SMARQ
/// targets) the finished alias register allocation.
#[derive(Clone, Debug)]
pub struct ScheduleResult {
    /// Work-list indices in final execution order.
    pub linear: Vec<usize>,
    /// Issue cycle assigned to each scheduled op (same order as `linear`).
    pub cycles: Vec<u64>,
    /// The alias register allocation (SMARQ targets only).
    pub allocation: Option<Allocation>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Pool {
    Mem,
    Fpu,
    Alu,
}

fn pool(op: &IrOp) -> Pool {
    match op {
        IrOp::Ld { .. } | IrOp::St { .. } | IrOp::FLd { .. } | IrOp::FSt { .. } => Pool::Mem,
        IrOp::Fpu { .. } | IrOp::FCopy { .. } | IrOp::FConst { .. } => Pool::Fpu,
        _ => Pool::Alu, // including exits, which share the ALU/branch slots
    }
}

/// Schedules the work list.
///
/// Memory operations are fed to the [`Allocator`] in schedule order; its
/// overflow estimate gates further speculation (an op whose placement would
/// cross an unscheduled may-alias memop is deferred while the allocator
/// reports [`SchedulerMode::NonSpeculation`]).
///
/// # Errors
/// Returns the allocator's [`AllocError::Overflow`] when even the
/// deferred placement could not prevent exhausting the register file; the
/// caller retries with less speculation.
#[allow(clippy::too_many_arguments)]
pub fn schedule(
    work: &WorkList,
    dag: &Dag,
    config: &OptConfig,
    machine: &MachineConfig,
    spec: &RegionSpec,
    deps: &DepGraph,
    map: &RegionMap,
) -> Result<ScheduleResult, AllocError> {
    schedule_with_scratch(
        work,
        dag,
        config,
        machine,
        spec,
        deps,
        map,
        AllocScratch::new(),
    )
    .map(|(res, _)| res)
}

/// Like [`schedule`], but recycles (and hands back) the allocator's scratch
/// buffers so a translation loop avoids per-region allocation. The scratch
/// is dropped on error (the caller restarts with a fresh one).
///
/// # Errors
/// Same as [`schedule`].
#[allow(clippy::too_many_arguments)]
pub fn schedule_with_scratch(
    work: &WorkList,
    dag: &Dag,
    config: &OptConfig,
    machine: &MachineConfig,
    spec: &RegionSpec,
    deps: &DepGraph,
    map: &RegionMap,
    scratch: AllocScratch,
) -> Result<(ScheduleResult, AllocScratch), AllocError> {
    let n = work.ops.len();
    let mut unsched_preds: Vec<u32> = dag.hard_preds.iter().map(|p| p.len() as u32).collect();
    let mut est = vec![0u64; n];
    let mut done = vec![false; n];
    let mut linear = Vec::with_capacity(n);
    let mut cycles = Vec::with_capacity(n);
    // The Efficeon target reuses the ordered-queue constraint machinery:
    // its working-set bound also bounds the bit-mask file's live ranges
    // (interval max-overlap <= queue working set), and the final check
    // pairs are exactly what the masks must encode.
    let use_alloc = matches!(config.hw, HwKind::Smarq | HwKind::Efficeon);
    let mut spare = None;
    let mut allocator = if use_alloc {
        Some(Allocator::with_scratch(
            spec,
            deps,
            config.num_alias_regs.max(1),
            scratch,
        ))
    } else {
        spare = Some(scratch);
        None
    };

    let mut remaining = n;
    let mut cycle = 0u64;
    // Candidate order: priority descending, original order as tiebreak.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| dag.priority[b].cmp(&dag.priority[a]).then(a.cmp(&b)));

    // Slack-aware deferral: a memory operation with slack is not hoisted
    // earlier than its latest start time minus the remaining memory-issue
    // resource bound. Hoisting beyond that cannot shorten the schedule but
    // inflates the alias (and architectural) register pressure — exactly
    // the working-set waste SMARQ's rotation is designed to exploit.
    let cp: u64 = dag.priority.iter().copied().max().unwrap_or(0);
    let mut remaining_mem: u64 = work.ops.iter().filter(|o| o.is_mem()).count() as u64;
    let mem_slots_per_cycle = u64::from(machine.mem_slots.max(1));

    while remaining > 0 {
        let mut mem_slots = machine.mem_slots;
        let mut fpu_slots = machine.fpu_slots;
        let mut alu_slots = machine.alu_slots;
        let mut progressed = false;
        for &k in &order {
            if done[k] || unsched_preds[k] != 0 || est[k] > cycle {
                continue;
            }
            let slot = match pool(&work.ops[k]) {
                Pool::Mem => &mut mem_slots,
                Pool::Fpu => &mut fpu_slots,
                Pool::Alu => &mut alu_slots,
            };
            if *slot == 0 {
                continue;
            }
            if work.ops[k].is_mem() {
                let latest_start = cp.saturating_sub(dag.priority[k]);
                let resource_bound = remaining_mem.div_ceil(mem_slots_per_cycle);
                if cycle + resource_bound + 4 < latest_start {
                    continue; // plenty of slack: do not hoist yet
                }
                if let Some(alloc) = &allocator {
                    if alloc.mode() == SchedulerMode::NonSpeculation
                        && dag.spec_before[k].iter().any(|&p| !done[p])
                    {
                        // Register pressure: no new speculation until
                        // rotation has drained the file.
                        continue;
                    }
                }
            }
            // Place the op.
            *slot -= 1;
            done[k] = true;
            remaining -= 1;
            progressed = true;
            linear.push(k);
            cycles.push(cycle);
            if work.ops[k].is_mem() {
                remaining_mem -= 1;
                if let Some(alloc) = &mut allocator {
                    let id = map
                        .mem_id(work.orig[k])
                        .expect("live memory op has a region id");
                    alloc.schedule_op(id)?;
                }
            }
            for &(s, d) in &dag.hard_succs[k] {
                unsched_preds[s] -= 1;
                est[s] = est[s].max(cycle + d);
            }
            if mem_slots == 0 && fpu_slots == 0 && alu_slots == 0 {
                break;
            }
        }
        let _ = progressed;
        cycle += 1;
    }

    let (allocation, scratch) = match allocator {
        Some(a) => {
            let (alloc, scratch) = a.finish_reclaim()?;
            (Some(alloc), scratch)
        }
        None => (None, spare.expect("scratch parked when no allocator")),
    };
    Ok((
        ScheduleResult {
            linear,
            cycles,
            allocation,
        },
        scratch,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blacklist::AliasBlacklist;
    use crate::dag::{build_dag, build_work_list};
    use crate::elim::Eliminations;
    use smarq_guest::BlockId;
    use smarq_ir::{build_region_spec, AliasAnalysis, IrExit, OpOrigin, Superblock};

    fn mk_sb(ops: Vec<IrOp>) -> Superblock {
        let n = ops.len();
        let mut ops = ops;
        ops.push(IrOp::Exit {
            exit_id: 0,
            cond: None,
        });
        Superblock {
            origins: (0..n as u32 + 1)
                .map(|i| OpOrigin {
                    block: BlockId(0),
                    instr: i,
                })
                .collect(),
            ops,
            exits: vec![IrExit { target: None }],
            entry: BlockId(0),
            trace: vec![BlockId(0)],
        }
    }

    fn run(ops: Vec<IrOp>, config: &OptConfig) -> (Superblock, WorkList, ScheduleResult) {
        let sb = mk_sb(ops);
        let analysis = AliasAnalysis::new(&sb);
        let (spec, map) = build_region_spec(&sb, &analysis);
        let deps = smarq::DepGraph::compute(&spec);
        let elims = Eliminations {
            replaced: vec![None; sb.ops.len()],
            removed: vec![false; sb.ops.len()],
            spec_load_elims: 0,
            spec_store_elims: 0,
            nonspec_elims: 0,
        };
        let work = build_work_list(&sb, &elims);
        let dag = build_dag(
            &sb,
            &analysis,
            &work,
            &deps,
            &map,
            config,
            &MachineConfig::default(),
            &AliasBlacklist::new(),
            &vec![false; sb.ops.len()],
        );
        let res = schedule(
            &work,
            &dag,
            config,
            &MachineConfig::default(),
            &spec,
            &deps,
            &map,
        )
        .unwrap();
        (sb, work, res)
    }

    /// A store followed by a may-alias load whose value feeds a long FP
    /// chain: with speculation the load hoists above the store.
    fn hoist_scenario() -> Vec<IrOp> {
        vec![
            IrOp::St {
                rs: 1,
                base: 2,
                disp: 0,
            },
            IrOp::FLd {
                fd: 1,
                base: 3,
                disp: 0,
            },
            IrOp::Fpu {
                op: smarq_guest::FpuOp::Mul,
                fd: 2,
                fa: 1,
                fb: 1,
            },
            IrOp::FSt {
                fs: 2,
                base: 3,
                disp: 8,
            },
        ]
    }

    #[test]
    fn speculation_hoists_the_load() {
        let (_, work, res) = run(hoist_scenario(), &OptConfig::smarq(64));
        let pos = |k: usize| res.linear.iter().position(|&x| x == k).unwrap();
        assert!(
            pos(1) < pos(0),
            "load should hoist above the may-alias store"
        );
        let alloc = res.allocation.unwrap();
        assert_eq!(alloc.stats().checks, 1);
        assert!(work.ops[1].is_mem());
    }

    #[test]
    fn no_alias_hw_keeps_program_order_for_memops() {
        let (_, _, res) = run(hoist_scenario(), &OptConfig::no_alias_hw());
        let pos = |k: usize| res.linear.iter().position(|&x| x == k).unwrap();
        assert!(pos(0) < pos(1), "no speculation without hardware");
        assert!(res.allocation.is_none());
    }

    #[test]
    fn all_ops_scheduled_exactly_once() {
        let (_, work, res) = run(hoist_scenario(), &OptConfig::smarq(64));
        assert_eq!(res.linear.len(), work.ops.len());
        let mut seen = vec![false; work.ops.len()];
        for &k in &res.linear {
            assert!(!seen[k]);
            seen[k] = true;
        }
        // Exit is last (barrier).
        assert!(work.ops[*res.linear.last().unwrap()].is_exit());
    }

    #[test]
    fn tiny_register_file_still_schedules_via_nonspec_mode() {
        // Many independent hoistable loads against 2 registers: the mode
        // switch must keep the allocator from overflowing.
        let mut ops = Vec::new();
        for i in 0..6 {
            ops.push(IrOp::St {
                rs: 1,
                base: 2,
                disp: i * 8,
            });
            ops.push(IrOp::FLd {
                fd: (i + 1) as u8,
                base: (i + 3) as u8,
                disp: 0,
            });
        }
        let (_, _, res) = run(ops, &OptConfig::smarq(2));
        let alloc = res.allocation.unwrap();
        assert!(alloc.working_set() <= 2);
    }

    #[test]
    fn cycles_are_monotonic() {
        let (_, _, res) = run(hoist_scenario(), &OptConfig::smarq(64));
        for w in res.cycles.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
