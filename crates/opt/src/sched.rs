//! The list scheduler with the embedded SMARQ alias register allocator
//! (paper §5.3–§5.4: "we embed our alias register allocation within a list
//! scheduling framework so that we can allocate alias registers during the
//! instruction scheduling").

use crate::config::OptConfig;
use crate::dag::{Dag, WorkList};
use crate::TranslationScratch;
use smarq::{AllocError, Allocation, Allocator, DepGraph, RegionSpec, SchedulerMode};
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

/// A set of priority ranks, one bit each.
struct RankSet<'a> {
    words: &'a mut Vec<u64>,
}

impl<'a> RankSet<'a> {
    /// The empty set over ranks `0..len`, in the reused `words`.
    fn new(len: usize, words: &'a mut Vec<u64>) -> Self {
        words.clear();
        words.resize(len.div_ceil(64), 0);
        RankSet { words }
    }

    fn insert(&mut self, r: usize) {
        self.words[r / 64] |= 1 << (r % 64);
    }

    fn remove(&mut self, r: usize) {
        self.words[r / 64] &= !(1 << (r % 64));
    }

    /// The smallest member `>= from`.
    fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }
}

/// Working memory of the list scheduler, reused across regions: every
/// buffer is reset by length when a schedule starts.
#[derive(Clone, Debug, Default)]
pub struct SchedScratch {
    unsched_preds: Vec<u32>,
    est: Vec<u64>,
    done: Vec<bool>,
    order: Vec<usize>,
    rank: Vec<usize>,
    ready: Vec<u64>,
}

/// Schedules the work list.
///
/// Each cycle fills the machine's slots in descending critical-path
/// priority from the ops whose hard predecessors are placed and whose
/// latencies have elapsed. A cycle visits only the ops whose predecessors
/// are all placed (the ready set), not the whole region.
///
/// Memory operations are fed to the [`Allocator`] in schedule order; its
/// overflow estimate gates further speculation (an op whose placement would
/// cross an unscheduled may-alias memop is deferred while the allocator
/// reports [`SchedulerMode::NonSpeculation`]).
///
/// `scratch` holds the scheduler's own arrays and the allocator's; after
/// an error the allocator's part is fresh (the caller retries with it).
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
    scratch: &mut TranslationScratch,
) -> Result<ScheduleResult, AllocError> {
    let SchedScratch {
        unsched_preds,
        est,
        done,
        order,
        rank,
        ready,
    } = &mut scratch.sched;
    let n = work.ops.len();
    unsched_preds.clear();
    unsched_preds.extend((0..n).map(|k| dag.hard_pred_count(k)));
    est.clear();
    est.resize(n, 0);
    done.clear();
    done.resize(n, false);
    let mut linear = Vec::with_capacity(n);
    let mut cycles = Vec::with_capacity(n);
    // The Efficeon target reuses the ordered-queue constraint machinery:
    // its working-set bound also bounds the bit-mask file's live ranges
    // (interval max-overlap <= queue working set), and the final check
    // pairs are exactly what the masks must encode.
    let use_alloc = matches!(config.hw, HwKind::Smarq | HwKind::Efficeon);
    let mut allocator = use_alloc.then(|| {
        Allocator::with_scratch(
            spec,
            deps,
            config.num_alias_regs.max(1),
            std::mem::take(&mut scratch.alloc),
        )
    });

    let mut remaining = n;
    let mut cycle = 0u64;
    // Candidate order: priority descending, original order as tiebreak.
    order.clear();
    order.extend(0..n);
    order.sort_unstable_by(|&a, &b| dag.priority[b].cmp(&dag.priority[a]).then(a.cmp(&b)));
    rank.clear();
    rank.resize(n, 0);
    for (r, &k) in order.iter().enumerate() {
        rank[k] = r;
    }
    // The ready set holds, by rank, every unplaced op whose hard
    // predecessors are all placed: the only candidates a cycle visits.
    let mut ready = RankSet::new(n, ready);
    for k in (0..n).filter(|&k| unsched_preds[k] == 0) {
        ready.insert(rank[k]);
    }

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
        // Visit the ready ops in rank order. The set is re-read at each
        // step, so a zero-delay successor woken here at a later rank is
        // still placed in this cycle.
        let mut from = 0;
        while let Some(r) = ready.next_from(from) {
            from = r + 1;
            let k = order[r];
            if est[k] > cycle {
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
                    // The cheap test first: the mode estimate walks every
                    // memory op.
                    if dag.spec_before(k).any(|p| !done[p])
                        && alloc.mode() == SchedulerMode::NonSpeculation
                    {
                        // Register pressure: no new speculation until
                        // rotation has drained the file.
                        continue;
                    }
                }
            }
            // Place the op.
            *slot -= 1;
            ready.remove(r);
            done[k] = true;
            remaining -= 1;
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
            for (s, d) in dag.succs(k) {
                unsched_preds[s] -= 1;
                est[s] = est[s].max(cycle + d);
                if unsched_preds[s] == 0 {
                    ready.insert(rank[s]);
                }
            }
            if mem_slots == 0 && fpu_slots == 0 && alu_slots == 0 {
                break;
            }
        }
        cycle += 1;
    }

    let allocation = match allocator {
        Some(a) => {
            let (alloc, reclaimed) = a.finish_reclaim()?;
            scratch.alloc = reclaimed;
            Some(alloc)
        }
        None => None,
    };
    Ok(ScheduleResult {
        linear,
        cycles,
        allocation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blacklist::AliasBlacklist;
    use crate::dag::{build_dag, build_work_list};
    use crate::elim::{dce, run_eliminations, Eliminations};
    use crate::pairs::PairPolicy;
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
            profiled_aliases: Vec::new(),
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
        let work = build_work_list(&sb, &elims, &mut Default::default());
        let no_taint = vec![false; sb.ops.len()];
        let pairs = PairPolicy::new(&sb, &analysis, &no_taint, &AliasBlacklist::new(), config.hw);
        let dag = build_dag(
            &work,
            &deps,
            &map,
            &pairs,
            config,
            &MachineConfig::default(),
            &mut Default::default(),
        );
        let res = schedule(
            &work,
            &dag,
            config,
            &MachineConfig::default(),
            &spec,
            &deps,
            &map,
            &mut Default::default(),
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

    /// The cycle loop the ready set replaced, kept as the oracle: every
    /// cycle walks all ops in rank order and skips the placed and the
    /// blocked ones. Also returns how many placements the
    /// non-speculation mode deferred.
    fn full_scan(
        work: &WorkList,
        dag: &Dag,
        config: &OptConfig,
        machine: &MachineConfig,
        spec: &RegionSpec,
        deps: &DepGraph,
        map: &RegionMap,
    ) -> (Result<ScheduleResult, AllocError>, usize) {
        let n = work.ops.len();
        let mut unsched_preds: Vec<u32> = (0..n).map(|k| dag.hard_pred_count(k)).collect();
        let mut est = vec![0u64; n];
        let mut done = vec![false; n];
        let (mut linear, mut cycles) = (Vec::new(), Vec::new());
        let mut allocator = matches!(config.hw, HwKind::Smarq | HwKind::Efficeon)
            .then(|| Allocator::new(spec, deps, config.num_alias_regs.max(1)));
        let mut deferred = 0;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| dag.priority[b].cmp(&dag.priority[a]).then(a.cmp(&b)));
        let cp: u64 = dag.priority.iter().copied().max().unwrap_or(0);
        let mut remaining_mem = work.ops.iter().filter(|o| o.is_mem()).count() as u64;
        let mem_slots_per_cycle = u64::from(machine.mem_slots.max(1));
        let (mut remaining, mut cycle) = (n, 0u64);
        while remaining > 0 {
            let mut mem_slots = machine.mem_slots;
            let mut fpu_slots = machine.fpu_slots;
            let mut alu_slots = machine.alu_slots;
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
                        continue;
                    }
                    if let Some(alloc) = &allocator {
                        if alloc.mode() == SchedulerMode::NonSpeculation
                            && dag.spec_before(k).any(|p| !done[p])
                        {
                            deferred += 1;
                            continue;
                        }
                    }
                }
                *slot -= 1;
                done[k] = true;
                remaining -= 1;
                linear.push(k);
                cycles.push(cycle);
                if work.ops[k].is_mem() {
                    remaining_mem -= 1;
                    if let Some(alloc) = &mut allocator {
                        let id = map.mem_id(work.orig[k]).unwrap();
                        if let Err(e) = alloc.schedule_op(id) {
                            return (Err(e), deferred);
                        }
                    }
                }
                for (s, d) in dag.succs(k) {
                    unsched_preds[s] -= 1;
                    est[s] = est[s].max(cycle + d);
                }
                if mem_slots == 0 && fpu_slots == 0 && alu_slots == 0 {
                    break;
                }
            }
            cycle += 1;
        }
        let allocation = match allocator.map(Allocator::finish).transpose() {
            Ok(a) => a,
            Err(e) => return (Err(e), deferred),
        };
        let res = ScheduleResult {
            linear,
            cycles,
            allocation,
        };
        (Ok(res), deferred)
    }

    /// A random region: integer and FP chains over a few registers, loads
    /// and stores over four bases that are never defined (so every pair
    /// of different bases may alias), and conditional side exits.
    fn random_superblock(rng: &mut smarq::prng::Prng) -> Superblock {
        let n = rng.range_usize(4, 61);
        let (mut ops, mut exits) = (Vec::with_capacity(n + 1), 0u32);
        for _ in 0..n {
            let r = |rng: &mut smarq::prng::Prng| rng.range_u32(1, 9) as u8;
            let base = rng.range_u32(20, 24) as u8;
            let disp = [0, 8, 16][rng.range_usize(0, 3)];
            ops.push(match rng.range_u32(0, 10) {
                0 => IrOp::IConst {
                    rd: r(rng),
                    value: 3,
                },
                1 => IrOp::AluImm {
                    op: smarq_guest::AluOp::Add,
                    rd: r(rng),
                    ra: r(rng),
                    imm: 1,
                },
                2 => IrOp::Fpu {
                    op: *rng.pick(&[smarq_guest::FpuOp::Mul, smarq_guest::FpuOp::Div]),
                    fd: r(rng),
                    fa: r(rng),
                    fb: r(rng),
                },
                3 | 4 => IrOp::FLd {
                    fd: r(rng),
                    base,
                    disp,
                },
                5 => IrOp::Ld {
                    rd: r(rng),
                    base,
                    disp,
                },
                6 | 7 => IrOp::FSt {
                    fs: r(rng),
                    base,
                    disp,
                },
                8 => IrOp::St {
                    rs: r(rng),
                    base,
                    disp,
                },
                _ => {
                    exits += 1;
                    IrOp::Exit {
                        exit_id: exits,
                        cond: Some((smarq_guest::CmpOp::Lt, r(rng), r(rng))),
                    }
                }
            });
        }
        ops.push(IrOp::Exit {
            exit_id: 0,
            cond: None,
        });
        Superblock {
            origins: (0..ops.len() as u32)
                .map(|instr| OpOrigin {
                    block: BlockId(0),
                    instr,
                })
                .collect(),
            ops,
            exits: vec![IrExit { target: None }; exits as usize + 1],
            entry: BlockId(0),
            trace: vec![BlockId(0)],
            profiled_aliases: Vec::new(),
        }
    }

    #[test]
    fn ready_set_matches_the_full_scan() {
        let configs = [
            OptConfig::smarq(64),
            OptConfig::smarq(8),
            OptConfig::smarq(2),
            OptConfig::efficeon(),
            OptConfig::alat(),
            OptConfig::no_alias_hw(),
        ];
        let machine = MachineConfig::default();
        let mut deferred = [0usize; 6];
        for seed in 0..500u64 {
            let mut rng = smarq::prng::Prng::new(0x5C4E_D000 + seed);
            let sb = random_superblock(&mut rng);
            sb.validate().unwrap();
            let analysis = AliasAnalysis::new(&sb);
            let no_taint = vec![false; sb.ops.len()];
            for (c, config) in configs.iter().enumerate() {
                let pairs =
                    PairPolicy::new(&sb, &analysis, &no_taint, &AliasBlacklist::new(), config.hw);
                let (mut spec, map) = build_region_spec(&sb, &analysis);
                let mut elims = run_eliminations(
                    &sb,
                    &pairs,
                    &mut spec,
                    &map,
                    config,
                    &mut Default::default(),
                );
                dce(&sb, &mut elims);
                let deps = DepGraph::compute(&spec);
                let mut scratch = crate::TranslationScratch::new();
                let work = build_work_list(&sb, &elims, &mut Default::default());
                let dag = build_dag(
                    &work,
                    &deps,
                    &map,
                    &pairs,
                    config,
                    &machine,
                    &mut Default::default(),
                );
                let got = schedule(
                    &work,
                    &dag,
                    config,
                    &machine,
                    &spec,
                    &deps,
                    &map,
                    &mut scratch,
                );
                let (want, d) = full_scan(&work, &dag, config, &machine, &spec, &deps, &map);
                deferred[c] += d;
                let what = format!("seed {seed}, {:?} x{}", config.hw, config.num_alias_regs);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.linear, want.linear, "{what}");
                        assert_eq!(got.cycles, want.cycles, "{what}");
                        assert_eq!(
                            format!("{:?}", got.allocation),
                            format!("{:?}", want.allocation),
                            "{what}"
                        );
                    }
                    (got, want) => assert_eq!(got.err(), want.err(), "{what}"),
                }
            }
        }
        // The small files reach the non-speculation mode.
        assert!(deferred[1] > 0 && deferred[2] > 0, "{deferred:?}");
    }
}
