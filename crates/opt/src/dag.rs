//! Scheduling dependence DAG.
//!
//! Hard edges (register RAW/WAR/WAW, must-alias memory dependences, exit
//! barriers) constrain every schedule. May-alias memory dependences are
//! *speculation candidates*: the hardware policy decides whether they are
//! dropped (and detected at runtime) or kept hard. Dropped edges are
//! remembered in [`Dag::spec_before`] so the scheduler can re-impose them
//! while the alias register allocator is in non-speculation mode
//! (paper §5.3).

use crate::blacklist::AliasBlacklist;
use crate::config::OptConfig;
use crate::elim::Eliminations;
use smarq::{DepGraph, DepKind};
use smarq_ir::{AliasAnalysis, AliasRel, IrOp, RegionMap, Superblock};
use smarq_vliw::{HwKind, MachineConfig};

/// The post-elimination operation list the scheduler works on.
#[derive(Clone, Debug)]
pub struct WorkList {
    /// Operations (eliminated loads appear as copies; removed stores are
    /// gone).
    pub ops: Vec<IrOp>,
    /// For each work op: its index in the original superblock.
    pub orig: Vec<usize>,
}

/// Builds the work list from the superblock and the elimination outcome.
pub fn build_work_list(sb: &Superblock, elims: &Eliminations) -> WorkList {
    let mut ops = Vec::with_capacity(sb.ops.len());
    let mut orig = Vec::with_capacity(sb.ops.len());
    for (i, op) in sb.ops.iter().enumerate() {
        if elims.removed[i] {
            continue;
        }
        ops.push(elims.replaced[i].unwrap_or(*op));
        orig.push(i);
    }
    WorkList { ops, orig }
}

/// The dependence DAG. All edges run forward in work-list order.
#[derive(Clone, Debug)]
pub struct Dag {
    /// `(pred, delay)` hard predecessors per node.
    pub hard_preds: Vec<Vec<(usize, u64)>>,
    /// `(succ, delay)` hard successors per node.
    pub hard_succs: Vec<Vec<(usize, u64)>>,
    /// Earlier memory operations this op was allowed to speculate across
    /// (dropped may-alias edges); re-imposed in non-speculation mode.
    pub spec_before: Vec<Vec<usize>>,
    /// Critical-path priority (longest latency chain to a sink).
    pub priority: Vec<u64>,
}

/// Latency of the value an op produces (order-only ops get 1).
pub fn op_latency(op: &IrOp, m: &MachineConfig) -> u64 {
    u64::from(match *op {
        IrOp::Alu { op, .. } | IrOp::AluImm { op, .. } => m.alu_latency(op),
        IrOp::Fpu { op, .. } => m.fpu_latency(op),
        IrOp::Ld { .. } | IrOp::FLd { .. } => m.lat_load,
        _ => m.lat_int,
    })
}

/// Whether the policy lets the schedule drop a may-alias edge between the
/// earlier op `a` and the later op `b` (work-list order).
fn droppable(a: &IrOp, b: &IrOp, config: &OptConfig) -> bool {
    if !config.speculate_reordering {
        return false;
    }
    match config.hw {
        // Both the ordered queue and the exact bit-mask encoding can check
        // any reordered pair, including store-store.
        HwKind::Smarq | HwKind::Efficeon => {
            if a.is_store() && b.is_store() {
                config.allow_store_reorder
            } else {
                true
            }
        }
        // ALAT only supports *advanced loads*: a later load hoisted above
        // an earlier store. Store-store and store-above-load reordering are
        // undetectable (paper §2.3).
        HwKind::Alat => a.is_store() && !b.is_store(),
        HwKind::None => false,
    }
}

/// Builds the DAG over `work`.
///
/// The memory edges are read off `deps`, the dependence graph of the
/// region's [`RegionSpec`](smarq::RegionSpec) (`map` relates its
/// [`MemOpId`]s to superblock ops): the work list's memory ops are
/// exactly the spec's live ops, and the graph's plain edges are exactly
/// the forward pairs of them that may alias, or touch an unspeculatable
/// op, with at least one store. So the scheduler and the alias register
/// allocator consume one memory-dependence walk. Each edge is then made
/// hard (must-alias, unspeculatable, blacklisted or not droppable under
/// the hardware policy) or a speculation candidate.
///
/// `taint` flags per *superblock* op index the memory operations whose
/// address can touch an unspeculatable range. Every memory pair involving
/// a tainted op is pinned as a hard edge — regardless of the alias
/// relation, and including load/load pairs — so tainted accesses execute
/// in exact program order (MMIO-style side effects make even re-ordered
/// reads unsafe) and never need alias-register bits.
#[allow(clippy::too_many_arguments)]
pub fn build_dag(
    sb: &Superblock,
    analysis: &AliasAnalysis,
    work: &WorkList,
    deps: &DepGraph,
    map: &RegionMap,
    config: &OptConfig,
    machine: &MachineConfig,
    blacklist: &AliasBlacklist,
    taint: &[bool],
) -> Dag {
    let n = work.ops.len();
    let mut hard_preds: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    let mut hard_succs: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    let mut spec_before: Vec<Vec<usize>> = vec![Vec::new(); n];

    let add = |hp: &mut Vec<Vec<(usize, u64)>>,
               hs: &mut Vec<Vec<(usize, u64)>>,
               src: usize,
               dst: usize,
               delay: u64| {
        debug_assert!(src < dst, "edges must run forward");
        hp[dst].push((src, delay));
        hs[src].push((dst, delay));
    };

    // Register dependences.
    let mut last_def_int: [Option<usize>; 64] = [None; 64];
    let mut last_def_fp: [Option<usize>; 64] = [None; 64];
    let mut uses_int: Vec<Vec<usize>> = vec![Vec::new(); 64];
    let mut uses_fp: Vec<Vec<usize>> = vec![Vec::new(); 64];
    // Exit barriers.
    let mut last_barrier: Option<usize> = None;
    let mut since_barrier: Vec<usize> = Vec::new();

    for k in 0..n {
        let op = &work.ops[k];
        for r in op.int_uses() {
            if let Some(d) = last_def_int[r as usize] {
                let lat = op_latency(&work.ops[d], machine);
                add(&mut hard_preds, &mut hard_succs, d, k, lat);
            }
            uses_int[r as usize].push(k);
        }
        for r in op.fp_uses() {
            if let Some(d) = last_def_fp[r as usize] {
                let lat = op_latency(&work.ops[d], machine);
                add(&mut hard_preds, &mut hard_succs, d, k, lat);
            }
            uses_fp[r as usize].push(k);
        }
        if let Some(rd) = op.int_def() {
            for &u in &uses_int[rd as usize] {
                if u != k {
                    add(&mut hard_preds, &mut hard_succs, u, k, 0); // WAR
                }
            }
            if let Some(d) = last_def_int[rd as usize] {
                add(&mut hard_preds, &mut hard_succs, d, k, 0); // WAW
            }
            last_def_int[rd as usize] = Some(k);
            uses_int[rd as usize].clear();
        }
        if let Some(fd) = op.fp_def() {
            for &u in &uses_fp[fd as usize] {
                if u != k {
                    add(&mut hard_preds, &mut hard_succs, u, k, 0);
                }
            }
            if let Some(d) = last_def_fp[fd as usize] {
                add(&mut hard_preds, &mut hard_succs, d, k, 0);
            }
            last_def_fp[fd as usize] = Some(k);
            uses_fp[fd as usize].clear();
        }

        if op.is_exit() {
            for &p in &since_barrier {
                add(&mut hard_preds, &mut hard_succs, p, k, 0);
            }
            if let Some(b) = last_barrier {
                add(&mut hard_preds, &mut hard_succs, b, k, 0);
            }
            last_barrier = Some(k);
            since_barrier.clear();
        } else {
            if let Some(b) = last_barrier {
                add(&mut hard_preds, &mut hard_succs, b, k, 0);
            }
            since_barrier.push(k);
        }
    }

    // Memory dependences. `node[id]` is the work index of memory op `id`.
    let mut node = vec![usize::MAX; map.len()];
    let mut loads = Vec::new();
    for (k, op) in work.ops.iter().enumerate() {
        if op.is_mem() {
            let id = map.mem_id(work.orig[k]).expect("memory op has a region id");
            node[id.index()] = k;
            if !op.is_store() {
                loads.push(k);
            }
        }
    }
    let tainted = |k: usize| taint[work.orig[k]];
    let may = |a: usize, b: usize| analysis.relation(work.orig[a], work.orig[b]) == AliasRel::May;
    // The blacklist, resolved once per region: one membership probe per
    // op, and a pair probe only when both ops are members.
    let mut member = vec![false; n];
    if !blacklist.is_empty() {
        for (k, op) in work.ops.iter().enumerate() {
            member[k] = op.is_mem() && blacklist.involves(sb.origins[work.orig[k]]);
        }
    }
    let blacklisted = |a: usize, b: usize| {
        member[a]
            && member[b]
            && blacklist.contains(sb.origins[work.orig[a]], sb.origins[work.orig[b]])
    };

    // The ALAT has a bounded entry file (32 on real Itanium): only the
    // first ALAT_CAPACITY loads that could benefit become advanced loads;
    // the rest keep their hard edges.
    const ALAT_CAPACITY: usize = 32;
    let mut alat_advanced: Vec<bool> = vec![false; n];
    if config.hw == HwKind::Alat {
        let mut count = 0usize;
        for &l in &loads {
            if tainted(l) {
                continue; // tainted loads never advance
            }
            let id = map.mem_id(work.orig[l]).expect("memory op has a region id");
            let wants = deps
                .deps_into(id)
                .filter(|d| d.kind == DepKind::Plain)
                .map(|d| node[d.src.index()])
                .any(|s| work.ops[s].is_store() && may(s, l));
            if wants && count < ALAT_CAPACITY {
                alat_advanced[l] = true;
                count += 1;
            }
        }
    }
    for d in deps.iter().filter(|d| d.kind == DepKind::Plain) {
        let (a, b) = (node[d.src.index()], node[d.dst.index()]);
        if tainted(a) || tainted(b) {
            // Unspeculatable: exact program order vs every memory op.
            add(&mut hard_preds, &mut hard_succs, a, b, 0);
        } else if !may(a, b) {
            add(&mut hard_preds, &mut hard_succs, a, b, 0); // must alias
        } else {
            let pinned = blacklisted(a, b)
                || (config.hw == HwKind::Alat && (!alat_advanced[b] || member[a] || member[b]));
            if !pinned && droppable(&work.ops[a], &work.ops[b], config) {
                spec_before[b].push(a);
            } else {
                add(&mut hard_preds, &mut hard_succs, a, b, 0);
            }
        }
    }
    // Unspeculatable dependences need a store, but a tainted load keeps
    // program order against every other load too.
    for &t in loads.iter().filter(|&&l| tainted(l)) {
        for &b in &loads {
            if b != t && !(tainted(b) && b < t) {
                add(&mut hard_preds, &mut hard_succs, t.min(b), t.max(b), 0);
            }
        }
    }

    // Critical-path priorities over hard edges (edges run forward, so a
    // reverse index sweep is a reverse-topological traversal).
    let mut priority = vec![0u64; n];
    for k in (0..n).rev() {
        let own = op_latency(&work.ops[k], machine);
        let best_succ = hard_succs[k]
            .iter()
            .map(|&(s, d)| priority[s] + d)
            .max()
            .unwrap_or(0);
        priority[k] = own + best_succ;
    }

    Dag {
        hard_preds,
        hard_succs,
        spec_before,
        priority,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq_guest::BlockId;
    use smarq_ir::{IrExit, OpOrigin};

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

    fn no_elims(sb: &Superblock) -> Eliminations {
        Eliminations {
            replaced: vec![None; sb.ops.len()],
            removed: vec![false; sb.ops.len()],
            spec_load_elims: 0,
            spec_store_elims: 0,
            nonspec_elims: 0,
        }
    }

    /// Builds the DAG the way the optimizer does: the region spec (taint
    /// marks its ops unspeculatable), its dependence graph, then
    /// `build_dag` reading the memory edges off that graph.
    fn dag_with(
        sb: &Superblock,
        config: &OptConfig,
        blacklist: &AliasBlacklist,
        taint: &[bool],
    ) -> (WorkList, Dag) {
        let analysis = AliasAnalysis::new(sb);
        let (mut spec, map) = smarq_ir::build_region_spec(sb, &analysis);
        for (i, &t) in taint.iter().enumerate() {
            if let Some(id) = map.mem_id(i).filter(|_| t) {
                spec.set_nospec(id);
            }
        }
        let deps = DepGraph::compute(&spec);
        let work = build_work_list(sb, &no_elims(sb));
        let dag = build_dag(
            sb,
            &analysis,
            &work,
            &deps,
            &map,
            config,
            &MachineConfig::default(),
            blacklist,
            taint,
        );
        (work, dag)
    }

    fn dag_for(ops: Vec<IrOp>, config: &OptConfig) -> (Superblock, WorkList, Dag) {
        let sb = mk_sb(ops);
        let (work, dag) = dag_with(
            &sb,
            config,
            &AliasBlacklist::new(),
            &vec![false; sb.ops.len()],
        );
        (sb, work, dag)
    }

    fn has_edge(dag: &Dag, a: usize, b: usize) -> bool {
        dag.hard_succs[a].iter().any(|&(s, _)| s == b)
    }

    #[test]
    fn raw_war_waw_edges() {
        let (_, _, dag) = dag_for(
            vec![
                IrOp::IConst { rd: 1, value: 1 }, // 0: def r1
                IrOp::AluImm {
                    op: smarq_guest::AluOp::Add,
                    rd: 2,
                    ra: 1,
                    imm: 0,
                }, // 1: use r1, def r2
                IrOp::IConst { rd: 1, value: 2 }, // 2: redef r1 (WAR vs 1, WAW vs 0)
            ],
            &OptConfig::smarq(64),
        );
        assert!(has_edge(&dag, 0, 1)); // RAW
        assert!(has_edge(&dag, 1, 2)); // WAR
        assert!(has_edge(&dag, 0, 2)); // WAW
    }

    #[test]
    fn may_alias_edges_follow_policy() {
        let ops = vec![
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
            IrOp::St {
                rs: 5,
                base: 6,
                disp: 0,
            },
        ];
        // SMARQ: both edges dropped (store-load and store-store).
        let (_, _, d) = dag_for(ops.clone(), &OptConfig::smarq(64));
        assert!(!has_edge(&d, 0, 1));
        assert!(!has_edge(&d, 0, 2));
        assert_eq!(d.spec_before[1], vec![0]);
        assert!(d.spec_before[2].contains(&0));

        // SMARQ without store reorder: store-store stays hard.
        let (_, _, d) = dag_for(ops.clone(), &OptConfig::smarq_no_store_reorder(64));
        assert!(!has_edge(&d, 0, 1));
        assert!(has_edge(&d, 0, 2));

        // ALAT: load-above-store dropped; store-store hard; also the
        // load-then-store pair (1,2) must stay hard (store cannot hoist
        // above a load).
        let (_, _, d) = dag_for(ops.clone(), &OptConfig::alat());
        assert!(!has_edge(&d, 0, 1));
        assert!(has_edge(&d, 0, 2));
        assert!(has_edge(&d, 1, 2));

        // No hardware: everything hard.
        let (_, _, d) = dag_for(ops, &OptConfig::no_alias_hw());
        assert!(has_edge(&d, 0, 1));
        assert!(has_edge(&d, 0, 2));
    }

    #[test]
    fn must_alias_is_always_hard() {
        let (_, _, d) = dag_for(
            vec![
                IrOp::St {
                    rs: 1,
                    base: 2,
                    disp: 0,
                },
                IrOp::Ld {
                    rd: 3,
                    base: 2,
                    disp: 0,
                },
            ],
            &OptConfig::smarq(64),
        );
        assert!(has_edge(&d, 0, 1));
    }

    #[test]
    fn exits_are_barriers() {
        let sb = mk_sb(vec![IrOp::IConst { rd: 1, value: 1 }]);
        // ops: [iconst, exit]; edge iconst -> exit.
        let (_, dag) = dag_with(
            &sb,
            &OptConfig::smarq(64),
            &AliasBlacklist::new(),
            &vec![false; sb.ops.len()],
        );
        assert!(has_edge(&dag, 0, 1));
    }

    #[test]
    fn blacklist_pins_pairs_hard() {
        let sb = mk_sb(vec![
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
        ]);
        let mut bl = AliasBlacklist::new();
        bl.insert(sb.origins[0], sb.origins[1]);
        let (_, dag) = dag_with(&sb, &OptConfig::smarq(64), &bl, &vec![false; sb.ops.len()]);
        assert!(has_edge(&dag, 0, 1));
        assert!(dag.spec_before[1].is_empty());
    }

    #[test]
    fn work_list_applies_eliminations() {
        let sb = mk_sb(vec![
            IrOp::St {
                rs: 2,
                base: 1,
                disp: 0,
            },
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 0,
            },
        ]);
        let mut elims = Eliminations {
            replaced: vec![None; sb.ops.len()],
            removed: vec![false; sb.ops.len()],
            spec_load_elims: 0,
            spec_store_elims: 0,
            nonspec_elims: 1,
        };
        elims.replaced[1] = Some(IrOp::Copy { rd: 3, ra: 2 });
        let work = build_work_list(&sb, &elims);
        assert_eq!(work.ops.len(), 3);
        assert_eq!(work.ops[1], IrOp::Copy { rd: 3, ra: 2 });
        assert_eq!(work.orig[1], 1);
    }

    #[test]
    fn tainted_mem_pairs_are_pinned_hard() {
        // ld [r2]; ld [r4]; st [r6] — pairwise may-alias except load/load,
        // which normally carries no edge at all.
        let ops = vec![
            IrOp::Ld {
                rd: 1,
                base: 2,
                disp: 0,
            },
            IrOp::Ld {
                rd: 3,
                base: 4,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 6,
                disp: 0,
            },
        ];
        let sb = mk_sb(ops);
        let mut taint = vec![false; sb.ops.len()];
        taint[1] = true; // the middle load is unspeculatable
        let (_, dag) = dag_with(&sb, &OptConfig::smarq(64), &AliasBlacklist::new(), &taint);
        // Tainted load is ordered against BOTH neighbors, including the
        // load/load pair, and nothing involving it is speculated.
        assert!(has_edge(&dag, 0, 1));
        assert!(has_edge(&dag, 1, 2));
        assert!(dag.spec_before[1].is_empty());
        assert!(!dag.spec_before[2].contains(&1));
        // The untainted may-alias pair (0, 2) still speculates.
        assert!(!has_edge(&dag, 0, 2));
        assert!(dag.spec_before[2].contains(&0));
    }

    fn ld(rd: u8, base: u8, disp: i64) -> IrOp {
        IrOp::Ld { rd, base, disp }
    }

    fn st(rs: u8, base: u8, disp: i64) -> IrOp {
        IrOp::St { rs, base, disp }
    }

    #[test]
    fn tainted_load_load_pair_is_pinned_without_a_dependence() {
        // Two may-alias loads: the dependence graph has no edge (a
        // dependence needs a store), yet a tainted load keeps order.
        let sb = mk_sb(vec![ld(1, 2, 0), ld(3, 4, 0)]);
        let analysis = AliasAnalysis::new(&sb);
        let (mut spec, map) = smarq_ir::build_region_spec(&sb, &analysis);
        spec.set_nospec(map.mem_id(1).unwrap());
        assert!(DepGraph::compute(&spec).is_empty());
        let taint = [false, true, false];
        let (_, dag) = dag_with(&sb, &OptConfig::smarq(64), &AliasBlacklist::new(), &taint);
        assert!(has_edge(&dag, 0, 1));
        let (_, dag) = dag_with(
            &sb,
            &OptConfig::smarq(64),
            &AliasBlacklist::new(),
            &[false; 3],
        );
        assert!(!has_edge(&dag, 0, 1));
    }

    #[test]
    fn a_blacklisted_pair_pins_only_itself_outside_the_alat() {
        // st [r2]; ld [r4]; ld [r6]: both loads may alias the store. The
        // pair (st, first ld) is blacklisted, and the second load is a
        // member through a pair with an op outside the region.
        let sb = mk_sb(vec![st(1, 2, 0), ld(3, 4, 0), ld(5, 6, 0)]);
        let mut bl = AliasBlacklist::new();
        bl.insert(sb.origins[0], sb.origins[1]);
        let outside = OpOrigin {
            block: BlockId(9),
            instr: 0,
        };
        bl.insert(sb.origins[2], outside);
        let taint = vec![false; sb.ops.len()];
        let (_, dag) = dag_with(&sb, &OptConfig::smarq(64), &bl, &taint);
        assert!(has_edge(&dag, 0, 1), "the blacklisted pair is hard");
        assert!(!has_edge(&dag, 0, 2), "a mere member still speculates");
        assert_eq!(dag.spec_before[2], vec![0]);
        // The ALAT cannot check selectively: a member never advances.
        let (_, dag) = dag_with(&sb, &OptConfig::alat(), &bl, &taint);
        assert!(has_edge(&dag, 0, 1));
        assert!(has_edge(&dag, 0, 2));
        assert!(dag.spec_before.iter().all(Vec::is_empty));
    }

    #[test]
    fn must_alias_pairs_stay_hard_under_every_scheme() {
        // st [r2]; ld [r2] (same word); ld [r2+8] (disjoint): one hard
        // edge and nothing to speculate, whatever the hardware.
        let sb = mk_sb(vec![st(1, 2, 0), ld(3, 2, 0), ld(4, 2, 8)]);
        for config in [
            OptConfig::smarq(64),
            OptConfig::efficeon(),
            OptConfig::alat(),
            OptConfig::no_alias_hw(),
        ] {
            let (_, dag) = dag_with(&sb, &config, &AliasBlacklist::new(), &[false; 4]);
            assert!(has_edge(&dag, 0, 1), "{:?}", config.hw);
            assert!(!has_edge(&dag, 0, 2), "{:?}", config.hw);
            assert!(dag.spec_before.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn alat_advances_at_most_its_capacity_of_loads() {
        // One store, then 33 loads that may alias it: the first 32 become
        // advanced loads; the 33rd keeps its hard edge.
        let mut ops = vec![st(1, 2, 0)];
        ops.extend((0..33u8).map(|k| ld(10 + k, 3, i64::from(k) * 8)));
        let sb = mk_sb(ops);
        let taint = vec![false; sb.ops.len()];
        let (_, dag) = dag_with(&sb, &OptConfig::alat(), &AliasBlacklist::new(), &taint);
        for l in 1..=32 {
            assert!(!has_edge(&dag, 0, l), "load {l} advances");
            assert_eq!(dag.spec_before[l], vec![0]);
        }
        assert!(has_edge(&dag, 0, 33), "the 33rd load keeps its edge");
    }

    /// `(earlier, later)` work-index pairs.
    type Edges = Vec<(usize, usize)>;

    /// The memory edges as the all-pairs walk over the work list derives
    /// them, straight from the alias analysis: `(hard, speculated)` pairs.
    fn all_pairs_mem_edges(
        sb: &Superblock,
        work: &WorkList,
        config: &OptConfig,
        blacklist: &AliasBlacklist,
        taint: &[bool],
    ) -> (Edges, Edges) {
        let analysis = AliasAnalysis::new(sb);
        let mems: Vec<usize> = (0..work.ops.len())
            .filter(|&k| work.ops[k].is_mem())
            .collect();
        let (o, origin) = (&work.orig, |k: usize| sb.origins[work.orig[k]]);
        let mut advanced = vec![false; work.ops.len()];
        if config.hw == HwKind::Alat {
            let mut count = 0;
            for &l in mems
                .iter()
                .filter(|&&l| !work.ops[l].is_store() && !taint[o[l]])
            {
                let wants = mems.iter().any(|&s| {
                    s < l
                        && work.ops[s].is_store()
                        && analysis.relation(o[s], o[l]) == AliasRel::May
                });
                if wants && count < 32 {
                    advanced[l] = true;
                    count += 1;
                }
            }
        }
        let (mut hard, mut spec) = (Vec::new(), Vec::new());
        for (ai, &a) in mems.iter().enumerate() {
            for &b in &mems[ai + 1..] {
                if taint[o[a]] || taint[o[b]] {
                    hard.push((a, b));
                    continue;
                }
                if !(work.ops[a].is_store() || work.ops[b].is_store()) {
                    continue;
                }
                match analysis.relation(o[a], o[b]) {
                    AliasRel::No => {}
                    AliasRel::Must => hard.push((a, b)),
                    AliasRel::May => {
                        let pinned = blacklist.contains(origin(a), origin(b))
                            || (config.hw == HwKind::Alat
                                && (!advanced[b]
                                    || blacklist.involves(origin(a))
                                    || blacklist.involves(origin(b))));
                        if !pinned && droppable(&work.ops[a], &work.ops[b], config) {
                            spec.push((a, b));
                        } else {
                            hard.push((a, b));
                        }
                    }
                }
            }
        }
        (hard, spec)
    }

    #[test]
    fn dependence_fed_edges_match_the_all_pairs_walk() {
        let mut no_spec = OptConfig::smarq(64);
        no_spec.speculate_reordering = false;
        let configs = [
            OptConfig::smarq(64),
            OptConfig::smarq_no_store_reorder(64),
            OptConfig::efficeon(),
            OptConfig::alat(),
            OptConfig::no_alias_hw(),
            no_spec,
        ];
        for seed in 0..200u64 {
            let mut rng = smarq::prng::Prng::new(0xDA6_0000 + seed);
            // Memory ops only, over three never-defined base registers and
            // distinct destinations, so every hard edge between two memory
            // ops is a memory edge.
            let n = rng.range_usize(2, 41);
            let ops: Vec<IrOp> = (0..n)
                .map(|k| {
                    let base = rng.range_u32(1, 4) as u8;
                    let disp = [0, 4, 8, 16, 24][rng.range_usize(0, 5)];
                    match rng.range_u32(0, 4) {
                        0 => ld(10 + k as u8, base, disp),
                        1 => st(60, base, disp),
                        2 => IrOp::FLd {
                            fd: k as u8,
                            base,
                            disp,
                        },
                        _ => IrOp::FSt { fs: 63, base, disp },
                    }
                })
                .collect();
            let sb = mk_sb(ops);
            let mut taint = vec![false; sb.ops.len()];
            if rng.chance(1, 2) {
                for t in taint.iter_mut().take(n) {
                    *t = rng.chance(1, 8);
                }
            }
            let mut bl = AliasBlacklist::new();
            for _ in 0..rng.range_usize(0, 4) {
                let (a, b) = (rng.range_usize(0, n), rng.range_usize(0, n));
                if a != b {
                    bl.insert(sb.origins[a], sb.origins[b]);
                }
            }
            for config in &configs {
                let (work, dag) = dag_with(&sb, config, &bl, &taint);
                let mut hard: Edges = (0..n)
                    .flat_map(|a| dag.hard_succs[a].iter().map(move |&(b, _)| (a, b)))
                    .filter(|&(_, b)| work.ops[b].is_mem())
                    .collect();
                hard.sort_unstable();
                let mut spec: Edges = (0..work.ops.len())
                    .flat_map(|b| dag.spec_before[b].iter().map(move |&a| (a, b)))
                    .collect();
                spec.sort_unstable();
                let (want_hard, want_spec) = all_pairs_mem_edges(&sb, &work, config, &bl, &taint);
                assert_eq!(hard, want_hard, "hard edges, seed {seed}, {:?}", config.hw);
                assert_eq!(spec, want_spec, "speculated, seed {seed}, {:?}", config.hw);
            }
        }
    }

    #[test]
    fn priorities_reflect_latency_chains() {
        let (_, _, dag) = dag_for(
            vec![
                IrOp::Ld {
                    rd: 1,
                    base: 2,
                    disp: 0,
                }, // long chain start
                IrOp::Fpu {
                    op: smarq_guest::FpuOp::Div,
                    fd: 1,
                    fa: 1,
                    fb: 1,
                },
                IrOp::IConst { rd: 9, value: 0 }, // independent
            ],
            &OptConfig::smarq(64),
        );
        assert!(dag.priority[0] > dag.priority[2]);
    }
}
