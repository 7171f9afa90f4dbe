//! Scheduling dependence DAG.
//!
//! Hard edges (register RAW/WAR/WAW, must-alias memory dependences, exit
//! barriers) constrain every schedule. May-alias memory dependences are
//! *speculation candidates*: the hardware policy decides whether they are
//! dropped (and detected at runtime) or kept hard. Dropped edges are
//! remembered in [`Dag::spec_before`] so the scheduler can re-impose them
//! while the alias register allocator is in non-speculation mode
//! (paper §5.3).
//!
//! The DAG is built in time linear in the region plus its edges, with a
//! fixed handful of flat allocations: edges are collected into one list
//! and grouped by node in compressed sparse row form, and the register
//! reads since each definition share one pool of per-register chains.

use crate::config::OptConfig;
use crate::elim::Eliminations;
use crate::pairs::{PairPolicy, Verdict};
use smarq::csr::group_by_key;
use smarq::{DepGraph, DepKind};
use smarq_ir::{AliasRel, IrOp, RegionMap, Superblock};
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

/// Builds the work list from the superblock and the elimination outcome,
/// into buffers recycled from `scratch` (hand the list back with
/// [`DagScratch::recycle_work_list`]).
pub fn build_work_list(
    sb: &Superblock,
    elims: &Eliminations,
    scratch: &mut DagScratch,
) -> WorkList {
    let mut ops = std::mem::take(&mut scratch.work_ops);
    let mut orig = std::mem::take(&mut scratch.work_orig);
    ops.clear();
    orig.clear();
    for (i, op) in sb.ops.iter().enumerate() {
        if elims.removed[i] {
            continue;
        }
        ops.push(elims.replaced[i].unwrap_or(*op));
        orig.push(i);
    }
    WorkList { ops, orig }
}

/// Working memory of the work list and the DAG, reused across regions:
/// the construction's temporaries, and the arrays of the last
/// [`WorkList`] and [`Dag`] once they are handed back.
#[derive(Clone, Debug, Default)]
pub struct DagScratch {
    work_ops: Vec<IrOp>,
    work_orig: Vec<usize>,
    edges: Vec<(u32, (u32, u32))>,
    use_pool: Vec<(u32, u32)>,
    node: Vec<usize>,
    loads: Vec<usize>,
    alat_advanced: Vec<bool>,
    spec_edges: Vec<(u32, u32)>,
    dag: Option<Dag>,
}

impl DagScratch {
    /// Takes back the arrays of a work list that is no longer needed.
    pub fn recycle_work_list(&mut self, work: WorkList) {
        self.work_ops = work.ops;
        self.work_orig = work.orig;
    }

    /// Takes back the arrays of a DAG that is no longer needed.
    pub fn recycle_dag(&mut self, dag: Dag) {
        self.dag = Some(dag);
    }
}

/// The dependence DAG in compressed sparse row form: one flat edge array
/// grouped by source node, and one flat array of dropped speculation
/// edges grouped by the later op. All edges run forward in work-list
/// order.
#[derive(Clone, Debug)]
pub struct Dag {
    /// `succ_start[k]..succ_start[k + 1]` indexes node `k`'s hard
    /// successor edges in `succs`.
    succ_start: Vec<u32>,
    /// `(succ, delay)` hard edges, grouped by source node.
    succs: Vec<(u32, u32)>,
    /// Hard predecessor edges per node, counted with multiplicity (a node
    /// can reach another through several dependences).
    pred_count: Vec<u32>,
    /// `spec_start[k]..spec_start[k + 1]` indexes node `k`'s entries in
    /// `spec`.
    spec_start: Vec<u32>,
    /// Earlier memory operations each op was allowed to speculate across
    /// (dropped may-alias edges), grouped by the later op.
    spec: Vec<u32>,
    /// Critical-path priority (longest latency chain to a sink).
    pub priority: Vec<u64>,
}

impl Dag {
    /// `(succ, delay)` of node `k`'s hard successor edges.
    pub fn succs(&self, k: usize) -> impl ExactSizeIterator<Item = (usize, u64)> + '_ {
        let span = self.succ_start[k] as usize..self.succ_start[k + 1] as usize;
        self.succs[span]
            .iter()
            .map(|&(s, d)| (s as usize, u64::from(d)))
    }

    /// The number of node `k`'s hard predecessor edges.
    pub fn hard_pred_count(&self, k: usize) -> u32 {
        self.pred_count[k]
    }

    /// The earlier memory operations node `k` was allowed to speculate
    /// across (dropped may-alias edges), in the order the dependence graph
    /// lists them; re-imposed while the allocator is in non-speculation
    /// mode.
    pub fn spec_before(&self, k: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        let span = self.spec_start[k] as usize..self.spec_start[k + 1] as usize;
        self.spec[span].iter().map(|&a| a as usize)
    }
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
/// [`MemOpId`](smarq::MemOpId)s to superblock ops): the work list's memory ops are
/// exactly the spec's live ops, and the graph's plain edges are exactly
/// the forward pairs of them that may alias, or touch an unspeculatable
/// op, with at least one store. So the scheduler and the alias register
/// allocator consume one memory-dependence walk. An edge is a speculation
/// candidate when the region's [`PairPolicy`] says
/// [`Verdict::Speculate`] and the hardware policy can check the
/// reordering; every other edge is hard.
///
/// An op the policy pins ([`PairPolicy::pinned_op`]) keeps order against
/// every memory op, including the load/load pairs that carry no
/// dependence, so tainted accesses execute in exact program order
/// (MMIO-style side effects make even re-ordered reads unsafe) and never
/// need alias-register bits.
///
/// The DAG's arrays come from `scratch` (hand the DAG back with
/// [`DagScratch::recycle_dag`]).
pub fn build_dag(
    work: &WorkList,
    deps: &DepGraph,
    map: &RegionMap,
    pairs: &PairPolicy,
    config: &OptConfig,
    machine: &MachineConfig,
    scratch: &mut DagScratch,
) -> Dag {
    let n = work.ops.len();
    let mut dag = scratch.dag.take().unwrap_or_else(|| Dag {
        succ_start: Vec::new(),
        succs: Vec::new(),
        pred_count: Vec::new(),
        spec_start: Vec::new(),
        spec: Vec::new(),
        priority: Vec::new(),
    });
    let DagScratch {
        edges,
        use_pool,
        node,
        loads,
        alat_advanced,
        spec_edges: spec,
        ..
    } = scratch;
    // `(src, (dst, delay))` hard edges in the order they are found.
    edges.clear();
    let pred_count = &mut dag.pred_count;
    pred_count.clear();
    pred_count.resize(n, 0);
    let mut add = |src: usize, dst: usize, delay: u64| {
        debug_assert!(src < dst, "edges must run forward");
        edges.push((src as u32, (dst as u32, delay as u32)));
        pred_count[dst] += 1;
    };

    // Register dependences. The reads of each register since its last
    // definition form one chain through `use_pool` (`(reader, next)`,
    // newest first): a definition draws a WAR edge from every reader on
    // its register's chain and then empties the chain.
    const NIL: u32 = u32::MAX;
    let mut last_def: [[Option<usize>; 64]; 2] = [[None; 64]; 2];
    let mut use_head = [[NIL; 64]; 2];
    use_pool.clear();
    // Exit barriers.
    let mut last_barrier: Option<usize> = None;

    for k in 0..n {
        let op = &work.ops[k];
        for (file, uses) in [(0, op.int_uses()), (1, op.fp_uses())] {
            for r in uses {
                let r = r as usize;
                if let Some(d) = last_def[file][r] {
                    add(d, k, op_latency(&work.ops[d], machine));
                }
                use_pool.push((k as u32, use_head[file][r]));
                use_head[file][r] = use_pool.len() as u32 - 1;
            }
        }
        for (file, def) in [(0, op.int_def()), (1, op.fp_def())] {
            let Some(r) = def else { continue };
            let r = r as usize;
            let mut u = use_head[file][r];
            while u != NIL {
                let (reader, next) = use_pool[u as usize];
                if reader as usize != k {
                    add(reader as usize, k, 0); // WAR
                }
                u = next;
            }
            if let Some(d) = last_def[file][r] {
                add(d, k, 0); // WAW
            }
            last_def[file][r] = Some(k);
            use_head[file][r] = NIL;
        }

        if let Some(b) = last_barrier {
            add(b, k, 0);
        }
        if op.is_exit() {
            // Every op since the previous exit is a non-exit.
            for p in last_barrier.map_or(0, |b| b + 1)..k {
                add(p, k, 0);
            }
            last_barrier = Some(k);
        }
    }

    // Memory dependences. `node[id]` is the work index of memory op `id`.
    node.clear();
    node.resize(map.len(), usize::MAX);
    loads.clear();
    for (k, op) in work.ops.iter().enumerate() {
        if op.is_mem() {
            let id = map.mem_id(work.orig[k]).expect("memory op has a region id");
            node[id.index()] = k;
            if !op.is_store() {
                loads.push(k);
            }
        }
    }
    let pinned = |k: usize| pairs.pinned_op(work.orig[k]);
    let verdict = |a: usize, b: usize| pairs.verdict(work.orig[a], work.orig[b]);

    // The ALAT has a bounded entry file (32 on real Itanium): only the
    // first ALAT_CAPACITY loads that could benefit become advanced loads;
    // the rest keep their hard edges.
    const ALAT_CAPACITY: usize = 32;
    alat_advanced.clear();
    alat_advanced.resize(n, false);
    if config.hw == HwKind::Alat {
        let mut count = 0usize;
        for &l in loads.iter() {
            if pinned(l) {
                continue; // pinned loads never advance
            }
            let id = map.mem_id(work.orig[l]).expect("memory op has a region id");
            let wants = deps
                .deps_into(id)
                .filter(|d| d.kind == DepKind::Plain)
                .map(|d| node[d.src.index()])
                .any(|s| work.ops[s].is_store() && verdict(s, l).relation() == AliasRel::May);
            if wants && count < ALAT_CAPACITY {
                alat_advanced[l] = true;
                count += 1;
            }
        }
    }
    // `(later, earlier)` dropped may-alias edges.
    spec.clear();
    for d in deps.iter().filter(|d| d.kind == DepKind::Plain) {
        let (a, b) = (node[d.src.index()], node[d.dst.index()]);
        // A pinned op's dependences include disjoint and must-alias pairs;
        // those stay hard like every verdict but `Speculate`.
        let speculate = verdict(a, b) == Verdict::Speculate
            && (config.hw != HwKind::Alat || alat_advanced[b])
            && droppable(&work.ops[a], &work.ops[b], config);
        if speculate {
            spec.push((b as u32, a as u32));
        } else {
            add(a, b, 0);
        }
    }
    // Unspeculatable dependences need a store, but a pinned load keeps
    // program order against every other load too.
    for &t in loads.iter().filter(|&&l| pinned(l)) {
        for &b in loads.iter() {
            if b != t && !(pinned(b) && b < t) {
                add(t.min(b), t.max(b), 0);
            }
        }
    }

    group_by_key(n, edges, &mut dag.succ_start, &mut dag.succs);
    group_by_key(n, spec, &mut dag.spec_start, &mut dag.spec);
    dag.priority.clear();
    dag.priority.resize(n, 0);
    // Critical-path priorities over hard edges (edges run forward, so a
    // reverse index sweep is a reverse-topological traversal).
    for k in (0..n).rev() {
        let own = op_latency(&work.ops[k], machine);
        let best_succ = dag
            .succs(k)
            .map(|(s, d)| dag.priority[s] + d)
            .max()
            .unwrap_or(0);
        dag.priority[k] = own + best_succ;
    }
    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blacklist::AliasBlacklist;
    use smarq_guest::BlockId;
    use smarq_ir::{AliasAnalysis, IrExit, OpOrigin};

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

    fn no_elims(sb: &Superblock) -> Eliminations {
        Eliminations {
            replaced: vec![None; sb.ops.len()],
            removed: vec![false; sb.ops.len()],
            spec_load_elims: 0,
            spec_store_elims: 0,
            nonspec_elims: 0,
        }
    }

    /// Builds the DAG the way the optimizer does: the pair policy, the
    /// region spec (the policy's pinned ops are unspeculatable), its
    /// dependence graph, then `build_dag` reading the memory edges off
    /// that graph.
    fn dag_with(
        sb: &Superblock,
        config: &OptConfig,
        blacklist: &AliasBlacklist,
        taint: &[bool],
    ) -> (WorkList, Dag) {
        let analysis = AliasAnalysis::new(sb);
        let pairs = PairPolicy::new(sb, &analysis, taint, blacklist, config.hw);
        let (mut spec, map) = smarq_ir::build_region_spec(sb, &analysis);
        for i in (0..sb.ops.len()).filter(|&i| pairs.pinned_op(i)) {
            if let Some(id) = map.mem_id(i) {
                spec.set_nospec(id);
            }
        }
        let deps = DepGraph::compute(&spec);
        let work = build_work_list(sb, &no_elims(sb), &mut Default::default());
        let dag = build_dag(
            &work,
            &deps,
            &map,
            &pairs,
            config,
            &MachineConfig::default(),
            &mut Default::default(),
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
        dag.succs(a).any(|(s, _)| s == b)
    }

    fn spec_before(dag: &Dag, k: usize) -> Vec<usize> {
        dag.spec_before(k).collect()
    }

    fn no_spec_edges(dag: &Dag) -> bool {
        (0..dag.priority.len()).all(|k| dag.spec_before(k).len() == 0)
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
        assert_eq!(spec_before(&d, 1), vec![0]);
        assert!(spec_before(&d, 2).contains(&0));

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
        assert!(spec_before(&dag, 1).is_empty());
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
        let work = build_work_list(&sb, &elims, &mut Default::default());
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
        assert!(spec_before(&dag, 1).is_empty());
        assert!(!spec_before(&dag, 2).contains(&1));
        // The untainted may-alias pair (0, 2) still speculates.
        assert!(!has_edge(&dag, 0, 2));
        assert!(spec_before(&dag, 2).contains(&0));
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
        assert_eq!(spec_before(&dag, 2), vec![0]);
        // The ALAT cannot check selectively: a member never advances.
        let (_, dag) = dag_with(&sb, &OptConfig::alat(), &bl, &taint);
        assert!(has_edge(&dag, 0, 1));
        assert!(has_edge(&dag, 0, 2));
        assert!(no_spec_edges(&dag));
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
            assert!(no_spec_edges(&dag));
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
            assert_eq!(spec_before(&dag, l), vec![0]);
        }
        assert!(has_edge(&dag, 0, 33), "the 33rd load keeps its edge");
    }

    /// `(earlier, later)` work-index pairs.
    type Edges = Vec<(usize, usize)>;

    /// The memory edges as the all-pairs walk over the work list derives
    /// them, straight from the five sources the pair policy reads (the
    /// alias analysis, the taint, the blacklist's pairs and members, and
    /// the profiled pairs): `(hard, speculated)` pairs.
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
                        // A profiled pair pins itself, but its ops still
                        // advance under the ALAT.
                        let pinned = blacklist.contains(origin(a), origin(b))
                            || sb.profiled_alias(origin(a), origin(b))
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
            let mut sb = mk_sb(ops);
            // Half the seeds repeat origins, as an unrolled region does.
            if rng.chance(1, 2) {
                let period = rng.range_usize(1, n + 1);
                for k in period..n {
                    sb.origins[k] = sb.origins[k % period];
                }
            }
            for _ in 0..rng.range_usize(0, 4) {
                let (a, b) = (rng.range_usize(0, n), rng.range_usize(0, n));
                let (x, y) = (sb.origins[a], sb.origins[b]);
                sb.profiled_aliases.push((x.min(y), x.max(y)));
            }
            sb.profiled_aliases.sort_unstable();
            sb.profiled_aliases.dedup();
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
                    .flat_map(|a| dag.succs(a).map(move |(b, _)| (a, b)))
                    .filter(|&(_, b)| work.ops[b].is_mem())
                    .collect();
                hard.sort_unstable();
                let mut spec: Edges = (0..work.ops.len())
                    .flat_map(|b| dag.spec_before(b).map(move |a| (a, b)))
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
