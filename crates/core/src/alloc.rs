//! The SMARQ alias register allocation algorithm (paper §5, Figure 13).
//!
//! The allocator is driven *incrementally* by the list scheduler: every time
//! the scheduler commits a memory operation to the schedule it calls
//! [`Allocator::schedule_op`]. The allocator then
//!
//! 1. walks every dependence `X →dep Y` ending at the newly scheduled `Y`
//!    and turns it into a **check-constraint** (if `X` is still unscheduled
//!    — `Y` was hoisted above `X`) or an **anti-constraint** candidate (if
//!    `X` is already scheduled);
//! 2. maintains the partial order `T(·)` whose invariant — `T(src) <
//!    T(dst)` for every constraint edge — keeps the constraint graph
//!    acyclic. Check edges are repaired by lowering `T` of the (still
//!    unscheduled, hence unconstrained) checker; anti edges may require a
//!    reachability scan and, on a true cycle, the insertion of an **AMOV**
//!    instruction that relocates the producer's access range into a fresh,
//!    earlier-ordered register (paper §5.2);
//! 3. performs the delayed FIFO allocation of register *orders*: an
//!    operation's register is assigned only once every operation that must
//!    receive a no-later register has been assigned one, i.e. when the
//!    operation loses its last incoming constraint edge. Registers are
//!    released eagerly by emitting **rotate** instructions after the
//!    instruction whose scheduling completed the allocations;
//! 4. estimates the worst-case future register *offset* so the scheduler
//!    can switch into non-speculation mode before the file overflows
//!    (paper §5.3).
//!
//! The result is an [`Allocation`]: per-op P/C bits and offsets, AMOV and
//! rotate pseudo-instructions, working-set statistics, and the final
//! (post-AMOV) check pairs.

use crate::deps::DepGraph;
use crate::error::AllocError;
use crate::ids::{MemOpId, Offset, Order};
use crate::region::RegionSpec;
use std::collections::VecDeque;

/// Scheduling mode reported to the embedding list scheduler (paper §5.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedulerMode {
    /// Enough registers: the scheduler may speculatively reorder memory
    /// operations (creating new constraints).
    Speculation,
    /// Register pressure is close to the hardware limit: the scheduler must
    /// stop speculating (no new reordering) so rotation can drain the file.
    NonSpeculation,
}

/// Per-operation allocation result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpAlias {
    /// The operation sets an alias register (`P` bit).
    pub p_bit: bool,
    /// The operation checks alias registers (`C` bit).
    pub c_bit: bool,
    /// Register order (`base + offset`), counted from region entry.
    pub order: Order,
    /// `BASE` value at the operation's execution point.
    pub base: Order,
    /// Register offset encoded in the instruction.
    pub offset: Offset,
}

/// An `AMOV` pseudo-instruction to be emitted into the optimized code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AmovInsn {
    /// The operation whose access range is being relocated (or cleaned).
    pub moved_op: MemOpId,
    /// Source register offset (relative to `BASE` at the AMOV's position).
    pub src_offset: Offset,
    /// Destination register offset. Equal to `src_offset` for the pure
    /// clean-up form.
    pub dst_offset: Offset,
    /// `true` when the AMOV actually relocates the range to a new register
    /// (unscheduled checkers still need it); `false` for pure clean-up.
    pub is_move: bool,
}

/// A `rotate` pseudo-instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RotateInsn {
    /// How far `BASE` advances.
    pub amount: u32,
}

/// One element of the emitted alias-annotation stream, in execution order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AliasCode {
    /// A scheduled memory operation with its annotations. `offset` is
    /// `None` when the op needs no alias register (neither P nor C).
    Op {
        /// The memory operation.
        id: MemOpId,
        /// Set an alias register after executing.
        p_bit: bool,
        /// Check alias registers before executing (and before setting).
        c_bit: bool,
        /// Encoded register offset (present iff `p_bit || c_bit`).
        offset: Option<Offset>,
    },
    /// An alias-move instruction.
    Amov(AmovInsn),
    /// A rotation of the register queue.
    Rotate(RotateInsn),
}

/// Aggregate statistics of one allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AllocStats {
    /// Check-constraints inserted (paper Figure 19, first series).
    pub checks: usize,
    /// Anti-constraints inserted (paper Figure 19, second series).
    pub antis: usize,
    /// AMOV instructions inserted.
    pub amovs: usize,
    /// AMOVs that truly move to a new register (the rest are clean-ups).
    pub amov_moves: usize,
    /// Rotate instructions emitted.
    pub rotations: usize,
    /// Scheduled memory operations.
    pub mem_ops: usize,
    /// Operations carrying a P bit.
    pub p_ops: usize,
    /// Operations carrying a C bit.
    pub c_ops: usize,
}

/// A finished allocation. Produced by [`Allocator::finish`] or [`allocate`].
#[derive(Clone, Debug)]
pub struct Allocation {
    per_op: Vec<Option<OpAlias>>,
    code: Vec<AliasCode>,
    working_set: u32,
    stats: AllocStats,
    /// Final (post-AMOV-replacement) check pairs `(checker, checkee)` where
    /// the checkee may be represented by an AMOV proxy of `moved_op`.
    final_checks: Vec<(MemOpId, MemOpId)>,
}

impl Allocation {
    /// Assembles an allocation from raw parts. Used by the baseline
    /// allocators and, externally, by validator tests that need to build
    /// deliberately tampered allocations the real allocator would never
    /// emit.
    pub fn from_parts(
        per_op: Vec<Option<OpAlias>>,
        code: Vec<AliasCode>,
        working_set: u32,
        stats: AllocStats,
        final_checks: Vec<(MemOpId, MemOpId)>,
    ) -> Self {
        Allocation {
            per_op,
            code,
            working_set,
            stats,
            final_checks,
        }
    }

    /// Alias annotations for operation `id`, or `None` if the op needed no
    /// alias register (or was eliminated).
    pub fn op(&self, id: MemOpId) -> Option<&OpAlias> {
        self.per_op.get(id.index()).and_then(|o| o.as_ref())
    }

    /// The emitted alias-annotation stream, in execution order.
    pub fn code(&self) -> &[AliasCode] {
        &self.code
    }

    /// Size of the alias register working set: `max offset + 1` over every
    /// register reference in the code (paper §6.2). This is the minimum
    /// hardware register count that runs the region without overflow.
    pub fn working_set(&self) -> u32 {
        self.working_set
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Final check pairs `(checker, checkee)` the hardware will perform,
    /// after AMOV rewriting (the checkee's range may physically live in an
    /// AMOV destination register).
    pub fn final_checks(&self) -> &[(MemOpId, MemOpId)] {
        &self.final_checks
    }
}

/// Internal node: a real memory op or an AMOV proxy.
#[derive(Clone, Copy, Debug)]
enum NodeKind {
    Op(MemOpId),
    /// AMOV proxy holding the range of `moved`.
    Amov {
        moved: MemOpId,
    },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EdgeKind {
    Check,
    Anti,
}

#[derive(Clone, Copy, Debug)]
struct Edge {
    dst: usize,
    kind: EdgeKind,
}

/// Scheduled event stream (before rotation interleaving).
#[derive(Clone, Copy, Debug)]
enum Event {
    Op(MemOpId),
    Amov(usize),
}

#[derive(Clone, Debug)]
struct AmovRec {
    moved: MemOpId,
    /// Node whose register is the AMOV source (the previous holder).
    src_node: usize,
    /// Node of the AMOV itself (destination register), if it is a move.
    self_node: usize,
    is_move: bool,
    /// `BASE` at the AMOV's execution point.
    base: u64,
}

/// Reusable scratch buffers for the [`Allocator`].
///
/// A dynamic optimizer translates thousands of regions back to back; the
/// allocator's working vectors (per-node flag arrays, the constraint edge
/// lists, the event stream) can be recycled between regions instead of
/// being reallocated each time. Create one scratch per translation thread,
/// pass it to [`Allocator::with_scratch`], and get it back from
/// [`Allocator::finish_reclaim`]:
///
/// ```
/// use smarq::{AllocScratch, Allocator, DepGraph, MemKind, RegionSpec};
/// let mut scratch = AllocScratch::new();
/// for _ in 0..3 {
///     let mut r = RegionSpec::new();
///     let st = r.push(MemKind::Store, 0);
///     let ld = r.push(MemKind::Load, 0);
///     let deps = DepGraph::compute(&r);
///     let mut a = Allocator::with_scratch(&r, &deps, 64, scratch);
///     a.schedule_op(ld)?;
///     a.schedule_op(st)?;
///     let (alloc, s) = a.finish_reclaim()?;
///     scratch = s;
///     assert_eq!(alloc.working_set(), 1);
/// }
/// # Ok::<(), smarq::AllocError>(())
/// ```
///
/// The buffers are an implementation detail: a scratch carries no state
/// between runs other than capacity, so allocations produced with a reused
/// scratch are bit-identical to fresh ones.
#[derive(Clone, Debug, Default)]
pub struct AllocScratch {
    t: Vec<i64>,
    scheduled: Vec<bool>,
    p: Vec<bool>,
    c: Vec<bool>,
    base: Vec<Option<u64>>,
    order: Vec<Option<u64>>,
    offset: Vec<Option<u32>>,
    out_edges: Vec<Vec<Edge>>,
    in_deg: Vec<u32>,
    pending: Vec<bool>,
    ready: VecDeque<usize>,
    holder: Vec<usize>,
    nodes: Vec<NodeKind>,
    events: Vec<Event>,
    rotations: Vec<(usize, u32)>,
    amovs: Vec<AmovRec>,
    checks_log: Vec<(usize, usize)>,
    ext_p_candidate: Vec<bool>,
}

fn reset_fill<T: Clone>(v: &mut Vec<T>, n: usize, val: T) {
    v.clear();
    v.resize(n, val);
}

impl AllocScratch {
    /// Creates an empty scratch (no capacity reserved yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears every buffer and sizes the per-node arrays for an `n`-op
    /// region, retaining capacity from previous runs.
    fn reset(&mut self, n: usize) {
        self.t.clear();
        self.t.extend(0..n as i64);
        reset_fill(&mut self.scheduled, n, false);
        reset_fill(&mut self.p, n, false);
        reset_fill(&mut self.c, n, false);
        reset_fill(&mut self.base, n, None);
        reset_fill(&mut self.order, n, None);
        reset_fill(&mut self.offset, n, None);
        for v in &mut self.out_edges {
            v.clear();
        }
        self.out_edges.resize_with(n, Vec::new);
        reset_fill(&mut self.in_deg, n, 0);
        reset_fill(&mut self.pending, n, false);
        self.ready.clear();
        self.holder.clear();
        self.holder.extend(0..n);
        self.nodes.clear();
        self.nodes
            .extend((0..n).map(|i| NodeKind::Op(MemOpId::new(i))));
        self.events.clear();
        self.rotations.clear();
        self.amovs.clear();
        self.checks_log.clear();
        reset_fill(&mut self.ext_p_candidate, n, false);
    }
}

/// The incremental SMARQ allocator. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Allocator<'a> {
    region: &'a RegionSpec,
    deps: &'a DepGraph,
    num_regs: u32,

    nodes: Vec<NodeKind>,
    t: Vec<i64>,
    scheduled: Vec<bool>,
    p: Vec<bool>,
    c: Vec<bool>,
    base: Vec<Option<u64>>,
    order: Vec<Option<u64>>,
    offset: Vec<Option<u32>>,
    out_edges: Vec<Vec<Edge>>,
    in_deg: Vec<u32>,
    /// Node needs a register and has not been assigned one yet.
    pending: Vec<bool>,
    ready: VecDeque<usize>,

    /// Current register holding each op's access range (op node itself, or
    /// the latest AMOV proxy).
    holder: Vec<usize>,

    next_order: u64,
    events: Vec<Event>,
    /// `(event index, amount)` — rotation emitted after that event.
    rotations: Vec<(usize, u32)>,
    amovs: Vec<AmovRec>,
    /// Final check pairs as (checker node, checkee node).
    checks_log: Vec<(usize, usize)>,

    stats: AllocStats,
    /// Ops that will need a P bit even without reordering (extended deps),
    /// used by the overflow estimate.
    ext_p_candidate: Vec<bool>,
    unscheduled_ext_p: usize,
    scheduled_count: usize,
}

impl<'a> Allocator<'a> {
    /// Creates an allocator for a region with `num_regs` hardware alias
    /// registers.
    pub fn new(region: &'a RegionSpec, deps: &'a DepGraph, num_regs: u32) -> Self {
        Self::with_scratch(region, deps, num_regs, AllocScratch::new())
    }

    /// Like [`Allocator::new`], but recycles the buffers of `scratch`
    /// (reclaim them afterwards with [`Allocator::finish_reclaim`]).
    pub fn with_scratch(
        region: &'a RegionSpec,
        deps: &'a DepGraph,
        num_regs: u32,
        mut scratch: AllocScratch,
    ) -> Self {
        let n = region.len();
        scratch.reset(n);
        // EXTENDED deps run backward (src originally after dst); their dst
        // will carry a P bit even in a program-order schedule.
        for d in deps.iter() {
            if d.src > d.dst {
                scratch.ext_p_candidate[d.dst.index()] = true;
            }
        }
        let unscheduled_ext_p = scratch
            .ext_p_candidate
            .iter()
            .enumerate()
            .filter(|&(i, &f)| f && !region.is_eliminated(MemOpId::new(i)))
            .count();
        Allocator {
            region,
            deps,
            num_regs,
            t: scratch.t,
            scheduled: scratch.scheduled,
            p: scratch.p,
            c: scratch.c,
            base: scratch.base,
            order: scratch.order,
            offset: scratch.offset,
            out_edges: scratch.out_edges,
            in_deg: scratch.in_deg,
            pending: scratch.pending,
            ready: scratch.ready,
            holder: scratch.holder,
            nodes: scratch.nodes,
            next_order: 0,
            events: scratch.events,
            rotations: scratch.rotations,
            amovs: scratch.amovs,
            checks_log: scratch.checks_log,
            stats: AllocStats::default(),
            ext_p_candidate: scratch.ext_p_candidate,
            unscheduled_ext_p,
            scheduled_count: 0,
        }
    }

    /// The hardware alias register count this allocator targets.
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }

    fn add_node(&mut self, kind: NodeKind) -> usize {
        let id = self.nodes.len();
        self.nodes.push(kind);
        self.t.push(0);
        self.scheduled.push(true);
        self.p.push(false);
        self.c.push(false);
        self.base.push(None);
        self.order.push(None);
        self.offset.push(None);
        self.out_edges.push(Vec::new());
        self.in_deg.push(0);
        self.pending.push(false);
        self.holder.push(id);
        id
    }

    fn add_edge(&mut self, src: usize, dst: usize, kind: EdgeKind) {
        self.out_edges[src].push(Edge { dst, kind });
        self.in_deg[dst] += 1;
        if kind == EdgeKind::Check {
            self.checks_log.push((src, dst));
        }
    }

    fn has_edge(&self, src: usize, dst: usize, kind: EdgeKind) -> bool {
        self.out_edges[src]
            .iter()
            .any(|e| e.dst == dst && e.kind == kind)
    }

    /// Nodes forward-reachable from `start` (including `start`).
    fn reachable(&self, start: usize) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(u) = stack.pop() {
            for e in &self.out_edges[u] {
                if !seen[e.dst] {
                    seen[e.dst] = true;
                    stack.push(e.dst);
                }
            }
        }
        seen
    }

    /// Feeds the next scheduled memory operation (paper Fig. 13 main loop).
    ///
    /// Call this in final schedule order for every surviving memory op.
    ///
    /// # Errors
    /// * [`AllocError::BadSchedule`] for eliminated/duplicate ops.
    /// * [`AllocError::Overflow`] when an offset exceeds the register file
    ///   (only possible when the driver ignores [`Allocator::mode`]).
    pub fn schedule_op(&mut self, y: MemOpId) -> Result<(), AllocError> {
        let yn = y.index();
        if yn >= self.region.len() {
            return Err(AllocError::BadSchedule {
                op: y,
                reason: "op out of range for region",
            });
        }
        if self.region.is_eliminated(y) {
            return Err(AllocError::BadSchedule {
                op: y,
                reason: "eliminated op cannot be scheduled",
            });
        }
        if self.scheduled[yn] {
            return Err(AllocError::BadSchedule {
                op: y,
                reason: "op scheduled twice",
            });
        }
        self.scheduled[yn] = true;
        self.scheduled_count += 1;
        if self.ext_p_candidate[yn] {
            self.unscheduled_ext_p -= 1;
        }

        // Walk dependences X ->dep Y.
        let deps = self.deps;
        for d in deps.deps_into(y) {
            let x = d.src;
            let xn = x.index();
            if self.region.is_eliminated(x) {
                continue;
            }
            if !self.scheduled[xn] {
                // CHECK-CONSTRAINT: Y was scheduled above X; X will check Y.
                self.c[xn] = true;
                self.p[yn] = true;
                self.add_edge(xn, yn, EdgeKind::Check);
                self.stats.checks += 1;
                if self.t[xn] >= self.t[yn] {
                    // X is unscheduled: it has no incoming edges, so
                    // lowering T(X) cannot break the invariant elsewhere.
                    self.t[xn] = self.t[yn] - 1;
                }
            } else {
                // ANTI-CONSTRAINT candidate: X executes before Y; if Y's
                // hardware scan could reach the register holding X's range,
                // a genuine alias would raise a *false positive* exception.
                if crate::fault::drop_anti_enabled() {
                    // Injected fault: behave as if §4.2 were never
                    // implemented. See `fault::set_drop_anti`.
                    continue;
                }
                let h = self.holder[xn];
                if self.offset[h].is_some() {
                    // X's register is already released before Y executes.
                    continue;
                }
                if !self.p[h] || !self.c[yn] {
                    continue;
                }
                if self.has_edge(yn, h, EdgeKind::Check) {
                    // Y is *required* to check X; cannot prohibit it.
                    continue;
                }
                if self.has_edge(h, yn, EdgeKind::Anti) {
                    continue; // already constrained
                }
                self.stats.antis += 1;
                if self.t[h] < self.t[yn] {
                    self.add_edge(h, yn, EdgeKind::Anti);
                } else {
                    self.resolve_anti_violation(x, h, yn);
                }
            }
        }

        self.events.push(Event::Op(y));
        self.stats.mem_ops += 1;
        if self.p[yn] || self.c[yn] {
            self.allocate_reg(yn)?;
        }
        Ok(())
    }

    /// Handles an anti-constraint `holder(x) -> y` that violates the `T`
    /// invariant: either shift `y`'s component up (no cycle) or break the
    /// cycle with an AMOV (paper §5.2, Fig. 13 `detect_cycle`).
    fn resolve_anti_violation(&mut self, x: MemOpId, h: usize, yn: usize) {
        let delta = self.t[h] - (self.t[yn] - 1);
        let reach = self.reachable(yn);
        if !reach[h] {
            // No cycle: raise T over Y's forward component so T(h) < T(y).
            for (z, &in_set) in reach.iter().enumerate() {
                if in_set {
                    self.t[z] += delta;
                }
            }
            self.add_edge(h, yn, EdgeKind::Anti);
            return;
        }

        // Cycle: insert AMOV X' just before Y. The AMOV clears (and, if
        // still-unscheduled checkers need X's range, relocates) the
        // register holding X's range, so Y can no longer falsely check it.
        let amov_idx = self.amovs.len();
        let xp = self.add_node(NodeKind::Amov { moved: x });

        // Move every check edge whose (unscheduled) checker still needs X's
        // range: Z ->check h becomes Z ->check X'.
        let mut moved_any = false;
        let checkers: Vec<usize> = (0..xp)
            .filter(|&z| !self.scheduled[z] && self.has_edge(z, h, EdgeKind::Check))
            .collect();
        for z in checkers {
            for e in &mut self.out_edges[z] {
                if e.dst == h && e.kind == EdgeKind::Check {
                    e.dst = xp;
                }
            }
            for cl in &mut self.checks_log {
                if cl.0 == z && cl.1 == h {
                    cl.1 = xp;
                }
            }
            self.in_deg[h] -= 1;
            self.in_deg[xp] += 1;
            moved_any = true;
            // Keep the invariant for the re-targeted edge.
            if self.t[z] >= self.t[yn] - 1 {
                self.t[z] = self.t[yn] - 2;
            }
        }

        if moved_any {
            self.p[xp] = true;
            self.t[xp] = self.t[yn] - 1;
            self.add_edge(xp, yn, EdgeKind::Anti);
            self.base[xp] = Some(self.next_order);
            self.pending[xp] = true;
            // If relocation emptied h's incoming edges, it becomes ready.
            if self.in_deg[h] == 0 && self.pending[h] {
                self.ready.push_back(h);
            }
        }
        // Otherwise: pure clean-up AMOV, no register, no node bookkeeping.

        self.amovs.push(AmovRec {
            moved: x,
            src_node: h,
            self_node: xp,
            is_move: moved_any,
            base: self.next_order,
        });
        self.events.push(Event::Amov(amov_idx));
        self.stats.amovs += 1;
        if moved_any {
            self.stats.amov_moves += 1;
        }
        // The range now lives in X' (or nowhere); future anti logic must
        // look at the new holder.
        self.holder[x.index()] = xp;
    }

    /// Delayed FIFO register allocation (paper Fig. 13 `allocate_reg`).
    fn allocate_reg(&mut self, yn: usize) -> Result<(), AllocError> {
        self.base[yn] = Some(self.next_order);
        self.pending[yn] = true;
        if self.in_deg[yn] == 0 {
            self.ready.push_back(yn);
        }
        let before = self.next_order;
        while let Some(xn) = self.ready.pop_front() {
            debug_assert!(self.pending[xn] && self.in_deg[xn] == 0);
            let ord = self.next_order;
            self.order[xn] = Some(ord);
            let off = ord - self.base[xn].expect("pending node has base");
            if off >= self.num_regs as u64 {
                return Err(AllocError::Overflow {
                    offset: off as u32,
                    num_regs: self.num_regs,
                });
            }
            self.offset[xn] = Some(off as u32);
            if self.p[xn] {
                self.next_order += 1;
            }
            self.pending[xn] = false;
            // Index loop (edges are Copy) instead of mem::take so the edge
            // list keeps its capacity for scratch reuse.
            for k in 0..self.out_edges[xn].len() {
                let e = self.out_edges[xn][k];
                self.in_deg[e.dst] -= 1;
                if self.in_deg[e.dst] == 0 && self.pending[e.dst] {
                    self.ready.push_back(e.dst);
                }
            }
            self.out_edges[xn].clear();
        }
        if self.next_order > before {
            let amount = (self.next_order - before) as u32;
            self.rotations.push((self.events.len() - 1, amount));
            self.stats.rotations += 1;
        }
        Ok(())
    }

    /// Overflow estimate and resulting scheduler mode (paper §5.3).
    ///
    /// Returns [`SchedulerMode::NonSpeculation`] when the conservatively
    /// estimated maximum future offset would reach the hardware register
    /// count.
    pub fn mode(&self) -> SchedulerMode {
        let mut min_base = self.next_order;
        let mut pending_p = 0u64;
        for i in 0..self.nodes.len() {
            if self.pending[i] {
                if let Some(b) = self.base[i] {
                    min_base = min_base.min(b);
                }
                if self.p[i] {
                    pending_p += 1;
                }
            }
        }
        let max_order = self.next_order + pending_p + self.unscheduled_ext_p as u64;
        let max_offset = max_order.saturating_sub(min_base);
        if max_offset >= self.num_regs as u64 {
            SchedulerMode::NonSpeculation
        } else {
            SchedulerMode::Speculation
        }
    }

    /// Finalizes the allocation after every surviving memory operation has
    /// been fed through [`Allocator::schedule_op`].
    ///
    /// # Errors
    /// * [`AllocError::BadSchedule`] if surviving ops are missing.
    /// * [`AllocError::UnresolvedConstraints`] on an unbroken constraint
    ///   cycle (a bug if it ever fires — AMOVs break all cycles).
    /// * [`AllocError::Overflow`] if a final offset exceeds the file.
    pub fn finish(self) -> Result<Allocation, AllocError> {
        self.finish_reclaim().map(|(alloc, _)| alloc)
    }

    /// Like [`Allocator::finish`], but also hands back the scratch buffers
    /// so the next region's allocator can recycle their capacity.
    ///
    /// # Errors
    /// Same as [`Allocator::finish`] (the scratch is dropped on error).
    pub fn finish_reclaim(mut self) -> Result<(Allocation, AllocScratch), AllocError> {
        for (id, _) in self.region.iter() {
            if !self.region.is_eliminated(id) && !self.scheduled[id.index()] {
                return Err(AllocError::BadSchedule {
                    op: id,
                    reason: "surviving op never scheduled",
                });
            }
        }
        // Final drain: allocate anything still pending (its last checker
        // was the final instruction, or the region ended).
        for i in 0..self.nodes.len() {
            if self.pending[i] && self.in_deg[i] == 0 && !self.ready.contains(&i) {
                self.ready.push_back(i);
            }
        }
        while let Some(xn) = self.ready.pop_front() {
            if !self.pending[xn] {
                continue;
            }
            let ord = self.next_order;
            self.order[xn] = Some(ord);
            let off = ord - self.base[xn].expect("pending node has base");
            if off >= self.num_regs as u64 {
                return Err(AllocError::Overflow {
                    offset: off as u32,
                    num_regs: self.num_regs,
                });
            }
            self.offset[xn] = Some(off as u32);
            if self.p[xn] {
                self.next_order += 1;
            }
            self.pending[xn] = false;
            for k in 0..self.out_edges[xn].len() {
                let e = self.out_edges[xn][k];
                self.in_deg[e.dst] -= 1;
                if self.in_deg[e.dst] == 0 && self.pending[e.dst] {
                    self.ready.push_back(e.dst);
                }
            }
            self.out_edges[xn].clear();
        }
        if let Some(stuck) = (0..self.nodes.len()).find(|&i| self.pending[i]) {
            let op = match self.nodes[stuck] {
                NodeKind::Op(id) => id,
                NodeKind::Amov { moved, .. } => moved,
            };
            return Err(AllocError::UnresolvedConstraints { op });
        }

        self.build_allocation()
    }

    fn build_allocation(self) -> Result<(Allocation, AllocScratch), AllocError> {
        let mut per_op = vec![None; self.region.len()];
        let mut working_set = 0u32;
        let mut stats = self.stats;
        for (i, slot) in per_op.iter_mut().enumerate() {
            if let (Some(order), Some(base), Some(offset)) =
                (self.order[i], self.base[i], self.offset[i])
            {
                debug_assert_eq!(order, base + offset as u64, "order = base + offset");
                *slot = Some(OpAlias {
                    p_bit: self.p[i],
                    c_bit: self.c[i],
                    order: Order(order),
                    base: Order(base),
                    offset: Offset(offset),
                });
                working_set = working_set.max(offset + 1);
                if self.p[i] {
                    stats.p_ops += 1;
                }
                if self.c[i] {
                    stats.c_ops += 1;
                }
            }
        }

        // Materialize AMOV operand offsets now that all orders are known.
        let mut amov_insns = Vec::with_capacity(self.amovs.len());
        for rec in &self.amovs {
            let src_order = self.order[rec.src_node]
                .ok_or(AllocError::UnresolvedConstraints { op: rec.moved })?;
            let src_off = src_order - rec.base;
            let dst_off = if rec.is_move {
                let dst_order = self.order[rec.self_node]
                    .ok_or(AllocError::UnresolvedConstraints { op: rec.moved })?;
                dst_order - rec.base
            } else {
                src_off
            };
            for &off in &[src_off, dst_off] {
                if off >= self.num_regs as u64 {
                    return Err(AllocError::Overflow {
                        offset: off as u32,
                        num_regs: self.num_regs,
                    });
                }
                working_set = working_set.max(off as u32 + 1);
            }
            amov_insns.push(AmovInsn {
                moved_op: rec.moved,
                src_offset: Offset(src_off as u32),
                dst_offset: Offset(dst_off as u32),
                is_move: rec.is_move,
            });
        }

        // Interleave the event stream with rotations.
        let mut code = Vec::new();
        let mut rot_iter = self.rotations.iter().peekable();
        for (idx, ev) in self.events.iter().enumerate() {
            match *ev {
                Event::Op(id) => {
                    let oa = per_op[id.index()];
                    code.push(AliasCode::Op {
                        id,
                        p_bit: oa.is_some_and(|a| a.p_bit),
                        c_bit: oa.is_some_and(|a| a.c_bit),
                        offset: oa.map(|a| a.offset),
                    });
                }
                Event::Amov(i) => code.push(AliasCode::Amov(amov_insns[i])),
            }
            while let Some(&&(at, amount)) = rot_iter.peek() {
                if at == idx {
                    code.push(AliasCode::Rotate(RotateInsn { amount }));
                    rot_iter.next();
                } else {
                    break;
                }
            }
        }

        // Final check pairs: map checkee nodes back to the op whose range
        // they hold.
        let final_checks = self
            .checks_log
            .iter()
            .map(|&(src, dst)| {
                let checker = match self.nodes[src] {
                    NodeKind::Op(id) => id,
                    NodeKind::Amov { moved, .. } => moved,
                };
                let checkee = match self.nodes[dst] {
                    NodeKind::Op(id) => id,
                    NodeKind::Amov { moved, .. } => moved,
                };
                (checker, checkee)
            })
            .collect();

        let allocation = Allocation {
            per_op,
            code,
            working_set,
            stats,
            final_checks,
        };
        // Hand the working vectors back for reuse; reset() clears them on
        // the next run, so only capacity carries over.
        let scratch = AllocScratch {
            t: self.t,
            scheduled: self.scheduled,
            p: self.p,
            c: self.c,
            base: self.base,
            order: self.order,
            offset: self.offset,
            out_edges: self.out_edges,
            in_deg: self.in_deg,
            pending: self.pending,
            ready: self.ready,
            holder: self.holder,
            nodes: self.nodes,
            events: self.events,
            rotations: self.rotations,
            amovs: self.amovs,
            checks_log: self.checks_log,
            ext_p_candidate: self.ext_p_candidate,
        };
        Ok((allocation, scratch))
    }
}

/// Convenience wrapper: runs the incremental allocator over a fixed
/// schedule.
///
/// `schedule` lists the surviving memory operations in optimized execution
/// order. Use `u32::MAX` registers to measure working sets without any
/// hardware bound.
///
/// # Errors
/// See [`Allocator::schedule_op`] and [`Allocator::finish`].
///
/// ```
/// use smarq::{RegionSpec, MemKind, DepGraph, allocate};
/// let mut r = RegionSpec::new();
/// let st = r.push(MemKind::Store, 0);
/// let ld = r.push(MemKind::Load, 0); // may-alias, hoisted above the store
/// let deps = DepGraph::compute(&r);
/// let alloc = allocate(&r, &deps, &[ld, st], 64)?;
/// assert_eq!(alloc.working_set(), 1); // one alias register suffices
/// # Ok::<(), smarq::AllocError>(())
/// ```
pub fn allocate(
    region: &RegionSpec,
    deps: &DepGraph,
    schedule: &[MemOpId],
    num_regs: u32,
) -> Result<Allocation, AllocError> {
    let mut a = Allocator::new(region, deps, num_regs);
    for &op in schedule {
        a.schedule_op(op)?;
    }
    a.finish()
}

#[cfg(test)]
mod tests {
    //! Whitebox tests for the allocator internals. The integration tests in
    //! `tests/allocator.rs` pin the observable output (AMOV/rotate streams,
    //! P/C bits, offsets); these tests pin the *mechanics* that produce it:
    //! holder redirection, edge retargeting, the `T` invariant around an
    //! inserted AMOV, and the overflow estimate behind [`Allocator::mode`].

    use super::*;
    use crate::region::MemKind;
    use crate::validate::validate_allocation;

    /// The §5.2 constraint-cycle shape from `tests/allocator.rs`, scheduled
    /// `c1, v, x, s, y[, s2]`. Returns `(region, schedule, x, y)`.
    fn cycle_region(with_second_checker: bool) -> (RegionSpec, Vec<MemOpId>, MemOpId, MemOpId) {
        let mut r = RegionSpec::new();
        let c1 = r.push(MemKind::Store, 0);
        let s = r.push(MemKind::Store, 1);
        let s2 = with_second_checker.then(|| r.push(MemKind::Store, 2));
        let x = r.push(MemKind::Load, 3);
        let v = r.push(MemKind::Store, 4);
        let z2 = r.push(MemKind::Load, 3);
        let y = r.push(MemKind::Store, 5);
        let z1 = r.push(MemKind::Load, 0);
        r.set_may_alias(c1, x, true);
        r.set_may_alias(s, x, true);
        r.set_may_alias(x, v, true);
        r.set_may_alias(v, z2, true);
        r.set_may_alias(y, c1, true);
        r.set_may_alias(y, z1, true);
        r.set_may_alias(x, y, true);
        r.set_may_alias(s, z2, false);
        r.set_may_alias(c1, z2, false);
        r.set_may_alias(y, z2, false);
        if let Some(s2) = s2 {
            r.set_may_alias(s2, x, true);
            r.set_may_alias(s2, z2, false);
            for other in [c1, s, v, y] {
                r.set_may_alias(s2, other, false);
            }
        }
        r.add_load_elim(x, z2);
        r.add_load_elim(c1, z1);
        let mut sched = vec![c1, v, x, s, y];
        if let Some(s2) = s2 {
            sched.push(s2);
        }
        (r, sched, x, y)
    }

    /// A moving AMOV must redirect the internal holder of `x` to the fresh
    /// proxy node, retarget the unscheduled checker's check edge to it, and
    /// re-establish the `T` invariant around the anti edge that closed the
    /// cycle.
    #[test]
    fn moving_amov_redirects_holder_and_retargets_checkers() {
        let (r, sched, x, y) = cycle_region(true);
        let deps = DepGraph::compute(&r);
        let mut a = Allocator::new(&r, &deps, 64);
        // Schedule everything up to and including y, which closes the cycle.
        for &op in &sched[..sched.len() - 1] {
            a.schedule_op(op).unwrap();
        }

        assert_eq!(a.amovs.len(), 1, "the cycle inserts exactly one AMOV");
        let rec = a.amovs[0].clone();
        assert!(rec.is_move, "s2 is still unscheduled: must be a real move");
        assert_eq!(rec.moved, x);
        assert_eq!(rec.src_node, x.index(), "x held its own range before");
        assert!(
            rec.self_node >= r.len(),
            "the proxy is a fresh node, not a memory op"
        );
        assert!(
            matches!(a.nodes[rec.self_node], NodeKind::Amov { moved } if moved == x),
            "proxy node records which range it carries"
        );

        // Future anti logic must consult the proxy, which sets a register.
        assert_eq!(a.holder[x.index()], rec.self_node);
        assert!(a.p[rec.self_node]);
        assert!(a.pending[rec.self_node]);

        // T invariant restored: the anti edge proxy -> y is satisfied, and
        // the retargeted checker sits strictly below the proxy.
        assert!(a.t[rec.self_node] < a.t[y.index()]);
        let s2 = *sched.last().unwrap();
        let retargeted = a.out_edges[s2.index()]
            .iter()
            .any(|e| e.dst == rec.self_node && e.kind == EdgeKind::Check);
        assert!(retargeted, "s2's check edge now points at the proxy");
        assert!(
            a.out_edges[s2.index()]
                .iter()
                .all(|e| e.dst != rec.src_node),
            "no edge into the vacated register remains"
        );
        assert!(a.t[s2.index()] < a.t[rec.self_node]);

        // The region still finishes into a valid allocation.
        a.schedule_op(s2).unwrap();
        let alloc = a.finish().unwrap();
        validate_allocation(&r, &deps, &sched, &alloc).unwrap();
    }

    /// Without a surviving checker the AMOV degenerates to a clean-up: no
    /// proxy register, no P bit, no pending allocation — but the holder is
    /// still redirected so later antis see the range as gone.
    #[test]
    fn cleanup_amov_allocates_no_proxy_register() {
        let (r, sched, x, _y) = cycle_region(false);
        let deps = DepGraph::compute(&r);
        let mut a = Allocator::new(&r, &deps, 64);
        for &op in &sched {
            a.schedule_op(op).unwrap();
        }

        assert_eq!(a.amovs.len(), 1);
        let rec = a.amovs[0].clone();
        assert!(!rec.is_move);
        assert_eq!(a.holder[x.index()], rec.self_node);
        assert!(!a.p[rec.self_node], "clean-up sets no register");
        assert!(!a.pending[rec.self_node]);
        assert!(
            a.base[rec.self_node].is_none(),
            "no delayed allocation queued for the proxy"
        );

        let alloc = a.finish().unwrap();
        assert_eq!(alloc.stats().amov_moves, 0);
        validate_allocation(&r, &deps, &sched, &alloc).unwrap();
    }

    /// Six independent store/load pairs; hoisting every load front-loads
    /// six P registers.
    fn pairs_region() -> (RegionSpec, Vec<MemOpId>, Vec<MemOpId>) {
        let mut r = RegionSpec::new();
        let mut stores = Vec::new();
        let mut loads = Vec::new();
        for i in 0..6 {
            let st = r.push(MemKind::Store, i);
            let ld = r.push(MemKind::Load, i);
            r.set_may_alias(st, ld, true);
            stores.push(st);
            loads.push(ld);
        }
        (r, stores, loads)
    }

    /// The overflow estimate is sound: a scheduler that keeps speculating
    /// past the `NonSpeculation` report does overflow, but the report
    /// always arrives strictly before the overflowing `schedule_op` call.
    #[test]
    fn overflow_estimate_warns_before_the_file_overflows() {
        let (r, stores, loads) = pairs_region();
        let deps = DepGraph::compute(&r);
        let mut a = Allocator::new(&r, &deps, 4);

        let mut warned_at = None;
        for (k, &ld) in loads.iter().enumerate() {
            if warned_at.is_none() && a.mode() == SchedulerMode::NonSpeculation {
                warned_at = Some(k);
            }
            a.schedule_op(ld).unwrap();
        }
        // Each pending hoisted load will occupy one P register: the
        // estimate flips exactly when they would fill the file.
        assert_eq!(warned_at, Some(4));

        // Ignore the warning and keep the schedule: the checking stores
        // force the delayed allocations past the file size.
        let mut overflowed = false;
        for &st in &stores {
            if a.mode() == SchedulerMode::NonSpeculation {
                assert!(!overflowed);
            }
            match a.schedule_op(st) {
                Ok(()) => {}
                Err(AllocError::Overflow { num_regs, .. }) => {
                    assert_eq!(num_regs, 4);
                    overflowed = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        }
        assert!(overflowed, "speculating past the estimate must overflow");
    }

    /// The intended driver contract (paper §5.3): hoist while the allocator
    /// reports `Speculation`, fall back to program order once it reports
    /// `NonSpeculation` — and the region then completes without overflow on
    /// the same register file that overflowed above.
    #[test]
    fn mode_respecting_driver_falls_back_and_completes() {
        let (r, stores, loads) = pairs_region();
        let deps = DepGraph::compute(&r);
        let mut a = Allocator::new(&r, &deps, 4);

        let mut sched = Vec::new();
        let mut hoisted = 0;
        while hoisted < loads.len() && a.mode() == SchedulerMode::Speculation {
            a.schedule_op(loads[hoisted]).unwrap();
            sched.push(loads[hoisted]);
            hoisted += 1;
        }
        assert!(
            (1..loads.len()).contains(&hoisted),
            "estimate must allow some hoisting and stop some ({hoisted})"
        );

        // Non-speculation: the remaining ops in plain program order.
        for i in 0..stores.len() {
            a.schedule_op(stores[i]).unwrap();
            sched.push(stores[i]);
            if i >= hoisted {
                a.schedule_op(loads[i]).unwrap();
                sched.push(loads[i]);
            }
        }
        let alloc = a.finish().unwrap();
        assert!(alloc.working_set() <= 4);
        validate_allocation(&r, &deps, &sched, &alloc).unwrap();
    }

    /// Extended (backward) dependences put a P bit on their target even in
    /// a program-order schedule; the estimate must count them before any op
    /// is scheduled, and stop counting them once the target is scheduled.
    #[test]
    fn overflow_estimate_counts_extended_p_targets() {
        // Figure 5 shape: the store m3 checks the forwarding load m2
        // through the eliminated m5 — an extended dep running backward.
        let mut r = RegionSpec::new();
        let m1 = r.push(MemKind::Load, 1);
        let m2 = r.push(MemKind::Load, 2);
        let m3 = r.push(MemKind::Store, 3);
        let m4 = r.push(MemKind::Store, 4);
        let m5 = r.push(MemKind::Load, 2);
        r.set_may_alias(m3, m2, true);
        r.set_may_alias(m3, m5, true);
        r.set_may_alias(m4, m1, true);
        r.add_load_elim(m2, m5);
        let deps = DepGraph::compute(&r);

        let a = Allocator::new(&r, &deps, 1);
        assert_eq!(a.unscheduled_ext_p, 1, "m2 needs a P register regardless");
        assert_eq!(a.mode(), SchedulerMode::NonSpeculation);

        // Two registers absorb it; the counter drains as m2 is scheduled.
        let mut a = Allocator::new(&r, &deps, 2);
        assert_eq!(a.mode(), SchedulerMode::Speculation);
        a.schedule_op(m1).unwrap();
        a.schedule_op(m2).unwrap();
        assert_eq!(a.unscheduled_ext_p, 0);
        for op in [m3, m4] {
            a.schedule_op(op).unwrap();
        }
        let alloc = a.finish().unwrap();
        validate_allocation(&r, &deps, &[m1, m2, m3, m4], &alloc).unwrap();
    }
}
