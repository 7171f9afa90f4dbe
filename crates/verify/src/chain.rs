//! Cross-region chain verification: a fixpoint abstract interpretation
//! over the **chain graph** (regions as nodes, region→region exit edges)
//! plus the static obligations every chained entry relies on.
//!
//! The runtime's chained dispatcher executes region after region without
//! returning to the interpreter; each hand-off silently assumes:
//!
//! * the successor's **resident-state write mask** covers every register
//!   the emitted code can write (masked checkpointing restores exactly
//!   those — an under-approximate mask corrupts rollback state);
//! * the register-range facts the optimizer **assumed at entry** (for its
//!   alias relation and the unspeculatable-address-range taint)
//!   over-approximate every state a predecessor can actually deliver, and
//!   every pair the optimizer called disjoint on the strength of those
//!   ranges is disjoint under the states the chain can deliver;
//! * the alias-register queue is **reset at region entry** (hardware
//!   semantics, `smarq::AliasQueue::reset`), so no queue state crosses
//!   the edge.
//!
//! [`analyze_chain`] proves all three. It seeds each region's entry state
//! from the never-faulted whole-program dataflow
//! ([`crate::dataflow::analyze_reference`]; a caller that already holds it
//! passes it to [`analyze_chain_seeded`]), then propagates superblock
//! exit states ([`smarq_ir::analyze_superblock`]) along chain edges —
//! joining, and widening loop back-edges after [`WIDEN_AFTER`] joins —
//! until the region entry states stabilize. On the fixpoint it runs six
//! chain-level checks (codes in [`crate::registry`]):
//!
//! | code | severity | catches |
//! |------|----------|---------|
//! | `chain-writemask-gap`     | Error   | a write mask missing an emitted destination register (the `SMARQ_FAULT_DROP_BOUNDARY` mutation) |
//! | `chain-entry-state`       | Error   | an optimizer entry assumption no predecessor guarantees (the `SMARQ_FAULT_WIDEN_RANGE` mutation) |
//! | `range-unproven-disjoint` | Error   | a pair the region spec calls disjoint that base+displacement leaves may-alias and the chain-derived address ranges do not prove apart |
//! | `nospec-speculation`      | Error   | a memory op whose chain-derived address can touch a configured nospec range yet was eliminated, reordered, or given P/C bits |
//! | `cross-region-dead-amov`  | Warning | an `AMOV` after the region's last scan, proven dead *chain-wide* by the entry queue reset |
//! | `chain-unreachable-check` | Warning | a required check whose two address ranges are provably disjoint — the scan can never fire (the `SMARQ_FAULT_DROP_RANGES` mutation) |
//!
//! `range-unproven-disjoint` re-proves, from the verifier's own interval
//! derivation, every disjointness the optimizer took from the ranges: a
//! wrong interval there drops a dependence with no check behind it, so it
//! is an error even where execution happens not to reach the alias.
//! `chain-unreachable-check` stays a warning: the optimizer already drops
//! every pair its entry state proves apart, so the check flags only a
//! region translated with a less precise entry state than the chain
//! proves, or with none (the `SMARQ_FAULT_DROP_RANGES` mutation makes the
//! optimizer ignore its entry state's intervals). Such a check wastes a
//! scan and cannot miss an alias.
//!
//! Everything here re-derives its facts from the caller-provided views,
//! or reads the validator's own [`RegionFacts`] they carry; in particular
//! the write-mask walk deliberately does **not** call the production
//! [`RegionWriteMask::of`] (that is the code under test).

use crate::dataflow::{self, ProgramDataflow, WIDEN_AFTER};
use crate::facts::RegionFacts;
use smarq::range::{join_state, widen_state, Interval, NospecRanges, RegState};
use smarq::{AliasCode, Diagnostic, MemOpId, Severity};
use smarq_guest::Program;
use smarq_ir::{analyze_superblock, nospec_taint, AliasAnalysis, AliasRel, SbRanges, Superblock};
use smarq_opt::OptTrace;
use smarq_vliw::{RegionWriteMask, VliwOp, VliwProgram};
use std::collections::VecDeque;

/// One cached region as the chain analyzer sees it: the formation-order
/// id, the formed superblock, the optimizer's trace, the emitted code and
/// the two runtime-facing artifacts under scrutiny (the write mask the
/// dispatcher will checkpoint by, and the entry state the optimizer's
/// alias relation and taint assumed — `None` when it assumed nothing,
/// i.e. ⊤).
pub struct ChainRegionView<'a> {
    /// Region index in formation order (goes into diagnostics).
    pub region_id: usize,
    /// The formed superblock (gives the entry block and exit targets).
    pub sb: &'a Superblock,
    /// The optimizer's trace for the region (spec, schedule, allocation,
    /// and the [`smarq_opt::OptTrace::mem_origin`] index back into `sb`).
    pub trace: &'a OptTrace,
    /// The validator's facts for `trace`: must equal
    /// `RegionFacts::derive(&trace.spec, &trace.mem_schedule)`, as kept
    /// from emit-time verification ([`crate::verify_trace_facts`]).
    pub facts: &'a RegionFacts,
    /// The emitted code, for the independent write-mask re-derivation.
    pub vliw: &'a VliwProgram,
    /// The write mask the dispatcher will actually use (possibly produced
    /// under the `SMARQ_FAULT_DROP_BOUNDARY` mutation).
    pub write_mask: RegionWriteMask,
    /// The entry register state the optimizer's alias relation and nospec
    /// taint used (possibly produced under the `SMARQ_FAULT_WIDEN_RANGE`
    /// mutation).
    pub assumed_entry: Option<RegState>,
}

/// A chain edge: `regions[from]` exit `exit_id` continues at
/// `regions[to]`'s entry block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChainEdge {
    /// Source region (index into the view slice).
    pub from: usize,
    /// Exit id within the source region.
    pub exit_id: usize,
    /// Destination region (index into the view slice).
    pub to: usize,
}

/// Result of [`analyze_chain`].
pub struct ChainReport {
    /// Region-transfer steps the chain fixpoint took.
    pub iterations: usize,
    /// `false` only if the iteration cap fired (widening makes that
    /// unreachable in practice; see [`crate::dataflow`]).
    pub converged: bool,
    /// Regions analyzed.
    pub regions: usize,
    /// Chain edges derived from the exit tables.
    pub edges: Vec<ChainEdge>,
    /// Fixpoint entry state per region (same order as the input views).
    pub entry_states: Vec<RegState>,
    /// Findings from all six chain checks.
    pub diagnostics: Vec<Diagnostic>,
}

/// Runs the chain fixpoint and all chain-level checks. `program` is the
/// guest program the regions were formed from; `nospec` is the configured
/// unspeculatable address range set (empty disables the nospec check).
pub fn analyze_chain(
    program: &Program,
    regions: &[ChainRegionView<'_>],
    nospec: &NospecRanges,
) -> ChainReport {
    analyze_chain_seeded(
        &dataflow::analyze_reference(program),
        regions,
        nospec,
        Severity::Info,
    )
}

/// [`analyze_chain`] seeded from `reference`, which must be the
/// never-faulted whole-program dataflow of the regions' program
/// ([`crate::dataflow::analyze_reference`]'s result, or equal to it): a
/// caller that checks many chains of one program computes it once.
///
/// Only findings of severity `min` or above are built: with
/// [`Severity::Error`] the two warning checks do not run, and the report
/// holds exactly the errors of a [`Severity::Info`] run. A caller that
/// can keep no more warnings skips deriving and formatting them.
pub fn analyze_chain_seeded(
    reference: &ProgramDataflow,
    regions: &[ChainRegionView<'_>],
    nospec: &NospecRanges,
    min: Severity,
) -> ChainReport {
    let n = regions.len();
    // Seed from the never-faulted whole-program dataflow: sound for any
    // path into the region, chained or interpreted.
    let mut entry: Vec<RegState> = regions
        .iter()
        .map(|r| *reference.entry_state(r.sb.entry))
        .collect();

    // Chain edges from the exit tables: A exits to B's entry block.
    let mut edges = Vec::new();
    for (a, ra) in regions.iter().enumerate() {
        for (exit_id, ex) in ra.sb.exits.iter().enumerate() {
            let Some(target) = ex.target else { continue };
            for (b, rb) in regions.iter().enumerate() {
                if rb.sb.entry == target {
                    edges.push(ChainEdge {
                        from: a,
                        exit_id,
                        to: b,
                    });
                }
            }
        }
    }
    let out_edges: Vec<Vec<&ChainEdge>> = (0..n)
        .map(|a| edges.iter().filter(|e| e.from == a).collect())
        .collect();

    // Fixpoint over the chain graph. The seed is already a sound
    // over-approximation of every concrete entry, so this converges fast;
    // it exists because a superblock's exit state (⊤ for loaded values,
    // exact for in-region constants) is *incomparable* to the program
    // dataflow's view, and the nospec verdicts must hold for the join.
    let mut joins = vec![0usize; n];
    let mut queued = vec![true; n];
    let mut work: VecDeque<usize> = (0..n).collect();
    let cap = n.max(1) * 64 * (WIDEN_AFTER + 4);
    let mut iterations = 0usize;
    let mut converged = true;
    while let Some(a) = work.pop_front() {
        queued[a] = false;
        iterations += 1;
        if iterations > cap {
            converged = false;
            break;
        }
        let ranges = analyze_superblock(regions[a].sb, &entry[a]);
        for e in &out_edges[a] {
            let exit_state = &ranges.exit_states[e.exit_id];
            let changed = if joins[e.to] < WIDEN_AFTER {
                join_state(&mut entry[e.to], exit_state)
            } else {
                widen_state(&mut entry[e.to], exit_state)
            };
            if changed {
                joins[e.to] += 1;
                if !queued[e.to] {
                    queued[e.to] = true;
                    work.push_back(e.to);
                }
            }
        }
    }

    // Checks on the fixpoint.
    let mut diagnostics = Vec::new();
    for (r, view) in regions.iter().enumerate() {
        let ranges = analyze_superblock(view.sb, &entry[r]);
        check_write_mask(view, &mut diagnostics);
        check_entry_state(view, &entry, regions, &edges, r, &mut diagnostics);
        check_nospec(view, &ranges, nospec, &mut diagnostics);
        check_range_disjoint(view, &ranges, &mut diagnostics);
        if min <= Severity::Warning {
            check_dead_amov(view, regions, &out_edges[r], &mut diagnostics);
            check_unreachable(view, &ranges, &mut diagnostics);
        }
    }

    ChainReport {
        iterations,
        converged,
        regions: n,
        edges,
        entry_states: entry,
        diagnostics,
    }
}

/// Independent re-derivation of the destination-register sets of the
/// emitted code — deliberately *not* [`RegionWriteMask::of`], which is
/// the (possibly fault-injected) production path under test.
fn derive_write_sets(vliw: &VliwProgram) -> (u64, u64) {
    let mut ints = 0u64;
    let mut fps = 0u64;
    for op in vliw.bundles.iter().flat_map(|b| &b.ops) {
        match *op {
            VliwOp::IConst { rd, .. }
            | VliwOp::Alu { rd, .. }
            | VliwOp::AluImm { rd, .. }
            | VliwOp::Copy { rd, .. }
            | VliwOp::FtoI { rd, .. }
            | VliwOp::Load { rd, .. } => ints |= 1u64 << (rd & 63),
            VliwOp::FConst { fd, .. }
            | VliwOp::Fpu { fd, .. }
            | VliwOp::FCopy { fd, .. }
            | VliwOp::ItoF { fd, .. }
            | VliwOp::FLoad { fd, .. } => fps |= 1u64 << (fd & 63),
            _ => {}
        }
    }
    (ints, fps)
}

fn check_write_mask(view: &ChainRegionView<'_>, out: &mut Vec<Diagnostic>) {
    let (ints, fps) = derive_write_sets(view.vliw);
    let miss_ints = ints & !view.write_mask.ints;
    let miss_fps = fps & !view.write_mask.fps;
    if miss_ints == 0 && miss_fps == 0 {
        return;
    }
    let mut missing = Vec::new();
    for r in 0..64u32 {
        if miss_ints >> r & 1 == 1 {
            missing.push(format!("r{r}"));
        }
        if miss_fps >> r & 1 == 1 {
            missing.push(format!("f{r}"));
        }
    }
    out.push(Diagnostic::new(
        Severity::Error,
        view.region_id,
        "chain-writemask-gap",
        format!(
            "resident-state write mask misses emitted destination register(s) {}; \
             a chained rollback would restore stale values",
            missing.join(", ")
        ),
    ));
}

fn check_entry_state(
    view: &ChainRegionView<'_>,
    entries: &[RegState],
    regions: &[ChainRegionView<'_>],
    edges: &[ChainEdge],
    r: usize,
    out: &mut Vec<Diagnostic>,
) {
    let Some(assumed) = &view.assumed_entry else {
        return; // assumed ⊤: trivially guaranteed
    };
    let reference = &entries[r];
    // Guest architectural registers only: temporaries carry no value into
    // a region (the superblock transfer resets them to ⊤ itself).
    for reg in 0..32usize {
        if reference[reg].le(assumed[reg]) {
            continue;
        }
        // Localize: which chained predecessor edges deliver the excess
        // states? (Exit states re-derived from each predecessor's own
        // *reference* fixpoint entry — never from its assumptions.)
        let culprits: Vec<String> = edges
            .iter()
            .filter(|e| e.to == r)
            .filter(|e| {
                let ranges = analyze_superblock(regions[e.from].sb, &entries[e.from]);
                !ranges.exit_states[e.exit_id][reg].le(assumed[reg])
            })
            .map(|e| format!("region {} exit {}", regions[e.from].region_id, e.exit_id))
            .collect();
        let via = if culprits.is_empty() {
            String::from("the interpreted entry path")
        } else {
            culprits.join(", ")
        };
        out.push(Diagnostic::new(
            Severity::Error,
            view.region_id,
            "chain-entry-state",
            format!(
                "optimizer assumed r{reg} in {} at entry, but the chain can deliver {} \
                 (via {via}); range-derived decisions for this region are unsound",
                assumed[reg], reference[reg]
            ),
        ));
    }
}

fn check_nospec(
    view: &ChainRegionView<'_>,
    ranges: &SbRanges,
    nospec: &NospecRanges,
    out: &mut Vec<Diagnostic>,
) {
    if nospec.is_empty() {
        return;
    }
    let taint = nospec_taint(&ranges.addr, nospec);
    let trace = view.trace;
    let pos = |id: MemOpId| trace.mem_schedule.iter().position(|&x| x == id);
    for k in 0..trace.mem_origin.len() {
        let id = MemOpId::new(k);
        let oi = trace.mem_origin[k];
        if !taint[oi] {
            continue;
        }
        let Some(p) = pos(id) else {
            out.push(
                Diagnostic::new(
                    Severity::Error,
                    view.region_id,
                    "nospec-speculation",
                    format!(
                        "{id} can touch an unspeculatable range {nospec} but was \
                         eliminated from the schedule"
                    ),
                )
                .with_op(id),
            );
            continue;
        };
        if let Some(alloc) = &trace.allocation {
            if let Some(a) = alloc.op(id) {
                if a.p_bit || a.c_bit {
                    out.push(
                        Diagnostic::new(
                            Severity::Error,
                            view.region_id,
                            "nospec-speculation",
                            format!(
                                "{id} can touch an unspeculatable range {nospec} but \
                                 carries alias bits (P={}, C={})",
                                a.p_bit, a.c_bit
                            ),
                        )
                        .with_op(id),
                    );
                }
            }
        }
        // Program order against every other scheduled memory op: a
        // tainted op must hold its exact position.
        for (j, &other) in trace.mem_schedule.iter().enumerate() {
            if other == id {
                continue;
            }
            let oj = trace.mem_origin[other.index()];
            if (oj < oi) != (j < p) {
                out.push(
                    Diagnostic::new(
                        Severity::Error,
                        view.region_id,
                        "nospec-speculation",
                        format!(
                            "{id} can touch an unspeculatable range {nospec} but was \
                             reordered against {other}"
                        ),
                    )
                    .with_op(id)
                    .with_witness(format!("{id} <-> {other}")),
                );
            }
        }
    }
}

/// Every pair the region spec calls disjoint although base+displacement
/// leaves it may-alias was disambiguated by address ranges; the chain's
/// own intervals (`ranges`, from the never-faulted fixpoint entry state)
/// must prove it disjoint again. The intervals are compared first: where
/// the chain knows the addresses, most pairs are proven without reading
/// the spec.
fn check_range_disjoint(view: &ChainRegionView<'_>, ranges: &SbRanges, out: &mut Vec<Diagnostic>) {
    let trace = view.trace;
    let origin = &trace.mem_origin;
    let mut base: Option<AliasAnalysis> = None;
    for a in 0..origin.len() {
        for b in a + 1..origin.len() {
            let (ia, ib) = (ranges.addr[origin[a]], ranges.addr[origin[b]]);
            if ia.zip(ib).is_some_and(|(x, y)| x.access_disjoint(y)) {
                continue;
            }
            let (ma, mb) = (MemOpId::new(a), MemOpId::new(b));
            if trace.spec.may_alias(ma, mb) {
                continue;
            }
            let base = base.get_or_insert_with(|| AliasAnalysis::new(view.sb));
            if base.relation(origin[a], origin[b]) != AliasRel::May {
                continue;
            }
            let shown = |iv: Option<Interval>| {
                iv.map_or_else(|| "unknown".to_string(), |iv| iv.to_string())
            };
            out.push(
                Diagnostic::new(
                    Severity::Error,
                    view.region_id,
                    "range-unproven-disjoint",
                    format!(
                        "the optimizer treated {ma} and {mb} as disjoint, but \
                         base+displacement cannot tell them apart and their chain-derived \
                         address ranges {} and {} can overlap; the dropped dependence is \
                         unprotected",
                        shown(ia),
                        shown(ib)
                    ),
                )
                .with_op(mb)
                .with_witness(format!("{ma} <-> {mb}")),
            );
        }
    }
}

fn check_dead_amov(
    view: &ChainRegionView<'_>,
    regions: &[ChainRegionView<'_>],
    out_edges: &[&ChainEdge],
    out: &mut Vec<Diagnostic>,
) {
    if out_edges.is_empty() {
        return; // no chained successor: nothing cross-region to prove
    }
    let Some(alloc) = &view.trace.allocation else {
        return;
    };
    let code = alloc.code();
    let last_scan = code
        .iter()
        .rposition(|c| matches!(c, AliasCode::Op { c_bit: true, .. }));
    let successors: Vec<String> = out_edges
        .iter()
        .map(|e| format!("region {}", regions[e.to].region_id))
        .collect();
    for (pc, c) in code.iter().enumerate() {
        let AliasCode::Amov(amov) = c else { continue };
        if last_scan.is_some_and(|s| pc < s) {
            continue;
        }
        out.push(
            Diagnostic::new(
                Severity::Warning,
                view.region_id,
                "cross-region-dead-amov",
                format!(
                    "AMOV for {} executes after the region's last scan; the chained \
                     successor(s) {} reset the alias queue at entry, so its effect is \
                     provably dead chain-wide",
                    amov.moved_op,
                    successors.join(", ")
                ),
            )
            .with_op(amov.moved_op)
            .with_span(pc, pc + 1),
        );
    }
}

fn check_unreachable(view: &ChainRegionView<'_>, ranges: &SbRanges, out: &mut Vec<Diagnostic>) {
    let trace = view.trace;
    if trace.mem_origin.is_empty() {
        return;
    }
    let addr_of = |id: MemOpId| ranges.addr[trace.mem_origin[id.index()]];
    for (checker, checkee) in view.facts.required_checks() {
        let (Some(a), Some(b)) = (addr_of(checker), addr_of(checkee)) else {
            continue;
        };
        // Word footprints: [lo, hi + 7]. Disjoint ⇒ the scan can never
        // observe a genuine alias — dead protection overhead.
        if a.access_disjoint(b) {
            out.push(
                Diagnostic::new(
                    Severity::Warning,
                    view.region_id,
                    "chain-unreachable-check",
                    format!(
                        "{checker} is required to check {checkee}, but their chain-derived \
                         address ranges {a} and {b} are provably disjoint; the check can \
                         never fire"
                    ),
                )
                .with_op(checker)
                .with_witness(format!("{checker} ->check {checkee}")),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq::range::Interval;
    use smarq::{allocate, AmovInsn, DepGraph, MemKind, RegionSpec};
    use smarq_guest::{AluOp, BlockId, CmpOp, ProgramBuilder, Reg};
    use smarq_ir::{IrExit, IrOp, OpOrigin};
    use smarq_vliw::{AliasAnnot, Bundle, ExitTarget};

    /// Guest program: B0 pins r1=0x1000, r2=0x2000; B1 is a self-loop
    /// with a store through r1 and a load through r2; B2 halts.
    fn base_program() -> Program {
        program_with_load_base(0x2000)
    }

    /// [`base_program`] with the load's base pinned to `r2`.
    fn program_with_load_base(r2: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let done = b.block();
        b.iconst(entry, Reg(1), 0x1000);
        b.iconst(entry, Reg(2), r2);
        b.iconst(entry, Reg(3), 0);
        b.iconst(entry, Reg(4), 100);
        b.jump(entry, body);
        b.st(body, Reg(3), Reg(1), 0);
        b.ld(body, Reg(5), Reg(2), 0);
        b.alu_imm(body, AluOp::Add, Reg(3), Reg(3), 1);
        b.branch(body, CmpOp::Lt, Reg(3), Reg(4), body, done);
        b.halt(done);
        b.finish(entry)
    }

    /// Hand-built region over B1: store (m0) then load (m1), may-alias,
    /// load hoisted above the store in the schedule — a required check
    /// (m0 →check m1) — chaining back to itself.
    struct Fixture {
        sb: Superblock,
        trace: OptTrace,
        facts: RegionFacts,
        vliw: VliwProgram,
    }

    fn fixture(schedule: Vec<MemOpId>) -> Fixture {
        fixture_with(schedule, true)
    }

    /// [`fixture`] with the pair's may-alias fact set to `may`.
    fn fixture_with(schedule: Vec<MemOpId>, may: bool) -> Fixture {
        let ops = vec![
            IrOp::St {
                rs: 3,
                base: 1,
                disp: 0,
            },
            IrOp::Ld {
                rd: 5,
                base: 2,
                disp: 0,
            },
            IrOp::Exit {
                exit_id: 0,
                cond: None,
            },
        ];
        let sb = Superblock {
            origins: (0..ops.len() as u32)
                .map(|i| OpOrigin {
                    block: BlockId(1),
                    instr: i,
                })
                .collect(),
            ops,
            exits: vec![IrExit {
                target: Some(BlockId(1)),
            }],
            entry: BlockId(1),
            trace: vec![BlockId(1)],
            profiled_aliases: Vec::new(),
        };
        let mut spec = RegionSpec::new();
        let m0 = spec.push(MemKind::Store, 0);
        let m1 = spec.push(MemKind::Load, 1);
        spec.set_may_alias(m0, m1, may);
        let deps = DepGraph::compute(&spec);
        let allocation = Some(allocate(&spec, &deps, &schedule, 64).unwrap());
        let trace = OptTrace {
            spec,
            deps,
            mem_schedule: schedule,
            allocation,
            mem_origin: vec![0, 1],
        };
        let vliw = VliwProgram {
            bundles: vec![Bundle {
                ops: vec![
                    VliwOp::Load {
                        rd: 5,
                        base: 2,
                        disp: 0,
                        alias: AliasAnnot::None,
                        tag: 1,
                    },
                    VliwOp::Store {
                        rs: 3,
                        base: 1,
                        disp: 0,
                        alias: AliasAnnot::None,
                        tag: 0,
                    },
                ],
            }],
            exits: vec![ExitTarget {
                guest_block: Some(1),
            }],
        };
        let facts = RegionFacts::derive(&trace.spec, &trace.mem_schedule);
        Fixture {
            sb,
            trace,
            facts,
            vliw,
        }
    }

    fn hoisted() -> Vec<MemOpId> {
        vec![MemOpId::new(1), MemOpId::new(0)]
    }

    fn view<'a>(f: &'a Fixture, assumed: Option<RegState>) -> ChainRegionView<'a> {
        ChainRegionView {
            region_id: 0,
            sb: &f.sb,
            trace: &f.trace,
            facts: &f.facts,
            vliw: &f.vliw,
            write_mask: RegionWriteMask::of(&f.vliw),
            assumed_entry: assumed,
        }
    }

    fn errors(report: &ChainReport) -> Vec<&Diagnostic> {
        report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn chain_fixpoint_converges_and_derives_edges() {
        let p = base_program();
        let f = fixture(hoisted());
        let df = dataflow::analyze_reference(&p);
        let assumed = Some(*df.entry_state(BlockId(1)));
        let report = analyze_chain(&p, &[view(&f, assumed)], &NospecRanges::none());
        assert!(report.converged);
        assert_eq!(report.regions, 1);
        assert_eq!(
            report.edges,
            vec![ChainEdge {
                from: 0,
                exit_id: 0,
                to: 0
            }],
            "self-loop edge"
        );
        assert!(errors(&report).is_empty(), "{:?}", report.diagnostics);
        // The fixpoint keeps the exact bases through the back edge.
        assert_eq!(report.entry_states[0][1], Interval::exact(0x1000));
        assert_eq!(report.entry_states[0][2], Interval::exact(0x2000));
        // ...and the disjoint-address required check is called out.
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "chain-unreachable-check" && d.severity == Severity::Warning));
    }

    /// An errors-only run reports exactly the errors of a full run, in
    /// order, on a chain that has both errors and warnings.
    #[test]
    fn an_errors_only_run_reports_exactly_the_errors() {
        let p = base_program();
        let f = fixture(hoisted());
        let mut v = view(&f, None);
        v.write_mask.ints &= !(1u64 << 5);
        let reference = dataflow::analyze_reference(&p);
        let none = NospecRanges::none();
        let views = [v];
        let full = analyze_chain_seeded(&reference, &views, &none, Severity::Info);
        let errs = analyze_chain_seeded(&reference, &views, &none, Severity::Error);
        assert!(full
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Warning));
        assert!(!errs.diagnostics.is_empty());
        assert_eq!(errs.diagnostics.iter().collect::<Vec<_>>(), errors(&full));
        assert_eq!(errs.entry_states, full.entry_states);
        assert_eq!(errs.edges, full.edges);
    }

    #[test]
    fn writemask_gap_is_an_error() {
        let p = base_program();
        let f = fixture(hoisted());
        let mut v = view(&f, None);
        // Simulate the DROP_BOUNDARY fault: the mask forgets the load's
        // destination register r5.
        v.write_mask.ints &= !(1u64 << 5);
        let report = analyze_chain(&p, &[v], &NospecRanges::none());
        let errs = errors(&report);
        assert!(
            errs.iter()
                .any(|d| d.code == "chain-writemask-gap" && d.message.contains("r5")),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn unsound_entry_assumption_is_an_error() {
        let p = base_program();
        let f = fixture(hoisted());
        // Simulate the WIDEN_RANGE fault: the optimizer assumed r2 stays
        // far below what the chain actually delivers.
        let mut assumed = *dataflow::analyze_reference(&p).entry_state(BlockId(1));
        assumed[2] = Interval::of(0, 0x10);
        let report = analyze_chain(&p, &[view(&f, Some(assumed))], &NospecRanges::none());
        assert!(
            errors(&report)
                .iter()
                .any(|d| d.code == "chain-entry-state" && d.message.contains("r2")),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn nospec_speculation_flags_reorder_bits_and_elimination() {
        let p = base_program();
        let nospec = NospecRanges::parse("0x2000..0x2008").unwrap();
        // Hoisted schedule: the tainted load (m1, address 0x2000) was
        // reordered above the store and carries a P bit.
        let f = fixture(hoisted());
        let report = analyze_chain(&p, &[view(&f, None)], &nospec);
        let errs = errors(&report);
        assert!(
            errs.iter()
                .any(|d| d.code == "nospec-speculation" && d.message.contains("reordered")),
            "{:?}",
            report.diagnostics
        );
        assert!(
            errs.iter()
                .any(|d| d.code == "nospec-speculation" && d.message.contains("alias bits")),
            "{:?}",
            report.diagnostics
        );
        // Program-order schedule, no alias bits: clean under the same
        // nospec config.
        let clean = fixture(vec![MemOpId::new(0), MemOpId::new(1)]);
        let report = analyze_chain(&p, &[view(&clean, None)], &nospec);
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.code == "nospec-speculation"),
            "{:?}",
            report.diagnostics
        );
        // A range neither op touches stays silent even when hoisted.
        let far = NospecRanges::parse("0x9000..0x9008").unwrap();
        let report = analyze_chain(&p, &[view(&f, None)], &far);
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == "nospec-speculation"));
        // A tainted op missing from the schedule entirely (eliminated).
        let mut gone = fixture(hoisted());
        gone.trace.mem_schedule = vec![MemOpId::new(0)];
        gone.facts = RegionFacts::derive(&gone.trace.spec, &gone.trace.mem_schedule);
        let report = analyze_chain(&p, &[view(&gone, None)], &nospec);
        assert!(
            errors(&report)
                .iter()
                .any(|d| d.code == "nospec-speculation" && d.message.contains("eliminated")),
            "{:?}",
            report.diagnostics
        );
    }

    /// The store (through r1) and the load (through r2) have different
    /// bases, so only address ranges can call them disjoint. The chain
    /// proves that again when r2 points elsewhere, and flags it when r2
    /// points at the store's word.
    #[test]
    fn range_derived_disjointness_is_proven_again() {
        let f = fixture_with(hoisted(), false);
        let unproven = |p: &Program| {
            let report = analyze_chain(p, &[view(&f, None)], &NospecRanges::none());
            report
                .diagnostics
                .iter()
                .filter(|d| d.code == "range-unproven-disjoint")
                .map(|d| d.severity)
                .collect::<Vec<_>>()
        };
        assert_eq!(unproven(&base_program()), vec![]);
        assert_eq!(
            unproven(&program_with_load_base(0x1004)),
            vec![Severity::Error]
        );
        // A pair the spec leaves may-alias needs no proof.
        let may = fixture(hoisted());
        let report = analyze_chain(
            &program_with_load_base(0x1004),
            &[view(&may, None)],
            &NospecRanges::none(),
        );
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == "range-unproven-disjoint"));
    }

    #[test]
    fn amov_after_last_scan_is_dead_chain_wide() {
        let p = base_program();
        let mut f = fixture(hoisted());
        // Append a clean-up AMOV after every scan. The in-region DeadAmov
        // pass calls this dead *within the region*; the chain pass proves
        // it stays dead across the self-loop edge (queue reset at entry).
        let alloc = f.trace.allocation.as_ref().unwrap();
        let m1 = MemOpId::new(1);
        let off = alloc.op(m1).unwrap().offset;
        let mut code = alloc.code().to_vec();
        code.push(AliasCode::Amov(AmovInsn {
            moved_op: m1,
            src_offset: off,
            dst_offset: off,
            is_move: false,
        }));
        let per_op: Vec<_> = (0..f.trace.spec.len())
            .map(|i| alloc.op(MemOpId::new(i)).copied())
            .collect();
        f.trace.allocation = Some(smarq::Allocation::from_parts(
            per_op,
            code,
            alloc.working_set(),
            alloc.stats(),
            alloc.final_checks().to_vec(),
        ));
        let report = analyze_chain(&p, &[view(&f, None)], &NospecRanges::none());
        assert!(
            report.diagnostics.iter().any(|d| {
                d.code == "cross-region-dead-amov"
                    && d.severity == Severity::Warning
                    && d.op == Some(m1)
            }),
            "{:?}",
            report.diagnostics
        );
    }
}
