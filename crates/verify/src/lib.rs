//! Static translation validator and lint framework for SMARQ-optimized
//! regions.
//!
//! This crate is an execution-free proof layer over the optimizer's
//! output. For every scheduled region it:
//!
//! 1. **re-derives** the required check/anti-constraint sets from the
//!    original superblock's memory dependences ([`facts`]) — a deliberate
//!    from-first-principles second implementation of the paper's §4
//!    analysis sharing no derivation code with `smarq::constraints`;
//! 2. **proves** by symbolic dataflow over the alias-register queue state
//!    ([`replay`]) that the emitted code performs every required check and
//!    can never raise a false-positive alias exception;
//! 3. **lints** the region ([`lint`]) for waste and risk: redundant
//!    checks, dead `AMOV`s, overflow-prone working sets and structurally
//!    unprotected speculation.
//!
//! All findings are [`smarq::Diagnostic`]s — structured, severity-graded
//! and JSON-serializable — so the same output feeds the `smarq lint` CLI,
//! the runtime's verify-on-emit mode, the fuzzer's oracle layer and CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod dataflow;
pub mod facts;
pub mod lint;
pub mod registry;
pub mod replay;

pub use chain::{analyze_chain, analyze_chain_seeded, ChainEdge, ChainRegionView, ChainReport};
pub use dataflow::{analyze, analyze_reference, ProgramDataflow};
pub use facts::RegionFacts;
pub use lint::{default_passes, run_passes, LintContext, LintPass};
pub use registry::{is_known, lookup, CodeInfo, CodeOrigin, LintPolicy, CODES, CODE_TABLE_VERSION};

use smarq::range::Interval;
use smarq::{Allocation, Diagnostic, MemOpId, RegionSpec, Severity};
use smarq_opt::OptTrace;

/// Statically validates one optimized region: derives the facts and runs
/// the symbolic replay. Returns every violation (empty = proven correct).
pub fn verify_region(
    region_id: usize,
    spec: &RegionSpec,
    schedule: &[MemOpId],
    alloc: &Allocation,
) -> Vec<Diagnostic> {
    let facts = RegionFacts::derive(spec, schedule);
    replay::replay(region_id, spec, alloc, &facts)
}

/// Runs the default lint passes over one optimized region. `num_regs` is
/// the hardware alias register count the region targets.
pub fn lint_region(
    region_id: usize,
    spec: &RegionSpec,
    schedule: &[MemOpId],
    alloc: &Allocation,
    num_regs: u32,
) -> Vec<Diagnostic> {
    let facts = RegionFacts::derive(spec, schedule);
    let cx = LintContext {
        region_id,
        spec,
        schedule,
        alloc,
        num_regs,
        facts: &facts,
        addr: None,
    };
    run_passes(&cx, &default_passes())
}

/// Validator + lints in one walk (the facts are derived once). This is
/// what `smarq lint` and the CI corpus job run per region.
pub fn check_region(
    region_id: usize,
    spec: &RegionSpec,
    schedule: &[MemOpId],
    alloc: &Allocation,
    num_regs: u32,
) -> Vec<Diagnostic> {
    check_region_ranged(region_id, spec, schedule, alloc, num_regs, None)
}

/// [`check_region`] with optional derived access-address intervals per
/// [`MemOpId`] (from the range analysis); range-aware lint passes refine
/// their severities with them.
pub fn check_region_ranged(
    region_id: usize,
    spec: &RegionSpec,
    schedule: &[MemOpId],
    alloc: &Allocation,
    num_regs: u32,
    addr: Option<&[Interval]>,
) -> Vec<Diagnostic> {
    let facts = RegionFacts::derive(spec, schedule);
    let mut out = replay::replay(region_id, spec, alloc, &facts);
    let cx = LintContext {
        region_id,
        spec,
        schedule,
        alloc,
        num_regs,
        facts: &facts,
        addr,
    };
    out.extend(run_passes(&cx, &default_passes()));
    out
}

/// [`verify_region`] over an optimizer trace. Regions optimized for
/// hardware without alias registers carry no allocation and verify
/// vacuously (there is no speculation to protect).
pub fn verify_trace(region_id: usize, trace: &OptTrace, _num_regs: u32) -> Vec<Diagnostic> {
    match &trace.allocation {
        Some(alloc) => verify_region(region_id, &trace.spec, &trace.mem_schedule, alloc),
        None => Vec::new(),
    }
}

/// [`verify_trace`] that also returns the facts it derived, for a caller
/// that keeps the trace: the chain analyzer's views carry them
/// ([`ChainRegionView::facts`]) instead of deriving them again. The facts
/// are derived even for a trace without an allocation, which verifies
/// vacuously.
pub fn verify_trace_facts(region_id: usize, trace: &OptTrace) -> (Vec<Diagnostic>, RegionFacts) {
    let facts = RegionFacts::derive(&trace.spec, &trace.mem_schedule);
    let diags = match &trace.allocation {
        Some(alloc) => replay::replay(region_id, &trace.spec, alloc, &facts),
        None => Vec::new(),
    };
    (diags, facts)
}

/// [`check_region`] over an optimizer trace (validator + lints).
pub fn check_trace(region_id: usize, trace: &OptTrace, num_regs: u32) -> Vec<Diagnostic> {
    check_trace_ranged(region_id, trace, num_regs, None)
}

/// [`check_trace`] with the region's source superblock and its analyzed
/// entry state: per-op access-address intervals are derived from the
/// range analysis and fed to the range-aware lint passes, which use them
/// to refine severities (e.g. an unprotected pair whose addresses are
/// provably disjoint is a warning, not an error).
pub fn check_trace_ranged(
    region_id: usize,
    trace: &OptTrace,
    num_regs: u32,
    source: Option<(&smarq_ir::Superblock, &smarq::range::RegState)>,
) -> Vec<Diagnostic> {
    let Some(alloc) = &trace.allocation else {
        return Vec::new();
    };
    let addr: Option<Vec<Interval>> = source.map(|(sb, entry)| {
        let ranges = smarq_ir::analyze_superblock(sb, entry);
        (0..trace.spec.len())
            .map(|k| {
                trace
                    .mem_origin
                    .get(k)
                    .and_then(|&oi| ranges.addr.get(oi).copied().flatten())
                    .unwrap_or(Interval::TOP)
            })
            .collect()
    });
    check_region_ranged(
        region_id,
        &trace.spec,
        &trace.mem_schedule,
        alloc,
        num_regs,
        addr.as_deref(),
    )
}

/// `true` when `diags` contains no [`Severity::Error`] finding (warnings
/// and notes do not fail verification).
pub fn is_clean(diags: &[Diagnostic]) -> bool {
    diags.iter().all(|d| d.severity < Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq::{allocate, AliasCode, DepGraph, MemKind};

    fn figure2() -> (RegionSpec, Vec<MemOpId>) {
        let mut r = RegionSpec::new();
        let m0 = r.push(MemKind::Store, 0);
        let m1 = r.push(MemKind::Load, 1);
        let m2 = r.push(MemKind::Store, 2);
        let m3 = r.push(MemKind::Load, 3);
        r.set_may_alias(m1, m2, true);
        r.set_may_alias(m3, m0, true);
        r.set_may_alias(m3, m2, true);
        (r, vec![m3, m1, m2, m0])
    }

    #[test]
    fn clean_allocation_verifies_and_lints_clean() {
        let (r, sched) = figure2();
        let deps = DepGraph::compute(&r);
        let alloc = allocate(&r, &deps, &sched, 64).unwrap();
        let diags = check_region(0, &r, &sched, &alloc, 64);
        assert!(
            is_clean(&diags),
            "expected clean, got: {:?}",
            diags.iter().map(|d| d.to_json()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stripped_c_bit_is_a_missing_check() {
        let (r, sched) = figure2();
        let deps = DepGraph::compute(&r);
        let alloc = allocate(&r, &deps, &sched, 64).unwrap();
        let m0 = MemOpId::new(0);
        // Strip m0's C bit from the code stream only: the symbolic replay
        // must notice m0 never examines m3's register.
        let code: Vec<AliasCode> = alloc
            .code()
            .iter()
            .map(|c| match *c {
                AliasCode::Op {
                    id, p_bit, offset, ..
                } if id == m0 => AliasCode::Op {
                    id,
                    p_bit,
                    c_bit: false,
                    offset,
                },
                other => other,
            })
            .collect();
        let per_op: Vec<_> = (0..r.len())
            .map(|i| alloc.op(MemOpId::new(i)).copied())
            .collect();
        let tampered = Allocation::from_parts(
            per_op,
            code,
            alloc.working_set(),
            alloc.stats(),
            alloc.final_checks().to_vec(),
        );
        let diags = verify_region(0, &r, &sched, &tampered);
        assert!(
            diags.iter().any(|d| d.code == "missing-check"
                && d.op == Some(m0)
                && d.witness.as_deref() == Some("M0 ->check M3")),
            "got: {diags:?}"
        );
    }

    #[test]
    fn facts_agree_with_production_constraint_analysis() {
        // The whole point of the second implementation: on real fixtures
        // the independent derivation must reproduce the production sets.
        use smarq::ConstraintGraph;
        let (r, sched) = figure2();
        let deps = DepGraph::compute(&r);
        let graph = ConstraintGraph::derive(&r, &deps, &sched);
        let facts = RegionFacts::derive(&r, &sched);
        let mut ours: Vec<_> = facts.required_checks().collect();
        let mut theirs: Vec<_> = graph.checks().map(|c| (c.src, c.dst)).collect();
        ours.sort();
        theirs.sort();
        assert_eq!(ours, theirs);
        let mut our_antis: Vec<_> = facts.anti_constraints().collect();
        let mut their_antis: Vec<_> = graph.antis().map(|c| (c.src, c.dst)).collect();
        our_antis.sort();
        their_antis.sort();
        assert_eq!(our_antis, their_antis);
    }

    #[test]
    fn trace_without_allocation_verifies_vacuously() {
        // ALAT / no-alias-hardware schemes never allocate; nothing to prove.
        let (r, sched) = figure2();
        let deps = DepGraph::compute(&r);
        let trace = OptTrace {
            spec: r,
            deps,
            mem_schedule: sched,
            allocation: None,
            mem_origin: Vec::new(),
        };
        assert!(verify_trace(0, &trace, 64).is_empty());
        assert!(check_trace(0, &trace, 64).is_empty());
    }
}
