//! Pluggable lint passes over optimized regions.
//!
//! Where the replay validator ([`crate::replay`]) proves hard correctness
//! properties, lint passes flag *quality* problems — wasted checks, dead
//! `AMOV`s, register pressure close to the hardware limit — plus one
//! redundant structural safety net (`unprotected-speculation`). Each pass
//! sees the same [`LintContext`] the validator worked from and appends
//! [`Diagnostic`]s; adding a pass means implementing [`LintPass`] and
//! registering it in [`default_passes`] (or passing a custom set to
//! [`run_passes`]).

use crate::facts::RegionFacts;
use smarq::range::Interval;
use smarq::{AliasCode, Allocation, Diagnostic, MemOpId, RegionSpec, Severity};

/// Everything a lint pass may inspect about one optimized region.
pub struct LintContext<'a> {
    /// Region index in formation order (goes into diagnostics).
    pub region_id: usize,
    /// The original superblock's memory shape.
    pub spec: &'a RegionSpec,
    /// The final memory schedule.
    pub schedule: &'a [MemOpId],
    /// The emitted allocation under scrutiny.
    pub alloc: &'a Allocation,
    /// The *hardware* alias register count the region will run on (the
    /// allocation's working set must fit it).
    pub num_regs: u32,
    /// Independently derived protection requirements.
    pub facts: &'a RegionFacts,
    /// Derived access-address interval per [`MemOpId`] index (⊤ where
    /// unknown), from the value-range analysis; `None` when no range
    /// analysis ran. Range-aware passes refine their verdicts with it.
    pub addr: Option<&'a [Interval]>,
}

/// One lint pass. Implementations must be pure observers: they read the
/// context and append diagnostics, nothing else.
pub trait LintPass {
    /// Stable pass name (also used as the diagnostic code prefix).
    fn name(&self) -> &'static str;
    /// One-line description for `smarq lint --list`.
    fn description(&self) -> &'static str;
    /// Runs the pass, appending any findings to `out`.
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// The built-in passes, in execution order.
pub fn default_passes() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(RedundantCheck),
        Box::new(DeadAmov),
        Box::new(OverflowRisk),
        Box::new(UnprotectedSpeculation),
    ]
}

/// Runs `passes` over `cx`, returning their combined findings.
pub fn run_passes(cx: &LintContext<'_>, passes: &[Box<dyn LintPass>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for p in passes {
        p.run(cx, &mut out);
    }
    out
}

/// Flags emitted `C` bits that no required check justifies: the scan is
/// pure overhead — it can only ever examine ranges the op either never
/// aliases or must not be examining at all.
pub struct RedundantCheck;

impl LintPass for RedundantCheck {
    fn name(&self) -> &'static str {
        "redundant-check"
    }
    fn description(&self) -> &'static str {
        "C bit emitted for an op that is not required to check anything"
    }
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for (pc, code) in cx.alloc.code().iter().enumerate() {
            let AliasCode::Op {
                id, c_bit: true, ..
            } = *code
            else {
                continue;
            };
            if !cx.facts.requires_c(id) {
                out.push(
                    Diagnostic::new(
                        Severity::Warning,
                        cx.region_id,
                        "redundant-check",
                        format!("{id} checks alias registers but no check-constraint needs it"),
                    )
                    .with_op(id)
                    .with_span(pc, pc + 1),
                );
            }
        }
    }
}

/// Flags `AMOV`s whose effect nothing downstream can observe: a relocation
/// preserving a range no later op is required to check, or a clean-up
/// executed after the last scan of the region.
pub struct DeadAmov;

impl LintPass for DeadAmov {
    fn name(&self) -> &'static str {
        "dead-amov"
    }
    fn description(&self) -> &'static str {
        "AMOV whose moved or cleared range no later check can observe"
    }
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let code = cx.alloc.code();
        // Ops with a C bit at each code position, for the "any scan left?"
        // question, and their ids for the "required check left?" question.
        let later_checkers: Vec<Vec<MemOpId>> = {
            let mut acc: Vec<MemOpId> = Vec::new();
            let mut per_pc: Vec<Vec<MemOpId>> = vec![Vec::new(); code.len()];
            for pc in (0..code.len()).rev() {
                per_pc[pc] = acc.clone();
                if let AliasCode::Op {
                    id, c_bit: true, ..
                } = code[pc]
                {
                    acc.push(id);
                }
            }
            per_pc
        };
        for (pc, c) in code.iter().enumerate() {
            let AliasCode::Amov(amov) = c else { continue };
            let dead = if amov.is_move {
                // A relocation is justified only by a checker still to come
                // that is required to examine the moved range.
                !later_checkers[pc]
                    .iter()
                    .any(|&x| cx.facts.is_required_check(x, amov.moved_op))
            } else {
                // A clean-up is justified only by *some* scan still to
                // come — it exists to hide the range from that scan.
                later_checkers[pc].is_empty()
            };
            if dead {
                let what = if amov.is_move {
                    "relocates a range no later op is required to check"
                } else {
                    "clears a range after the region's last scan"
                };
                out.push(
                    Diagnostic::new(
                        Severity::Warning,
                        cx.region_id,
                        "dead-amov",
                        format!("AMOV for {} {what}", amov.moved_op),
                    )
                    .with_op(amov.moved_op)
                    .with_span(pc, pc + 1),
                );
            }
        }
    }
}

/// Flags allocations that exceed — or come within an eighth of — the
/// hardware alias register file. Overflow is an error (the region cannot
/// run under speculation); near-overflow is a warning (one more hoist or a
/// larger unroll tips it over, costing a retranslation).
///
/// The register demand is **re-derived from the code stream** — the
/// largest offset any `P`/`C` op or `AMOV` references, and the largest
/// rotation amount — rather than trusting the allocation's recorded
/// `working_set()` statistic. A tampered or miscomputed statistic that
/// *understates* the demand would otherwise hide a genuine overflow.
pub struct OverflowRisk;

/// The minimal alias register file the code stream can run on: every
/// referenced offset must exist (`offset < N`) and every rotation must
/// fit (`amount <= N`), per [`smarq::AliasQueue`] semantics.
fn derived_working_set(alloc: &Allocation) -> u32 {
    let mut need = 0u32;
    for c in alloc.code() {
        match *c {
            AliasCode::Op {
                p_bit,
                c_bit,
                offset: Some(o),
                ..
            } if p_bit || c_bit => need = need.max(o.value() + 1),
            AliasCode::Amov(a) => {
                need = need
                    .max(a.src_offset.value() + 1)
                    .max(a.dst_offset.value() + 1);
            }
            AliasCode::Rotate(r) => need = need.max(r.amount),
            _ => {}
        }
    }
    need
}

impl LintPass for OverflowRisk {
    fn name(&self) -> &'static str {
        "overflow-risk"
    }
    fn description(&self) -> &'static str {
        "re-derived working set exceeds or crowds the hardware alias register file"
    }
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let ws = derived_working_set(cx.alloc);
        let recorded = cx.alloc.working_set();
        let hw = cx.num_regs;
        let liar = if ws > recorded {
            format!(" (recorded working set {recorded} understates the code stream)")
        } else {
            String::new()
        };
        if ws > hw {
            out.push(Diagnostic::new(
                Severity::Error,
                cx.region_id,
                "overflow-risk",
                format!("working set {ws} exceeds the {hw}-register hardware file{liar}"),
            ));
        } else if u64::from(ws) * 8 >= u64::from(hw) * 7 {
            out.push(Diagnostic::new(
                Severity::Warning,
                cx.region_id,
                "overflow-risk",
                format!(
                    "working set {ws} uses >= 7/8 of the {hw}-register hardware file; \
                     one more hoisted op risks an allocation overflow{liar}"
                ),
            ));
        }
    }
}

/// Structural completeness check: every required check-constraint must be
/// backed by the emitted bits — the checkee sets a register (`P`) and the
/// checker scans (`C`). The replay validator proves the same property
/// end-to-end; this pass exists to localize the failure to the exact
/// missing bit.
///
/// Range-aware: when the value-range analysis supplies address intervals
/// ([`LintContext::addr`]) and the pair's access footprints are provably
/// disjoint, the missing bit cannot cause a missed alias at runtime — the
/// finding is downgraded from [`Severity::Error`] to
/// [`Severity::Warning`] (the may-alias fact is stale, not the bits). The
/// downgrade stays a warning although the optimizer now drops such pairs
/// itself: the intervals come from the caller's own derivation (`smarq
/// lint` uses the never-faulted `analyze_reference`), so a pair they call
/// disjoint cannot alias, whatever entry state the region was optimized
/// with.
pub struct UnprotectedSpeculation;

impl LintPass for UnprotectedSpeculation {
    fn name(&self) -> &'static str {
        "unprotected-speculation"
    }
    fn description(&self) -> &'static str {
        "a required check-constraint lacks its emitted P or C bit"
    }
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for (checker, checkee) in cx.facts.required_checks() {
            let witness = format!("{checker} ->check {checkee}");
            let harmless = cx
                .addr
                .is_some_and(|addr| addr[checker.index()].access_disjoint(addr[checkee.index()]));
            let (sev, note) = if harmless {
                (
                    Severity::Warning,
                    " (derived address ranges are disjoint, so the pair cannot alias)",
                )
            } else {
                (Severity::Error, "")
            };
            match cx.alloc.op(checkee) {
                Some(a) if a.p_bit => {}
                _ => out.push(
                    Diagnostic::new(
                        sev,
                        cx.region_id,
                        "unprotected-speculation",
                        format!(
                            "{checkee} was reordered or stands in for an eliminated op \
                             but sets no alias register{note}"
                        ),
                    )
                    .with_op(checkee)
                    .with_witness(witness.clone()),
                ),
            }
            match cx.alloc.op(checker) {
                Some(a) if a.c_bit => {}
                _ => out.push(
                    Diagnostic::new(
                        sev,
                        cx.region_id,
                        "unprotected-speculation",
                        format!("{checker} must check {checkee}'s register but has no C bit{note}"),
                    )
                    .with_op(checker)
                    .with_witness(witness),
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq::alloc::AllocStats;
    use smarq::{allocate, AmovInsn, DepGraph, MemKind, Offset, OpAlias};

    /// Paper Figure 2 region + schedule + a clean allocation.
    fn figure2() -> (RegionSpec, Vec<MemOpId>, Allocation) {
        let mut r = RegionSpec::new();
        let m0 = r.push(MemKind::Store, 0);
        let m1 = r.push(MemKind::Load, 1);
        let m2 = r.push(MemKind::Store, 2);
        let m3 = r.push(MemKind::Load, 3);
        r.set_may_alias(m1, m2, true);
        r.set_may_alias(m3, m0, true);
        r.set_may_alias(m3, m2, true);
        let deps = DepGraph::compute(&r);
        let sched = vec![m3, m1, m2, m0];
        let alloc = allocate(&r, &deps, &sched, 64).unwrap();
        (r, sched, alloc)
    }

    fn run_pass(
        pass: &dyn LintPass,
        spec: &RegionSpec,
        schedule: &[MemOpId],
        alloc: &Allocation,
        num_regs: u32,
    ) -> Vec<Diagnostic> {
        run_pass_ranged(pass, spec, schedule, alloc, num_regs, None)
    }

    fn run_pass_ranged(
        pass: &dyn LintPass,
        spec: &RegionSpec,
        schedule: &[MemOpId],
        alloc: &Allocation,
        num_regs: u32,
        addr: Option<&[Interval]>,
    ) -> Vec<Diagnostic> {
        let facts = RegionFacts::derive(spec, schedule);
        let cx = LintContext {
            region_id: 0,
            spec,
            schedule,
            alloc,
            num_regs,
            facts: &facts,
            addr,
        };
        let mut out = Vec::new();
        pass.run(&cx, &mut out);
        out
    }

    /// Rebuilds `alloc` with `edit` applied to its code stream.
    fn with_code(
        spec: &RegionSpec,
        alloc: &Allocation,
        edit: impl Fn(Vec<AliasCode>) -> Vec<AliasCode>,
    ) -> Allocation {
        let per_op: Vec<_> = (0..spec.len())
            .map(|i| alloc.op(MemOpId::new(i)).copied())
            .collect();
        Allocation::from_parts(
            per_op,
            edit(alloc.code().to_vec()),
            alloc.working_set(),
            alloc.stats(),
            alloc.final_checks().to_vec(),
        )
    }

    #[test]
    fn redundant_check_clean_region_passes() {
        let (r, sched, alloc) = figure2();
        assert!(run_pass(&RedundantCheck, &r, &sched, &alloc, 64).is_empty());
    }

    #[test]
    fn redundant_check_flags_gratuitous_c_bit() {
        let (r, sched, alloc) = figure2();
        // m3 is a pure producer; give it a C bit it does not need.
        let m3 = MemOpId::new(3);
        let tampered = with_code(&r, &alloc, |code| {
            code.into_iter()
                .map(|c| match c {
                    AliasCode::Op {
                        id, p_bit, offset, ..
                    } if id == m3 => AliasCode::Op {
                        id,
                        p_bit,
                        c_bit: true,
                        offset,
                    },
                    other => other,
                })
                .collect()
        });
        let diags = run_pass(&RedundantCheck, &r, &sched, &tampered, 64);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "redundant-check");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].op, Some(m3));
    }

    #[test]
    fn dead_amov_legit_cleanup_passes() {
        let (r, sched, alloc) = figure2();
        // Insert a clean-up AMOV for m3 *before* the region's remaining
        // scans: it hides the range from them, so it is justified.
        let m3 = MemOpId::new(3);
        let off = alloc.op(m3).unwrap().offset;
        let amov = AliasCode::Amov(AmovInsn {
            moved_op: m3,
            src_offset: off,
            dst_offset: off,
            is_move: false,
        });
        let edited = with_code(&r, &alloc, |mut code| {
            code.insert(1, amov);
            code
        });
        let diags = run_pass(&DeadAmov, &r, &sched, &edited, 64);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dead_amov_flags_cleanup_after_last_scan() {
        let (r, sched, alloc) = figure2();
        let m3 = MemOpId::new(3);
        let off = alloc.op(m3).unwrap().offset;
        let amov = AliasCode::Amov(AmovInsn {
            moved_op: m3,
            src_offset: off,
            dst_offset: off,
            is_move: false,
        });
        let tampered = with_code(&r, &alloc, |mut code| {
            code.push(amov); // after every scan: guards nothing
            code
        });
        let diags = run_pass(&DeadAmov, &r, &sched, &tampered, 64);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "dead-amov");
        assert_eq!(diags[0].op, Some(m3));
    }

    #[test]
    fn dead_amov_flags_relocation_nobody_checks() {
        let (r, sched, alloc) = figure2();
        // m1's range is required by nobody (m1 stays in order below m2):
        // "relocating" it is dead even with scans still to come.
        let m1 = MemOpId::new(1);
        let amov = AliasCode::Amov(AmovInsn {
            moved_op: m1,
            src_offset: Offset(0),
            dst_offset: Offset(1),
            is_move: true,
        });
        let tampered = with_code(&r, &alloc, |mut code| {
            code.insert(0, amov);
            code
        });
        let diags = run_pass(&DeadAmov, &r, &sched, &tampered, 64);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "dead-amov");
        assert_eq!(diags[0].op, Some(m1));
    }

    #[test]
    fn overflow_risk_roomy_file_passes() {
        let (r, sched, alloc) = figure2();
        assert!(run_pass(&OverflowRisk, &r, &sched, &alloc, 64).is_empty());
    }

    #[test]
    fn overflow_risk_flags_overflow_and_crowding() {
        let (r, sched, alloc) = figure2();
        let ws = alloc.working_set();
        // Hardware file smaller than the working set: hard error.
        let diags = run_pass(&OverflowRisk, &r, &sched, &alloc, ws - 1);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "overflow-risk");
        assert_eq!(diags[0].severity, Severity::Error);
        // Exactly-full file: fits, but crowded — warning.
        let diags = run_pass(&OverflowRisk, &r, &sched, &alloc, ws);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn overflow_risk_ignores_understated_working_set_stat() {
        let (r, sched, alloc) = figure2();
        // Graft an AMOV referencing offset 3 into the code stream while
        // the recorded working-set statistic stays at the original
        // (smaller) value: the code stream now demands a 4-register file
        // the statistic understates.
        let m3 = MemOpId::new(3);
        let tampered = with_code(&r, &alloc, |mut code| {
            code.push(AliasCode::Amov(AmovInsn {
                moved_op: m3,
                src_offset: Offset(3),
                dst_offset: Offset(3),
                is_move: false,
            }));
            code
        });
        assert_eq!(derived_working_set(&tampered), 4);
        assert!(tampered.working_set() < 4, "statistic must understate");
        // Positive: one register short of the re-derived demand is an
        // overflow, regardless of the lying statistic.
        let diags = run_pass(&OverflowRisk, &r, &sched, &tampered, 3);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("understates"), "{diags:?}");
        // Negative at the exact boundary: the demand just fits — crowding
        // warning at most, never an error.
        let diags = run_pass(&OverflowRisk, &r, &sched, &tampered, 4);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn unprotected_speculation_disjoint_ranges_downgrade_to_warning() {
        let (r, sched, alloc) = figure2();
        // Strip the hoisted load's P bit so both its check-pairs fire.
        let m3 = MemOpId::new(3);
        let per_op: Vec<_> = (0..r.len())
            .map(|i| {
                let id = MemOpId::new(i);
                let mut a = alloc.op(id).copied();
                if id == m3 {
                    if let Some(op_alias) = a.as_mut() {
                        op_alias.p_bit = false;
                    }
                }
                a
            })
            .collect();
        let tampered = Allocation::from_parts(
            per_op,
            alloc.code().to_vec(),
            alloc.working_set(),
            alloc.stats(),
            alloc.final_checks().to_vec(),
        );
        // Without range information: hard errors.
        let diags = run_pass(&UnprotectedSpeculation, &r, &sched, &tampered, 64);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
        // Provably disjoint footprints: the missing bit cannot miss a real
        // alias, so the findings downgrade to warnings.
        let addrs = [
            Interval::exact(0x000),
            Interval::exact(0x100),
            Interval::exact(0x200),
            Interval::exact(0x300),
        ];
        let diags = run_pass_ranged(
            &UnprotectedSpeculation,
            &r,
            &sched,
            &tampered,
            64,
            Some(&addrs),
        );
        assert!(!diags.is_empty());
        assert!(
            diags.iter().all(|d| d.severity == Severity::Warning),
            "{diags:?}"
        );
        // ⊤ addresses (nothing proven) must not downgrade.
        let tops = [Interval::TOP; 4];
        let diags = run_pass_ranged(
            &UnprotectedSpeculation,
            &r,
            &sched,
            &tampered,
            64,
            Some(&tops),
        );
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn unprotected_speculation_clean_region_passes() {
        let (r, sched, alloc) = figure2();
        assert!(run_pass(&UnprotectedSpeculation, &r, &sched, &alloc, 64).is_empty());
    }

    #[test]
    fn unprotected_speculation_flags_stripped_bits() {
        let (r, sched, alloc) = figure2();
        let (m0, m3) = (MemOpId::new(0), MemOpId::new(3));
        // Strip the P bit from the hoisted load's metadata and the C bit
        // from one checker: both halves of the pass must fire.
        let strip = |a: Option<OpAlias>, id: MemOpId, target: MemOpId, p: bool| match a {
            Some(mut op_alias) if id == target => {
                if p {
                    op_alias.p_bit = false;
                } else {
                    op_alias.c_bit = false;
                }
                Some(op_alias)
            }
            other => other,
        };
        let per_op: Vec<_> = (0..r.len())
            .map(|i| {
                let id = MemOpId::new(i);
                let a = alloc.op(id).copied();
                let a = strip(a, id, m3, true);
                strip(a, id, m0, false)
            })
            .collect();
        let tampered = Allocation::from_parts(
            per_op,
            alloc.code().to_vec(),
            alloc.working_set(),
            AllocStats::default(),
            alloc.final_checks().to_vec(),
        );
        let diags = run_pass(&UnprotectedSpeculation, &r, &sched, &tampered, 64);
        assert!(
            diags
                .iter()
                .any(|d| d.op == Some(m3) && d.code == "unprotected-speculation"),
            "missing P finding: {diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.op == Some(m0) && d.code == "unprotected-speculation"),
            "missing C finding: {diags:?}"
        );
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn pass_names_and_descriptions_are_stable() {
        let names: Vec<_> = default_passes().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "redundant-check",
                "dead-amov",
                "overflow-risk",
                "unprotected-speculation"
            ]
        );
        for p in default_passes() {
            assert!(!p.description().is_empty());
        }
    }
}
