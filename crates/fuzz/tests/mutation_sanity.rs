//! Mutation sanity: prove the oracles can actually catch a bug.
//!
//! `smarq::fault::set_drop_plain_deps(true)` weakens the constraint
//! analysis — the sealed fast path of `DepGraph::compute` silently drops
//! a deterministic subset of plain dependence edges, exactly a
//! missed-may-alias bug. The fuzzer must (1) find a divergence, (2)
//! delta-debug it to a small repro, and (3) see the repro go green again
//! once the fault is removed.
//!
//! `smarq::fault::set_drop_anti(true)` injects the complementary bug:
//! the allocator skips §4.2 anti-constraint handling entirely. That one
//! is *invisible* to end-to-end oracles — false-positive alias checks
//! roll back and re-execute correctly, they just waste cycles — so the
//! tests below prove the **static validator alone** (`crates/verify`, no
//! execution of any kind) flags both injected faults.
//!
//! Two further faults target the *chain* layer: `set_drop_boundary`
//! (the region write mask forgets a written register) and
//! `set_widen_range` (the runtime's dataflow keeps unsoundly narrow
//! entry ranges). Both are invisible to the per-region validator, and on
//! programs whose pointers never meet they are invisible to execution
//! oracles too — the whole-chain analyzer alone must flag them. A narrow
//! range can also make the optimizer drop a dependence on a pair that
//! does meet, after the widening point; the chain analyzer re-proves every
//! such range-derived disjointness and flags that one as well.
//!
//! The fault switches are process-wide, which is why this lives in its
//! own integration-test binary: cargo gives it a dedicated process, so
//! enabling a fault cannot race with unrelated tests. Within the binary,
//! `FAULT_LOCK` serializes the tests against each other.

use smarq::{allocate, DepGraph, MemKind, MemOpId, RegionSpec};
use smarq_fuzz::{check_program, run_campaign, CampaignParams, OracleParams};
use smarq_guest::{AluOp, CmpOp, Program, ProgramBuilder, Reg};
use smarq_runtime::{DynOptSystem, StopReason, SystemConfig};
use std::sync::Mutex;

/// Serializes every test that flips a process-wide fault switch.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn weakened_dependence_rule_is_caught_and_minimized() {
    let _guard = fault_lock();
    smarq::fault::set_drop_plain_deps(true);
    let params = CampaignParams {
        seed: 0,
        cases: 200,
        budget: None,
        max_repros: 1,
        minimize_attempts: 400,
        ..CampaignParams::default()
    };
    let outcome = run_campaign(&params, |_| {});
    smarq::fault::set_drop_plain_deps(false);

    assert!(
        !outcome.repros.is_empty(),
        "oracles failed to catch the injected constraint weakening in {} cases",
        outcome.cases_run
    );
    let repro = &outcome.repros[0];
    assert!(
        repro.program.static_instrs() <= 12,
        "minimization stalled at {} ops (from {}):\n{}",
        repro.program.static_instrs(),
        repro.original_ops,
        repro.render()
    );
    assert!(
        repro.program.static_instrs() < repro.original_ops,
        "minimizer made no progress"
    );

    // On unmodified code the minimized repro must replay green.
    check_program(&repro.program, &OracleParams::default())
        .expect("repro diverges only under the injected fault");
}

/// The paper's Figure 2 region: schedule `[m3, m1, m2, m0]` hoists both
/// loads above the stores they may alias.
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

/// Region whose check/anti edges form a cycle the allocator must break
/// with a moving AMOV (mirrors `smarq::alloc`'s `cycle_region` fixture).
/// Dropping anti handling leaves the producer's entry live inside a
/// checker's scan window — a false-positive the validator must prove.
fn cycle_region() -> (RegionSpec, Vec<MemOpId>) {
    let mut r = RegionSpec::new();
    let c1 = r.push(MemKind::Store, 0);
    let s = r.push(MemKind::Store, 1);
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
    r.add_load_elim(x, z2);
    r.add_load_elim(c1, z1);
    (r, vec![c1, v, x, s, y])
}

/// The static validator alone — no interpreter, no VLIW simulator, no
/// differential execution — catches the dropped-dependence fault: the
/// faulted analysis omits the `m0 -> m3` plain dependence, the faulted
/// allocation omits its check, and the independently derived facts prove
/// the check is required.
#[test]
fn static_validator_catches_dropped_plain_deps() {
    let _guard = fault_lock();
    let (r, sched) = figure2();

    smarq::fault::set_drop_plain_deps(true);
    let deps = DepGraph::compute(&r);
    let alloc = allocate(&r, &deps, &sched, 64).expect("fault only weakens, never breaks, alloc");
    smarq::fault::set_drop_plain_deps(false);

    let diags = smarq_verify::verify_region(0, &r, &sched, &alloc);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "missing-check" && d.witness.as_deref() == Some("M0 ->check M3")),
        "static validator missed the dropped dependence: {diags:?}"
    );

    // Same region without the fault: proven correct.
    let deps = DepGraph::compute(&r);
    let alloc = allocate(&r, &deps, &sched, 64).unwrap();
    let diags = smarq_verify::verify_region(0, &r, &sched, &alloc);
    assert!(smarq_verify::is_clean(&diags), "got: {diags:?}");
}

/// Rollback-free counted loop: the store (0x2000) and the load (0x1000)
/// never truly alias, so the hoisted load's protection never fires — the
/// write mask is only ever *saved*, never *restored*, and the dropped
/// bit is invisible to every execution oracle.
fn hoistable_loop(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), iters);
    b.iconst(entry, Reg(3), 0x1000);
    b.iconst(entry, Reg(5), 0x2000);
    b.jump(entry, body);
    b.st(body, Reg(1), Reg(5), 0);
    b.ld(body, Reg(4), Reg(3), 0);
    b.alu(body, AluOp::Add, Reg(4), Reg(4), Reg(1));
    b.st(body, Reg(4), Reg(3), 0);
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    b.finish(entry)
}

/// Loop whose store pointer strides by 8 every iteration: the whole-
/// program dataflow must widen the pointer's interval at the loop head,
/// which is exactly the step `SMARQ_FAULT_WIDEN_RANGE` sabotages.
fn striding_loop(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), iters);
    b.iconst(entry, Reg(3), 0x1000);
    b.iconst(entry, Reg(5), 0x8000);
    b.jump(entry, body);
    b.st(body, Reg(1), Reg(3), 0);
    b.ld(body, Reg(4), Reg(5), 0);
    b.alu_imm(body, AluOp::Add, Reg(3), Reg(3), 8);
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    b.finish(entry)
}

fn verify_cfg() -> SystemConfig {
    let mut cfg = SystemConfig {
        hot_threshold: 10,
        ..SystemConfig::default()
    };
    cfg.verify_translations = true;
    cfg
}

fn run_verified(p: &Program) -> DynOptSystem {
    let mut sys = DynOptSystem::new(p.clone(), verify_cfg());
    assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
    sys
}

/// `SMARQ_FAULT_DROP_BOUNDARY` makes [`smarq_vliw::RegionWriteMask::of`]
/// forget one written integer register — a broken chain-boundary
/// obligation (a chained rollback would restore stale state). On a
/// rollback-free program no execution path ever consults the mask, and
/// the per-region validator never sees it (the mask is a runtime
/// artifact, not region code): the **chain analyzer alone** flags it.
#[test]
fn chain_analyzer_alone_catches_dropped_write_mask_bit() {
    let _guard = fault_lock();
    let p = hoistable_loop(200);

    smarq::fault::set_drop_boundary(true);
    let sys = run_verified(&p);
    smarq::fault::set_drop_boundary(false);

    // Invisible to execution: bit-exact vs pure interpretation, and the
    // mask was never consulted for a restore.
    let mut reference = smarq_guest::Interpreter::new();
    reference.run(&p, u64::MAX);
    assert_eq!(sys.interp().arch_state(), reference.arch_state());
    assert_eq!(sys.stats().rollbacks, 0);
    // Invisible to the per-region validator and lint passes.
    assert_eq!(sys.stats().verify_errors, 0);
    // The chain analyzer catches it — both at link time...
    let s = sys.stats();
    assert!(s.chain_checks > 0, "self-loop region must chain-check");
    assert!(s.chain_errors > 0, "link-time chain check missed the gap");
    // ...and in the whole-chain report, as the right code.
    let report = sys.analyze_chain().expect("verify mode keeps traces");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "chain-writemask-gap" && d.severity == smarq::Severity::Error),
        "{:?}",
        report.diagnostics
    );

    // Same program without the fault: proven correct.
    let clean = run_verified(&p);
    assert_eq!(clean.stats().chain_errors, 0);
    let report = clean.analyze_chain().unwrap();
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.code == "chain-writemask-gap"),
        "{:?}",
        report.diagnostics
    );
}

/// `SMARQ_FAULT_WIDEN_RANGE` makes the runtime's whole-program dataflow
/// skip widening — the optimizer's entry-range assumption for the loop
/// head stays unsoundly narrow while the chain actually delivers an
/// ever-growing pointer. The optimizer reads that state: it calls the
/// striding store and the load disjoint, and drops their dependence. Here
/// the pointer never reaches the load's word, so execution is untouched;
/// the per-region validator holds no cross-region facts to object with —
/// only the chain analyzer's never-faulted reference fixpoint exposes the
/// lie.
#[test]
fn chain_analyzer_alone_catches_unsound_range_widening() {
    let _guard = fault_lock();
    let p = striding_loop(200);

    smarq::fault::set_widen_range(true);
    let sys = run_verified(&p);
    smarq::fault::set_widen_range(false);

    let mut reference = smarq_guest::Interpreter::new();
    reference.run(&p, u64::MAX);
    assert_eq!(sys.interp().arch_state(), reference.arch_state());
    assert_eq!(sys.stats().verify_errors, 0);
    let s = sys.stats();
    assert!(s.chain_checks > 0);
    assert!(s.chain_errors > 0, "link-time chain check missed the gap");
    let report = sys.analyze_chain().expect("verify mode keeps traces");
    assert!(
        report.diagnostics.iter().any(|d| {
            d.code == "chain-entry-state"
                && d.severity == smarq::Severity::Error
                && d.message.contains("r3")
        }),
        "{:?}",
        report.diagnostics
    );

    // Same program without the fault: the assumption is sound again.
    let clean = run_verified(&p);
    assert_eq!(clean.stats().chain_errors, 0);
    let report = clean.analyze_chain().unwrap();
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.code == "chain-entry-state"),
        "{:?}",
        report.diagnostics
    );
}

/// Loop whose store pointer strides by 8 from `0x1000` and reaches the
/// load's fixed word `0x1000 + 8 * meet` at iteration `meet`. The store's
/// value comes from a multiply chain, so a load free of the store hoists
/// above it.
fn striding_loop_meeting(iters: i64, meet: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), iters);
    b.iconst(entry, Reg(3), 0x1000);
    b.iconst(entry, Reg(5), 0x1000 + 8 * meet);
    b.jump(entry, body);
    b.alu(body, AluOp::Mul, Reg(6), Reg(1), Reg(1));
    b.alu(body, AluOp::Mul, Reg(6), Reg(6), Reg(1));
    b.st(body, Reg(6), Reg(3), 0);
    b.ld(body, Reg(4), Reg(5), 0);
    b.alu(body, AluOp::Add, Reg(7), Reg(7), Reg(4));
    b.alu_imm(body, AluOp::Add, Reg(3), Reg(3), 8);
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    b.finish(entry)
}

/// Under `SMARQ_FAULT_WIDEN_RANGE` the loop head's store pointer keeps an
/// unsoundly narrow interval, and the load's word lies past it: the
/// optimizer calls the pair disjoint although the pointer reaches the
/// load's word at iteration 40, long after the widening point and the
/// warm-up profile. The chain analyzer's `range-unproven-disjoint` flags
/// exactly that pair; without the fault the pair stays may-alias and
/// nothing is flagged.
#[test]
fn chain_analyzer_catches_a_range_disjointness_the_widening_fault_invented() {
    let _guard = fault_lock();
    let p = striding_loop_meeting(200, 40);
    let unproven = |sys: &DynOptSystem| {
        let report = sys.analyze_chain().expect("verify mode keeps traces");
        report
            .diagnostics
            .iter()
            .filter(|d| d.code == "range-unproven-disjoint")
            .map(|d| d.severity)
            .collect::<Vec<_>>()
    };

    smarq::fault::set_widen_range(true);
    let sys = run_verified(&p);
    smarq::fault::set_widen_range(false);
    let found = unproven(&sys);
    assert!(
        !found.is_empty(),
        "the invented disjointness went unflagged"
    );
    assert!(
        found.iter().all(|&s| s == smarq::Severity::Error),
        "{found:?}"
    );
    assert!(
        sys.stats().chain_errors > 0,
        "link-time chain check missed it"
    );

    let clean = run_verified(&p);
    assert_eq!(unproven(&clean), vec![]);
    assert_eq!(clean.stats().chain_errors, 0);
    let mut reference = smarq_guest::Interpreter::new();
    reference.run(&p, u64::MAX);
    assert_eq!(clean.interp().arch_state(), reference.arch_state());
}

/// The static validator alone catches the dropped-anti fault, which NO
/// execution-based oracle can: a violated anti-constraint only fires
/// spurious alias exceptions, and rollback re-executes correctly. With
/// §4.2 skipped the allocator leaves a producer's entry live inside a
/// checker's scan window; the symbolic replay proves the false positive
/// and the order-rule audit flags the inverted register order.
#[test]
fn static_validator_catches_dropped_anti_constraints() {
    let _guard = fault_lock();
    let (r, sched) = cycle_region();

    smarq::fault::set_drop_anti(true);
    let deps = DepGraph::compute(&r);
    let alloc = allocate(&r, &deps, &sched, 64).expect("fault only weakens, never breaks, alloc");
    smarq::fault::set_drop_anti(false);

    let diags = smarq_verify::verify_region(0, &r, &sched, &alloc);
    assert!(
        diags.iter().any(|d| d.code == "false-positive"),
        "symbolic replay missed the unenforced anti-constraint: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.code == "order-rule"),
        "order audit missed the inverted producer/checker order: {diags:?}"
    );

    // Same region without the fault: proven correct.
    let deps = DepGraph::compute(&r);
    let alloc = allocate(&r, &deps, &sched, 64).unwrap();
    let diags = smarq_verify::verify_region(0, &r, &sched, &alloc);
    assert!(smarq_verify::is_clean(&diags), "got: {diags:?}");
}
