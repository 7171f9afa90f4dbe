//! Integration tests for the whole-chain static analyzer's runtime
//! hookup: unspeculatable address ranges suppressing speculation
//! end-to-end, and chain-boundary verification at link time.

use smarq::range::NospecRanges;
use smarq_guest::{AluOp, CmpOp, Program, ProgramBuilder, Reg};
use smarq_runtime::{DynOptSystem, StopReason, SystemConfig};

/// Counted loop with a store to 0x2000 ahead of a load from 0x1000: the
/// addresses never truly alias, but the store's base arrives through
/// memory, so no range analysis proves the pair apart and the optimizer
/// hoists the load above the store under alias-register protection.
fn hoistable_loop(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), iters);
    b.iconst(entry, Reg(3), 0x1000);
    b.iconst_via_memory(entry, Reg(5), 0x2000, 0x800);
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

fn run(p: Program, cfg: SystemConfig) -> DynOptSystem {
    let mut sys = DynOptSystem::new(p, cfg);
    assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
    sys
}

/// Without nospec ranges the hoisted load speculates (alias entries get
/// scanned); with a range covering the load's address, speculation is
/// provably suppressed — no op carries alias bits, so nothing ever scans.
#[test]
fn nospec_range_suppresses_speculation_end_to_end() {
    let cfg = SystemConfig {
        hot_threshold: 10,
        ..SystemConfig::default()
    };
    let free = run(hoistable_loop(200), cfg);
    assert!(
        free.stats().alias_entries_scanned > 0,
        "baseline must speculate (and therefore scan)"
    );

    let mut cfg = SystemConfig {
        hot_threshold: 10,
        ..SystemConfig::default()
    };
    cfg.nospec_ranges = NospecRanges::parse("0x1000..0x1008").unwrap();
    cfg.verify_translations = true;
    let pinned = run(hoistable_loop(200), cfg);
    assert!(pinned.stats().regions_formed >= 1);
    assert_eq!(
        pinned.stats().alias_entries_scanned,
        0,
        "a tainted load must not be speculated, so nothing checks"
    );
    // Scan the emitted allocations themselves: no scheduled op may carry
    // a P or C bit, and no speculative elimination may have fired.
    for r in &pinned.stats().per_region {
        assert_eq!(r.opt.p_ops, 0, "region {:?} emitted a P bit", r.entry);
        assert_eq!(r.opt.checks, 0, "region {:?} emitted a check", r.entry);
        assert_eq!(
            r.opt.spec_load_elims + r.opt.spec_store_elims,
            0,
            "region {:?} applied a speculative elimination",
            r.entry
        );
    }
    // Architectural result is unchanged: same final accumulator.
    assert_eq!(free.interp().regs[4], pinned.interp().regs[4]);
    // The chain analyzer agrees: fixpoint reached, no nospec violations.
    let report = pinned.analyze_chain().expect("verify mode keeps traces");
    assert!(report.converged);
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.code == "nospec-speculation"),
        "{:?}",
        report.diagnostics
    );
}

/// Under verify-on-emit the chained dispatcher proves every memoized
/// region→region hand-off at link time; a correct optimizer produces
/// zero chain errors.
#[test]
fn link_time_chain_checks_run_and_stay_clean() {
    let mut cfg = SystemConfig {
        hot_threshold: 10,
        ..SystemConfig::default()
    };
    cfg.verify_translations = true;
    let sys = run(hoistable_loop(300), cfg);
    let s = sys.stats();
    assert!(s.regions_verified >= 1, "verify-on-emit ran");
    assert_eq!(s.verify_errors, 0);
    assert!(
        s.chain_checks > 0,
        "the self-loop region must memoize a link and get chain-checked"
    );
    assert_eq!(s.chain_errors, 0, "diags: {:?}", s.verify_diagnostics);

    let report = sys.analyze_chain().expect("verify mode keeps traces");
    assert!(report.converged);
    assert_eq!(report.regions, s.regions_formed);
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.severity < smarq::Severity::Error),
        "{:?}",
        report.diagnostics
    );
}
