//! Deterministic schedule-exploration harness for the async translation
//! pipeline.
//!
//! Every test drives a [`DynOptSystem`] whose translations run on a
//! manually stepped [`StepExecutor`]: a job only advances through
//! *queued → computed → released → published* when the driver says so,
//! and publication itself happens at the next dispatch-step boundary of
//! [`DynOptSystem::run_bounded`]. Guest progress and pipeline progress
//! are therefore two independent clocks the tests interleave explicitly —
//! either by systematically sweeping a publish delay, by scripting one
//! exact schedule, or by seeding [`DynOptSystem::run_interleaved`]'s
//! xorshift schedule (replayable from the seed alone, like fuzz corpus
//! entries).
//!
//! Covered race shapes:
//! 1. **install vs chained execution** — a finished region publishes at
//!    every possible dispatch offset while the guest runs/chains through
//!    the affected blocks ([`install_races_chained_execution`]);
//! 2. **deopt vs in-flight retranslation** — the blacklist grows after a
//!    job snapshotted it, forcing a publish-time generation conflict and
//!    resubmission ([`deopt_races_inflight_retranslation`]);
//! 3. **invalidate vs stale run** — a region keeps executing under an
//!    outdated blacklist while the deopt-triggered invalidation and
//!    republish of another region are held in flight
//!    ([`stale_regions_run_while_invalidation_in_flight`]);
//!
//! plus the satellite concurrency tests: chain-unlink racing resident
//! region execution, and double-publish of the same block index.
//!
//! The key program shape is [`two_loop`] with `flip_at = Some(k)`: two
//! hot inner loops whose load/store pairs are clean until outer
//! iteration `k`, then truly alias. Regions form, publish, and chain
//! long before the first fault — so deopts land on a warm, linked
//! region graph with translations in flight, which is exactly the
//! window the races live in.

use smarq_guest::{AluOp, ArchState, BlockId, CmpOp, Interpreter, Program, ProgramBuilder, Reg};
use smarq_opt::OptConfig;
use smarq_runtime::{DynOptSystem, RunStatus, StepExecutor, StopReason, SystemConfig};

// ---------------------------------------------------------------- helpers

fn reference_state(p: &Program) -> ArchState {
    let mut i = Interpreter::new();
    i.run(p, u64::MAX);
    i.arch_state()
}

/// Async config over a manually stepped executor with the given queue
/// depth; `hot_threshold` is lowered so short programs exercise the
/// pipeline.
fn stepped_system(p: &Program, depth: usize) -> DynOptSystem {
    let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
    cfg.hot_threshold = 20;
    cfg.translate_queue_depth = depth as u32;
    DynOptSystem::with_executor(p.clone(), cfg, Box::new(StepExecutor::manual(depth)))
}

/// Advances every in-flight job to released (publication still waits for
/// the next dispatch boundary).
fn pump_all(sys: &mut DynOptSystem) {
    while sys.translation_compute_one() {}
    while sys.translation_release_one() {}
}

/// Runs to halt, completing each translation exactly `delay` dispatch
/// steps after the driver first observes it in flight.
fn run_with_publish_delay(sys: &mut DynOptSystem, delay: u64) {
    let mut wait: Option<u64> = None;
    loop {
        if sys.run_bounded(1, u64::MAX) == RunStatus::Halted {
            return;
        }
        if sys.translation_outstanding() > 0 {
            let w = wait.get_or_insert(delay);
            if *w == 0 {
                pump_all(sys);
                wait = None;
            } else {
                *w -= 1;
            }
        } else {
            wait = None;
        }
    }
}

/// Hot self-loop with a may-alias (never truly aliasing) load/store pair.
fn plain_loop(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), iters);
    b.iconst(entry, Reg(3), 0x1000);
    b.iconst(entry, Reg(5), 0x2000);
    b.jump(entry, body);
    b.ld(body, Reg(4), Reg(3), 0);
    b.st(body, Reg(4), Reg(5), 0);
    b.alu(body, AluOp::Add, Reg(4), Reg(4), Reg(1));
    b.st(body, Reg(4), Reg(3), 0);
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    b.finish(entry)
}

/// Outer loop alternating two hot inner loops (the regions chain
/// region→region); each inner loop carries a may-alias load/store pair.
///
/// * `alias_l1` / `alias_l2` select which pairs ever truly alias.
/// * `flip_at = None`: an aliasing pair collides from the very first
///   iteration.
/// * `flip_at = Some(k)`: the pairs are clean until outer iteration `k`,
///   then the aliasing loops' load addresses flip onto their store
///   addresses — regions form and chain *before* the first deopt.
fn two_loop(
    outer: i64,
    inner: i64,
    alias_l1: bool,
    alias_l2: bool,
    flip_at: Option<i64>,
) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let a = b.block();
    let l1 = b.block();
    let mid = b.block();
    let l2 = b.block();
    let tail = b.block();
    let done = b.block();
    let aliased_now = |alias: bool| alias && flip_at.is_none();
    b.iconst(entry, Reg(10), 0);
    b.iconst(entry, Reg(11), outer);
    b.iconst(entry, Reg(12), inner);
    b.iconst(entry, Reg(3), 0x1000);
    let r5 = if aliased_now(alias_l1) {
        0x1000
    } else {
        0x2000
    };
    b.iconst(entry, Reg(5), r5);
    b.iconst(entry, Reg(6), 0x3000);
    let r7 = if aliased_now(alias_l2) {
        0x3000
    } else {
        0x4000
    };
    b.iconst(entry, Reg(7), r7);
    if let Some(k) = flip_at {
        b.iconst(entry, Reg(13), k);
    }
    b.jump(entry, a);
    b.iconst(a, Reg(1), 0);
    b.jump(a, l1);
    // L1: store through r3, load through r5 (may-alias pair #1).
    b.st(l1, Reg(1), Reg(3), 0);
    b.ld(l1, Reg(4), Reg(5), 0);
    b.alu_imm(l1, AluOp::Add, Reg(9), Reg(4), 0);
    b.alu_imm(l1, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(l1, CmpOp::Lt, Reg(1), Reg(12), l1, mid);
    b.iconst(mid, Reg(1), 0);
    b.jump(mid, l2);
    // L2: store through r6, load through r7 (may-alias pair #2).
    b.st(l2, Reg(1), Reg(6), 0);
    b.ld(l2, Reg(8), Reg(7), 0);
    b.alu_imm(l2, AluOp::Add, Reg(9), Reg(8), 0);
    b.alu_imm(l2, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(l2, CmpOp::Lt, Reg(1), Reg(12), l2, tail);
    b.alu_imm(tail, AluOp::Add, Reg(10), Reg(10), 1);
    if flip_at.is_some() {
        let chk = b.block();
        let flip = b.block();
        b.branch(tail, CmpOp::Lt, Reg(10), Reg(11), chk, done);
        b.branch(chk, CmpOp::Eq, Reg(10), Reg(13), flip, a);
        // Flip the selected load addresses onto the store addresses:
        // from this outer iteration on, the pairs truly alias.
        if alias_l1 {
            b.alu_imm(flip, AluOp::Add, Reg(5), Reg(3), 0);
        }
        if alias_l2 {
            b.alu_imm(flip, AluOp::Add, Reg(7), Reg(6), 0);
        }
        b.jump(flip, a);
    } else {
        b.branch(tail, CmpOp::Lt, Reg(10), Reg(11), a, done);
    }
    b.halt(done);
    b.finish(entry)
}

// ---------------------------------------------------- race shape 1 -----

/// Install racing chained execution: the finished region is published at
/// every dispatch offset from 0 to 39 relative to its submission, while
/// the guest is interpreting and (once regions land) chaining through
/// the very blocks being swapped. Every interleaving must be bit-exact
/// and panic-free; prompt publishes must actually install and run
/// regions.
#[test]
fn install_races_chained_execution() {
    for p in [plain_loop(400), two_loop(120, 8, false, false, None)] {
        let expected = reference_state(&p);
        for delay in 0..40 {
            let mut sys = stepped_system(&p, 8);
            run_with_publish_delay(&mut sys, delay);
            assert_eq!(
                sys.interp().arch_state(),
                expected,
                "publish delay {delay} diverged"
            );
            let s = sys.stats();
            if delay == 0 {
                assert!(s.regions_formed >= 1, "prompt publish must install");
                assert!(s.region_entries > 0, "installed regions must run");
            }
            assert_eq!(
                s.async_published,
                s.regions_formed as u64 + s.retranslations as u64,
                "delay {delay}: every publish installed exactly one region"
            );
        }
    }
}

// ---------------------------------------------------- race shape 2 -----

/// Deopt racing an in-flight (re)translation: both inner loops start
/// aliasing on outer iteration 40, long after their regions published
/// and chained. The first fault bumps the blacklist generation and
/// queues a retranslation; the second fault bumps the generation again
/// *while that job is still in flight*. Its snapshot is now stale: at
/// publish it must be rejected as a conflict and resubmitted against
/// the fresh blacklist — and the final state must stay exact, with
/// blacklisting still converging.
#[test]
fn deopt_races_inflight_retranslation() {
    let p = two_loop(150, 8, true, true, Some(40));
    let expected = reference_state(&p);
    let mut sys = stepped_system(&p, 8);

    // Phase 1: publish promptly until both inner-loop regions exist.
    // Aliasing has not started yet, so no faults can have happened.
    let mut guard = 0;
    while sys.stats().regions_formed < 2 {
        assert_ne!(sys.run_bounded(1, u64::MAX), RunStatus::Halted, "too cold");
        pump_all(&mut sys);
        guard += 1;
        assert!(guard < 100_000, "regions never formed");
    }
    assert_eq!(sys.stats().rollbacks, 0, "pre-flip regions must be clean");
    // Phase 2: stop publishing; run until both regions have faulted.
    // The first fault's retranslation is still held in the pipeline when
    // the second fault grows the blacklist past its snapshot.
    while sys.stats().rollbacks < 2 {
        assert_ne!(
            sys.run_bounded(1, u64::MAX),
            RunStatus::Halted,
            "program ended before both regions faulted"
        );
    }
    assert!(
        sys.translation_outstanding() >= 2,
        "both retranslates in flight"
    );
    // Phase 3: release everything. The first retranslation was optimized
    // against the pre-second-fault blacklist generation: publishing it
    // must conflict and resubmit rather than install stale speculation.
    pump_all(&mut sys);
    let before = sys.stats().async_publish_conflicts;
    assert_ne!(sys.run_bounded(1, u64::MAX), RunStatus::Halted);
    assert!(
        sys.stats().async_publish_conflicts > before,
        "stale-generation publish must be rejected"
    );
    // Phase 4: run out normally with prompt publishes.
    run_with_publish_delay(&mut sys, 0);
    assert_eq!(sys.interp().arch_state(), expected);
    let s = sys.stats();
    assert!(
        s.retranslations >= 2,
        "both resubmitted retranslates landed"
    );
    assert!(s.rollbacks >= 2);
    for r in &s.per_region {
        assert!(r.rollbacks < 5, "blacklisting must converge: {r:?}");
    }
}

// ---------------------------------------------------- race shape 3 -----

/// Stale-region execution after invalidation: only L1 flips to aliasing
/// (iteration 40). When it faults, it is unpublished and its
/// conservative retranslation is *held* in the pipeline — while clean
/// region L2, optimized under the now-outdated blacklist generation,
/// keeps executing. Those stale entries are legal (the alias hardware
/// still guards them) but must be counted; the held republish must land
/// afterwards; everything stays exact.
#[test]
fn stale_regions_run_while_invalidation_in_flight() {
    let p = two_loop(150, 8, true, false, Some(40));
    let expected = reference_state(&p);
    let mut sys = stepped_system(&p, 8);

    // Publish promptly until the aliasing region faults (generation
    // bump). L2's region published long before, at generation 0.
    let mut guard = 0;
    while sys.stats().rollbacks < 1 {
        assert_ne!(sys.run_bounded(1, u64::MAX), RunStatus::Halted, "no fault");
        pump_all(&mut sys);
        guard += 1;
        assert!(guard < 100_000);
    }
    let stale_before = sys.stats().async_stale_entries;
    // Hold the retranslate in flight; the clean region keeps running
    // under its old blacklist generation — stale executions.
    for _ in 0..400 {
        if sys.run_bounded(1, u64::MAX) == RunStatus::Halted {
            break;
        }
    }
    assert!(
        sys.stats().async_stale_entries > stale_before,
        "the clean region must have run stale while the fix was in flight"
    );
    // Release the held retranslation and finish.
    run_with_publish_delay(&mut sys, 0);
    assert_eq!(sys.interp().arch_state(), expected);
    assert!(sys.stats().retranslations >= 1, "the held republish landed");
}

// ------------------------------------------- satellite: unlink race ----

/// `unlink_into` racing resident chained execution: by iteration 40 the
/// regions are published and chained region→region; the deopt then
/// severs every link into the faulting region while the guest is
/// mid-chain through the linked graph, at every schedule offset the
/// sweep reaches. A stale link followed into unpublished code would
/// execute known-wrong speculation or re-fault forever; instead every
/// offset must stay exact, must actually unlink, and must converge.
#[test]
fn unlink_races_resident_chained_execution() {
    let p = two_loop(150, 8, true, true, Some(40));
    let expected = reference_state(&p);
    for delay in 0..24 {
        let mut sys = stepped_system(&p, 8);
        run_with_publish_delay(&mut sys, delay);
        assert_eq!(
            sys.interp().arch_state(),
            expected,
            "unlink offset {delay} diverged"
        );
        let s = sys.stats();
        assert!(s.rollbacks >= 1, "offset {delay}: the flip must deopt");
        assert!(
            s.chain_unlinks >= 1,
            "offset {delay}: the deopt must sever links into the region"
        );
    }
}

// --------------------------------------- satellite: double publish -----

/// Double-publish of the same block index: two independent translation
/// jobs for the same entry block are forced in flight (the second via
/// the debug hook that bypasses pending-job dedup). The first result to
/// publish installs the region; the second must be rejected as a publish
/// conflict, not installed as a duplicate.
#[test]
fn double_publish_of_same_block_is_rejected() {
    let p = plain_loop(400);
    let expected = reference_state(&p);
    let mut sys = stepped_system(&p, 8);
    // Run until the hot trigger submits the natural job.
    let mut guard = 0;
    while sys.translation_outstanding() == 0 {
        assert_ne!(sys.run_bounded(1, u64::MAX), RunStatus::Halted, "too cold");
        guard += 1;
        assert!(guard < 100_000);
    }
    // Force a duplicate job for the same hot entry block.
    sys.debug_submit_translate(BlockId(1));
    assert_eq!(sys.translation_outstanding(), 2);
    pump_all(&mut sys);
    assert_ne!(sys.run_bounded(1, u64::MAX), RunStatus::Halted);
    let s = sys.stats();
    assert_eq!(s.regions_formed, 1, "exactly one install for the block");
    assert_eq!(s.async_publish_conflicts, 1, "the duplicate was rejected");
    run_with_publish_delay(&mut sys, 0);
    assert_eq!(sys.interp().arch_state(), expected);
}

// ------------------------------------------------ seeded schedules -----

/// Seeded random schedule sweep: `run_interleaved` permutes guest steps
/// against pipeline compute/release steps from a xorshift schedule. All
/// seeds must be bit-exact; across the sweep the interesting pipeline
/// events must actually occur (publishes, faults, retranslations).
#[test]
fn seeded_schedule_sweep_is_bit_exact() {
    let programs = [
        ("plain", plain_loop(400)),
        ("alias_both", two_loop(120, 8, true, true, Some(10))),
        ("alias_flip", two_loop(120, 8, true, true, Some(40))),
        ("alias_half", two_loop(120, 8, true, false, Some(10))),
    ];
    for (name, p) in &programs {
        let expected = reference_state(p);
        let mut published = 0u64;
        let mut rollbacks = 0u64;
        let mut retranslations = 0usize;
        for seed in (0..32u64).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1)) {
            let mut sys = stepped_system(p, 2);
            assert_eq!(
                sys.run_interleaved(seed, u64::MAX),
                StopReason::Halted,
                "{name}: seed {seed:#x} did not halt"
            );
            assert_eq!(
                sys.interp().arch_state(),
                expected,
                "{name}: seed {seed:#x} diverged"
            );
            let s = sys.stats();
            published += s.async_published;
            rollbacks += s.rollbacks;
            retranslations += s.retranslations;
        }
        assert!(published > 0, "{name}: no schedule ever published");
        if name.starts_with("alias") {
            assert!(rollbacks > 0, "{name}: no schedule ever faulted");
            assert!(retranslations > 0, "{name}: no schedule ever republished");
        }
    }
}

/// Replayability: the same seed reproduces the exact same schedule —
/// identical final state *and* identical pipeline/dispatch counters.
/// Different seeds genuinely produce different schedules.
#[test]
fn schedules_replay_exactly_from_their_seed() {
    let p = two_loop(120, 8, true, true, Some(40));
    let fingerprint = |seed: u64| {
        let mut sys = stepped_system(&p, 2);
        assert_eq!(sys.run_interleaved(seed, u64::MAX), StopReason::Halted);
        let s = sys.stats();
        (
            sys.interp().arch_state(),
            s.interp_instrs,
            s.region_entries,
            s.async_enqueued,
            s.async_published,
            s.async_publish_conflicts,
            s.async_stale_entries,
            s.rollbacks,
            s.chain_unlinks,
        )
    };
    let seeds = [3u64, 0xdead_beef, 0x1234_5678_9abc_def0];
    let mut distinct = std::collections::HashSet::new();
    for seed in seeds {
        let a = fingerprint(seed);
        let b = fingerprint(seed);
        assert_eq!(a, b, "seed {seed:#x} must replay identically");
        // Architectural state is seed-invariant; the schedule is not.
        distinct.insert((a.1, a.2, a.3, a.4));
    }
    assert!(
        distinct.len() > 1,
        "different seeds must explore different schedules"
    );
}

/// Queue depth 1 maximizes contention: with several hot blocks, submits
/// bounce off the full queue and retry on a later dispatch of the same
/// block. Still exact, and the backpressure is visible in the counters.
#[test]
fn depth_one_queue_backpressure_is_counted_and_exact() {
    let p = two_loop(120, 8, false, false, None);
    let expected = reference_state(&p);
    let mut saw_full = false;
    for seed in [1u64, 5, 11, 23] {
        let mut sys = stepped_system(&p, 1);
        assert_eq!(sys.run_interleaved(seed, u64::MAX), StopReason::Halted);
        assert_eq!(sys.interp().arch_state(), expected, "seed {seed} diverged");
        let s = sys.stats();
        saw_full |= s.async_queue_full > 0;
        assert!(s.async_queue_peak >= 1, "something was enqueued");
    }
    assert!(
        saw_full,
        "several hot blocks against depth 1 must hit the bound"
    );
}
