//! Multi-guest runtime tests: the hub/context split, single-flight
//! translation dedup, cross-guest blacklist/invalidation, seeded
//! interleavings over a manually stepped executor, and real
//! multi-threaded stress over both a shared hub's [`ThreadedExecutor`]
//! and private single-guest pools (N workers × M guests × corpus
//! programs, bounded queue depth 1 and 8).
//!
//! The load-bearing assertions:
//! * every guest's architectural state is bit-exact vs. the same program
//!   run alone through the pure interpreter, under every scheduler and
//!   queue shape;
//! * the publish ledger balances — after a drain, every claimed
//!   translation is accounted exactly once
//!   (`started + retranslations == published + publish_conflicts`), i.e.
//!   no lost and no duplicated publishes;
//! * shared-cache mode translates each unique hot region exactly once
//!   across guests (`translations_started` is independent of the guest
//!   count), while private per-guest hubs pay once per guest.

use smarq_guest::{
    AluOp, ArchState, CmpOp, FReg, FpuOp, Interpreter, Program, ProgramBuilder, Reg,
};
use smarq_opt::OptConfig;
use smarq_runtime::{
    hash_program, run_multi_interleaved, DynOptSystem, GuestContext, HubConfig, StepExecutor,
    StopReason, SystemConfig, TranslationHub,
};
use std::thread;

// ---------------------------------------------------------------- corpus

/// Loop with an in-loop load/store to a fixed address, plus pointer
/// accesses that never truly alias.
fn accumulating_loop(iters: i64) -> Program {
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
    b.ld(body, Reg(6), Reg(5), 8);
    b.alu(body, AluOp::Add, Reg(4), Reg(4), Reg(1));
    b.st(body, Reg(4), Reg(3), 0);
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    b.finish(entry)
}

/// Two sequential hot loops plus a cold epilogue: two distinct regions.
fn two_phase_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let loop1 = b.block();
    let mid = b.block();
    let loop2 = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), iters);
    b.iconst(entry, Reg(3), 0x1000);
    b.iconst(entry, Reg(5), 0x2000);
    b.jump(entry, loop1);
    b.ld(loop1, Reg(4), Reg(3), 0);
    b.alu(loop1, AluOp::Add, Reg(4), Reg(4), Reg(1));
    b.st(loop1, Reg(4), Reg(3), 0);
    b.alu_imm(loop1, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(loop1, CmpOp::Lt, Reg(1), Reg(2), loop1, mid);
    b.iconst(mid, Reg(1), 0);
    b.jump(mid, loop2);
    b.ld(loop2, Reg(6), Reg(3), 0);
    b.st(loop2, Reg(6), Reg(5), 8);
    b.ld(loop2, Reg(7), Reg(5), 16);
    b.alu_imm(loop2, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(loop2, CmpOp::Lt, Reg(1), Reg(2), loop2, done);
    b.halt(done);
    b.finish(entry)
}

/// Store-shadowed FP loop: heavy speculation, never truly aliasing.
fn store_shadowed_loop(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), iters);
    b.iconst(entry, Reg(3), 0x1000);
    b.iconst(entry, Reg(5), 0x2000);
    b.fconst(entry, FReg(3), 1.0001);
    b.jump(entry, body);
    b.fld(body, FReg(1), Reg(5), 0);
    b.fpu(body, FpuOp::Div, FReg(2), FReg(1), FReg(3));
    b.fst(body, FReg(2), Reg(5), 0);
    b.ld(body, Reg(4), Reg(3), 0);
    b.alu(body, AluOp::Mul, Reg(6), Reg(4), Reg(4));
    b.alu(body, AluOp::Mul, Reg(6), Reg(6), Reg(6));
    b.st(body, Reg(6), Reg(3), 8);
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    b.finish(entry)
}

/// Loop whose "unlikely" aliasing pair truly aliases from iteration
/// `flip` on ([`smarq_workloads::late_aliasing`]). With `flip` past the
/// hot threshold the region speculates on the pair: forces rollbacks,
/// blacklist growth and cross-guest retranslation.
fn late_aliasing_loop(iters: i64, flip: i64) -> Program {
    smarq_workloads::late_aliasing(iters, flip).program
}

/// Loop storing an `fconst` NaN with the given payload bits: programs
/// that differ only in the payload print identically in disassembly.
fn nan_store_loop(payload: u64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), 500);
    b.iconst(entry, Reg(3), 0x1000);
    b.jump(entry, body);
    b.fconst(body, FReg(1), f64::from_bits(payload));
    b.fst(body, FReg(1), Reg(3), 0);
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    b.finish(entry)
}

// ---------------------------------------------------------------- helpers

fn reference_state(p: &Program) -> ArchState {
    let mut i = Interpreter::new();
    i.run(p, u64::MAX);
    i.arch_state()
}

/// Hub config for tests: low hot threshold so short programs translate.
fn hub_config(workers: u32, queue_depth: u32) -> HubConfig {
    let mut sys = SystemConfig::with_opt(OptConfig::smarq(64));
    sys.hot_threshold = 20;
    let mut cfg = HubConfig::from_system(&sys);
    cfg.workers = workers;
    cfg.queue_depth = queue_depth;
    cfg
}

/// Asserts the hub's publish ledger balances after a drain: every claimed
/// translation (first or re-) terminated in exactly one publish or one
/// dropped conflict, nothing is left in flight, and every claimed key is
/// now published or abandoned.
fn assert_ledger_balanced(hub: &TranslationHub) {
    let s = hub.stats();
    assert_eq!(s.inflight_keys, 0, "drained hub has no in-flight keys");
    assert_eq!(
        s.translations_started + s.retranslations,
        s.translations_published + s.publish_conflicts,
        "publish ledger must balance: {s:?}"
    );
    assert_eq!(
        s.published_keys + s.abandoned_keys,
        s.translations_started,
        "every claimed key ends published or abandoned: {s:?}"
    );
}

// ------------------------------------------------------------ unit shape

#[test]
fn single_guest_through_hub_matches_interpreter_both_tiers() {
    let p = accumulating_loop(500);
    let expected = reference_state(&p);
    let hub = TranslationHub::new(hub_config(0, 8));
    let mut g = GuestContext::new(0, p.clone(), &hub);
    assert_eq!(g.run_to_completion(&hub, u64::MAX), StopReason::Halted);
    assert_eq!(g.interp().arch_state(), expected);
    assert!(g.stats().regions_formed >= 1);
    // Both tiers are one path: every region entry runs the functional
    // tier, and its cycles are the timing model's.
    assert!(g.stats().tier_fast_entries > 0);
    assert!(g.stats().vliw_cycles > 0);
    hub.drain();
    assert!(hub.stats().translations_published >= 1);
    assert_ledger_balanced(&hub);
}

#[test]
fn shared_hub_translates_each_region_exactly_once() {
    let p = two_phase_program(400);
    let expected = reference_state(&p);

    // Solo baseline: how many unique regions does one guest claim?
    let solo_hub = TranslationHub::new(hub_config(0, 8));
    let mut solo = GuestContext::new(0, p.clone(), &solo_hub);
    solo.run_to_completion(&solo_hub, u64::MAX);
    let solo_started = solo_hub.stats().translations_started;
    assert!(solo_started >= 2, "both hot loops translate");

    // Six guests, same program, one shared hub: the unique-region count
    // must not grow with the guest count — translate once, run anywhere.
    let hub = TranslationHub::new(hub_config(0, 8));
    let mut guests: Vec<GuestContext> = (0..6)
        .map(|i| GuestContext::new(i, p.clone(), &hub))
        .collect();
    smarq_runtime::run_multi_interleaved(&hub, &mut guests, 0x5eed_1234, u64::MAX);
    for g in &guests {
        assert!(g.halted());
        assert_eq!(g.interp().arch_state(), expected, "guest {}", g.id());
    }
    let s = hub.stats();
    assert_eq!(
        s.translations_started, solo_started,
        "single-flight: translation count is independent of guest count"
    );
    assert!(
        s.probe_hits >= 1,
        "later guests must hit the shared cache instead of translating"
    );
    assert_ledger_balanced(&hub);

    // Private per-guest hubs as the counterfactual: each guest pays the
    // full translation bill itself.
    let mut private_started = 0;
    for i in 0..3 {
        let hub = TranslationHub::new(hub_config(0, 8));
        let mut g = GuestContext::new(i, p.clone(), &hub);
        g.run_to_completion(&hub, u64::MAX);
        assert_eq!(g.interp().arch_state(), expected);
        private_started += hub.stats().translations_started;
    }
    assert_eq!(private_started, 3 * solo_started);
}

#[test]
fn distinct_programs_are_keyed_separately() {
    let pa = accumulating_loop(300);
    let pb = two_phase_program(300);
    assert_ne!(hash_program(&pa), hash_program(&pb));
    let ea = reference_state(&pa);
    let eb = reference_state(&pb);
    let hub = TranslationHub::new(hub_config(0, 8));
    let mut guests = vec![
        GuestContext::new(0, pa.clone(), &hub),
        GuestContext::new(1, pb.clone(), &hub),
        GuestContext::new(2, pa, &hub),
        GuestContext::new(3, pb, &hub),
    ];
    smarq_runtime::run_multi_interleaved(&hub, &mut guests, 0xd157_1234, u64::MAX);
    assert_eq!(guests[0].interp().arch_state(), ea);
    assert_eq!(guests[1].interp().arch_state(), eb);
    assert_eq!(guests[2].interp().arch_state(), ea);
    assert_eq!(guests[3].interp().arch_state(), eb);
    assert_ledger_balanced(&hub);
}

/// Two programs that differ only in a NaN payload must get distinct keys,
/// so neither guest runs the other's translation.
#[test]
fn nan_payloads_are_keyed_separately() {
    let pa = nan_store_loop(0x7ff8_0000_0000_0001);
    let pb = nan_store_loop(0x7ff8_0000_0000_0002);
    assert_ne!(hash_program(&pa), hash_program(&pb));
    let hub = TranslationHub::new(hub_config(0, 8));
    let guests = vec![
        GuestContext::new(0, pa.clone(), &hub),
        GuestContext::new(1, pb.clone(), &hub),
    ];
    let guests = smarq_runtime::run_multi(&hub, guests, 1, u64::MAX, 64);
    for (g, p) in guests.iter().zip([&pa, &pb]) {
        assert!(g.stats().regions_formed >= 1, "translated");
        assert_eq!(
            g.interp().arch_state(),
            reference_state(p),
            "guest {}",
            g.id()
        );
    }
}

#[test]
fn cross_guest_blacklist_and_invalidation() {
    let p = late_aliasing_loop(400, 60);
    let expected = reference_state(&p);
    let hub = TranslationHub::new(hub_config(0, 8));
    let mut guests: Vec<GuestContext> = (0..4)
        .map(|i| GuestContext::new(i, p.clone(), &hub))
        .collect();
    smarq_runtime::run_multi_interleaved(&hub, &mut guests, 0xa11a_5eed, u64::MAX);
    for g in &guests {
        assert_eq!(g.interp().arch_state(), expected, "guest {}", g.id());
    }
    let s = hub.stats();
    assert!(s.rollbacks >= 1, "speculation must have faulted");
    assert!(s.blacklist_gen >= 1, "the pair must be blacklisted");
    assert!(s.retranslations >= 1, "the region must retranslate");
    assert!(s.epoch >= 1, "withdrawal must publish an invalidation");
    assert_eq!(s.abandoned_keys, 0, "blacklisting converges, no abandons");
    assert!(
        s.rollbacks < 4 * 64,
        "one guest's blacklist insert must teach the others"
    );
    assert_ledger_balanced(&hub);
}

#[test]
fn interleaved_schedule_replays_from_seed() {
    let p = two_phase_program(300);
    let run = |seed: u64| {
        let hub = TranslationHub::new(hub_config(0, 8));
        let mut guests: Vec<GuestContext> = (0..3)
            .map(|i| GuestContext::new(i, p.clone(), &hub))
            .collect();
        smarq_runtime::run_multi_interleaved(&hub, &mut guests, seed, u64::MAX);
        let states: Vec<ArchState> = guests.iter().map(|g| g.interp().arch_state()).collect();
        (states, hub.stats())
    };
    let (s1, h1) = run(0xfeed_beef);
    let (s2, h2) = run(0xfeed_beef);
    assert_eq!(s1, s2, "same seed, same per-guest states");
    assert_eq!(h1, h2, "same seed, same hub counter trajectory");
}

// ----------------------------------------------------------- stress: hub

/// Seeded interleavings of guest slices and executor compute/release
/// steps over a manually stepped hub executor: every guest bit-exact
/// under every seed, the ledger balanced after a drain, and each seed
/// replaying identically.
#[test]
fn stepped_executor_interleavings_are_bit_exact_and_replay() {
    let corpus = [
        two_phase_program(300),
        late_aliasing_loop(300, 60),
        store_shadowed_loop(300),
    ];
    let expected: Vec<ArchState> = corpus.iter().map(reference_state).collect();
    let run = |seed: u64| {
        let mut cfg = hub_config(0, 2);
        cfg.verify_translations = true;
        let hub = TranslationHub::with_executor(cfg, Some(Box::new(StepExecutor::manual(2))));
        let mut guests: Vec<GuestContext> = (0..6)
            .map(|i| GuestContext::new(i, corpus[i % corpus.len()].clone(), &hub))
            .collect();
        run_multi_interleaved(&hub, &mut guests, seed, u64::MAX);
        hub.drain();
        let states: Vec<ArchState> = guests.iter().map(|g| g.interp().arch_state()).collect();
        let published: u64 = guests.iter().map(|g| g.stats().async_published).sum();
        assert_ledger_balanced(&hub);
        (states, hub.stats(), published)
    };
    let mut published = 0;
    for i in 0..12u64 {
        let seed = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1);
        let first = run(seed);
        for (g, state) in first.0.iter().enumerate() {
            assert_eq!(
                state,
                &expected[g % corpus.len()],
                "guest {g} seed {seed:#x}"
            );
        }
        assert_eq!(first.1.verify_errors, 0);
        assert_eq!(run(seed), first, "seed {seed:#x} must replay");
        published += first.2;
    }
    assert!(published > 0, "no schedule ever published");
}

#[test]
fn multiguest_threaded_stress_bit_exact_and_ledger() {
    // N hub workers × M guests × corpus programs, queue depth 1 and 8,
    // 4 scheduler threads (CI pins RUST_TEST_THREADS=4 around this), with
    // verify-on-emit and every functional-tier entry sampled.
    let corpus: Vec<Program> = vec![
        accumulating_loop(600),
        two_phase_program(400),
        store_shadowed_loop(500),
        late_aliasing_loop(400, 60),
    ];
    let expected: Vec<ArchState> = corpus.iter().map(reference_state).collect();
    for depth in [1u32, 8] {
        let mut cfg = hub_config(2, depth);
        cfg.verify_translations = true;
        cfg.tier_sample_interval = 1;
        let hub = TranslationHub::new(cfg);
        let guests: Vec<GuestContext> = (0..8)
            .map(|i| GuestContext::new(i, corpus[i % corpus.len()].clone(), &hub))
            .collect();
        let guests = smarq_runtime::run_multi(&hub, guests, 4, u64::MAX, 256);
        hub.drain();
        for (i, g) in guests.iter().enumerate() {
            assert!(g.halted(), "guest {i} halted (depth {depth})");
            assert_eq!(
                g.interp().arch_state(),
                expected[i % corpus.len()],
                "guest {i} state (depth {depth})"
            );
            let st = g.stats();
            assert_eq!(
                (st.verify_errors, st.chain_errors, st.tier_sample_mismatches),
                (0, 0, 0),
                "guest {i} findings (depth {depth})"
            );
        }
        // The three clean programs contribute 4 unique hot regions
        // (1 + 2 + 1); the aliasing one adds 1. Exactly-once: even
        // with 2 guests per program and real racing, each unique key
        // is claimed at most once. At depth 1 the bounded queue can
        // reject a claim (rolled back, `queue_full` counts it) and a
        // short guest may halt before retrying, so the count is an
        // upper bound there; at depth 8 five jobs never overflow the
        // queue and the count is exact.
        let s = hub.stats();
        assert_eq!(s.verify_errors, 0, "{s:?}");
        assert!(
            s.translations_started <= 5,
            "no unique region is ever claimed twice (depth {depth}): {s:?}"
        );
        if depth >= 8 {
            assert_eq!(
                s.translations_started, 5,
                "each unique region claimed exactly once (depth {depth}): {s:?}"
            );
        }
        assert_ledger_balanced(&hub);
    }
}

#[test]
fn multiguest_budgeted_runs_stop_and_resume() {
    let p = accumulating_loop(1_000_000);
    let hub = TranslationHub::new(hub_config(0, 8));
    let guests: Vec<GuestContext> = (0..3)
        .map(|i| GuestContext::new(i, p.clone(), &hub))
        .collect();
    let guests = smarq_runtime::run_multi(&hub, guests, 2, 50_000, 64);
    for g in &guests {
        assert!(!g.halted());
        assert!(g.stats().guest_instrs() >= 50_000);
    }
    // Resume to completion.
    let expected = reference_state(&p);
    let guests = smarq_runtime::run_multi(&hub, guests, 2, u64::MAX, 256);
    for g in &guests {
        assert!(g.halted());
        assert_eq!(g.interp().arch_state(), expected);
    }
}

// ----------------------------------- stress: PR7 ThreadedExecutor proper

#[test]
fn threaded_executor_stress_bit_exact_and_publish_ledger() {
    // M concurrent single-guest systems, each with its own N-worker
    // ThreadedExecutor pool, over the corpus at queue depth 1 and 8.
    let corpus: Vec<Program> = vec![
        accumulating_loop(600),
        two_phase_program(400),
        store_shadowed_loop(500),
        late_aliasing_loop(400, 60),
    ];
    let expected: Vec<ArchState> = corpus.iter().map(reference_state).collect();
    for depth in [1u32, 8] {
        thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let p = corpus[i % corpus.len()].clone();
                    s.spawn(move || {
                        let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
                        cfg.hot_threshold = 20;
                        cfg.async_translate = true;
                        cfg.translate_workers = 2;
                        cfg.translate_queue_depth = depth;
                        let mut sys = DynOptSystem::new(p, cfg);
                        sys.run_to_completion(u64::MAX);
                        sys.translation_drain();
                        let state = sys.interp().arch_state();
                        let st = sys.stats().clone();
                        let outstanding = sys.translation_outstanding();
                        (state, st, outstanding)
                    })
                })
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                let (state, st, outstanding) = h.join().expect("guest thread");
                assert_eq!(state, expected[i % corpus.len()], "guest {i} depth {depth}");
                assert_eq!(outstanding, 0, "drained pipeline");
                assert_eq!(
                    st.async_enqueued,
                    st.async_published + st.async_publish_conflicts,
                    "publish ledger balances for guest {i} depth {depth}"
                );
            }
        });
    }
}
