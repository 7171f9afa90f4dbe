//! Multi-guest schedulers: run N [`GuestContext`]s over one shared
//! [`TranslationHub`].
//!
//! Two drivers:
//!
//! * [`run_multi`] — the production shape: M std worker threads pull
//!   guests from a shared run queue, execute a dispatch-step slice, and
//!   requeue until every guest halts (or exhausts its budget). One guest
//!   runs on at most one thread at a time — each context's state needs no
//!   internal locking — while the hub serves translations to all of them.
//! * [`run_multi_interleaved`] — a single-threaded, seeded round-robin
//!   double that also draws the executor's compute/release steps: with
//!   inline translation or a manual [`crate::StepExecutor`] the whole run
//!   is a pure function of the seed.

use crate::context::GuestContext;
use crate::hub::TranslationHub;
use crate::region::xorshift64;
use crate::system::RunStatus;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Dispatch steps a guest runs before the scheduler rotates it out — a
/// balance between scheduling overhead and cross-guest publish latency
/// (hub invalidations are observed at slice boundaries at the latest).
pub const DEFAULT_SLICE_STEPS: u64 = 1024;

/// Runs every guest to halt (or to its `budget` of guest instructions)
/// on `threads` worker threads, `slice` dispatch steps at a time.
/// Returns the contexts in their original order for inspection.
pub fn run_multi(
    hub: &TranslationHub,
    mut guests: Vec<GuestContext>,
    threads: usize,
    budget: u64,
    slice: u64,
) -> Vec<GuestContext> {
    let slice = slice.max(1);
    if threads <= 1 {
        // Degenerate single-threaded run: plain round-robin, no locks.
        loop {
            let mut live = false;
            for g in &mut guests {
                if g.halted() {
                    continue;
                }
                if g.run_bounded(hub, slice, budget) == RunStatus::Running {
                    live = true;
                }
            }
            if !live {
                return guests;
            }
        }
    }
    // Each worker locks a borrowed context in place, so the (large)
    // contexts are neither moved into a second vector nor back out of it.
    let n = guests.len();
    let slots: Vec<Mutex<&mut GuestContext>> = guests.iter_mut().map(Mutex::new).collect();
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..n).collect());
    let remaining = AtomicUsize::new(n);
    thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                if remaining.load(Ordering::SeqCst) == 0 {
                    return;
                }
                let Some(i) = queue.lock().unwrap().pop_front() else {
                    // Every queued guest is being run by another worker;
                    // it may requeue, so spin politely until `remaining`
                    // hits zero.
                    thread::yield_now();
                    continue;
                };
                // Uncontended: a guest index is in the queue xor owned by
                // a worker, so this lock never blocks meaningfully.
                let status = slots[i].lock().unwrap().run_bounded(hub, slice, budget);
                if status == RunStatus::Running {
                    queue.lock().unwrap().push_back(i);
                } else {
                    remaining.fetch_sub(1, Ordering::SeqCst);
                }
            });
        }
    });
    drop(slots);
    guests
}

/// Single-threaded seeded round-robin: each turn picks a live guest and a
/// slice length from an xorshift64 stream, runs the slice, then draws the
/// executor's next pipeline step (a no-op on an inline or threaded hub).
/// Failures found under a seed replay from the seed alone.
pub fn run_multi_interleaved(
    hub: &TranslationHub,
    guests: &mut [GuestContext],
    seed: u64,
    budget: u64,
) {
    let mut state = seed | 1;
    let mut live: Vec<usize> = (0..guests.len()).filter(|&i| !guests[i].halted()).collect();
    while !live.is_empty() {
        let pick = (xorshift64(&mut state) % live.len() as u64) as usize;
        let i = live[pick];
        let steps = 1 + xorshift64(&mut state) % 13;
        if guests[i].run_bounded(hub, steps, budget) != RunStatus::Running {
            live.swap_remove(pick);
        }
        // 0: compute, 1: release, 2: both, 3: let the guests run on.
        let action = xorshift64(&mut state) % 4;
        if action == 0 || action == 2 {
            hub.compute_one();
        }
        if action == 1 || action == 2 {
            hub.release_one();
        }
    }
}
