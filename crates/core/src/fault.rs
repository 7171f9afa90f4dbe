//! Deliberate fault injection for testing the testers.
//!
//! The fuzzer in `crates/fuzz` layers differential oracles over the
//! optimizer; a green run only means something if the oracles *would*
//! catch a real constraint-analysis bug. This module provides the
//! mutation used for that sanity check: a process-wide switch that makes
//! [`crate::DepGraph::compute`]'s sealed fast path silently drop a
//! deterministic subset of plain `DEPENDENCE` edges — exactly the class
//! of bug (a missed may-alias pair) SMARQ's constraint discipline exists
//! to prevent. The naive all-pairs oracle
//! [`crate::DepGraph::compute_naive`] is *not* affected, so the layered
//! oracles must flag the divergence.
//!
//! The switch is off by default and is only ever enabled by tests and by
//! `smarq fuzz --inject-fault`. It can be set programmatically
//! ([`set_drop_plain_deps`]) or, for whole-process injection across a
//! binary we do not otherwise control, via the `SMARQ_FAULT_DROP_DEPS`
//! environment variable (any non-empty value, read once).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static FORCED: AtomicBool = AtomicBool::new(false);
static FROM_ENV: OnceLock<bool> = OnceLock::new();

/// Enables (or disables) dropping of plain dependence edges in the sealed
/// fast path of [`crate::DepGraph::compute`]. Takes effect process-wide;
/// tests using it should run in their own integration-test binary so they
/// cannot race with unrelated tests.
pub fn set_drop_plain_deps(on: bool) {
    FORCED.store(on, Ordering::SeqCst);
}

/// `true` when the plain-dependence-dropping fault is active, either via
/// [`set_drop_plain_deps`] or the `SMARQ_FAULT_DROP_DEPS` environment
/// variable (checked once, non-empty value enables).
pub fn drop_plain_deps_enabled() -> bool {
    FORCED.load(Ordering::SeqCst)
        || *FROM_ENV.get_or_init(|| {
            std::env::var_os("SMARQ_FAULT_DROP_DEPS").is_some_and(|v| !v.is_empty())
        })
}

/// The deterministic subset of pairs the fault suppresses: drop the plain
/// edge for roughly a third of candidate pairs. Public so the fuzzer's
/// mutation-sanity test can reason about which regions are affected.
pub fn drops_pair(i: u32, j: u32) -> bool {
    (i + j).is_multiple_of(3)
}

static ANTI_FORCED: AtomicBool = AtomicBool::new(false);
static ANTI_FROM_ENV: OnceLock<bool> = OnceLock::new();

/// Enables (or disables) the anti-constraint-dropping fault: the
/// allocator's `schedule_op` skips the whole §4.2 anti-constraint handling
/// (no `ANTI-CONSTRAINT` edges, no order demotion, no clean-up or
/// relocation `AMOV`s), as if the implementation had forgotten the rule.
/// The resulting allocations can give a producer an order at or above its
/// prohibited checker, so a genuine runtime alias would roll the region
/// back for nothing. Crucially the bug is *invisible to end-to-end state
/// oracles* — a false-positive alias exception is functionally safe, just
/// slow — which is exactly why the static validator layer must catch it.
/// Process-wide; tests belong in their own integration-test binary.
pub fn set_drop_anti(on: bool) {
    ANTI_FORCED.store(on, Ordering::SeqCst);
}

/// `true` when the anti-constraint-dropping fault is active, either via
/// [`set_drop_anti`] or the `SMARQ_FAULT_DROP_ANTI` environment variable
/// (checked once, non-empty value enables).
pub fn drop_anti_enabled() -> bool {
    ANTI_FORCED.load(Ordering::SeqCst)
        || *ANTI_FROM_ENV.get_or_init(|| {
            std::env::var_os("SMARQ_FAULT_DROP_ANTI").is_some_and(|v| !v.is_empty())
        })
}

static BOUNDARY_FORCED: AtomicBool = AtomicBool::new(false);
static BOUNDARY_FROM_ENV: OnceLock<bool> = OnceLock::new();

/// Enables (or disables) the chain-boundary fault: the derivation of a
/// region's resident-state write mask (`RegionWriteMask::of`) silently
/// drops one written integer register, as if the implementation had
/// forgotten to account for an op kind. Chained successors then rely on a
/// mask that under-covers the predecessor's writes — a broken
/// chain-boundary obligation. The bug is *invisible to execution oracles*
/// on rollback-free runs (the mask only scopes checkpoints and scoreboard
/// clearing), which is exactly why the static chain analyzer must catch
/// it. Process-wide; tests belong in their own integration-test binary.
pub fn set_drop_boundary(on: bool) {
    BOUNDARY_FORCED.store(on, Ordering::SeqCst);
}

/// `true` when the chain-boundary fault is active, either via
/// [`set_drop_boundary`] or the `SMARQ_FAULT_DROP_BOUNDARY` environment
/// variable (checked once, non-empty value enables).
pub fn drop_boundary_enabled() -> bool {
    BOUNDARY_FORCED.load(Ordering::SeqCst)
        || *BOUNDARY_FROM_ENV.get_or_init(|| {
            std::env::var_os("SMARQ_FAULT_DROP_BOUNDARY").is_some_and(|v| !v.is_empty())
        })
}

static WIDEN_FORCED: AtomicBool = AtomicBool::new(false);
static WIDEN_FROM_ENV: OnceLock<bool> = OnceLock::new();

/// Enables (or disables) the broken-widening fault: the dataflow
/// analyzer's fixpoint loop (`smarq_verify::dataflow`) skips widening at
/// loop heads and pretends the state converged, leaving derived value
/// ranges unsoundly narrow. Decisions made from those ranges — the
/// optimizer's range-proven disjoint pairs and the *unspeculatable address
/// range* taint — then miss addresses that later loop iterations actually
/// reach, so the optimizer drops a dependence the program needs, or
/// speculates across a range it was told never to. Execution oracles see
/// the first only if the alias is reached and the second not at all; the
/// chain analyzer's reference (never-faulted) range computation flags
/// both. Process-wide; tests belong in their own integration-test binary.
pub fn set_widen_range(on: bool) {
    WIDEN_FORCED.store(on, Ordering::SeqCst);
}

/// `true` when the broken-widening fault is active, either via
/// [`set_widen_range`] or the `SMARQ_FAULT_WIDEN_RANGE` environment
/// variable (checked once, non-empty value enables).
pub fn widen_range_enabled() -> bool {
    WIDEN_FORCED.load(Ordering::SeqCst)
        || *WIDEN_FROM_ENV.get_or_init(|| {
            std::env::var_os("SMARQ_FAULT_WIDEN_RANGE").is_some_and(|v| !v.is_empty())
        })
}

static RANGES_FORCED: AtomicBool = AtomicBool::new(false);
static RANGES_FROM_ENV: OnceLock<bool> = OnceLock::new();

/// Enables (or disables) the lost-precision fault: the optimizer's alias
/// relation ignores the address intervals of the region's entry state
/// (`smarq_opt::optimize_superblock_traced_ranged`), as if the
/// translation request had carried none. The result is correct but
/// speculates on, and checks, pairs the intervals prove disjoint; only the
/// chain analyzer's `chain-unreachable-check` warning sees the waste.
/// Process-wide; tests belong in their own integration-test binary.
pub fn set_drop_ranges(on: bool) {
    RANGES_FORCED.store(on, Ordering::SeqCst);
}

/// `true` when the lost-precision fault is active, either via
/// [`set_drop_ranges`] or the `SMARQ_FAULT_DROP_RANGES` environment
/// variable (checked once, non-empty value enables).
pub fn drop_ranges_enabled() -> bool {
    RANGES_FORCED.load(Ordering::SeqCst)
        || *RANGES_FROM_ENV.get_or_init(|| {
            std::env::var_os("SMARQ_FAULT_DROP_RANGES").is_some_and(|v| !v.is_empty())
        })
}
