//! # smarq-workloads — SPECFP2000 stand-in kernels
//!
//! The paper evaluates on SPECFP2000 binaries, which we cannot ship or run.
//! Following the substitution rule in DESIGN.md, this crate provides one
//! synthetic kernel per benchmark, each shaped to reproduce the
//! *characteristics the paper reports for that benchmark*:
//!
//! * the superblock memory-operation counts of Figure 14 (e.g. `ammp`'s
//!   very large superblocks, `art`'s small ones);
//! * `ammp`'s sensitivity to the alias register count (needs far more than
//!   16 in-flight alias registers);
//! * `mesa`'s sensitivity to store reordering (an early store pinned
//!   behind a late store feeds a must-alias load);
//! * `equake`'s *true* runtime aliasing of one strand pointer, which the
//!   runtime sees while the loop warms up and so never speculates on;
//! * load/store-elimination opportunities (`galgel`, `lucas`, `fma3d`)
//!   that produce the paper's extended dependences, anti-constraints and
//!   AMOVs.
//!
//! Every kernel is a counted loop whose body becomes one hot superblock;
//! all speculation is on pairs the simple alias analysis cannot
//! disambiguate (distinct base registers) but that never truly alias —
//! except where a benchmark deliberately aliases. Such a pair aliases from
//! the first iteration, so the runtime records it while the loop warms up
//! and never speculates on it; [`late_aliasing`] is the loop whose pair
//! starts to alias only once the region runs, which is what reaches
//! rollback and conservative re-optimization, and
//! [`late_entry_aliasing`] the loop nest whose inner pointer does so
//! while staying fixed across each inner-region entry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernels;
mod late;
mod random;
mod scale;

pub use kernels::{all, by_name, scaled, Workload, WORKLOAD_NAMES};
pub use late::{late_aliasing, late_entry_aliasing};
pub use random::{random_workload, random_workload_with, RandomParams};
pub use scale::{scaled_count, scaled_iters, test_scale};
