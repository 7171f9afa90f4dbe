//! # smarq-fuzz — differential fuzzing for the SMARQ reproduction
//!
//! Adversarial, self-shrinking correctness tooling: a seeded structured
//! generator ([`gen`]) drives layered differential oracles ([`oracle`]),
//! failures are delta-debugged to near-minimal programs ([`mod@minimize`])
//! and captured as replayable corpus entries ([`corpus`]) that the
//! workspace replays forever as regression tests.
//!
//! The `smarq` binary (`src/bin/smarq.rs`) fronts the same machinery:
//! `smarq fuzz` for campaigns, `smarq replay` for corpus entries,
//! `smarq snippet` to print a paste-ready Rust test. The whole pipeline
//! is deterministic in the seed. Both front ends print through [`mod@out`],
//! so a closed stdout never panics them.
//!
//! The "testing the testers" story lives in `smarq::fault`: a deliberate
//! constraint-rule weakening that the oracles must catch — exercised by
//! `tests/mutation_sanity.rs` and `smarq fuzz --inject-fault`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod driver;
pub mod gen;
pub mod lint;
pub mod minimize;
pub mod oracle;
pub mod out;

pub use corpus::{load_dir, Repro};
pub use driver::{run_campaign, CampaignOutcome, CampaignParams};
pub use gen::{generate, FuzzParams};
pub use lint::{
    lint_entries, lint_entries_with, lint_paths, lint_paths_with, lint_program, lint_program_with,
    Finding, LintConfig, LintOutcome,
};
pub use minimize::{minimize, Minimized};
pub use oracle::{
    check_containment, check_multi_guest, check_program, schemes, Divergence, MultiGuestReport,
    OracleParams, OracleReport,
};
