//! Corpus-wide differential for the chained dispatcher.
//!
//! Every minimized repro in `tests/corpus/` is executed through the full
//! `DynOptSystem` (flat cache, memoized region→region links, resident
//! guest state, batched stat sync) and against a pure interpreter run of
//! the same program. The two must agree bit-exactly on final
//! architectural state under every hardware scheme, and the corpus as a
//! whole must actually follow chain links.
//!
//! The targeted mid-chain alias-exception tests (unlink, rollback,
//! blacklist, re-convergence) live next to the facade in
//! `crates/runtime/src/system.rs`; this test is the breadth half.

use smarq_fuzz::{load_dir, schemes};
use smarq_guest::Interpreter;
use smarq_runtime::{DynOptSystem, SystemConfig};
use std::path::Path;

#[test]
fn corpus_is_bit_exact_with_chaining_on_and_off() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let entries = load_dir(&dir).expect("corpus directory loads");
    assert!(
        !entries.is_empty(),
        "no corpus entries in {}",
        dir.display()
    );

    let mut chained_follows = 0u64;
    for (path, program) in &entries {
        let mut reference = Interpreter::new();
        reference.run(program, u64::MAX);
        for (label, opt) in schemes() {
            let mut cfg = SystemConfig::with_opt(opt);
            // Low threshold so the short corpus programs form regions.
            cfg.hot_threshold = 10;
            let mut chained = DynOptSystem::new(program.clone(), cfg);
            chained.run_to_completion(u64::MAX);
            assert_eq!(
                chained.interp().arch_state(),
                reference.arch_state(),
                "{} under {label}: chained dispatch and pure interpretation \
                 left different architectural state",
                path.display()
            );
            chained_follows += chained.stats().chain_follows;
        }
    }
    assert!(
        chained_follows > 0,
        "no corpus entry ever followed a chain link; the differential \
         is not exercising the chained fast path"
    );
}
