//! Front-door robustness of the `smarq-run` CLI: malformed environment
//! input is a usage error, not a panic.

use std::process::Command;

#[test]
fn malformed_nospec_env_exits_2_without_panicking() {
    for args in [
        &["examples/hoist_loop.s"][..],
        &["lint", "tests/corpus"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_smarq-run"))
            .args(args)
            .env("SMARQ_NOSPEC", "garbage")
            .output()
            .expect("spawn smarq-run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("SMARQ_NOSPEC"), "{args:?}: {stderr}");
    }
}
