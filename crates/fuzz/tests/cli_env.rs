//! Front-door robustness of the `smarq` CLI: malformed environment input
//! is a usage error, not a panic.

use std::process::Command;

#[test]
fn malformed_nospec_env_exits_2_without_panicking() {
    for args in [
        &["replay", "../../tests/corpus"][..],
        &["lint", "../../tests/corpus"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_smarq"))
            .args(args)
            .env("SMARQ_NOSPEC", "garbage")
            .output()
            .expect("spawn smarq");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("SMARQ_NOSPEC"), "{args:?}: {stderr}");
    }
}
