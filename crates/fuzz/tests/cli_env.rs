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

/// `--multiguest` is bounded: past its maximum it is a usage error (exit
/// 2) instead of exhausting memory, and the maximum itself still runs.
#[test]
fn multiguest_count_is_bounded() {
    let run = |g: &str| {
        Command::new(env!("CARGO_BIN_EXE_smarq"))
            .args(["fuzz", "--cases", "1", "--multiguest", g])
            .output()
            .expect("spawn smarq")
    };
    for g in ["100000000", "65"] {
        let out = run(g);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--multiguest {g}: {stderr}");
        assert!(stderr.contains("usage:"), "--multiguest {g}: {stderr}");
        assert!(!stderr.contains("panicked"), "--multiguest {g}: {stderr}");
    }
    let out = run("64");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("1 cases"), "{stdout}");
}
