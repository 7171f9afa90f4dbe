//! Front-door robustness of the `smarq` CLI: malformed environment input
//! and malformed `lint` arguments are usage errors, not panics.

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

/// `smarq lint` and `smarq-run lint` share one front door
/// (`smarq_fuzz::lint::cli`): a malformed command line exits 2 without a
/// panic, and an error-severity finding exits 1, so a typo and a finding
/// never look alike. The `smarq-run` half lives in the root `tests/cli_env.rs`.
#[test]
fn lint_exit_status_separates_malformed_arguments_from_findings() {
    let lint = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_smarq"))
            .arg("lint")
            .args(args)
            .output()
            .expect("spawn smarq");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    for args in [
        &["../../tests/corpus", "--nospec", "garbage"][..],
        &["../../tests/corpus", "--bogus"],
        &["../../tests/corpus", "--json"],
        &["../../tests/corpus", "--deny", "NOPE"],
    ] {
        let (code, stderr) = lint(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // The example's regions lint clean with warnings; denying the
    // warning's code turns them into errors.
    let (code, stderr) = lint(&["../../examples/hoist_loop.s"]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = lint(&["../../examples/hoist_loop.s", "--deny", "overflow-risk"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("error-severity finding"), "{stderr}");
}

/// A reader that has gone (as in `smarq lint --list | head -2`) drops the
/// output instead of panicking: with stdout already closed, each command
/// exits with the status it returns on an open stdout. The `smarq-run`
/// half lives in the root `tests/cli_env.rs`.
#[test]
fn closed_stdout_keeps_the_exit_status_without_panicking() {
    for (args, status) in [
        (&["lint", "--list"][..], 0),
        (&["lint", "../../examples/hoist_loop.s"], 0),
        (
            &[
                "lint",
                "../../examples/hoist_loop.s",
                "--deny",
                "overflow-risk",
            ],
            1,
        ),
        (&["replay", "../../tests/corpus"], 0),
        (&["fuzz", "--seed", "0", "--cases", "2"], 0),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_smarq"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn smarq");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(status), "{args:?}: {stderr}");
    }
}
