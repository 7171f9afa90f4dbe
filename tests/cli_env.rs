//! Front-door robustness of the `smarq-run` CLI: malformed environment
//! input and malformed `lint` arguments are usage errors, not panics, and
//! only `SMARQ_NOSPEC` (the `--nospec` default) of the configuration
//! comes from the environment.

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

/// The library reads no environment: the variables that once switched
/// the execution tier, verify-on-emit and async translation change
/// nothing, so a run with them set prints the same tier and cycle lines
/// as a run without them (only the host-timed `optimization:` share
/// differs between runs).
#[test]
fn removed_config_variables_change_nothing() {
    let run = |vars: &[(&str, &str)]| {
        let out = Command::new(env!("CARGO_BIN_EXE_smarq-run"))
            .arg("examples/hoist_loop.s")
            .envs(vars.iter().copied())
            .output()
            .expect("spawn smarq-run");
        assert!(out.status.success(), "{vars:?}: {out:?}");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("optimization:"))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    let plain = run(&[]);
    assert!(
        plain.iter().any(|l| l.starts_with("simulated cycles:")),
        "{plain:?}"
    );
    let with_vars = run(&[
        ("SMARQ_EXEC_TIER", "functional"),
        ("SMARQ_VERIFY", "1"),
        ("SMARQ_ASYNC_TRANSLATE", "1"),
    ]);
    assert_eq!(with_vars, plain);
}

/// `smarq-run lint` and `smarq lint` share one front door
/// (`smarq_fuzz::lint::cli`): a malformed command line exits 2 without a
/// panic, and an error-severity finding exits 1, so a typo and a finding
/// never look alike. The `smarq` half lives in `crates/fuzz/tests`.
#[test]
fn lint_exit_status_separates_malformed_arguments_from_findings() {
    let lint = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_smarq-run"))
            .arg("lint")
            .args(args)
            .output()
            .expect("spawn smarq-run");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    for args in [
        &["tests/corpus", "--nospec", "garbage"][..],
        &["tests/corpus", "--bogus"],
        &["tests/corpus", "--json"],
        &["tests/corpus", "--deny", "NOPE"],
    ] {
        let (code, stderr) = lint(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // The example's regions lint clean with warnings; denying the
    // warning's code turns them into errors.
    let (code, stderr) = lint(&["examples/hoist_loop.s"]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = lint(&["examples/hoist_loop.s", "--deny", "overflow-risk"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("error-severity finding"), "{stderr}");
}

/// A reader that has gone (as in `smarq-run ... | head -1`) drops the
/// output instead of panicking: with stdout already closed, each command
/// exits with the status it returns on an open stdout. The `smarq` half
/// lives in `crates/fuzz/tests`.
#[test]
fn closed_stdout_keeps_the_exit_status_without_panicking() {
    for (args, status) in [
        (&["examples/hoist_loop.s"][..], 0),
        (&["lint", "--list"], 0),
        (&["lint", "examples/hoist_loop.s"], 0),
        (
            &["lint", "examples/hoist_loop.s", "--deny", "overflow-risk"],
            1,
        ),
        (&["lint", "tests/corpus", "--bogus"], 2),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_smarq-run"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn smarq-run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(status), "{args:?}: {stderr}");
    }
}
