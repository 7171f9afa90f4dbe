//! The `smarq lint` driver: statically verifies and lints every region
//! the dynamic-optimization system forms for a set of guest programs.
//!
//! This is the corpus-facing entry point of `crates/verify`: for each
//! program it replays translation under every hardware scheme in
//! [`crate::oracle::schemes`], re-optimizes each formed superblock with a
//! trace, and runs the static validator plus the default lint passes over
//! the result — no guest execution is compared, only the emitted regions
//! are judged. Findings come back as structured [`Diagnostic`]s and the
//! whole report serializes to JSON for the CI artifact. [`cli`] is the
//! `lint` subcommand of both the `smarq` and the `smarq-run` binary.

use crate::oracle::schemes;
use crate::outln;
use smarq::range::NospecRanges;
use smarq::{Diagnostic, Severity};
use smarq_guest::Program;
use smarq_opt::{optimize_superblock_traced_ranged, TranslationScratch};
use smarq_runtime::{DynOptSystem, SystemConfig};
use smarq_verify::{check_trace_ranged, LintPolicy};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Knobs for a lint run: unspeculatable address ranges threaded into the
/// optimizer (and checked by the chain analyzer), plus a severity policy
/// (`--deny` / `--allow`) applied to every finding before counting.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Address ranges speculation must never touch; empty = none.
    pub nospec: NospecRanges,
    /// Post-hoc severity overrides keyed by stable diagnostic code.
    pub policy: LintPolicy,
}

/// One finding, located by corpus entry and hardware scheme.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Corpus entry (path) the region came from.
    pub entry: String,
    /// Hardware scheme label from [`schemes`].
    pub scheme: &'static str,
    /// The structured diagnostic.
    pub diagnostic: Diagnostic,
}

/// Aggregate result of linting a set of corpus entries.
#[derive(Clone, Debug, Default)]
pub struct LintOutcome {
    /// Corpus entries processed.
    pub entries: usize,
    /// Regions verified (per scheme; regions without an allocation verify
    /// vacuously and are still counted).
    pub regions: usize,
    /// Error-severity findings.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// All findings in discovery order.
    pub findings: Vec<Finding>,
}

impl LintOutcome {
    /// `true` when no error-severity finding was produced (warnings do
    /// not fail a lint run).
    pub fn is_clean(&self) -> bool {
        self.errors == 0
    }
}

/// Guest-instruction budget for region formation. Corpus programs all
/// terminate well inside it; a runaway program simply stops forming
/// regions once the budget runs out — lint never hangs.
const FORMATION_BUDGET: u64 = 2_000_000;

/// Lints every region `program` forms under every hardware scheme,
/// appending findings to `out`. Returns the number of regions examined.
pub fn lint_program(entry: &str, program: &Program, out: &mut Vec<Finding>) -> usize {
    lint_program_with(entry, program, &LintConfig::default(), out)
}

/// [`lint_program`] with explicit [`LintConfig`]: regions are formed and
/// re-optimized under `config.nospec`, per-region findings are joined by
/// whole-chain analysis over the cached region graph, and
/// `config.policy` rewrites severities before anything is counted.
pub fn lint_program_with(
    entry: &str,
    program: &Program,
    config: &LintConfig,
    out: &mut Vec<Finding>,
) -> usize {
    let mut regions = 0;
    let mut scratch = TranslationScratch::new();
    // Whole-program dataflow once; each region is checked under its
    // proven entry state instead of the all-unknown default.
    let dataflow = smarq_verify::analyze_reference(program);
    for (label, opt) in schemes() {
        let mut cfg = SystemConfig::with_opt(opt.clone());
        // Match the replay oracle's formation knobs so lint sees the same
        // regions the fuzzer checked dynamically.
        cfg.hot_threshold = 10;
        cfg.nospec_ranges = config.nospec.clone();
        // Verify-on-emit retains traces, enabling `analyze_chain` below.
        cfg.verify_translations = true;
        let mut sys = DynOptSystem::new(program.clone(), cfg.clone());
        sys.run_to_completion(FORMATION_BUDGET);
        let mut opt_eff = opt.clone();
        opt_eff.nospec = config.nospec.clone();
        let mut push = |diagnostic: Diagnostic| {
            let mut diagnostic = diagnostic;
            config.policy.apply(&mut diagnostic);
            out.push(Finding {
                entry: entry.to_string(),
                scheme: label,
                diagnostic,
            });
        };
        for (region, sb) in sys.formed_superblocks().enumerate() {
            let entry_state = *dataflow.entry_state(sb.entry);
            let (_, trace) = optimize_superblock_traced_ranged(
                sb,
                &opt_eff,
                &cfg.machine,
                sys.blacklist(),
                &mut scratch,
                Some(&entry_state),
            );
            regions += 1;
            for diagnostic in
                check_trace_ranged(region, &trace, opt.num_alias_regs, Some((sb, &entry_state)))
            {
                push(diagnostic);
            }
        }
        // Cross-region layer: chain-boundary obligations, nospec
        // speculation, dead cross-region AMOVs, unreachable checks.
        if let Some(report) = sys.analyze_chain() {
            for diagnostic in report.diagnostics {
                push(diagnostic);
            }
        }
    }
    regions
}

/// Lints a list of `(path, program)` corpus entries, logging one line per
/// entry through `log`.
pub fn lint_entries(entries: &[(PathBuf, Program)], log: impl FnMut(&str)) -> LintOutcome {
    lint_entries_with(entries, &LintConfig::default(), log)
}

/// [`lint_entries`] under an explicit [`LintConfig`].
pub fn lint_entries_with(
    entries: &[(PathBuf, Program)],
    config: &LintConfig,
    mut log: impl FnMut(&str),
) -> LintOutcome {
    let mut outcome = LintOutcome::default();
    for (path, program) in entries {
        let entry = path.display().to_string();
        let before = outcome.findings.len();
        outcome.regions += lint_program_with(&entry, program, config, &mut outcome.findings);
        outcome.entries += 1;
        let new = &outcome.findings[before..];
        let errors = count(new, Severity::Error);
        let warnings = count(new, Severity::Warning);
        outcome.errors += errors;
        outcome.warnings += warnings;
        if errors == 0 {
            log(&format!("{entry}: clean ({warnings} warning(s))"));
        } else {
            log(&format!(
                "{entry}: {errors} error(s), {warnings} warning(s)"
            ));
            for f in new {
                if f.diagnostic.severity == Severity::Error {
                    log(&format!("  [{}] {}", f.scheme, f.diagnostic));
                }
            }
        }
    }
    outcome
}

fn count(findings: &[Finding], severity: Severity) -> usize {
    findings
        .iter()
        .filter(|f| f.diagnostic.severity == severity)
        .count()
}

/// Serializes the outcome as a JSON report (hand-rolled; no serde in the
/// workspace) for the CI `lint-corpus` artifact.
pub fn to_json(outcome: &LintOutcome) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"smarq-lint/1\",\n  \"code_table_version\": {},\n  \
         \"entries\": {},\n  \"regions\": {},\n  \
         \"errors\": {},\n  \"warnings\": {},\n  \"findings\": [",
        smarq_verify::CODE_TABLE_VERSION,
        outcome.entries,
        outcome.regions,
        outcome.errors,
        outcome.warnings
    );
    for (i, f) in outcome.findings.iter().enumerate() {
        out.push_str(&format!(
            "\n    {{\"entry\": \"{}\", \"scheme\": \"{}\", \"diagnostic\": {}}}{}",
            f.entry.replace('\\', "\\\\").replace('"', "\\\""),
            f.scheme,
            f.diagnostic.to_json(),
            if i + 1 < outcome.findings.len() {
                ","
            } else {
                "\n  "
            }
        ));
    }
    out.push_str("]\n}\n");
    out
}

/// Convenience: lints a corpus directory (or a single file), as the CLI
/// and the corpus-wide test do.
///
/// # Errors
/// Propagates I/O and parse errors as strings.
pub fn lint_paths(paths: &[&Path], log: impl FnMut(&str)) -> Result<LintOutcome, String> {
    lint_paths_with(paths, &LintConfig::default(), log)
}

/// [`lint_paths`] under an explicit [`LintConfig`].
///
/// # Errors
/// Propagates I/O and parse errors as strings.
pub fn lint_paths_with(
    paths: &[&Path],
    config: &LintConfig,
    log: impl FnMut(&str),
) -> Result<LintOutcome, String> {
    let mut entries = Vec::new();
    for path in paths {
        if path.is_dir() {
            entries.extend(crate::corpus::load_dir(path).map_err(|e| e.to_string())?);
        } else {
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let prog = smarq_guest::parse_program(&src)
                .map_err(|e| format!("{}: {e:?}", path.display()))?;
            entries.push((path.to_path_buf(), prog));
        }
    }
    if entries.is_empty() {
        return Err("no corpus entries found".to_string());
    }
    Ok(lint_entries_with(&entries, config, log))
}

/// A parsed `lint` command line.
enum Command {
    /// `--list`: print the diagnostic code table.
    List,
    /// Lint `paths`, writing the JSON report to `json` when given.
    Run {
        paths: Vec<PathBuf>,
        json: Option<PathBuf>,
        config: LintConfig,
    },
}

/// Parses the arguments after `lint`; `nospec` is the `--nospec`
/// default. `Err` carries the reason the command line is malformed.
fn parse_cli(args: &[String], mut nospec: NospecRanges) -> Result<Command, String> {
    if args.iter().any(|a| a == "--list") {
        return Ok(Command::List);
    }
    let (mut paths, mut json, mut deny, mut allow) = (Vec::new(), None, Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" | "--nospec" | "--deny" | "--allow" => {
                let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--json" => json = Some(PathBuf::from(v)),
                    "--nospec" => {
                        nospec = NospecRanges::parse(v).map_err(|e| format!("--nospec: {e}"))?;
                    }
                    "--deny" => deny.push(v.clone()),
                    _ => allow.push(v.clone()),
                }
            }
            f if f.starts_with('-') => return Err(format!("unknown flag '{f}'")),
            p => paths.push(PathBuf::from(p)),
        }
    }
    if paths.is_empty() {
        return Err("no PATH given".to_string());
    }
    let policy = LintPolicy::new(deny, allow)?;
    Ok(Command::Run {
        paths,
        json,
        config: LintConfig { nospec, policy },
    })
}

/// The `lint` subcommand of the `smarq` and `smarq-run` binaries:
///
/// ```text
/// lint PATH... [--json FILE] [--nospec LO..HI[,..]] [--deny CODE] [--allow CODE]
/// lint --list
/// ```
///
/// `args` are the arguments after `lint`, `nospec` is the `--nospec`
/// default, and `prog` prefixes error messages. `--list` prints the
/// stable diagnostic code table. The exit status is 2 for a malformed
/// command line (after `usage` prints the binary's usage line); 1 for an
/// error-severity finding once the `--deny`/`--allow` policy is applied,
/// or for an unreadable input or report file; 0 otherwise.
pub fn cli(prog: &str, args: &[String], nospec: NospecRanges, usage: impl FnOnce()) -> ExitCode {
    let (paths, json, config) = match parse_cli(args, nospec) {
        Ok(Command::Run {
            paths,
            json,
            config,
        }) => (paths, json, config),
        Ok(Command::List) => {
            outln!("code table version {}", smarq_verify::CODE_TABLE_VERSION);
            for info in smarq_verify::CODES {
                outln!(
                    "{:<24} {:<9} {:<7} {}",
                    info.code,
                    info.origin.label(),
                    format!("{:?}", info.default_severity).to_lowercase(),
                    info.description
                );
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{prog}: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    let fail = |e: &str| {
        eprintln!("{prog}: {e}");
        ExitCode::from(1)
    };
    let path_refs: Vec<&Path> = paths.iter().map(PathBuf::as_path).collect();
    let outcome = match lint_paths_with(&path_refs, &config, |line| outln!("[lint] {line}")) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    outln!(
        "[lint] {} entr(ies), {} region(s): {} error(s), {} warning(s)",
        outcome.entries,
        outcome.regions,
        outcome.errors,
        outcome.warnings
    );
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, to_json(&outcome)) {
            return fail(&format!("writing {}: {e}", path.display()));
        }
        outln!("[lint] wrote {}", path.display());
    }
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        fail(&format!("{} error-severity finding(s)", outcome.errors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FuzzParams};

    #[test]
    fn generated_program_lints_clean() {
        let p = generate(1, &FuzzParams::default());
        let mut findings = Vec::new();
        let regions = lint_program("gen-1", &p, &mut findings);
        assert!(regions > 0, "no regions formed");
        let errors: Vec<_> = findings
            .iter()
            .filter(|f| f.diagnostic.severity == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "clean program produced errors: {errors:?}"
        );
    }

    #[test]
    fn nospec_lint_stays_clean_when_nothing_can_speculate() {
        // A nospec range covering the whole positive address space pins
        // every access: no speculation is scheduled, so neither the
        // per-region passes nor the chain analyzer may report an error —
        // and in particular no `nospec-speculation`.
        let p = generate(1, &FuzzParams::default());
        let config = LintConfig {
            nospec: NospecRanges::parse("0x0..0x7fffffffffffffff").unwrap(),
            policy: LintPolicy::default(),
        };
        let mut findings = Vec::new();
        let regions = lint_program_with("gen-1", &p, &config, &mut findings);
        assert!(regions > 0, "no regions formed");
        let bad: Vec<_> = findings
            .iter()
            .filter(|f| {
                f.diagnostic.severity == Severity::Error
                    || f.diagnostic.code == "nospec-speculation"
            })
            .collect();
        assert!(bad.is_empty(), "nospec lint found: {bad:?}");
    }

    #[test]
    fn json_report_shape() {
        let outcome = LintOutcome {
            entries: 1,
            regions: 2,
            errors: 0,
            warnings: 1,
            findings: vec![Finding {
                entry: "tests/corpus/x.s".into(),
                scheme: "smarq8",
                diagnostic: Diagnostic::new(Severity::Warning, 0, "overflow-risk", "crowded"),
            }],
        };
        let j = to_json(&outcome);
        assert!(j.contains("\"schema\": \"smarq-lint/1\""), "{j}");
        assert!(
            j.contains(&format!(
                "\"code_table_version\": {}",
                smarq_verify::CODE_TABLE_VERSION
            )),
            "{j}"
        );
        assert!(j.contains("\"entries\": 1"), "{j}");
        assert!(j.contains("\"scheme\": \"smarq8\""), "{j}");
        assert!(j.contains("\"code\": \"overflow-risk\""), "{j}");
        assert!(j.trim_end().ends_with('}'), "{j}");
    }
}
