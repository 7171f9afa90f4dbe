//! The fuzz campaign loop shared by the `smarq fuzz` CLI and the
//! in-tree smoke/mutation tests: generate → oracle → minimize → record.

use crate::corpus::Repro;
use crate::gen::{generate, FuzzParams};
use crate::minimize::minimize;
use crate::oracle::{check_multi_guest, check_program, Divergence, OracleParams};
use smarq_guest::Program;
use std::time::{Duration, Instant};

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignParams {
    /// First generator seed; case `i` uses `seed + i`.
    pub seed: u64,
    /// Maximum cases to run.
    pub cases: u64,
    /// Optional wall-clock budget; the campaign stops at whichever of
    /// `cases`/`budget` is hit first.
    pub budget: Option<Duration>,
    /// Stop after this many captured repros.
    pub max_repros: usize,
    /// Generator bounds.
    pub gen: FuzzParams,
    /// Oracle budgets.
    pub oracle: OracleParams,
    /// Predicate-evaluation budget per minimization.
    pub minimize_attempts: usize,
    /// Guests in the multi-guest oracle layer: each case additionally runs
    /// as guest 0 of a `multi_guests`-tenant shared-hub run alongside
    /// companion programs generated from seeds derived from the case seed.
    /// `0` or `1` disables the layer.
    pub multi_guests: usize,
}

impl Default for CampaignParams {
    fn default() -> Self {
        CampaignParams {
            seed: 0,
            cases: u64::MAX,
            budget: Some(Duration::from_secs(60)),
            max_repros: 8,
            gen: FuzzParams::default(),
            oracle: OracleParams::default(),
            minimize_attempts: 400,
            multi_guests: 3,
        }
    }
}

/// What a campaign did.
#[derive(Debug, Default)]
pub struct CampaignOutcome {
    /// Cases generated and checked.
    pub cases_run: u64,
    /// Cases skipped as non-terminating.
    pub skipped: u64,
    /// Minimized repros, one per diverging seed.
    pub repros: Vec<Repro>,
    /// Alias-exception rollbacks over the green cases, per scheme of
    /// [`crate::oracle::schemes`]: evidence that the campaign reached the
    /// rollback path under each.
    pub rollbacks: [u64; 6],
    /// Entry-time alias guard misses over the green cases, per scheme of
    /// [`crate::oracle::schemes`]: evidence that guarded regions still
    /// reached their checks under each.
    pub guard_misses: [u64; 6],
}

/// Runs a fuzz campaign; `progress` receives human-readable event lines.
pub fn run_campaign(params: &CampaignParams, mut progress: impl FnMut(String)) -> CampaignOutcome {
    let start = Instant::now();
    let mut outcome = CampaignOutcome::default();
    for case in 0..params.cases {
        if let Some(budget) = params.budget {
            if start.elapsed() >= budget {
                progress(format!("budget exhausted after {case} cases"));
                break;
            }
        }
        if outcome.repros.len() >= params.max_repros {
            progress(format!("repro limit reached after {case} cases"));
            break;
        }
        let seed = params.seed.wrapping_add(case);
        let program = generate(seed, &params.gen);
        outcome.cases_run += 1;
        match check_program(&program, &params.oracle) {
            Ok(report) => {
                for (sum, n) in outcome.rollbacks.iter_mut().zip(report.rollbacks) {
                    *sum += n;
                }
                for (sum, n) in outcome.guard_misses.iter_mut().zip(report.guard_misses) {
                    *sum += n;
                }
                // Single-guest layers green: run the case as guest 0 of a
                // shared-hub multi-guest set with derived companions.
                if params.multi_guests >= 2 {
                    if let Some(repro) = multi_guest_case(&program, seed, params, &mut progress) {
                        outcome.repros.push(repro);
                    }
                }
            }
            Err(Divergence::Nontermination) => outcome.skipped += 1,
            Err(first) => {
                progress(format!("seed {seed}: {first}"));
                let oracle = params.oracle;
                let min = minimize(
                    &program,
                    |candidate| matches!(check_program(candidate, &oracle), Err(d) if d.is_failure()),
                    params.minimize_attempts,
                );
                // Re-run the oracle on the minimized program: minimization
                // may have walked the failure to a different (still real)
                // divergence; the corpus header records the final one.
                let divergence = match check_program(&min.program, &oracle) {
                    Err(d) if d.is_failure() => d.to_string(),
                    _ => first.to_string(),
                };
                progress(format!(
                    "seed {seed}: minimized {} -> {} ops in {} attempts",
                    min.original_ops, min.final_ops, min.attempts
                ));
                outcome.repros.push(Repro {
                    seed,
                    divergence,
                    original_ops: min.original_ops,
                    program: min.program,
                });
            }
        }
    }
    outcome
}

/// Companion-guest seed `k` for case `seed`: an odd-stride mix so the
/// companion programs are distinct from the case and from each other, yet
/// fully determined by the case seed (a finding replays from `seed` and
/// `multi_guests` alone).
fn companion_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ 0x5851_f42d_4c95_7f2d
}

/// Runs the multi-guest oracle layer for one case; on divergence,
/// minimizes guest 0 (companions held fixed) and returns the repro.
fn multi_guest_case(
    program: &Program,
    seed: u64,
    params: &CampaignParams,
    progress: &mut impl FnMut(String),
) -> Option<Repro> {
    let companions: Vec<Program> = (1..params.multi_guests as u64)
        .map(|k| generate(companion_seed(seed, k), &params.gen))
        .collect();
    let with_guest0 = |g0: &Program| {
        let mut set = Vec::with_capacity(companions.len() + 1);
        set.push(g0.clone());
        set.extend(companions.iter().cloned());
        set
    };
    match check_multi_guest(&with_guest0(program), &params.oracle, seed) {
        // A non-terminating companion drains the layer of signal; the
        // single-guest layers already vouched for the case itself.
        Ok(_) | Err(Divergence::Nontermination) => None,
        Err(first) => {
            progress(format!("seed {seed}: {first}"));
            let oracle = params.oracle;
            let min = minimize(
                program,
                |candidate| {
                    matches!(
                        check_multi_guest(&with_guest0(candidate), &oracle, seed),
                        Err(d) if d.is_failure()
                    )
                },
                params.minimize_attempts,
            );
            let divergence = match check_multi_guest(&with_guest0(&min.program), &oracle, seed) {
                Err(d) if d.is_failure() => d.to_string(),
                _ => first.to_string(),
            };
            progress(format!(
                "seed {seed}: minimized {} -> {} ops in {} attempts",
                min.original_ops, min.final_ops, min.attempts
            ));
            Some(Repro {
                seed,
                divergence,
                original_ops: min.original_ops,
                program: min.program,
            })
        }
    }
}
