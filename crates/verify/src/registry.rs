//! The stable diagnostic-code registry and lint policy.
//!
//! Every machine-readable diagnostic code any layer of the verifier can
//! emit — allocator failures, replay-validator violations, per-region
//! lints and chain-level checks — is declared here exactly once, with its
//! origin, default severity and a one-line description. The table is the
//! contract behind `smarq lint --list`, the `--deny`/`--allow` policy
//! flags, and the JSON report's `code_table_version` field: consumers may
//! cache code semantics keyed on the version and rely on codes never
//! changing meaning within one version.
//!
//! [`LintPolicy`] implements the CLI policy: `--deny CODE` upgrades that
//! code's findings to [`Severity::Error`], `--allow CODE` downgrades them
//! to [`Severity::Info`] (allow wins when both name the same code). Exit
//! status is decided from *post-policy* severities.

use smarq::{Diagnostic, Severity};

/// Version of the code table. Bump when a code is added, removed, or its
/// meaning changes; the JSON report carries this so downstream tooling
/// can detect skew.
pub const CODE_TABLE_VERSION: u32 = 2;

/// Which layer of the verifier emits a code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodeOrigin {
    /// The production allocator's own failure codes ([`smarq::AllocError`]).
    Allocator,
    /// The symbolic replay validator ([`crate::replay`]).
    Validator,
    /// A per-region lint pass ([`crate::lint`]).
    Lint,
    /// A chain-level check ([`crate::chain`]).
    Chain,
}

impl CodeOrigin {
    /// Stable lowercase label for listings and JSON.
    pub fn label(self) -> &'static str {
        match self {
            CodeOrigin::Allocator => "allocator",
            CodeOrigin::Validator => "validator",
            CodeOrigin::Lint => "lint",
            CodeOrigin::Chain => "chain",
        }
    }
}

/// One registered diagnostic code.
#[derive(Clone, Copy, Debug)]
pub struct CodeInfo {
    /// The stable machine-readable code, e.g. `"missing-check"`.
    pub code: &'static str,
    /// The emitting layer.
    pub origin: CodeOrigin,
    /// The severity the code carries by default (the highest one the
    /// emitter uses, for codes emitted at several).
    pub default_severity: Severity,
    /// One-line description for `smarq lint --list`.
    pub description: &'static str,
}

/// The full code table, grouped by origin.
pub const CODES: &[CodeInfo] = &[
    // -- allocator failures (smarq::AllocError::code) --------------------
    CodeInfo {
        code: "bad-schedule",
        origin: CodeOrigin::Allocator,
        default_severity: Severity::Error,
        description: "scheduled op sequence violates the allocator's input contract",
    },
    CodeInfo {
        code: "alloc-overflow",
        origin: CodeOrigin::Allocator,
        default_severity: Severity::Error,
        description: "alias register demand exceeded the hardware file during allocation",
    },
    CodeInfo {
        code: "unresolved-constraints",
        origin: CodeOrigin::Allocator,
        default_severity: Severity::Error,
        description: "constraint graph could not be discharged by region end",
    },
    // -- replay validator -------------------------------------------------
    CodeInfo {
        code: "order-invariant",
        origin: CodeOrigin::Validator,
        default_severity: Severity::Error,
        description: "order = base + offset fails at an op's execution point",
    },
    CodeInfo {
        code: "offset-out-of-range",
        origin: CodeOrigin::Validator,
        default_severity: Severity::Error,
        description: "emitted offset lies outside the allocated register window",
    },
    CodeInfo {
        code: "false-positive",
        origin: CodeOrigin::Validator,
        default_severity: Severity::Error,
        description: "a scan can reach a live range no required check justifies",
    },
    CodeInfo {
        code: "premature-release",
        origin: CodeOrigin::Validator,
        default_severity: Severity::Error,
        description: "AMOV moves a register that does not hold the expected range",
    },
    CodeInfo {
        code: "rotate-overflow",
        origin: CodeOrigin::Validator,
        default_severity: Severity::Error,
        description: "rotation amount exceeds the register file",
    },
    CodeInfo {
        code: "missing-check",
        origin: CodeOrigin::Validator,
        default_severity: Severity::Error,
        description: "a required check is never performed by the emitted code",
    },
    CodeInfo {
        code: "order-rule",
        origin: CodeOrigin::Validator,
        default_severity: Severity::Error,
        description: "REGISTER-ALLOCATION-RULE violated by the final orders",
    },
    // -- per-region lint passes -------------------------------------------
    CodeInfo {
        code: "redundant-check",
        origin: CodeOrigin::Lint,
        default_severity: Severity::Warning,
        description: "C bit emitted for an op that is not required to check anything",
    },
    CodeInfo {
        code: "dead-amov",
        origin: CodeOrigin::Lint,
        default_severity: Severity::Warning,
        description: "AMOV whose moved or cleared range no later check can observe",
    },
    CodeInfo {
        code: "overflow-risk",
        origin: CodeOrigin::Lint,
        default_severity: Severity::Error,
        description: "re-derived working set exceeds or crowds the hardware file",
    },
    CodeInfo {
        code: "unprotected-speculation",
        origin: CodeOrigin::Lint,
        default_severity: Severity::Error,
        description: "a required check-constraint lacks its emitted P or C bit",
    },
    // -- chain-level checks -----------------------------------------------
    CodeInfo {
        code: "chain-writemask-gap",
        origin: CodeOrigin::Chain,
        default_severity: Severity::Error,
        description: "resident-state write mask misses an emitted destination register",
    },
    CodeInfo {
        code: "chain-entry-state",
        origin: CodeOrigin::Chain,
        default_severity: Severity::Error,
        description: "an optimizer entry-range assumption no chain predecessor guarantees",
    },
    CodeInfo {
        code: "range-unproven-disjoint",
        origin: CodeOrigin::Chain,
        default_severity: Severity::Error,
        description: "a range-derived disjoint pair the chain-derived address ranges do not prove",
    },
    CodeInfo {
        code: "nospec-speculation",
        origin: CodeOrigin::Chain,
        default_severity: Severity::Error,
        description: "a memory op that can touch an unspeculatable range was speculated",
    },
    CodeInfo {
        code: "cross-region-dead-amov",
        origin: CodeOrigin::Chain,
        default_severity: Severity::Warning,
        description: "AMOV after the last scan, dead chain-wide by the entry queue reset",
    },
    CodeInfo {
        code: "chain-unreachable-check",
        origin: CodeOrigin::Chain,
        default_severity: Severity::Warning,
        description: "required check whose derived address ranges are provably disjoint",
    },
];

/// Looks a code up in the table.
pub fn lookup(code: &str) -> Option<&'static CodeInfo> {
    CODES.iter().find(|c| c.code == code)
}

/// `true` when `code` is registered.
pub fn is_known(code: &str) -> bool {
    lookup(code).is_some()
}

/// Severity overrides from `--deny CODE` / `--allow CODE` flags.
#[derive(Clone, Debug, Default)]
pub struct LintPolicy {
    deny: Vec<String>,
    allow: Vec<String>,
}

impl LintPolicy {
    /// Builds a policy, rejecting unknown codes (a typo in a CI gate must
    /// fail loudly, not silently gate nothing).
    ///
    /// # Errors
    /// Returns the offending code when it is not in [`CODES`].
    pub fn new(
        deny: impl IntoIterator<Item = String>,
        allow: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let deny: Vec<String> = deny.into_iter().collect();
        let allow: Vec<String> = allow.into_iter().collect();
        for c in deny.iter().chain(allow.iter()) {
            if !is_known(c) {
                return Err(format!(
                    "unknown diagnostic code '{c}' (see `smarq lint --list`)"
                ));
            }
        }
        Ok(LintPolicy { deny, allow })
    }

    /// `true` when no overrides are configured.
    pub fn is_empty(&self) -> bool {
        self.deny.is_empty() && self.allow.is_empty()
    }

    /// Applies the policy to one finding: deny ⇒ Error, allow ⇒ Info;
    /// allow wins when both name the code.
    pub fn apply(&self, d: &mut Diagnostic) {
        if self.allow.iter().any(|c| c == d.code) {
            d.severity = Severity::Info;
        } else if self.deny.iter().any(|c| c == d.code) {
            d.severity = Severity::Error;
        }
    }

    /// Applies the policy to every finding in `diags`.
    pub fn apply_all(&self, diags: &mut [Diagnostic]) {
        for d in diags {
            self.apply(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_nonempty() {
        for (i, a) in CODES.iter().enumerate() {
            assert!(!a.code.is_empty() && !a.description.is_empty());
            for b in &CODES[i + 1..] {
                assert_ne!(a.code, b.code, "duplicate code");
            }
        }
    }

    #[test]
    fn every_default_lint_pass_is_registered() {
        for p in crate::lint::default_passes() {
            let info = lookup(p.name()).unwrap_or_else(|| panic!("unregistered: {}", p.name()));
            assert_eq!(info.origin, CodeOrigin::Lint);
        }
    }

    #[test]
    fn chain_codes_are_registered() {
        for c in [
            "chain-writemask-gap",
            "chain-entry-state",
            "range-unproven-disjoint",
            "nospec-speculation",
            "cross-region-dead-amov",
            "chain-unreachable-check",
        ] {
            assert_eq!(lookup(c).unwrap().origin, CodeOrigin::Chain);
        }
    }

    #[test]
    fn policy_rejects_unknown_codes_and_overrides_severity() {
        assert!(LintPolicy::new(vec!["not-a-code".into()], vec![]).is_err());
        let policy =
            LintPolicy::new(vec!["dead-amov".into()], vec!["redundant-check".into()]).unwrap();
        let mut warn = Diagnostic::new(Severity::Warning, 0, "dead-amov", "x");
        policy.apply(&mut warn);
        assert_eq!(warn.severity, Severity::Error);
        let mut red = Diagnostic::new(Severity::Warning, 0, "redundant-check", "x");
        policy.apply(&mut red);
        assert_eq!(red.severity, Severity::Info);
        // Allow wins over deny on the same code.
        let both = LintPolicy::new(vec!["dead-amov".into()], vec!["dead-amov".into()]).unwrap();
        let mut d = Diagnostic::new(Severity::Warning, 0, "dead-amov", "x");
        both.apply(&mut d);
        assert_eq!(d.severity, Severity::Info);
    }
}
