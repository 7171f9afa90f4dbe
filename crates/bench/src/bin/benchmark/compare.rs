//! `benchmark compare A.json… -- B.json…`: per (workload, metric), both
//! sides' median and quartiles over their result files, the fraction of
//! (A, B) pairs B wins, and a verdict against the metric's bound.

use crate::report::{metric, quantile, Better, Json, MetricDef};
use std::collections::BTreeMap;

/// How side B compares with side A on one metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// B wins at least nine tenths of the pairs and the medians differ by
    /// more than A's own quartile spread.
    Better,
    /// B's median is worse than A's by less than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound, so no call can be made.
    Unresolved,
    /// A per-layer metric: no bound, no verdict.
    NoBound,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

/// Fraction of (a, b) pairs in which `b` is better than `a`; ties count
/// for neither side.
pub fn win_fraction(def: &MetricDef, a: &[f64], b: &[f64]) -> f64 {
    let mut wins = 0usize;
    for &x in a {
        for &y in b {
            let b_better = match def.better {
                Better::Higher => y > x,
                Better::Lower => y < x,
            };
            wins += usize::from(b_better);
        }
    }
    wins as f64 / (a.len() * b.len()).max(1) as f64
}

/// The verdict for B against A (see [`Verdict`]). A spread wider than the
/// bound leaves the metric unresolved unless every B run beats every A run.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let Some(bound) = def.bound else {
        return Verdict::NoBound;
    };
    let (ma, mb) = (quantile(a, 0.5), quantile(b, 0.5));
    let iqr = |v: &[f64]| quantile(v, 0.75) - quantile(v, 0.25);
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    let spread = iqr(a).max(iqr(b)) / scale;
    let win = win_fraction(def, a, b);
    // Relative change of B, positive when B is worse.
    let worse_by = match def.better {
        Better::Higher => (ma - mb) / scale,
        Better::Lower => (mb - ma) / scale,
    };
    if win >= 0.9 && (mb - ma).abs() > iqr(a) {
        Verdict::Better
    } else if spread > bound {
        if win_fraction(def, b, a) == 1.0 && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// The (workload, metric) → value rows of one result file.
fn load(path: &str) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let (Some(w), Some(m)) = (
            v.get("workload").and_then(Json::as_str),
            v.get("metric").and_then(Json::as_str),
        ) else {
            continue;
        };
        let value = v
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}:{}: row without a numeric value", i + 1))?;
        rows.push((w.to_string(), m.to_string(), value));
    }
    Ok(rows)
}

/// Runs the comparison; returns whether any metric came out worse.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs `A.json… -- B.json…`")?;
    let (a_files, b_files) = (&args[..split], &args[split + 1..]);
    if a_files.is_empty() || b_files.is_empty() {
        return Err("compare needs at least one result file on each side of `--`".into());
    }
    // (workload, metric) → (A values, B values), in first-seen order.
    let mut order: Vec<(String, String)> = Vec::new();
    let mut values: BTreeMap<(String, String), [Vec<f64>; 2]> = BTreeMap::new();
    for (side, files) in [a_files, b_files].into_iter().enumerate() {
        for f in files {
            for (w, m, v) in load(f)? {
                let key = (w, m);
                if !values.contains_key(&key) {
                    order.push(key.clone());
                }
                values.entry(key).or_default()[side].push(v);
            }
        }
    }
    println!(
        "# A: {} files, B: {} files; quartiles over files; win = share of (A, B) pairs B wins",
        a_files.len(),
        b_files.len()
    );
    let mut any_worse = false;
    for key in &order {
        let [a, b] = &values[key];
        let Some(def) = metric(&key.1) else {
            continue;
        };
        if a.is_empty() || b.is_empty() {
            continue;
        }
        let v = verdict(def, a, b);
        any_worse |= v == Verdict::Worse;
        let bound = def
            .bound
            .map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0));
        println!(
            "{} {} {} ({} is better): A {:.6} [{:.6}..{:.6}] B {:.6} [{:.6}..{:.6}] win {:.2} bound {bound} {}",
            key.0,
            key.1,
            def.unit,
            def.better.as_str(),
            quantile(a, 0.5),
            quantile(a, 0.25),
            quantile(a, 0.75),
            quantile(b, 0.5),
            quantile(b, 0.25),
            quantile(b, 0.75),
            win_fraction(def, a, b),
            v.as_str()
        );
    }
    Ok(any_worse)
}
