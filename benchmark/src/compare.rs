//! `--compare a.json b.json`: applies the benchmark's own bounds to two
//! result sets, `a` the parent and `b` the change.
//!
//! Host-clock metrics may worsen by their bound. Simulated-clock metrics,
//! the fingerprint and the failure count are deterministic at one seed
//! and must be exactly equal. Where a set's own spread is wider than the
//! bound, a metric that did not regress is *unresolved*, not *unchanged*;
//! `--quick` sets (1 s, 3 units) cannot resolve a host-clock bound at all.

use crate::catalog::{Better, END_TO_END};
use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Unresolved,
    Regression,
    /// A deterministic value differs at the same seed.
    Changed,
}

impl Verdict {
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Changed)
    }

    fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved (no claim: one run each)",
            Verdict::Unresolved => "unresolved (spread wider than the bound, or a quick run)",
            Verdict::Regression => "REGRESSION",
            Verdict::Changed => "CHANGED (must be identical at one seed)",
        }
    }
}

/// Judges one host-clock metric: `worse` is the share by which `b` is
/// worse than `a` (negative when better), `spread` the wider of the two
/// sets' own spreads.
pub fn judge(worse: f64, spread: f64, bound: f64) -> Verdict {
    if worse > bound {
        Verdict::Regression
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn metric(entry: &Value, name: &str) -> Option<f64> {
    entry.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn spread_of(entry: &Value, name: &str) -> f64 {
    entry
        .get("spreads")
        .and_then(|s| s.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Compares two result sets; prints one row per workload and metric and
/// returns the rows that fail.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<String>, String> {
    let same_seed = a.get("seed").and_then(Value::as_f64) == b.get("seed").and_then(Value::as_f64);
    if !same_seed {
        println!("seeds differ: simulated-clock metrics are held to their bounds, not to equality");
    }
    let quick = [a, b]
        .iter()
        .any(|s| s.get("quick").and_then(Value::as_bool) == Some(true));
    let workloads = a.get("workloads").ok_or("first set has no workloads")?;
    let mut failures = Vec::new();
    let mut row = |workload: &str, what: &str, detail: String, verdict: Verdict| {
        println!("{workload:<14} {what:<18} {detail:<44} {}", verdict.name());
        if verdict.fails() {
            failures.push(format!("{workload} {what}: {}", verdict.name()));
        }
    };
    for (name, ea) in workloads.fields() {
        let Some(eb) = b.get("workloads").and_then(|w| w.get(name)) else {
            row(
                name,
                "workload",
                "missing from the second set".into(),
                Verdict::Changed,
            );
            continue;
        };
        let correct = eb.get("correct").and_then(Value::as_bool) == Some(true);
        let failed = |e: &Value| e.get("failed").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let verdict = if correct && failed(ea) == failed(eb) {
            Verdict::Unchanged
        } else {
            Verdict::Changed
        };
        let detail = format!("failed {} -> {}, correct {correct}", failed(ea), failed(eb));
        row(name, "failed_op_share", detail, verdict);
        if same_seed {
            for key in ["sim_fingerprint", "sim_latency_us"] {
                let (va, vb) = (ea.get(key), eb.get(key));
                let verdict = if va == vb {
                    Verdict::Unchanged
                } else {
                    Verdict::Changed
                };
                let show = |v: Option<&Value>| v.map_or("missing".to_string(), Value::to_string);
                row(name, key, format!("{} -> {}", show(va), show(vb)), verdict);
            }
        }
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (metric(ea, m.name), metric(eb, m.name)) else {
                // A traced set carries per-layer metrics only: no bounds.
                continue;
            };
            let worse = match m.better {
                Better::Higher => (va - vb) / va,
                Better::Lower => (vb - va) / va,
            };
            let verdict = if m.simulated && same_seed {
                if va == vb {
                    Verdict::Unchanged
                } else {
                    Verdict::Changed
                }
            } else {
                match judge(
                    worse,
                    spread_of(ea, m.name).max(spread_of(eb, m.name)),
                    m.bound,
                ) {
                    Verdict::Regression if quick => Verdict::Unresolved,
                    verdict => verdict,
                }
            };
            let change = match worse {
                w if w > 0.0 => format!("{:.2} % worse", w * 100.0),
                w if w < 0.0 => format!("{:.2} % better", -w * 100.0),
                _ => "equal".to_string(),
            };
            let detail = format!("{va:.6} -> {vb:.6} {} ({change})", m.unit);
            row(name, m.name, detail, verdict);
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn bounds_spread_and_direction() {
        assert_eq!(judge(0.04, 0.02, 0.10), Verdict::Unchanged);
        assert_eq!(judge(0.11, 0.02, 0.10), Verdict::Regression);
        assert_eq!(judge(-0.20, 0.02, 0.10), Verdict::Improved);
        // A spread wider than the bound cannot call anything unchanged
        // or improved, but a regression beyond the bound still counts.
        assert_eq!(judge(0.04, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(judge(-0.20, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(judge(0.30, 0.15, 0.10), Verdict::Regression);
    }

    fn set(seed: u64, ops: f64, sim: f64, fp: &str, failed: u64) -> Value {
        parse(&format!(
            r#"{{"seed": {seed}, "quick": false, "workloads": {{"kv_serve": {{"correct": true,
            "failed": {failed}, "sim_fingerprint": "{fp}", "spreads": {{"ops_per_wall_s": 0.01}},
            "metrics": {{"ops_per_wall_s": {{"value": {ops}, "unit": "1/s"}},
                         "sim_elapsed_us": {{"value": {sim}, "unit": "us"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn quick(set: Value) -> Value {
        let fields = set.fields().iter().cloned();
        Value::obj(fields.map(|(k, v)| {
            if k == "quick" {
                (k, Value::Bool(true))
            } else {
                (k, v)
            }
        }))
    }

    #[test]
    fn result_sets_compare_by_the_catalogue_bounds() {
        let a = set(7, 1000.0, 20.5, "ab", 0);
        assert_eq!(compare(&a, &a).unwrap(), Vec::<String>::new());
        // 5 % slower on the host clock is inside the bound, 30 % is not.
        assert!(compare(&a, &set(7, 950.0, 20.5, "ab", 0))
            .unwrap()
            .is_empty());
        let slow = compare(&a, &set(7, 700.0, 20.5, "ab", 0)).unwrap();
        assert_eq!(slow.len(), 1, "{slow:?}");
        assert!(slow[0].contains("ops_per_wall_s") && slow[0].contains("REGRESSION"));
        // The simulated clock must not move at all at one seed...
        let moved = compare(&a, &set(7, 1000.0, 20.6, "ab", 0)).unwrap();
        assert!(
            moved.iter().any(|f| f.contains("sim_elapsed_us")),
            "{moved:?}"
        );
        // ...but is held only to its bound across seeds.
        assert!(compare(&a, &set(11, 1000.0, 20.6, "cd", 0))
            .unwrap()
            .is_empty());
        assert!(!compare(&a, &set(7, 1000.0, 20.5, "ab", 3))
            .unwrap()
            .is_empty());
        assert!(!compare(&a, &set(7, 1000.0, 20.5, "ff", 0))
            .unwrap()
            .is_empty());
        // A quick set cannot resolve a host-clock bound, but still pins
        // the simulated clock.
        assert!(compare(&a, &quick(set(7, 700.0, 20.5, "ab", 0)))
            .unwrap()
            .is_empty());
        assert!(!compare(&a, &quick(set(7, 700.0, 20.6, "ab", 0)))
            .unwrap()
            .is_empty());
    }
}
