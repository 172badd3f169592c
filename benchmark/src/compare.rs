//! `compare OLD.json NEW.json`: one verdict per (end-to-end metric,
//! workload), from the bounds the catalog fixes.

use serde_json::Value;

use crate::catalog::{Better, Workload, END_TO_END};

/// What a comparison row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// NEW is no worse than OLD by more than the bound.
    Ok,
    /// NEW is worse than OLD by more than the bound.
    Regressed,
    /// A side is missing, failed verification, or was measured in a
    /// noisy window: re-run it, do not average it away.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share by which `new` is worse than `old` (negative: better).
pub fn worsening(better: Better, old: f64, new: f64) -> f64 {
    match better {
        Better::Higher => (old - new) / old,
        Better::Lower => (new - old) / old,
    }
}

fn usable(workload: &Value) -> bool {
    workload["correct"].as_bool() == Some(true) && workload["noisy"].as_bool() != Some(true)
}

/// Judge one metric of one workload across two result files.
pub fn judge(old: &Value, new: &Value, metric: &str, better: Better, bound: f64) -> (Verdict, f64) {
    let value = |side: &Value| side["end_to_end"][metric]["value"].as_f64();
    match (value(old), value(new)) {
        (Some(a), Some(b)) if usable(old) && usable(new) && a > 0.0 => {
            let worse = worsening(better, a, b);
            let verdict = if worse > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            (verdict, worse)
        }
        _ => (Verdict::Unresolved, 0.0),
    }
}

/// Print the comparison table; returns whether any row regressed.
pub fn compare(old: &Value, new: &Value) -> bool {
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "old", "new", "worse%", "bound%"
    );
    let mut regressed = false;
    for workload in Workload::ALL {
        let side = |doc: &Value| doc["workloads"][workload.name()].clone();
        let (a, b) = (side(old), side(new));
        for metric in &END_TO_END {
            let (verdict, worse) = judge(&a, &b, metric.name, metric.better, metric.bound);
            regressed |= verdict == Verdict::Regressed;
            let shown = |doc: &Value| {
                doc["end_to_end"][metric.name]["value"]
                    .as_f64()
                    .map_or("-".to_string(), |v| format!("{v:.4}"))
            };
            println!(
                "{:<14} {:<18} {:>14} {:>14} {:>8.2} {:>6.0}  {}",
                workload.name(),
                metric.name,
                shown(&a),
                shown(&b),
                worse * 100.0,
                metric.bound * 100.0,
                verdict.word()
            );
        }
        let failed = |doc: &Value| doc["failed"].as_u64().unwrap_or(0);
        if failed(&a) < failed(&b) {
            regressed = true;
            println!(
                "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6}  regressed",
                workload.name(),
                "failed",
                failed(&a),
                failed(&b),
                "-",
                0
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn side(points_per_s: f64, noisy: bool) -> Value {
        side_with(points_per_s, noisy, true)
    }

    fn side_with(points_per_s: f64, noisy: bool, correct: bool) -> Value {
        json!({
            "correct": correct,
            "noisy": noisy,
            "end_to_end": {"points_per_s": {"value": points_per_s, "unit": "points/s"}},
        })
    }

    #[test]
    fn verdict_follows_the_bound_and_the_direction() {
        let judge_pps = |a: &Value, b: &Value| judge(a, b, "points_per_s", Better::Higher, 0.10).0;
        assert_eq!(
            judge_pps(&side(100.0, false), &side(95.0, false)),
            Verdict::Ok
        );
        assert_eq!(
            judge_pps(&side(100.0, false), &side(120.0, false)),
            Verdict::Ok
        );
        assert_eq!(
            judge_pps(&side(100.0, false), &side(85.0, false)),
            Verdict::Regressed
        );
        assert_eq!(worsening(Better::Lower, 10.0, 12.0), 0.2);
        assert_eq!(worsening(Better::Higher, 10.0, 12.0), -0.2);
    }

    #[test]
    fn noisy_missing_or_incorrect_sides_are_unresolved() {
        let judge_pps = |a: &Value, b: &Value| judge(a, b, "points_per_s", Better::Higher, 0.10).0;
        assert_eq!(
            judge_pps(&side(100.0, true), &side(50.0, false)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge_pps(&side(100.0, false), &json!({})),
            Verdict::Unresolved
        );
        let wrong = side_with(100.0, false, false);
        assert_eq!(judge_pps(&side(100.0, false), &wrong), Verdict::Unresolved);
    }
}
