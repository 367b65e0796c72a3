//! `compare <a.json> <b.json>`: per workload and end-to-end metric,
//! whether the second run improved, held, regressed, or cannot be told
//! from the first — judged with the bounds `BENCHMARK.json` fixes.

use crate::json::{parse, Value};
use std::fmt::Write as _;

/// Verdict on one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// A file's own repeat-to-repeat spread exceeds the bound, so a
    /// difference within it says nothing.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `(max − min) / median` of a metric's raw per-repeat values; 0 without
/// at least two.
fn raw_spread(metric: &Value) -> f64 {
    let mut raw: Vec<f64> = metric
        .get("raw")
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    if raw.len() < 2 {
        return 0.0;
    }
    raw.sort_by(f64::total_cmp);
    let median = raw[raw.len() / 2];
    (raw[raw.len() - 1] - raw[0]) / median.abs().max(1e-12)
}

/// Judges `after` against `before`. `gain` is the relative change in the
/// metric's good direction.
pub fn judge(before: f64, after: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    let change = (after - before) / before.abs().max(1e-12);
    let gain = if higher_is_better { change } else { -change };
    if spread > bound {
        Verdict::Unresolved
    } else if gain < -bound {
        Verdict::Regressed
    } else if gain > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Compares two parsed `run.json` documents under the `end_to_end`
/// bounds of a parsed `BENCHMARK.json`. Returns the report text.
pub fn compare(before: &Value, after: &Value, benchmark: &Value) -> Result<String, String> {
    let bounds = benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads_a = before
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("first file has no workloads")?;
    let workloads_b = after
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("second file has no workloads")?;
    let mut out = String::new();
    let mut count_mismatches = Vec::new();
    for (workload, a) in workloads_a {
        let Some(b) = workloads_b.get(workload) else {
            let _ = writeln!(out, "{workload}: missing from the second file");
            continue;
        };
        // What must repeat exactly when the engine's behaviour has not
        // changed: listed, never averaged.
        for key in ["digest", "ticks", "attempted", "failed"] {
            if a.get(key) != b.get(key) {
                count_mismatches.push(format!(
                    "{workload} {key}: {:?} -> {:?}",
                    a.get(key),
                    b.get(key)
                ));
            }
        }
        for entry in bounds {
            let name = entry.get("name").and_then(Value::as_str).unwrap_or("");
            let bound = entry.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let higher = entry.get("better").and_then(Value::as_str) == Some("higher");
            let metric = |run: &Value| run.get("end_to_end").and_then(|m| m.get(name)).cloned();
            let (Some(ma), Some(mb)) = (metric(a), metric(b)) else {
                let _ = writeln!(out, "{workload} {name}: missing");
                continue;
            };
            let (Some(va), Some(vb)) = (
                ma.get("value").and_then(Value::as_f64),
                mb.get("value").and_then(Value::as_f64),
            ) else {
                let _ = writeln!(out, "{workload} {name}: not a number");
                continue;
            };
            let spread = raw_spread(&ma).max(raw_spread(&mb));
            let verdict = judge(va, vb, higher, bound, spread);
            let _ = writeln!(
                out,
                "{workload} {name}: {} ({va} -> {vb}, {:+.2}%, bound {:.0}%, raw spread {:.1}%)",
                verdict.label(),
                (vb - va) / va.abs().max(1e-12) * 100.0,
                bound * 100.0,
                spread * 100.0
            );
        }
    }
    if count_mismatches.is_empty() {
        out.push_str("counts: all match\n");
    } else {
        for m in count_mismatches {
            let _ = writeln!(out, "count mismatch: {m}");
        }
    }
    Ok(out)
}

/// The contract this crate was built beside: its `end_to_end` bounds
/// judge every comparison.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Reads two `run.json` files and compares them.
pub fn compare_files(before: &str, after: &str) -> Result<String, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let benchmark = parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    compare(&load(before)?, &load(after)?, &benchmark)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower-is-better latency, 10 % bound.
        assert_eq!(judge(100.0, 105.0, false, 0.1, 0.02), Verdict::Unchanged);
        assert_eq!(judge(100.0, 120.0, false, 0.1, 0.02), Verdict::Regressed);
        assert_eq!(judge(100.0, 80.0, false, 0.1, 0.02), Verdict::Improved);
        assert_eq!(judge(100.0, 80.0, false, 0.1, 0.3), Verdict::Unresolved);
        // Higher-is-better throughput.
        assert_eq!(judge(100.0, 120.0, true, 0.1, 0.0), Verdict::Improved);
        assert_eq!(judge(100.0, 85.0, true, 0.1, 0.0), Verdict::Regressed);
    }

    #[test]
    fn compare_lists_count_mismatches_and_verdicts() {
        let bench = parse(
            r#"{"end_to_end": [{"name": "ttft_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let run = |ticks: u32, v: f64| {
            parse(&format!(
                r#"{{"workloads": {{"w": {{"digest": "ab", "ticks": {ticks}, "attempted": 4, "failed": 0,
                 "end_to_end": {{"ttft_ms_p50": {{"value": {v}, "unit": "ms", "raw": [{v}, {v}]}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let report = compare(&run(10, 5.0), &run(11, 6.0), &bench).unwrap();
        assert!(report.contains("w ttft_ms_p50: regressed"), "{report}");
        assert!(report.contains("count mismatch: w ticks"), "{report}");
        let report = compare(&run(10, 5.0), &run(10, 5.1), &bench).unwrap();
        assert!(
            report.contains("unchanged") && report.contains("counts: all match"),
            "{report}"
        );
    }
}
