//! `perf --check A.json B.json`: is B no worse than A?
//!
//! Compares two `--json` result files against the bounds in
//! `BENCHMARK.json`, workload by workload. An end-to-end metric passes when
//! B's median over its repetitions (`--reps`) is not worse than A's by more
//! than its bound; the exact-repeat counters must be equal in every
//! repetition of both files; and a run that failed a check or an operation
//! fails outright.
//! Used for the run-to-run acceptance test (A and B from one commit) and by
//! every later change (A from the parent commit, B from the change).

use crate::json::{self, Value};
use crate::workloads::EXACT_REPEAT;
use std::collections::BTreeMap;
use std::path::Path;

/// `name → (lower is better, bound)`.
type Bounds = BTreeMap<String, (bool, f64)>;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn bounds(benchmark: &Value) -> Result<Bounds, String> {
    let mut out = Bounds::new();
    for m in benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .as_arr()
    {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let lower = match m.get("better").and_then(Value::as_str) {
            Some("lower") => true,
            Some("higher") => false,
            other => return Err(format!("{name}: better is {other:?}")),
        };
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name}: no bound"))?;
        out.insert(name.to_string(), (lower, bound));
    }
    Ok(out)
}

/// Repetitions of a result file grouped by `(workload, traced)`.
fn runs(file: &Value) -> BTreeMap<(String, bool), Vec<&Value>> {
    let mut out: BTreeMap<(String, bool), Vec<&Value>> = BTreeMap::new();
    for r in file.get("runs").map_or(&[][..], Value::as_arr) {
        let key = r
            .get("workload")
            .and_then(Value::as_str)
            .zip(r.get("trace").and_then(Value::as_f64));
        if let Some((workload, trace)) = key {
            out.entry((workload.to_string(), trace != 0.0))
                .or_default()
                .push(r);
        }
    }
    out
}

/// `metric` in every repetition; `None` if any lacks it.
fn values_of(reps: &[&Value], metric: &str) -> Option<Vec<f64>> {
    reps.iter()
        .map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn median_of(reps: &[&Value], metric: &str) -> Option<f64> {
    values_of(reps, metric).map(|v| crate::stats::median(&v))
}

/// By what share of `a` is `b` worse (negative = better)?
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// One line per comparison and whether all passed.
pub fn compare(a: &Value, b: &Value, bounds: &Bounds) -> (Vec<String>, bool) {
    let (runs_a, runs_b) = (runs(a), runs(b));
    let mut lines = Vec::new();
    let mut ok = true;
    let mut verdict = |pass: bool, text: String| {
        ok &= pass;
        lines.push(format!("{} {text}", if pass { "pass" } else { "FAIL" }));
    };
    for ((workload, traced), ra) in &runs_a {
        let pass_name = if *traced { "traced" } else { "untraced" };
        let Some(rb) = runs_b.get(&(workload.clone(), *traced)) else {
            verdict(false, format!("{workload} ({pass_name}): missing from B"));
            continue;
        };
        for (side, r) in [("A", ra), ("B", rb)]
            .into_iter()
            .flat_map(|(s, g)| g.iter().map(move |r| (s, r)))
        {
            let correct = r.get("correct").and_then(Value::as_bool) == Some(true);
            let failed = r.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
            if !correct || failed != 0.0 {
                verdict(
                    false,
                    format!(
                        "{workload} ({pass_name}): {side} has correct={correct}, failed={failed}"
                    ),
                );
            }
        }
        if *traced {
            for name in EXACT_REPEAT {
                let (va, vb) = (values_of(ra, name), values_of(rb, name));
                let first = va.as_ref().and_then(|v| v.first().copied());
                let same = |v: &Option<Vec<f64>>| {
                    v.as_ref()
                        .is_some_and(|v| v.iter().all(|&x| Some(x) == first))
                };
                verdict(
                    first.is_some() && same(&va) && same(&vb),
                    format!("{name} @ {workload}: {va:?} vs {vb:?} (must all be equal)"),
                );
            }
            continue;
        }
        for (name, &(lower, bound)) in bounds {
            match (median_of(ra, name), median_of(rb, name)) {
                (Some(va), Some(vb)) => {
                    let w = worsening(va, vb, lower);
                    verdict(
                        w <= bound,
                        format!(
                            "{name} @ {workload}: {va:.6} -> {vb:.6} ({:+.1} % worse, bound {:.0} %)",
                            w * 100.0,
                            bound * 100.0
                        ),
                    );
                }
                (va, vb) => verdict(false, format!("{name} @ {workload}: {va:?} vs {vb:?}")),
            }
        }
    }
    if runs_a.is_empty() {
        verdict(false, "A holds no runs".to_string());
    }
    (lines, ok)
}

pub fn run(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let bounds = bounds(&load(benchmark)?)?;
    let (lines, ok) = compare(&load(a)?, &load(b)?, &bounds);
    for line in &lines {
        println!("{line}");
    }
    println!(
        "{}: {} comparisons, {} failed",
        if ok { "PASS" } else { "FAIL" },
        lines.len(),
        lines.iter().filter(|l| l.starts_with("FAIL")).count()
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(converge: f64, reads: f64, steps: f64) -> Value {
        json::parse(&format!(
            "{{\"runs\": [
              {{\"workload\": \"w\", \"trace\": 0, \"correct\": true, \"failed\": 0,
                \"metrics\": {{\"converge_s\": {{\"value\": {converge}}}, \"reads_per_s\": {{\"value\": {reads}}}}}}},
              {{\"workload\": \"w\", \"trace\": 1, \"correct\": true, \"failed\": 0,
                \"metrics\": {{\"core.rc_steps\": {{\"value\": {steps}}}, \"runtime.rc_messages\": {{\"value\": 1}},
                  \"runtime.rc_bytes\": {{\"value\": 1}}, \"ingest.flushes\": {{\"value\": 1}}, \"durable.syncs\": {{\"value\": 1}}}}}}
            ]}}"
        ))
        .unwrap()
    }

    fn test_bounds() -> Bounds {
        let b = json::parse(
            "{\"end_to_end\": [
               {\"name\": \"converge_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.1},
               {\"name\": \"reads_per_s\", \"unit\": \"1/s\", \"better\": \"higher\", \"bound\": 0.1}]}",
        )
        .unwrap();
        bounds(&b).unwrap()
    }

    #[test]
    fn within_bound_passes_and_direction_is_respected() {
        let b = test_bounds();
        assert!(compare(&file(1.0, 100.0, 7.0), &file(1.09, 91.0, 7.0), &b).1);
        // Faster and more throughput is never a failure.
        assert!(compare(&file(1.0, 100.0, 7.0), &file(0.5, 300.0, 7.0), &b).1);
        let (lines, ok) = compare(&file(1.0, 100.0, 7.0), &file(1.2, 100.0, 7.0), &b);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.starts_with("FAIL converge_s @ w")));
        assert!(!compare(&file(1.0, 100.0, 7.0), &file(1.0, 80.0, 7.0), &b).1);
    }

    #[test]
    fn repetitions_are_compared_by_their_medians() {
        let b = test_bounds();
        let merge = |files: &[Value]| {
            let runs: Vec<Value> = files
                .iter()
                .flat_map(|f| f.get("runs").unwrap().as_arr().to_vec())
                .collect();
            Value::Obj(
                [("runs".to_string(), Value::Arr(runs))]
                    .into_iter()
                    .collect(),
            )
        };
        let a = merge(&[
            file(1.0, 100.0, 7.0),
            file(1.0, 100.0, 7.0),
            file(1.0, 100.0, 7.0),
        ]);
        // One slow repetition of three does not move the median.
        let noisy = merge(&[
            file(1.0, 100.0, 7.0),
            file(1.9, 100.0, 7.0),
            file(1.05, 100.0, 7.0),
        ]);
        assert!(compare(&a, &noisy, &b).1);
        let slow = merge(&[
            file(1.2, 100.0, 7.0),
            file(1.9, 100.0, 7.0),
            file(1.0, 100.0, 7.0),
        ]);
        assert!(!compare(&a, &slow, &b).1);
        // A counter that differs in one repetition fails even when medians agree.
        let drift = merge(&[
            file(1.0, 100.0, 7.0),
            file(1.0, 100.0, 8.0),
            file(1.0, 100.0, 7.0),
        ]);
        assert!(!compare(&a, &drift, &b).1);
    }

    #[test]
    fn exact_counters_must_be_equal_and_runs_must_match() {
        let b = test_bounds();
        let (lines, ok) = compare(&file(1.0, 100.0, 7.0), &file(1.0, 100.0, 8.0), &b);
        assert!(!ok);
        assert!(lines
            .iter()
            .any(|l| l.starts_with("FAIL core.rc_steps @ w")));
        let empty = json::parse("{\"runs\": []}").unwrap();
        assert!(!compare(&file(1.0, 100.0, 7.0), &empty, &b).1);
        assert!(!compare(&empty, &empty, &b).1);
        assert_eq!(worsening(2.0, 3.0, true), 0.5);
        assert_eq!(worsening(2.0, 3.0, false), -0.5);
    }
}
