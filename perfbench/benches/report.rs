//! How a run is printed: a table for people, one result object for
//! `--json` / `--check`, and the one-line object the benchmark contract
//! asks for as the last line of standard output.

use crate::json::{num, quote};
use crate::phases::{self, Metric};
use crate::stats::highest_supported_percentile;
use crate::workloads::{RunResult, RunSpec, Workload, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

/// The metric list a pass reports: end-to-end untraced, per-layer traced.
pub fn reported(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn first_line(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// Host facts printed with every result: a number means nothing without
/// the machine, kernel and compiler that produced it.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = first_line("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "{{\"nproc\": {nproc}, \"worker_threads\": {}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}}}",
        phases::worker_threads(),
        quote(&cpu),
        quote(&kernel),
        quote(env!("PERF_RUSTC_VERSION"))
    )
}

/// Whether `name` is a percentile its `n` samples cannot support.
fn thin_percentile(name: &str, n: usize) -> bool {
    let q = if name.ends_with("_p50") {
        0.50
    } else if name.ends_with("_p90") {
        0.90
    } else if name.ends_with("_p95") {
        0.95
    } else {
        return false;
    };
    highest_supported_percentile(n).is_none_or(|(_, top)| top < q)
}

pub fn table(spec: &RunSpec, result: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} seed {} seconds {} trace {} ==\nhost {}",
        spec.workload.name(),
        spec.seed,
        spec.seconds,
        u8::from(spec.traced),
        host_json()
    );
    // The pass's own list first; an untraced run then shows what else it
    // measured on the way (first frame, tails, recovery), as context.
    let also = PER_LAYER
        .iter()
        .filter(|(name, _)| !spec.traced && result.metrics.contains_key(name));
    for &(name, unit) in reported(spec.traced).iter().chain(also) {
        match result.metrics.get(name) {
            Some(m) => {
                let note = if thin_percentile(name, m.n) {
                    "  (fewer than 10 samples beyond it)"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "{name:<28} {:>16.6} {unit:<6} n={:<7} {}{note}",
                    m.value, m.n, m.src
                );
            }
            None => {
                let _ = writeln!(out, "{name:<28} {:>16} {unit:<6} not measured", "-");
            }
        }
    }
    let _ = writeln!(
        out,
        "operations: {} attempted, {} failed; checks {}",
        result.attempted,
        result.failed,
        if result.correct() { "passed" } else { "FAILED" }
    );
    out
}

fn metrics_json(spec: &RunSpec, result: &RunResult, with_n: bool) -> String {
    let items: Vec<String> = reported(spec.traced)
        .iter()
        .map(|&(name, unit)| {
            let m = result.metrics.get(name).copied().unwrap_or(Metric {
                value: 0.0,
                unit,
                n: 0,
                src: "",
            });
            let n = if with_n {
                format!(", \"n\": {}", m.n)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                quote(name),
                num(m.value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The contract's result: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn contract_line(spec: &RunSpec, result: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct(),
        result.attempted.max(1),
        result.failed,
        metrics_json(spec, result, false)
    )
}

/// One entry of a `--json` result file.
pub fn result_json(spec: &RunSpec, result: &RunResult) -> String {
    let errors: Vec<String> = result.errors.iter().map(|e| quote(e)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"metrics\": {}}}",
        quote(spec.workload.name()),
        spec.seed,
        num(spec.seconds),
        u8::from(spec.traced),
        result.correct(),
        result.attempted.max(1),
        result.failed,
        errors.join(", "),
        metrics_json(spec, result, true)
    )
}

/// Stands in for a child that died before reporting.
pub fn dead_child_json(workload: Workload, seed: u64, traced: bool, why: &str) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"correct\": false, \
         \"attempted\": 1, \"failed\": 1, \"errors\": [{}], \"metrics\": {{}}}}",
        quote(workload.name()),
        u8::from(traced),
        quote(why)
    )
}

pub fn dead_child_line() -> &'static str {
    "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn contract_line_has_exactly_the_contract_keys_and_every_metric() {
        let spec = RunSpec {
            workload: Workload::ServeReads,
            seed: 9,
            seconds: 20.0,
            traced: false,
            max_scale: None,
            corrupt_oracle: false,
        };
        let mut result = RunResult::default();
        result.metrics.insert(
            "setup_s",
            Metric {
                value: 0.25,
                unit: "s",
                n: 3,
                src: "primary",
            },
        );
        let v = json::parse(&contract_line(&spec, &result)).unwrap();
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(json::Value::as_f64), Some(1.0));
        let metrics = v.get("metrics").and_then(json::Value::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("value").and_then(json::Value::as_f64), Some(0.25));
        assert_eq!(setup.as_obj().unwrap().len(), 2);
        let full = json::parse(&result_json(&spec, &result)).unwrap();
        let n = full
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("n"));
        assert_eq!(n.and_then(json::Value::as_f64), Some(3.0));
        json::parse(&host_json()).unwrap();
        json::parse(dead_child_line()).unwrap();
        json::parse(&dead_child_json(Workload::StaticSim, 1, true, "signal 9")).unwrap();
    }

    #[test]
    fn thin_percentiles_are_flagged() {
        assert!(thin_percentile("serve.read_ms_p90", 99));
        assert!(!thin_percentile("serve.read_ms_p90", 100));
        assert!(thin_percentile("op_ms_p50", 19));
        assert!(!thin_percentile("op_ms_p50", 20));
        assert!(!thin_percentile("core.converge_s", 1));
    }
}
