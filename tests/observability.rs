//! Observability lockdown tests.
//!
//! * Golden-file tests pin the JSON export of a hand-built registry and the
//!   progress JSONL of a seeded run (with the one measured-time-tainted
//!   field zeroed), so export format drift is a reviewed diff, never an
//!   accident.
//! * Probe monotonicity: per-vertex estimates never regress, the
//!   converged-row fraction never decreases and the worst overestimate never
//!   grows.
//! * JSONL round-trips decode to the exact structs that were encoded.
//!
//! Regenerate goldens intentionally with `UPDATE_GOLDEN=1 cargo test`.

use aa_core::{AnytimeEngine, EngineConfig, MetricsRegistry, ProgressSample};
use aa_graph::generators;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (regenerate with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        actual, want,
        "golden {name} drifted — if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// A registry with every metric kind, fixed values, labels that need escaping
/// and a histogram — everything the JSON export has to render stably.
fn sample_registry() -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    r.inc_counter("aa_rows_total", &[("phase", "recombination")], 42);
    r.inc_counter("aa_rows_total", &[("phase", "recovery")], 3);
    r.inc_counter("aa_zero_total", &[], 0);
    r.set_gauge("aa_queue_depth", &[("rank", "0")], 7.5);
    r.set_gauge("aa_queue_depth", &[("rank", "1")], 0.0);
    r.set_gauge("aa_escape_check", &[("path", "a\"b\\c")], 1.0);
    r.declare_histogram("aa_row_bytes", &[64.0, 256.0, 1024.0]);
    for v in [32.0, 100.0, 100.0, 500.0, 5000.0] {
        r.observe("aa_row_bytes", &[], v);
    }
    r
}

#[test]
fn registry_json_matches_golden() {
    check_golden("registry.json", &sample_registry().to_json());
}

/// A seeded engine with the probe on, run to convergence.
fn probed_engine(n: usize, procs: usize, seed: u64) -> AnytimeEngine {
    let g = generators::barabasi_albert(n, 2, 1, seed);
    let mut e = AnytimeEngine::new(
        g,
        EngineConfig {
            num_procs: procs,
            seed,
            ..Default::default()
        },
    );
    e.initialize();
    e.enable_progress_probe();
    e.run_to_convergence(16 * procs + 64);
    assert!(e.is_converged());
    e
}

/// The one field fed by measured (wall-clock-scaled) compute is zeroed so
/// the golden is bit-stable across machines; everything else in a sample is
/// derived from the modeled, seeded state.
fn stable_samples(e: &AnytimeEngine) -> Vec<ProgressSample> {
    let mut samples = e.progress_samples().to_vec();
    for s in &mut samples {
        s.makespan_us = 0.0;
    }
    samples
}

#[test]
fn progress_jsonl_matches_golden_seeded_run() {
    let e = probed_engine(40, 3, 11);
    check_golden(
        "progress.jsonl",
        &aa_core::encode_jsonl(&stable_samples(&e)),
    );
}

#[test]
fn progress_jsonl_roundtrips_exactly() {
    let e = probed_engine(30, 2, 5);
    let samples = e.progress_samples().to_vec();
    assert!(!samples.is_empty());
    let decoded = aa_core::decode_jsonl(&aa_core::encode_jsonl(&samples)).unwrap();
    assert_eq!(decoded, samples);
}

#[test]
fn span_jsonl_roundtrips_exactly() {
    let e = probed_engine(30, 2, 5);
    let log = e.spans();
    assert!(!log.is_empty());
    let decoded = aa_core::SpanLog::from_jsonl(&log.to_jsonl()).unwrap();
    assert_eq!(decoded.len(), log.len());
    for (a, b) in decoded.iter().zip(log.iter()) {
        assert_eq!(a, b);
    }
}

#[test]
fn probe_is_monotone_fault_free() {
    let e = probed_engine(60, 4, 23);
    let samples = e.progress_samples();
    assert!(samples.len() >= 2, "expected several RC steps");
    for s in samples {
        assert_eq!(
            s.estimate_regressions, 0,
            "estimates must never increase (RC{})",
            s.rc_step
        );
    }
    for pair in samples.windows(2) {
        assert!(
            pair[1].converged_row_fraction + 1e-12 >= pair[0].converged_row_fraction,
            "converged-row fraction decreased: {} -> {} at RC{}",
            pair[0].converged_row_fraction,
            pair[1].converged_row_fraction,
            pair[1].rc_step
        );
        assert!(
            pair[1].max_overestimate <= pair[0].max_overestimate + 1e-12,
            "worst overestimate grew: {} -> {} at RC{}",
            pair[0].max_overestimate,
            pair[1].max_overestimate,
            pair[1].rc_step
        );
    }
    let last = samples.last().unwrap();
    assert!(last.max_overestimate <= 1e-12);
    assert!((last.kendall_tau - 1.0).abs() < 1e-12);
    assert!((last.converged_row_fraction - 1.0).abs() < 1e-12);
    assert_eq!(last.dirty_rows, 0);
}

#[test]
fn metrics_json_has_no_unstable_fields_when_phases_are_excluded() {
    // The full engine registry necessarily includes measured compute; the
    // exporter must keep those clearly named (`*_compute_us`, makespan) so
    // downstream goldens can exclude them — verify the naming contract.
    let e = probed_engine(30, 2, 5);
    let json = e.metrics_registry().to_json();
    for stable in [
        "\"aa_rc_steps_total\"",
        "\"aa_graph_vertices\"",
        "\"aa_converged\"",
        "\"aa_dirty_rows\"",
    ] {
        assert!(json.contains(stable), "{stable} missing from:\n{json}");
    }
    assert!(
        json.contains("aa_makespan_us"),
        "measured fields keep their us suffix"
    );
}
