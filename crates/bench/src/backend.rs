//! Backend sweep (beyond-paper): the deterministic simulator vs the real
//! threaded backend on the same R-MAT workloads.
//!
//! Both backends execute the identical DD/IA/RC message schedule and charge
//! the identical LogP virtual clocks, so every run is checked for exact
//! closeness agreement against the sim oracle before its timing is reported
//! — a row in this sweep is only comparable because it is provably the same
//! computation. Wall-clock time is what differs: the threaded backend fans
//! per-rank compute out to OS threads, so on a multi-core host it should
//! finish the same cluster-minutes of work in less real time.
//!
//! The committed artifact (`BENCH_backend.json`) records the host's
//! available parallelism next to the timings: a single-core container can
//! prove exactness but physically cannot show speedup, and the JSON says so
//! instead of pretending.

use crate::workload::ExperimentParams;
use aa_core::{AnytimeEngine, EngineConfig};
use aa_graph::rmat::{rmat, RmatParams};
use aa_obs::Stopwatch;
use aa_runtime::BackendKind;

/// One (scale, backend, threads) cell of the sweep.
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// Backend name (`sim` or `threads`).
    pub backend: String,
    /// Worker-thread cap (1 for the sim, which is strictly sequential).
    pub threads: usize,
    /// R-MAT scale (the graph has `2^scale` vertices).
    pub scale: u32,
    /// Vertices in the generated graph.
    pub vertices: usize,
    /// Edges in the generated graph.
    pub edges: usize,
    /// RC steps to static convergence.
    pub rc_steps: usize,
    /// Wall-clock seconds for IA + convergence (host-dependent).
    pub wall_s: f64,
    /// LogP makespan in cluster-minutes (backend-independent by contract).
    pub cluster_minutes: f64,
    /// Whether the closeness vector matched the sim oracle exactly
    /// (always true for returned rows — a mismatch aborts the sweep).
    pub exact: bool,
}

/// The number of logical cores the OS will actually schedule for us.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_once(
    params: &ExperimentParams,
    scale: u32,
    backend: BackendKind,
    threads: usize,
) -> Result<(BackendRow, Vec<f64>), String> {
    let n = 1usize << scale;
    let graph = rmat(scale, n * 4, RmatParams::default(), 4, params.seed);
    let vertices = graph.vertex_count();
    let edges = graph.edge_count();
    let config = EngineConfig {
        backend,
        threads,
        ..params.engine_config()
    };
    let mut engine = AnytimeEngine::new(graph, config);
    // Time the phases the backend parallelizes (IA + RC); domain
    // decomposition is identical sequential work on both and would only
    // dilute the comparison.
    let wall = Stopwatch::start();
    engine.initialize();
    engine.run_to_convergence(16 * params.procs + 64);
    let wall_s = wall.elapsed().as_secs_f64();
    let snap = engine.snapshot();
    let row = BackendRow {
        backend: backend.to_string(),
        threads: if backend == BackendKind::Sim {
            1
        } else {
            threads
        },
        scale,
        vertices,
        edges,
        rc_steps: engine.rc_steps(),
        wall_s,
        cluster_minutes: snap.makespan_us / 60e6,
        exact: true,
    };
    Ok((row, snap.closeness))
}

/// Runs the sweep: for every scale, one sim run (the oracle) followed by one
/// threaded run per entry in `thread_counts`, each checked for exact
/// closeness agreement with the oracle before being reported.
pub fn backend_sweep(
    params: &ExperimentParams,
    scales: &[u32],
    thread_counts: &[usize],
) -> Result<Vec<BackendRow>, String> {
    let mut rows = Vec::new();
    for &scale in scales {
        let (sim_row, oracle) = run_once(params, scale, BackendKind::Sim, 0)?;
        rows.push(sim_row);
        for &threads in thread_counts {
            let (row, closeness) = run_once(params, scale, BackendKind::Threads, threads)?;
            if closeness != oracle {
                #[expect(
                    clippy::float_cmp,
                    reason = "the threads backend must reproduce the oracle bit for bit"
                )]
                let diverged = closeness
                    .iter()
                    .zip(oracle.iter())
                    .filter(|(a, b)| a != b)
                    .count();
                return Err(format!(
                    "threads backend ({threads} workers) diverged from the sim oracle at \
                     scale {scale}: {diverged} of {} closeness values differ",
                    oracle.len()
                ));
            }
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Wall-clock speedup of the threaded backend at `threads` workers over the
/// sim at the largest swept scale, if both rows exist.
pub fn speedup_at(rows: &[BackendRow], threads: usize) -> Option<f64> {
    let largest = rows.iter().map(|r| r.scale).max()?;
    let sim = rows
        .iter()
        .find(|r| r.scale == largest && r.backend == "sim")?;
    let thr = rows
        .iter()
        .find(|r| r.scale == largest && r.backend == "threads" && r.threads == threads)?;
    Some(sim.wall_s / thr.wall_s)
}

/// Serializes the sweep as the `BENCH_backend.json` artifact: host context
/// first (so a reader knows whether speedup was even possible), then rows.
pub fn backend_rows_to_json(rows: &[BackendRow]) -> String {
    let mut out = format!(
        "{{\n\"host_parallelism\": {},\n\"speedup_8_threads_largest\": {},\n\"rows\": [\n",
        host_parallelism(),
        speedup_at(rows, 8).map_or("null".to_string(), |s| format!("{s:.3}")),
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"backend\": \"{}\", \"threads\": {}, \"scale\": {}, \"vertices\": {}, \
             \"edges\": {}, \"rc_steps\": {}, \"wall_s\": {:.6}, \"cluster_minutes\": {:.6}, \
             \"exact\": {}}}{}",
            r.backend,
            r.threads,
            r.scale,
            r.vertices,
            r.edges,
            r.rc_steps,
            r.wall_s,
            r.cluster_minutes,
            r.exact,
            if i + 1 < rows.len() { ",\n" } else { "\n" }
        ));
    }
    out.push_str("]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_oracle_exact_and_serializes() {
        let params = ExperimentParams {
            n: 64,
            procs: 4,
            ..Default::default()
        };
        let rows = backend_sweep(&params, &[6], &[2]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].backend, "sim");
        assert_eq!(rows[1].backend, "threads");
        assert!(rows.iter().all(|r| r.exact));
        // The LogP message accounting is backend-independent by contract;
        // only measured compute (and thus wall time) may differ.
        assert_eq!(rows[0].rc_steps, rows[1].rc_steps);
        let json = backend_rows_to_json(&rows);
        assert!(json.contains("\"host_parallelism\""), "{json}");
        assert!(json.contains("\"backend\": \"threads\""), "{json}");
    }
}
