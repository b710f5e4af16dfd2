//! Serving-under-load experiment (beyond-paper): the `aa-serve` resident
//! server driven by a deterministic mixed read/write workload, swept over
//! offered load and read fraction at a fixed engine scale.
//!
//! Each cell drives the same number of turns against a fresh engine on the
//! same R-MAT base graph and records read latency quantiles (virtual LogP
//! microseconds from submission to service), shed/throttle rates, and how
//! many turns the server spent in degraded mode. The interesting regime is
//! offered load past the read token budget: admission control must shed or
//! throttle the excess while every admitted request still resolves —
//! latency saturates instead of growing without bound.

use crate::ingest::ingest_base_graph;
use crate::workload::ExperimentParams;
use aa_core::AnytimeEngine;
use aa_serve::{LoadGen, ServeConfig, Server, WorkloadConfig};

/// One (offered load, read fraction) cell of the serving sweep.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Requests offered per serving turn.
    pub offered_per_turn: usize,
    /// Read share of the offered load.
    pub read_fraction: f64,
    /// Top-k share of the reads (the rest are single-vertex lookups).
    pub topk_read_mix: f64,
    /// Serving turns driven.
    pub turns: usize,
    /// Reads submitted / served / throttled / shed.
    pub reads_submitted: u64,
    /// Reads answered from a published snapshot frame.
    pub reads_served: u64,
    /// Reads admitted with a `Throttled{retry_after}` hint.
    pub reads_throttled: u64,
    /// Reads shed (queue capacity + deadline estimate + expiry).
    pub reads_shed: u64,
    /// Writes accepted into the ingest pipeline.
    pub writes_accepted: u64,
    /// Writes shed (ingest queue full or write token budget exhausted).
    pub writes_shed: u64,
    /// Median read latency in virtual microseconds.
    pub p50_us: f64,
    /// 99th-percentile read latency in virtual microseconds.
    pub p99_us: f64,
    /// Shed fraction of resolved reads.
    pub shed_rate: f64,
    /// Top-k reads answered with `Exact` confidence.
    pub topk_exact: u64,
    /// Top-k reads answered with `Anytime` confidence (bounds still open).
    pub topk_anytime: u64,
    /// Turns spent in degraded mode.
    pub degraded_turns: u64,
    /// Cluster-seconds of LogP makespan the run consumed.
    pub cluster_seconds: f64,
}

/// Runs one serving cell: fresh engine, `turns` turns of offered load, then
/// a drain so every admitted request resolves before rates are computed.
fn serve_cell(
    params: &ExperimentParams,
    offered: usize,
    read_fraction: f64,
    topk_read_mix: f64,
    turns: usize,
) -> Result<ServeRow, String> {
    let base = ingest_base_graph(params);
    let engine = AnytimeEngine::new(base, params.engine_config());
    let mut server = Server::new(engine, ServeConfig::default())?;
    let mut gen = LoadGen::new(WorkloadConfig {
        seed: params.seed ^ 0x5e47e,
        offered_per_turn: offered,
        read_fraction,
        topk_read_mix,
        top_k: 10,
    });
    let t0 = server.engine().makespan_us();
    for _ in 0..turns {
        gen.offer(&mut server);
        server.turn()?;
    }
    server.drain(16 * params.procs + 256)?;
    let cluster_seconds = (server.engine().makespan_us() - t0) / 1e6;

    let stats = server.stats();
    let (p50_us, p99_us) = server.latency_quantiles().unwrap_or((0.0, 0.0));
    Ok(ServeRow {
        offered_per_turn: offered,
        read_fraction,
        topk_read_mix,
        turns,
        reads_submitted: stats.reads_submitted,
        reads_served: stats.reads_served,
        reads_throttled: stats.reads_throttled,
        reads_shed: stats.reads_shed_capacity + stats.reads_shed_deadline,
        writes_accepted: stats.writes_accepted,
        writes_shed: stats.writes_shed_queue + stats.writes_shed_budget,
        p50_us,
        p99_us,
        shed_rate: stats.read_shed_rate(),
        topk_exact: stats.topk_exact,
        topk_anytime: stats.topk_anytime,
        degraded_turns: stats.degraded_turns,
        cluster_seconds,
    })
}

/// Runs the full sweep: every `offered_loads` × `read_fractions` cell
/// serves `turns` turns of deterministic mixed traffic.
pub fn serve_load(
    params: &ExperimentParams,
    offered_loads: &[usize],
    read_fractions: &[f64],
    turns: usize,
) -> Result<Vec<ServeRow>, String> {
    let mut rows = Vec::new();
    for &offered in offered_loads {
        for &rf in read_fractions {
            rows.push(serve_cell(params, offered, rf, 0.7, turns)?);
        }
    }
    Ok(rows)
}

/// Sweeps the top-k share of the read traffic at fixed offered load and an
/// all-read mix: how do latency quantiles and exact/anytime confidence
/// split move as reads shift from single-vertex lookups to full top-k
/// ranking queries under concurrent write churn?
pub fn serve_topk_mix(
    params: &ExperimentParams,
    offered: usize,
    mixes: &[f64],
    turns: usize,
) -> Result<Vec<ServeRow>, String> {
    let mut rows = Vec::new();
    for &mix in mixes {
        rows.push(serve_cell(params, offered, 0.8, mix, turns)?);
    }
    Ok(rows)
}

/// Serializes the sweep as a JSON array (the committed `BENCH_serve.json`
/// baseline and the CI smoke artifact).
pub fn serve_rows_to_json(rows: &[ServeRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"offered_per_turn\": {}, \"read_fraction\": {}, \"topk_read_mix\": {}, \
             \"turns\": {}, \"reads_submitted\": {}, \"reads_served\": {}, \
             \"reads_throttled\": {}, \"reads_shed\": {}, \"writes_accepted\": {}, \
             \"writes_shed\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"shed_rate\": {:.4}, \"topk_exact\": {}, \"topk_anytime\": {}, \
             \"degraded_turns\": {}, \"cluster_seconds\": {:.6}}}{}",
            r.offered_per_turn,
            r.read_fraction,
            r.topk_read_mix,
            r.turns,
            r.reads_submitted,
            r.reads_served,
            r.reads_throttled,
            r.reads_shed,
            r.writes_accepted,
            r.writes_shed,
            r.p50_us,
            r.p99_us,
            r.shed_rate,
            r.topk_exact,
            r.topk_anytime,
            r.degraded_turns,
            r.cluster_seconds,
            if i + 1 < rows.len() { ",\n" } else { "\n" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> ExperimentParams {
        ExperimentParams {
            n: 192,
            procs: 4,
            ..Default::default()
        }
    }

    #[test]
    fn every_cell_resolves_all_reads_and_orders_quantiles() {
        let params = tiny_params();
        let rows = serve_load(&params, &[16, 128], &[0.8], 24).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // Zero hangs: everything submitted is served, throttle-resolved,
            // or explicitly shed.
            assert_eq!(
                r.reads_submitted,
                r.reads_served + r.reads_shed,
                "unresolved reads in {r:?}"
            );
            assert!(r.p50_us <= r.p99_us, "quantiles out of order: {r:?}");
            assert!(r.shed_rate.is_finite() && (0.0..=1.0).contains(&r.shed_rate));
            assert!(r.cluster_seconds > 0.0);
        }
        let json = serve_rows_to_json(&rows);
        assert!(json.contains("\"offered_per_turn\": 128"));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn overload_sheds_instead_of_growing_latency_without_bound() {
        let params = tiny_params();
        let rows = serve_load(&params, &[16, 256], &[0.9], 24).unwrap();
        let light = &rows[0];
        let heavy = &rows[1];
        assert_eq!(light.reads_shed + light.reads_throttled, 0, "{light:?}");
        // Past the token budget the server must exercise backpressure.
        assert!(
            heavy.reads_shed + heavy.reads_throttled > 0,
            "overload exercised no backpressure: {heavy:?}"
        );
        // Admission control caps the queue, so p99 saturates: it stays
        // within the deadline rather than scaling with total offered load.
        let config = ServeConfig::default();
        assert!(
            heavy.p99_us <= config.default_deadline_us,
            "p99 {} exceeds deadline {}",
            heavy.p99_us,
            config.default_deadline_us
        );
        if !cfg!(debug_assertions) {
            assert!(heavy.shed_rate > 0.0, "expected shedding at 16x load");
        }
    }

    #[test]
    fn topk_mix_sweep_counts_confidence_and_serializes() {
        let params = tiny_params();
        let rows = serve_topk_mix(&params, 16, &[0.0, 1.0], 24).unwrap();
        assert_eq!(rows.len(), 2);
        // All-vertex reads: no top-k outcomes at all.
        assert_eq!(
            rows[0].topk_exact + rows[0].topk_anytime,
            0,
            "{:?}",
            rows[0]
        );
        // All-top-k reads: every served read carries a confidence verdict.
        assert_eq!(
            rows[1].topk_exact + rows[1].topk_anytime,
            rows[1].reads_served,
            "{:?}",
            rows[1]
        );
        assert!(rows[1].reads_served > 0);
        let json = serve_rows_to_json(&rows);
        assert!(json.contains("\"topk_read_mix\": 1"), "{json}");
        assert!(json.contains("\"topk_exact\""), "{json}");
    }
}
