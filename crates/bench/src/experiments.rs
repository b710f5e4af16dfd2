//! Runners for the papers' evaluation figures.
//!
//! Every public function regenerates one figure's data series. Times are the
//! simulated cluster's LogP makespan converted to minutes ("cluster
//! minutes"), the analogue of the wall-clock minutes the papers plot for
//! their 16-process MPI runs.

use crate::workload::{community_vertex_batch, scaled, ExperimentParams};
use aa_core::{AdditionStrategy, AnytimeEngine};
use aa_obs::Stopwatch;
use aa_partition::quality;

/// Strategy under test (alias kept for harness readability).
pub type StrategyChoice = AdditionStrategy;

/// Converts a virtual-time makespan in µs to "cluster minutes".
fn minutes(us: f64) -> f64 {
    us / 60e6
}

fn engine_for(params: &ExperimentParams) -> AnytimeEngine {
    let mut e = AnytimeEngine::new(params.base_graph(), params.engine_config());
    e.initialize();
    e
}

fn convergence_limit(params: &ExperimentParams) -> usize {
    4 * params.procs + 32
}

/// One data point of Figures 5–7: a single batch injected at one RC step.
#[derive(Debug, Clone)]
pub struct SingleStepRow {
    /// Batch size in *this* run (already scaled).
    pub batch: usize,
    /// The paper-scale batch size this corresponds to.
    pub paper_batch: usize,
    /// Strategy used.
    pub strategy: StrategyChoice,
    /// Total cluster minutes (initialization + pre-steps + incorporation +
    /// reconvergence).
    pub minutes: f64,
    /// New cut edges introduced by the batch under the final partition.
    pub new_cut_edges: usize,
    /// Wall-clock seconds on the host (informational).
    pub wall_secs: f64,
}

/// Runs one injection experiment: `count` community-structured vertices added
/// at recombination step `inject_step` with `strategy`, then reconverged.
pub fn run_single_injection(
    params: &ExperimentParams,
    inject_step: usize,
    count: usize,
    paper_batch: usize,
    strategy: StrategyChoice,
) -> SingleStepRow {
    let wall = Stopwatch::start();
    let mut e = engine_for(params);
    for _ in 0..inject_step {
        e.rc_step();
    }
    let batch = community_vertex_batch(e.graph(), count, params.seed ^ 0xBA7C4);
    let ids = e.add_vertices(&batch, strategy);
    e.run_to_convergence(convergence_limit(params));
    assert!(e.is_converged(), "experiment failed to converge");
    SingleStepRow {
        batch: count,
        paper_batch,
        strategy,
        minutes: minutes(e.makespan_us()),
        new_cut_edges: quality::new_cut_edges(e.graph(), e.partition(), &ids),
        wall_secs: wall.elapsed().as_secs_f64(),
    }
}

/// One data point of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// RC step at which the 512-vertex (paper-scale) batch is injected.
    pub inject_step: usize,
    /// Cluster minutes for the anytime-anywhere approach (RoundRobin-PS).
    pub anytime_minutes: f64,
    /// Cluster minutes for the baseline restart.
    pub restart_minutes: f64,
}

/// Figure 4: anytime-anywhere (RoundRobin-PS) vs baseline restart for a
/// 512-vertex (paper-scale) addition injected at RC0 / RC4 / RC8.
pub fn fig4(params: &ExperimentParams) -> Vec<Fig4Row> {
    let count = scaled(512, params.n);
    [0usize, 4, 8]
        .iter()
        .map(|&step| {
            let aa = run_single_injection(params, step, count, 512, AdditionStrategy::RoundRobinPs);
            let rs =
                run_single_injection(params, step, count, 512, AdditionStrategy::BaselineRestart);
            Fig4Row {
                inject_step: step,
                anytime_minutes: aa.minutes,
                restart_minutes: rs.minutes,
            }
        })
        .collect()
}

/// The paper's Figure 5/6/7 batch-size sweep (paper-scale sizes).
pub const SWEEP_PAPER_SIZES: [usize; 6] = [500, 1000, 2000, 3000, 4500, 6000];

/// The three strategies compared in Figures 5–7.
pub const SWEEP_STRATEGIES: [AdditionStrategy; 3] = [
    AdditionStrategy::RepartitionS,
    AdditionStrategy::CutEdgePs,
    AdditionStrategy::RoundRobinPs,
];

fn single_step_sweep(params: &ExperimentParams, inject_step: usize) -> Vec<SingleStepRow> {
    let mut rows = Vec::new();
    for &paper in &SWEEP_PAPER_SIZES {
        let count = scaled(paper, params.n);
        for &strategy in &SWEEP_STRATEGIES {
            rows.push(run_single_injection(
                params,
                inject_step,
                count,
                paper,
                strategy,
            ));
        }
    }
    rows
}

/// Figure 5: vertex additions at RC0 — time vs batch size for Repartition-S /
/// CutEdge-PS / RoundRobin-PS.
pub fn fig5(params: &ExperimentParams) -> Vec<SingleStepRow> {
    single_step_sweep(params, 0)
}

/// Figure 6: the same sweep injected at RC8.
pub fn fig6(params: &ExperimentParams) -> Vec<SingleStepRow> {
    single_step_sweep(params, 8)
}

/// Figure 7: number of new cut edges per strategy over the same sweep
/// (reuses the Figure 5 runs — the paper's Figure 7 reports the partitions
/// produced by that experiment).
pub fn fig7(params: &ExperimentParams) -> Vec<SingleStepRow> {
    fig5(params)
}

/// One data point of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Vertices added at each of the 10 RC steps (this run's scale).
    pub per_step: usize,
    /// Paper-scale per-step count.
    pub paper_per_step: usize,
    /// Cumulative vertices added.
    pub cumulative: usize,
    /// Strategy used.
    pub strategy: StrategyChoice,
    /// Total cluster minutes.
    pub minutes: f64,
    /// Wall-clock seconds on the host (informational).
    pub wall_secs: f64,
}

/// The paper's Figure 8 per-step counts (cumulative 512 / 1873 / 3830 / 5611).
pub const FIG8_PAPER_PER_STEP: [usize; 4] = [51, 187, 383, 561];

/// The four methods compared in Figure 8.
pub const FIG8_STRATEGIES: [AdditionStrategy; 4] = [
    AdditionStrategy::BaselineRestart,
    AdditionStrategy::RepartitionS,
    AdditionStrategy::RoundRobinPs,
    AdditionStrategy::CutEdgePs,
];

/// Figure 8: incremental vertex additions — a batch arrives at each of 10
/// successive RC steps, for all four methods.
pub fn fig8(params: &ExperimentParams) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for &paper_per_step in &FIG8_PAPER_PER_STEP {
        let per_step = scaled(paper_per_step, params.n);
        for &strategy in &FIG8_STRATEGIES {
            let wall = Stopwatch::start();
            let mut e = engine_for(params);
            for round in 0..10 {
                let batch = community_vertex_batch(
                    e.graph(),
                    per_step,
                    params.seed ^ (0xF188 + round as u64),
                );
                e.add_vertices(&batch, strategy);
                e.rc_step();
            }
            e.run_to_convergence(convergence_limit(params));
            assert!(e.is_converged(), "fig8 run failed to converge");
            rows.push(Fig8Row {
                per_step,
                paper_per_step,
                cumulative: 10 * per_step,
                strategy,
                minutes: minutes(e.makespan_us()),
                wall_secs: wall.elapsed().as_secs_f64(),
            });
        }
    }
    rows
}

/// One data point of the (beyond-paper) strong-scaling experiment.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Processor count.
    pub procs: usize,
    /// Cluster minutes to full static convergence.
    pub minutes: f64,
    /// RC steps to convergence.
    pub rc_steps: usize,
    /// Total bytes moved.
    pub bytes: u64,
}

/// Strong scaling of the static analysis: P in {1, 2, 4, 8, 16, 32} on a
/// fixed graph. Not a paper figure — an ablation DESIGN.md calls for.
pub fn scaling(params: &ExperimentParams) -> Vec<ScalingRow> {
    [1usize, 2, 4, 8, 16, 32]
        .iter()
        .map(|&procs| {
            let run_params = ExperimentParams { procs, ..*params };
            let mut e = engine_for(&run_params);
            let rc_steps = e.run_to_convergence(convergence_limit(&run_params));
            assert!(e.is_converged());
            ScalingRow {
                procs,
                minutes: minutes(e.makespan_us()),
                rc_steps,
                bytes: e.cluster().ledger().totals().bytes,
            }
        })
        .collect()
}

/// One data point of the anytime-quality experiment.
#[derive(Debug, Clone)]
pub struct AnytimeRow {
    /// Recombination step the snapshot was taken after.
    pub rc_step: usize,
    /// Cluster minutes elapsed.
    pub minutes: f64,
    /// Mean absolute closeness error vs the exact oracle.
    pub mean_abs_error: f64,
    /// Spearman-style agreement: fraction of the true top-25 already ranked
    /// in the estimate's top-25.
    pub top25_overlap: f64,
    /// Probe: worst distance overestimate (hops) across all finite pairs.
    pub max_overestimate: f64,
    /// Probe: Kendall tau-b of estimated vs exact closeness (1.0 = perfect).
    pub kendall_tau: f64,
    /// Probe: fraction of distance rows already entrywise exact.
    pub converged_rows: f64,
}

/// Quantifies the anytime property: closeness error and top-k agreement after
/// every recombination step of the static analysis. Not a paper figure — the
/// papers assert monotone improvement; this measures it.
pub fn anytime_quality(params: &ExperimentParams) -> Vec<AnytimeRow> {
    let graph = params.base_graph();
    let exact = aa_graph::algo::exact_closeness(&graph);
    let mut true_top: Vec<usize> = (0..exact.len()).collect();
    true_top.sort_by(|&a, &b| exact[b].total_cmp(&exact[a]));
    let true_top: std::collections::HashSet<u32> =
        true_top.into_iter().take(25).map(|v| v as u32).collect();

    let mut e = AnytimeEngine::new(graph, params.engine_config());
    e.initialize();
    e.enable_progress_probe();
    e.record_progress_sample(); // baseline sample before the first RC step
    let mut rows = Vec::new();
    let snapshot_row = |e: &mut AnytimeEngine| {
        let snap = e.snapshot();
        let overlap = snap
            .top_k(25)
            .iter()
            .filter(|&&(v, _)| true_top.contains(&v))
            .count() as f64
            / 25.0;
        let probe = e.progress_samples().last().cloned();
        AnytimeRow {
            rc_step: snap.rc_step,
            minutes: minutes(snap.makespan_us),
            mean_abs_error: snap.mean_abs_error(&exact),
            top25_overlap: overlap,
            max_overestimate: probe.as_ref().map_or(f64::INFINITY, |p| p.max_overestimate),
            kendall_tau: probe.as_ref().map_or(0.0, |p| p.kendall_tau),
            converged_rows: probe.as_ref().map_or(0.0, |p| p.converged_row_fraction),
        }
    };
    rows.push(snapshot_row(&mut e));
    for _ in 0..convergence_limit(params) {
        let done = e.rc_step();
        rows.push(snapshot_row(&mut e));
        if done {
            break;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny parameters so the experiment plumbing is exercised quickly.
    fn tiny() -> ExperimentParams {
        ExperimentParams {
            n: 150,
            procs: 4,
            seed: 42,
            compute_scale: 1.0,
        }
    }

    #[test]
    fn single_injection_produces_sane_row() {
        let row = run_single_injection(&tiny(), 0, 10, 500, AdditionStrategy::RoundRobinPs);
        assert_eq!(row.batch, 10);
        assert!(row.minutes > 0.0);
        assert!(row.wall_secs > 0.0);
    }

    #[test]
    fn fig4_shape_anytime_beats_restart() {
        // The paper's shape: the later the injection, the more work the
        // restart wastes; the anytime-anywhere approach stays cheap. At RC0
        // both still face the full first exchange, so we only require rough
        // parity there.
        let params = ExperimentParams {
            n: 600,
            procs: 8,
            seed: 42,
            compute_scale: 1.0,
        };
        let rows = fig4(&params);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            if r.inject_step == 0 {
                // Only meaningful with release-mode measured compute: debug
                // builds inflate compute 10-50x and distort the ratio.
                if !cfg!(debug_assertions) {
                    // Latency constants dominate at this reduced test scale;
                    // at the experiment scale (n=2000, P=16) the measured
                    // ratio is ~1.1x (see EXPERIMENTS.md).
                    assert!(
                        r.anytime_minutes < 2.0 * r.restart_minutes,
                        "at RC0 anytime ({:.4}) must be within 2x of restart ({:.4})",
                        r.anytime_minutes,
                        r.restart_minutes
                    );
                }
            } else {
                assert!(
                    r.anytime_minutes < r.restart_minutes,
                    "at RC{} anytime ({:.4}) must beat restart ({:.4})",
                    r.inject_step,
                    r.anytime_minutes,
                    r.restart_minutes
                );
            }
        }
    }

    #[test]
    fn anytime_error_decays_to_zero_monotonically() {
        let rows = anytime_quality(&tiny());
        assert!(rows.len() >= 2);
        for pair in rows.windows(2) {
            assert!(
                pair[1].mean_abs_error <= pair[0].mean_abs_error + 1e-15,
                "error must not increase: {} -> {}",
                pair[0].mean_abs_error,
                pair[1].mean_abs_error
            );
        }
        assert!(rows.last().unwrap().mean_abs_error < 1e-15);
        assert!((rows.last().unwrap().top25_overlap - 1.0).abs() < 1e-12);
        // Probe-derived columns agree with the convergence claim.
        let last = rows.last().unwrap();
        assert!(last.max_overestimate < 1e-12, "{}", last.max_overestimate);
        assert!(
            (last.kendall_tau - 1.0).abs() < 1e-12,
            "{}",
            last.kendall_tau
        );
        assert!((last.converged_rows - 1.0).abs() < 1e-12);
        for pair in rows.windows(2) {
            assert!(
                pair[1].converged_rows + 1e-12 >= pair[0].converged_rows,
                "converged-row fraction must not decrease fault-free"
            );
        }
    }

    #[test]
    fn fig8_restart_is_worst() {
        let params = ExperimentParams {
            n: 120,
            procs: 4,
            seed: 9,
            compute_scale: 1.0,
        };
        // Only the smallest rate, to keep the test fast.
        let per_step = scaled(FIG8_PAPER_PER_STEP[0], params.n).max(1);
        let mut worst_restart = 0.0f64;
        let mut best_other = f64::INFINITY;
        for &strategy in &FIG8_STRATEGIES {
            let mut e = engine_for(&params);
            for round in 0..10 {
                let batch =
                    community_vertex_batch(e.graph(), per_step, params.seed ^ (100 + round));
                e.add_vertices(&batch, strategy);
                e.rc_step();
            }
            e.run_to_convergence(64);
            let m = minutes(e.makespan_us());
            if strategy == AdditionStrategy::BaselineRestart {
                worst_restart = m;
            } else {
                best_other = best_other.min(m);
            }
        }
        assert!(
            worst_restart > best_other,
            "restart ({worst_restart:.4}) must be slower than the best incremental method ({best_other:.4})"
        );
    }
}
