//! Differential oracle harness.
//!
//! Drives random dynamic-update schedules (edge additions/deletions, vertex
//! additions/deletions) against a running [`AnytimeEngine`] and, after
//! convergence, checks every closeness estimate and every distance row
//! against a brute-force sequential oracle — across two partitioners.
//!
//! The vendored `proptest` stand-in has no shrinking, so failures here run a
//! hand-rolled delta-debugging pass: the failing operation schedule is
//! minimized (ddmin over ops, then over the extra edge list) and the minimal
//! case is printed together with its anytime progress timeline before the
//! test fails, so the report alone reproduces and localizes the bug.
//!
//! `AA_DIFF_SEED=<n> cargo test differential_seeded_replay` replays one
//! deterministic schedule derived from the seed — the hook CI uses to pin a
//! known-failing case while it is being fixed. The same variable drives
//! `cross_backend_seeded_replay`, the pinned-schedule hook for the
//! sim-vs-threads comparison below.
//!
//! Since ISSUE 9 the harness is also *cross-backend*: every case can run on
//! the deterministic simulator and on the real threaded backend, and the two
//! must produce identical post-convergence distances and closeness scores
//! (the sim is the oracle for the threads backend, exactly as
//! the brute-force APSP is the oracle for the sim). Failures shrink through
//! the same ddmin pass.

mod support;

use aa_core::{
    AdditionStrategy, AnytimeEngine, Endpoint, EngineConfig, PartitionerKind, ProgressSample,
    VertexBatch,
};
use aa_graph::{algo, Graph, VertexId, Weight};
use aa_runtime::BackendKind;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use support::ddmin;

/// One mutation of a random schedule. Vertex/edge picks are modulo-indexed
/// into the *live* vertex/edge lists at apply time, so any subsequence of a
/// schedule is still a valid schedule — the property delta-debugging needs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Add an edge between the a-th and b-th live vertices with weight w.
    AddEdge(u32, u32, u32),
    /// Delete the i-th live edge.
    DeleteEdge(u32),
    /// Re-weight the i-th live edge to w.
    ChangeWeight(u32, u32),
    /// Add one vertex attached to the a-th live vertex with weight w.
    AddVertex(u32, u32),
    /// Delete the i-th live vertex.
    DeleteVertex(u32),
}

/// A complete differential test case: base graph, engine configuration and
/// an operation schedule.
#[derive(Debug, Clone)]
struct Case {
    n: usize,
    extra_edges: Vec<(u32, u32, u32)>,
    procs: usize,
    partitioner: PartitionerKind,
    seed: u64,
    ops: Vec<Op>,
}

/// Spine + extra edges, like the proptests generator: the spine keeps the
/// graph connected enough that distances are interesting rather than INF.
fn build_graph(n: usize, extra: &[(u32, u32, u32)]) -> Graph {
    let mut g = Graph::with_vertices(n);
    for v in 1..n as u32 {
        g.add_edge(v - 1, v, 1 + (v % 3));
    }
    for &(u, v, w) in extra {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            g.add_edge(u, v, w);
        }
    }
    g
}

fn apply(e: &mut AnytimeEngine, op: Op) {
    match op {
        Op::AddEdge(a, b, w) => {
            let ids: Vec<VertexId> = e.graph().vertices().collect();
            let u = ids[a as usize % ids.len()];
            let v = ids[b as usize % ids.len()];
            if u != v {
                e.add_edge(u, v, w.max(1));
            }
        }
        Op::DeleteEdge(i) => {
            let edges: Vec<_> = e.graph().edges().collect();
            if edges.len() > 1 {
                let (u, v, _) = edges[i as usize % edges.len()];
                e.delete_edge(u, v);
            }
        }
        Op::ChangeWeight(i, w) => {
            let edges: Vec<_> = e.graph().edges().collect();
            if !edges.is_empty() {
                let (u, v, old) = edges[i as usize % edges.len()];
                let w = w.max(1);
                if old != w {
                    e.change_edge_weight(u, v, w);
                }
            }
        }
        Op::AddVertex(a, w) => {
            let ids: Vec<VertexId> = e.graph().vertices().collect();
            let mut batch = VertexBatch::new(1);
            batch.connect(0, Endpoint::Existing(ids[a as usize % ids.len()]), w.max(1));
            e.add_vertices(&batch, AdditionStrategy::CutEdgePs);
        }
        Op::DeleteVertex(i) => {
            let ids: Vec<VertexId> = e.graph().vertices().collect();
            if ids.len() > 2 {
                e.delete_vertex(ids[i as usize % ids.len()]);
            }
        }
    }
}

/// Builds the case's engine on the requested execution backend. All other
/// configuration (seeds, partitioner) is identical, so any difference in the
/// outcome is the backend's fault.
fn engine_for(case: &Case, backend: BackendKind, threads: usize) -> AnytimeEngine {
    let graph = build_graph(case.n, &case.extra_edges);
    AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: case.procs,
            seed: case.seed,
            partitioner: case.partitioner,
            backend,
            threads,
            ..Default::default()
        },
    )
}

/// Runs a case to convergence and differentially checks it against the
/// brute-force oracle. Returns the failure description (if any) and the
/// anytime progress timeline of the run.
fn run_case(case: &Case) -> (Option<String>, Vec<ProgressSample>) {
    let mut e = engine_for(case, BackendKind::Sim, 0);
    e.initialize();
    e.enable_progress_probe();
    for &op in &case.ops {
        apply(&mut e, op);
        e.rc_step();
    }
    e.run_to_convergence(16 * case.procs + 128);
    let samples = e.progress_samples().to_vec();
    if !e.is_converged() {
        return (Some("engine failed to converge".into()), samples);
    }
    if let Err(err) = e.check_invariants() {
        return (Some(format!("invariant violated: {err}")), samples);
    }
    let dist = algo::apsp_dijkstra(e.graph());
    let dense = e.distances_dense();
    let snap = e.snapshot();
    for v in e.graph().vertices() {
        if dense[v as usize] != dist[v as usize] {
            return (
                Some(format!("distance row {v} differs from the oracle")),
                samples,
            );
        }
        let want = algo::closeness_from_distances(&dist[v as usize], v);
        let got = snap.closeness[v as usize];
        if (got - want).abs() > 1e-9 {
            return (
                Some(format!(
                    "closeness mismatch at vertex {v}: got {got:.12}, oracle {want:.12}"
                )),
                samples,
            );
        }
    }
    (None, samples)
}

fn fails(case: &Case) -> bool {
    run_case(case).0.is_some()
}

/// Minimizes a case that fails `still_fails`: first the operation schedule,
/// then the extra edge list of the base graph.
fn shrink_with(case: &Case, still_fails: &dyn Fn(&Case) -> bool) -> Case {
    let best = ddmin(case, still_fails, |c| &c.ops, |c| &mut c.ops);
    ddmin(
        &best,
        still_fails,
        |c| &c.extra_edges,
        |c| &mut c.extra_edges,
    )
}

/// Minimizes a failing oracle-differential case.
fn shrink(case: &Case) -> Case {
    shrink_with(case, &fails)
}

/// Checks a case; on failure, prints the delta-debugged minimal schedule and
/// its progress timeline, then fails the test.
fn check_case(case: Case) -> Result<(), TestCaseError> {
    let (failure, _) = run_case(&case);
    let Some(msg) = failure else {
        return Ok(());
    };
    let minimal = shrink(&case);
    let (min_msg, timeline) = run_case(&minimal);
    eprintln!("=== differential failure ===");
    eprintln!("original failure: {msg}");
    eprintln!(
        "minimal failing case: n={} procs={} partitioner={:?} seed={} extra_edges={:?}",
        minimal.n, minimal.procs, minimal.partitioner, minimal.seed, minimal.extra_edges
    );
    for (i, op) in minimal.ops.iter().enumerate() {
        eprintln!("  op[{i}] = {op:?}");
    }
    eprintln!("progress timeline of the minimal case:");
    for s in &timeline {
        eprintln!(
            "  RC{:<4} max_over={:<6.1} tau={:<6.3} conv_rows={:<6.3} dirty={}",
            s.rc_step, s.max_overestimate, s.kendall_tau, s.converged_row_fraction, s.dirty_rows
        );
    }
    prop_assert!(
        false,
        "differential mismatch ({}): minimal case printed above",
        min_msg.unwrap_or(msg)
    );
    Ok(())
}

/// Alternate partitioners across cases so both exchange/ownership layouts
/// face every op-mix (the issue requires >= 2 partitioners).
fn partitioner_for(seed: u64) -> PartitionerKind {
    if seed.is_multiple_of(2) {
        PartitionerKind::Multilevel
    } else {
        PartitionerKind::RoundRobin
    }
}

/// Strategy: an edge-churn op (no vertex ops).
fn arb_edge_op() -> impl Strategy<Value = Op> {
    (0u8..3, 0u32..64, 0u32..64, 1u32..6).prop_map(|(kind, a, b, w)| match kind {
        0 => Op::AddEdge(a, b, w),
        1 => Op::DeleteEdge(a),
        _ => Op::ChangeWeight(a, w),
    })
}

/// Strategy: a vertex-churn op (vertex add/delete plus occasional edge ops so
/// deleted regions get re-stitched).
fn arb_vertex_op() -> impl Strategy<Value = Op> {
    (0u8..4, 0u32..64, 0u32..64, 1u32..6).prop_map(|(kind, a, b, w)| match kind {
        0 => Op::AddVertex(a, w),
        1 => Op::DeleteVertex(a),
        2 => Op::AddEdge(a, b, w),
        _ => Op::DeleteEdge(a),
    })
}

fn arb_case<O: Strategy<Value = Op>>(op: O) -> impl Strategy<Value = Case> {
    (
        4usize..20,
        proptest::collection::vec((0u32..20, 0u32..20, 1u32..6), 0..12),
        2usize..4,
        0u64..10_000,
        proptest::collection::vec(op, 1..6),
    )
        .prop_map(move |(n, extra_edges, procs, seed, ops)| Case {
            n,
            extra_edges,
            procs,
            partitioner: partitioner_for(seed),
            seed,
            ops,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn edge_churn_matches_oracle_reliable_links(case in arb_case(arb_edge_op())) {
        check_case(case)?;
    }

    #[test]
    fn vertex_churn_matches_oracle_reliable_links(case in arb_case(arb_vertex_op())) {
        check_case(case)?;
    }
}

/// Tiny deterministic generator (xorshift64*) for the seeded replay test —
/// independent of proptest so a seed pins exactly one schedule forever.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Replays one deterministic schedule derived from `AA_DIFF_SEED` (default
/// 0xAA). CI pins this seed so every run exercises a stable schedule; set a
/// different seed locally to explore.
#[test]
fn differential_seeded_replay() {
    let seed: u64 = std::env::var("AA_DIFF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xAA);
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1));
    for round in 0..4u64 {
        let n = 6 + rng.below(12) as usize;
        let extra_edges: Vec<(u32, u32, u32)> = (0..rng.below(8))
            .map(|_| {
                (
                    rng.below(n as u64) as u32,
                    rng.below(n as u64) as u32,
                    1 + rng.below(5) as u32,
                )
            })
            .collect();
        let ops: Vec<Op> = (0..1 + rng.below(5))
            .map(|_| match rng.below(5) {
                0 => Op::AddEdge(
                    rng.below(64) as u32,
                    rng.below(64) as u32,
                    1 + rng.below(5) as u32,
                ),
                1 => Op::DeleteEdge(rng.below(64) as u32),
                2 => Op::ChangeWeight(rng.below(64) as u32, 1 + rng.below(5) as u32),
                3 => Op::AddVertex(rng.below(64) as u32, 1 + rng.below(5) as u32),
                _ => Op::DeleteVertex(rng.below(64) as u32),
            })
            .collect();
        let case = Case {
            n,
            extra_edges,
            procs: 2 + (round % 2) as usize,
            partitioner: partitioner_for(round),
            seed: seed ^ round,
            ops,
        };
        let (failure, _) = run_case(&case);
        if let Some(msg) = failure {
            let minimal = shrink(&case);
            panic!("AA_DIFF_SEED={seed} round {round} failed ({msg}); minimal case: {minimal:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-backend harness: the simulator is the oracle for the threads backend.
// ---------------------------------------------------------------------------

/// Worker-thread count for the threads side of every comparison. Three
/// workers on up to four ranks forces lane multiplexing (one worker owns
/// more than one rank), the regime where merge-order bugs would hide.
const CROSS_THREADS: usize = 3;

/// Everything the determinism contract covers, gathered from one converged
/// run: dense distances, closeness and the ledger's message and byte totals.
/// Measured wall time (makespan, per-rank `compute_us`) is deliberately
/// excluded: it is the sanctioned cross-backend difference (DESIGN.md §16).
type Fingerprint = (Vec<Vec<Weight>>, Vec<f64>, (u64, u64));

/// Runs a case on one backend and extracts its determinism fingerprint.
fn fingerprint_on(
    case: &Case,
    backend: BackendKind,
    threads: usize,
) -> Result<Fingerprint, String> {
    let mut e = engine_for(case, backend, threads);
    e.initialize();
    for &op in &case.ops {
        apply(&mut e, op);
        e.rc_step();
    }
    e.run_to_convergence(4000);
    if !e.is_converged() {
        return Err(format!("{backend:?} backend failed to converge"));
    }
    if let Err(err) = e.check_invariants() {
        return Err(format!("{backend:?} backend invariant violated: {err}"));
    }
    let t = e.cluster().ledger().totals();
    Ok((
        e.distances_dense(),
        e.snapshot().closeness,
        (t.messages, t.bytes),
    ))
}

/// Compares the sim fingerprint against the threaded one; `None` means they
/// agree on every covered field.
fn cross_backend_failure(case: &Case) -> Option<String> {
    let sim = match fingerprint_on(case, BackendKind::Sim, 0) {
        Ok(fp) => fp,
        Err(e) => return Some(e),
    };
    let thr = match fingerprint_on(case, BackendKind::Threads, CROSS_THREADS) {
        Ok(fp) => fp,
        Err(e) => return Some(e),
    };
    if sim.0 != thr.0 {
        let v = sim.0.iter().zip(&thr.0).position(|(a, b)| a != b);
        return Some(format!("distance rows diverge (first at vertex {v:?})"));
    }
    if sim.1 != thr.1 {
        let v = sim.1.iter().zip(&thr.1).position(|(a, b)| a != b);
        return Some(format!("closeness diverges (first at vertex {v:?})"));
    }
    if sim.2 != thr.2 {
        return Some(format!("ledger totals diverge: {:?} vs {:?}", sim.2, thr.2));
    }
    None
}

fn cross_fails(case: &Case) -> bool {
    cross_backend_failure(case).is_some()
}

/// Checks sim-vs-threads agreement; on failure, ddmin-shrinks the case
/// through the same machinery as the oracle harness and prints the minimal
/// divergent schedule.
fn check_cross_case(case: Case) -> Result<(), TestCaseError> {
    let Some(msg) = cross_backend_failure(&case) else {
        return Ok(());
    };
    let minimal = shrink_with(&case, &cross_fails);
    let min_msg = cross_backend_failure(&minimal);
    eprintln!("=== cross-backend divergence (sim vs threads) ===");
    eprintln!("original divergence: {msg}");
    eprintln!(
        "minimal divergent case: n={} procs={} partitioner={:?} seed={} extra_edges={:?}",
        minimal.n, minimal.procs, minimal.partitioner, minimal.seed, minimal.extra_edges
    );
    for (i, op) in minimal.ops.iter().enumerate() {
        eprintln!("  op[{i}] = {op:?}");
    }
    prop_assert!(
        false,
        "sim-vs-threads divergence ({}): minimal case printed above",
        min_msg.unwrap_or(msg)
    );
    Ok(())
}

/// One fixed schedule run on both backends with identical seeds and
/// compared field-by-field. Deterministic (no proptest), so a red run names
/// its case.
#[test]
fn cross_backend_fixed_schedule() {
    let case = Case {
        n: 14,
        extra_edges: vec![(0, 7, 2), (3, 11, 1), (5, 13, 3)],
        procs: 4,
        partitioner: partitioner_for(0),
        seed: 0x9,
        ops: vec![Op::AddEdge(2, 9, 2), Op::AddVertex(4, 1), Op::DeleteEdge(6)],
    };
    if let Some(msg) = cross_backend_failure(&case) {
        let minimal = shrink_with(&case, &cross_fails);
        panic!("fixed schedule diverged ({msg}); minimal case: {minimal:?}");
    }
}

/// Eight worker threads on eight ranks, one rank per thread, run the same
/// schedule twice: thread scheduling may reorder execution, never the
/// distances, the closeness scores or the ledger's totals.
#[test]
fn threaded_backend_is_deterministic_across_runs() {
    let case = Case {
        n: 60,
        extra_edges: (0..40).map(|i| (7 * i, 13 * i + 5, 1 + i % 4)).collect(),
        procs: 8,
        partitioner: partitioner_for(1),
        seed: 47,
        ops: vec![
            Op::AddEdge(3, 40, 1),
            Op::DeleteEdge(11),
            Op::AddVertex(20, 2),
            Op::ChangeWeight(5, 4),
            Op::DeleteVertex(30),
        ],
    };
    let first = fingerprint_on(&case, BackendKind::Threads, 8).unwrap();
    let second = fingerprint_on(&case, BackendKind::Threads, 8).unwrap();
    assert!(first.2 .0 > 0, "no recombination traffic");
    assert_eq!(first, second, "two threaded runs of one schedule differ");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random churn schedules must land both backends on bit-identical
    /// results — the property form of the fixed schedule.
    #[test]
    fn vertex_churn_matches_across_backends(case in arb_case(arb_vertex_op())) {
        check_cross_case(case)?;
    }
}

/// `AA_DIFF_SEED`-pinned replay for the cross-backend comparison: four
/// deterministic rounds of seed-derived schedules, each compared
/// sim-vs-threads.
#[test]
fn cross_backend_seeded_replay() {
    let seed: u64 = std::env::var("AA_DIFF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xAA);
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1));
    for round in 0..4u64 {
        let n = 8 + rng.below(10) as usize;
        let extra_edges: Vec<(u32, u32, u32)> = (0..rng.below(6))
            .map(|_| {
                (
                    rng.below(n as u64) as u32,
                    rng.below(n as u64) as u32,
                    1 + rng.below(5) as u32,
                )
            })
            .collect();
        let ops: Vec<Op> = (0..1 + rng.below(4))
            .map(|_| match rng.below(3) {
                0 => Op::AddEdge(
                    rng.below(64) as u32,
                    rng.below(64) as u32,
                    1 + rng.below(5) as u32,
                ),
                1 => Op::AddVertex(rng.below(64) as u32, 1 + rng.below(5) as u32),
                _ => Op::ChangeWeight(rng.below(64) as u32, 1 + rng.below(5) as u32),
            })
            .collect();
        let case = Case {
            n,
            extra_edges,
            procs: 3 + (round % 2) as usize,
            partitioner: partitioner_for(round),
            seed: seed ^ (round << 16),
            ops,
        };
        if let Some(msg) = cross_backend_failure(&case) {
            let minimal = shrink_with(&case, &cross_fails);
            panic!(
                "AA_DIFF_SEED={seed} cross-backend round {round} diverged ({msg}); \
                 minimal case: {minimal:?}"
            );
        }
    }
}
