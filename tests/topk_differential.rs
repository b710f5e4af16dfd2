//! Differential harness for the anytime top-k tracker (`aa-query`).
//!
//! Drives edge-churn schedules against a running [`AnytimeEngine`] with a
//! [`TopKTracker`] folded in after *every* superstep (each mutation and each
//! RC step), and checks the tracker's soundness contract against a
//! brute-force APSP oracle of the *current* graph at every one of those
//! points — not just at convergence:
//!
//! * **Anytime invariant.** The true top-k is always a subset of
//!   {members ∪ unresolved candidates}; equivalently, a vertex the bound
//!   test has pruned never re-enters the true top-k of its generation.
//! * **Exactness is earned.** Whenever the tracker claims
//!   [`Confidence::Exact`], its members must match the oracle ranking
//!   bit-for-bit — same ids, same order (score descending, ties by id),
//!   same `1/Σd` scores.
//! * **Convergence terminates the anytime phase.** Once the engine is
//!   converged the answer must be exact.
//!
//! The backend matrix runs one edge-churn schedule on {sim, threads}.
//! Failures shrink through the same ddmin pass the main
//! differential harness uses, and `AA_DIFF_SEED=<n> cargo test
//! topk_seeded_replay` pins one deterministic schedule, as there.

mod support;

use aa_core::{AnytimeEngine, EngineConfig};
use aa_graph::{algo, Graph, VertexId};
use aa_query::{TopKConfig, TopKTracker};
use aa_runtime::BackendKind;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use support::ddmin;

/// One edge mutation; indices are modulo-resolved against live state at
/// apply time so any subsequence of a schedule is still a valid schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Add an edge between the a-th and b-th live vertices with weight w.
    AddEdge(u32, u32, u32),
    /// Delete the i-th live edge.
    DeleteEdge(u32),
    /// Re-weight the i-th live edge to w.
    ChangeWeight(u32, u32),
}

/// A complete top-k differential case.
#[derive(Debug, Clone)]
struct Case {
    n: usize,
    extra_edges: Vec<(u32, u32, u32)>,
    procs: usize,
    k: usize,
    backend: BackendKind,
    seed: u64,
    ops: Vec<Op>,
}

/// Spine + extra edges (same shape as the main differential harness).
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
    }
}

fn engine_for(case: &Case) -> AnytimeEngine {
    let graph = build_graph(case.n, &case.extra_edges);
    AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: case.procs,
            seed: case.seed,
            backend: case.backend,
            threads: if case.backend == BackendKind::Threads {
                3
            } else {
                0
            },
            ..Default::default()
        },
    )
}

/// Brute-force oracle ranking of the graph as it stands: every vertex with
/// positive closeness, score descending, ties by lower id, truncated to k.
fn oracle_ranking(g: &Graph, k: usize) -> Vec<(VertexId, f64)> {
    let dist = algo::apsp_dijkstra(g);
    let mut scored: Vec<(VertexId, f64)> = g
        .vertices()
        .map(|v| (v, algo::closeness_from_distances(&dist[v as usize], v)))
        .filter(|&(_, c)| c > 0.0)
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Publishes a frame and folds it plus the drained bound-delta feed into
/// the tracker — the same observation path the server's turn loop uses.
fn observe(e: &mut AnytimeEngine, tracker: &mut TopKTracker) {
    let frame = e.publish_snapshot();
    let deltas = e.drain_bound_deltas();
    tracker.observe(&frame, e.graph(), &deltas);
}

/// The every-superstep soundness check. `where_` names the superstep for
/// failure messages.
fn superstep_check(
    e: &AnytimeEngine,
    tracker: &mut TopKTracker,
    k: usize,
    where_: &str,
) -> Option<String> {
    let truth = oracle_ranking(e.graph(), k);
    let Some((members, unresolved, pruned)) = tracker.partition(k) else {
        return Some(format!("{where_}: tracker has no partition after observe"));
    };
    for &(v, _) in &truth {
        if pruned.contains(&v) {
            return Some(format!(
                "{where_}: true top-{k} vertex {v} was pruned (members {members:?}, \
                 unresolved {unresolved:?})"
            ));
        }
        if !members.contains(&v) && !unresolved.contains(&v) {
            return Some(format!(
                "{where_}: true top-{k} vertex {v} is neither a member nor an \
                 unresolved candidate"
            ));
        }
    }
    let Some(ans) = tracker.answer(k) else {
        return Some(format!("{where_}: tracker has no answer after observe"));
    };
    if ans.is_exact() && ans.members != truth {
        return Some(format!(
            "{where_}: Exact-claimed answer {:?} is not bit-for-bit the oracle {:?}",
            ans.members, truth
        ));
    }
    None
}

/// Runs a case with the tracker folded in after every superstep; returns
/// the first soundness failure, if any.
fn run_case(case: &Case) -> Option<String> {
    let mut e = engine_for(case);
    e.enable_bound_feed();
    e.initialize();
    let mut tracker = TopKTracker::new(TopKConfig {
        k: case.k,
        max_pivots: 8,
    });
    observe(&mut e, &mut tracker);
    if let Some(msg) = superstep_check(&e, &mut tracker, case.k, "after init") {
        return Some(msg);
    }
    let budget = 16 * case.procs + 128;
    for (i, &op) in case.ops.iter().enumerate() {
        apply(&mut e, op);
        observe(&mut e, &mut tracker);
        if let Some(msg) = superstep_check(&e, &mut tracker, case.k, &format!("after op[{i}]")) {
            return Some(msg);
        }
        e.rc_step();
        observe(&mut e, &mut tracker);
        if let Some(msg) =
            superstep_check(&e, &mut tracker, case.k, &format!("after op[{i}]+rc_step"))
        {
            return Some(msg);
        }
    }
    let mut steps = 0;
    while !e.is_converged() && steps < budget {
        e.rc_step();
        steps += 1;
        observe(&mut e, &mut tracker);
        if let Some(msg) = superstep_check(
            &e,
            &mut tracker,
            case.k,
            &format!("convergence step {steps}"),
        ) {
            return Some(msg);
        }
    }
    if !e.is_converged() {
        return Some(format!("engine failed to converge within {budget} steps"));
    }
    // Converged: the anytime phase is over and the answer must say so.
    match tracker.answer(case.k) {
        Some(ans) if ans.is_exact() => None,
        Some(ans) => Some(format!(
            "converged but confidence is still {:?}",
            ans.confidence
        )),
        None => Some("converged but tracker has no answer".into()),
    }
}

fn fails(case: &Case) -> bool {
    run_case(case).is_some()
}

/// Minimizes a failing case: first the op schedule, then the extra edges.
fn shrink(case: &Case) -> Case {
    let best = ddmin(case, &fails, |c| &c.ops, |c| &mut c.ops);
    ddmin(&best, &fails, |c| &c.extra_edges, |c| &mut c.extra_edges)
}

/// Checks a case; on failure, prints the ddmin-minimal schedule and fails.
fn check_case(case: Case) -> Result<(), TestCaseError> {
    let Some(msg) = run_case(&case) else {
        return Ok(());
    };
    let minimal = shrink(&case);
    let min_msg = run_case(&minimal);
    eprintln!("=== top-k differential failure ===");
    eprintln!("original failure: {msg}");
    eprintln!(
        "minimal failing case: n={} procs={} k={} backend={:?} seed={} extra_edges={:?}",
        minimal.n, minimal.procs, minimal.k, minimal.backend, minimal.seed, minimal.extra_edges
    );
    for (i, op) in minimal.ops.iter().enumerate() {
        eprintln!("  op[{i}] = {op:?}");
    }
    prop_assert!(
        false,
        "top-k soundness violation ({}): minimal case printed above",
        min_msg.unwrap_or(msg)
    );
    Ok(())
}

fn arb_edge_op() -> impl Strategy<Value = Op> {
    (0u8..3, 0u32..64, 0u32..64, 1u32..6).prop_map(|(kind, a, b, w)| match kind {
        0 => Op::AddEdge(a, b, w),
        1 => Op::DeleteEdge(a),
        _ => Op::ChangeWeight(a, w),
    })
}

fn arb_case(backend: BackendKind) -> impl Strategy<Value = Case> {
    (
        5usize..18,
        proptest::collection::vec((0u32..20, 0u32..20, 1u32..6), 0..10),
        2usize..4,
        2usize..6,
        0u64..10_000,
        proptest::collection::vec(arb_edge_op(), 1..6),
    )
        .prop_map(move |(n, extra_edges, procs, k, seed, ops)| Case {
            n,
            extra_edges,
            procs,
            k,
            backend,
            seed,
            ops,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn topk_sound_every_superstep_sim(case in arb_case(BackendKind::Sim)) {
        check_case(case)?;
    }

    #[test]
    fn topk_sound_every_superstep_threads(case in arb_case(BackendKind::Threads)) {
        check_case(case)?;
    }
}

/// The backend matrix: one edge-churn schedule with deletions (the
/// bound-widening path) on {sim, threads}. Deterministic — a red cell names
/// itself.
#[test]
fn topk_backend_matrix() {
    for backend in [BackendKind::Sim, BackendKind::Threads] {
        let case = Case {
            n: 14,
            extra_edges: vec![(0, 7, 2), (3, 11, 1), (5, 13, 3)],
            procs: 4,
            k: 4,
            backend,
            seed: 0xA,
            ops: vec![
                Op::AddEdge(2, 9, 2),
                Op::DeleteEdge(6),
                Op::ChangeWeight(3, 4),
                Op::DeleteEdge(1),
            ],
        };
        if let Some(msg) = run_case(&case) {
            let minimal = shrink(&case);
            panic!("top-k cell backend={backend:?} failed ({msg}); minimal case: {minimal:?}");
        }
    }
}

/// Tiny deterministic generator (xorshift64*), as in the main harness.
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

/// `AA_DIFF_SEED`-pinned replay: four deterministic rounds, two per
/// backend, on a seed-derived edge-churn schedule.
#[test]
fn topk_seeded_replay() {
    let seed: u64 = std::env::var("AA_DIFF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xAA);
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1));
    for round in 0..4u64 {
        let n = 6 + rng.below(10) as usize;
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
            .map(|_| match rng.below(3) {
                0 => Op::AddEdge(
                    rng.below(64) as u32,
                    rng.below(64) as u32,
                    1 + rng.below(5) as u32,
                ),
                1 => Op::DeleteEdge(rng.below(64) as u32),
                _ => Op::ChangeWeight(rng.below(64) as u32, 1 + rng.below(5) as u32),
            })
            .collect();
        let case = Case {
            n,
            extra_edges,
            procs: 2 + (round % 2) as usize,
            k: 2 + rng.below(4) as usize,
            backend: if round < 2 {
                BackendKind::Sim
            } else {
                BackendKind::Threads
            },
            seed: seed ^ round,
            ops,
        };
        if let Some(msg) = run_case(&case) {
            let minimal = shrink(&case);
            panic!(
                "AA_DIFF_SEED={seed} top-k round {round} failed ({msg}); minimal case: {minimal:?}"
            );
        }
    }
}
