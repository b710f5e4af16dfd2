//! Ingest-schedule differential harness.
//!
//! Drives the same absolute-id update schedule through two serving paths —
//! (A) unbatched: every op applied directly to the engine, one RC step per
//! op; (B) batched: every op pushed through the `aa-ingest` coalescing
//! pipeline under a randomly chosen drain policy, with RC steps running
//! while ops sit in the buffer — and checks that after final flush and
//! convergence both paths produce the *identical* graph, identical dense
//! distances, and closeness values matching the brute-force oracle.
//!
//! Schedules are generated once against a sequential shadow graph, so both
//! paths consume byte-identical ops (including the predicted ids of vertex
//! arrivals). Like `tests/differential.rs`, failures are delta-debugged
//! (ddmin over the raw schedule) before the test fails, and
//! `AA_DIFF_SEED=<n> cargo test --test ingest_differential seeded` replays
//! one pinned deterministic schedule.

mod support;

use aa_core::{AdditionStrategy, AnytimeEngine, Endpoint, EngineConfig, VertexBatch};
use aa_graph::{algo, Graph, VertexId, Weight};
use aa_ingest::{DrainPolicy, IngestConfig, IngestPipeline, UpdateOp};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use support::ddmin;

/// One raw mutation; vertex/edge picks are modulo-indexed into the live
/// lists at resolve time so every subsequence is still a valid schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    AddEdge(u32, u32, u32),
    DeleteEdge(u32),
    ChangeWeight(u32, u32),
    AddVertex(u32, u32),
    DeleteVertex(u32),
}

#[derive(Debug, Clone)]
struct Case {
    n: usize,
    extra_edges: Vec<(u32, u32, u32)>,
    procs: usize,
    seed: u64,
    /// Selects the batched run's drain policy (see [`policy_for`]).
    policy_sel: u8,
    ops: Vec<Op>,
}

fn policy_for(sel: u8) -> DrainPolicy {
    match sel % 4 {
        0 => DrainPolicy::SizeTriggered(1),
        1 => DrainPolicy::SizeTriggered(3),
        // Larger than any schedule: everything rides the final barrier flush.
        2 => DrainPolicy::SizeTriggered(64),
        _ => DrainPolicy::RcStepInterleaved(2),
    }
}

/// Spine + extra edges (same shape as `tests/differential.rs`).
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

/// Resolves a raw schedule into concrete absolute-id [`UpdateOp`]s against a
/// sequential shadow of the graph. Ops that would be no-ops or invalid at
/// their position (self-loop, duplicate add, absent delete, unchanged
/// weight) are dropped, so the resolved schedule is *effective*: both
/// serving paths must apply every op.
fn resolve_schedule(base: &Graph, raw: &[Op]) -> Vec<UpdateOp> {
    let mut shadow = base.clone();
    let mut resolved = Vec::new();
    for &op in raw {
        let ids: Vec<VertexId> = shadow.vertices().collect();
        match op {
            Op::AddEdge(a, b, w) => {
                let u = ids[a as usize % ids.len()];
                let v = ids[b as usize % ids.len()];
                if u != v && !shadow.has_edge(u, v) {
                    let w = w.max(1);
                    shadow.add_edge(u, v, w);
                    resolved.push(UpdateOp::AddEdge(u, v, w));
                }
            }
            Op::DeleteEdge(i) => {
                let edges: Vec<_> = shadow.edges().collect();
                if edges.len() > 1 {
                    let (u, v, _) = edges[i as usize % edges.len()];
                    shadow.remove_edge(u, v);
                    resolved.push(UpdateOp::DeleteEdge(u, v));
                }
            }
            Op::ChangeWeight(i, w) => {
                let edges: Vec<_> = shadow.edges().collect();
                if !edges.is_empty() {
                    let (u, v, old) = edges[i as usize % edges.len()];
                    let w = w.max(1);
                    if old != w {
                        shadow.set_edge_weight(u, v, w);
                        resolved.push(UpdateOp::Reweight(u, v, w));
                    }
                }
            }
            Op::AddVertex(a, w) => {
                let anchor = ids[a as usize % ids.len()];
                let w = w.max(1);
                let id = shadow.add_vertex();
                shadow.add_edge(id, anchor, w);
                resolved.push(UpdateOp::AddVertex {
                    anchors: vec![(anchor, w)],
                });
            }
            Op::DeleteVertex(i) => {
                if ids.len() > 2 {
                    let v = ids[i as usize % ids.len()];
                    shadow.remove_vertex(v);
                    resolved.push(UpdateOp::DeleteVertex(v));
                }
            }
        }
    }
    resolved
}

fn engine_for(case: &Case) -> AnytimeEngine {
    let mut e = AnytimeEngine::new(
        build_graph(case.n, &case.extra_edges),
        EngineConfig {
            num_procs: case.procs,
            seed: case.seed,
            ..Default::default()
        },
    );
    e.initialize();
    e
}

/// Path A: every op applied directly, one RC step between ops.
fn run_unbatched(case: &Case, ops: &[UpdateOp]) -> Result<AnytimeEngine, String> {
    let mut e = engine_for(case);
    for op in ops {
        match *op {
            UpdateOp::AddEdge(u, v, w) => {
                e.add_edge(u, v, w);
            }
            UpdateOp::DeleteEdge(u, v) => {
                e.delete_edge(u, v);
            }
            UpdateOp::Reweight(u, v, w) => {
                e.change_edge_weight(u, v, w);
            }
            UpdateOp::AddVertex { ref anchors } => {
                let mut batch = VertexBatch::new(1);
                for &(a, w) in anchors {
                    batch.connect(0, Endpoint::Existing(a), w);
                }
                e.add_vertices(&batch, AdditionStrategy::CutEdgePs);
            }
            UpdateOp::DeleteVertex(v) => {
                e.delete_vertex(v);
            }
        }
        e.rc_step();
    }
    e.run_to_convergence(16 * case.procs + 128);
    if !e.is_converged() {
        return Err("unbatched run failed to converge".into());
    }
    e.check_invariants()
        .map_err(|err| format!("unbatched invariant violated: {err}"))?;
    Ok(e)
}

/// Path B: ops pushed through the ingest pipeline; RC steps run between
/// pushes (so recombination makes progress while updates sit coalesced),
/// with the drain policy deciding when batches reach the engine.
fn run_batched(case: &Case, ops: &[UpdateOp]) -> Result<AnytimeEngine, String> {
    let mut e = engine_for(case);
    let cap = ops.len().max(16);
    let mut pipeline = IngestPipeline::new(IngestConfig {
        queue_cap: cap,
        high_watermark: cap,
        policy: policy_for(case.policy_sel),
        ..Default::default()
    })
    .map_err(|err| format!("pipeline config rejected: {err}"))?;
    for op in ops {
        let outcome = pipeline
            .push(&e, op.clone())
            .map_err(|err| format!("push rejected a resolved op {op:?}: {err}"))?;
        if !outcome.admission.is_admitted() {
            return Err(format!("op {op:?} not admitted despite cap {cap}"));
        }
        e.rc_step();
        pipeline
            .maybe_flush(&mut e)
            .map_err(|err| format!("flush failed: {err}"))?;
    }
    pipeline
        .flush(&mut e)
        .map_err(|err| format!("barrier flush failed: {err}"))?;
    let stats = pipeline.stats();
    if stats.shed != 0 || stats.noops != 0 || stats.rejected != 0 {
        return Err(format!(
            "resolved schedule should be fully effective: {stats:?}"
        ));
    }
    e.run_to_convergence(16 * case.procs + 128);
    if !e.is_converged() {
        return Err("batched run failed to converge".into());
    }
    e.check_invariants()
        .map_err(|err| format!("batched invariant violated: {err}"))?;
    Ok(e)
}

fn sorted_edges(g: &Graph) -> Vec<(VertexId, VertexId, Weight)> {
    let mut edges: Vec<_> = g.edges().collect();
    edges.sort_unstable();
    edges
}

/// Runs both paths and differentially compares them (and the oracle).
fn run_case(case: &Case) -> Option<String> {
    let base = build_graph(case.n, &case.extra_edges);
    let ops = resolve_schedule(&base, &case.ops);
    let mut a = match run_unbatched(case, &ops) {
        Ok(e) => e,
        Err(msg) => return Some(msg),
    };
    let mut b = match run_batched(case, &ops) {
        Ok(e) => e,
        Err(msg) => return Some(msg),
    };
    if a.graph().capacity() != b.graph().capacity() {
        return Some(format!(
            "vertex id sequences diverged: unbatched capacity {}, batched {}",
            a.graph().capacity(),
            b.graph().capacity()
        ));
    }
    let alive_a: Vec<VertexId> = a.graph().vertices().collect();
    let alive_b: Vec<VertexId> = b.graph().vertices().collect();
    if alive_a != alive_b {
        return Some(format!("alive sets differ: {alive_a:?} vs {alive_b:?}"));
    }
    if sorted_edges(a.graph()) != sorted_edges(b.graph()) {
        return Some("edge sets differ between unbatched and batched runs".into());
    }
    let dist = algo::apsp_dijkstra(b.graph());
    let dense_a = a.distances_dense();
    let dense_b = b.distances_dense();
    let snap_a = a.snapshot();
    let snap_b = b.snapshot();
    for v in alive_b {
        let vi = v as usize;
        if dense_a[vi] != dense_b[vi] {
            return Some(format!("distance row {v} differs between runs"));
        }
        if dense_b[vi] != dist[vi] {
            return Some(format!("batched distance row {v} differs from the oracle"));
        }
        let want = algo::closeness_from_distances(&dist[vi], v);
        for (name, got) in [
            ("unbatched", snap_a.closeness[vi]),
            ("batched", snap_b.closeness[vi]),
        ] {
            if (got - want).abs() > 1e-9 {
                return Some(format!(
                    "{name} closeness mismatch at vertex {v}: got {got:.12}, oracle {want:.12}"
                ));
            }
        }
    }
    None
}

fn fails(case: &Case) -> bool {
    run_case(case).is_some()
}

/// ddmin over the raw schedule: greedily removes chunks while still failing.
fn shrink(case: &Case) -> Case {
    ddmin(case, &fails, |c| &c.ops, |c| &mut c.ops)
}

fn check_case(case: Case) -> Result<(), TestCaseError> {
    let Some(msg) = run_case(&case) else {
        return Ok(());
    };
    let minimal = shrink(&case);
    let min_msg = run_case(&minimal);
    eprintln!("=== ingest differential failure ===");
    eprintln!("original failure: {msg}");
    eprintln!(
        "minimal failing case: n={} procs={} seed={} policy={} extra_edges={:?}",
        minimal.n,
        minimal.procs,
        minimal.seed,
        policy_for(minimal.policy_sel),
        minimal.extra_edges
    );
    for (i, op) in minimal.ops.iter().enumerate() {
        eprintln!("  op[{i}] = {op:?}");
    }
    eprintln!("resolved schedule of the minimal case:");
    for (i, op) in resolve_schedule(&build_graph(minimal.n, &minimal.extra_edges), &minimal.ops)
        .iter()
        .enumerate()
    {
        eprintln!("  resolved[{i}] = {op:?}");
    }
    prop_assert!(
        false,
        "ingest differential mismatch ({}): minimal case printed above",
        min_msg.unwrap_or(msg)
    );
    Ok(())
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..5, 0u32..64, 0u32..64, 1u32..6).prop_map(|(kind, a, b, w)| match kind {
        0 => Op::AddEdge(a, b, w),
        1 => Op::DeleteEdge(a),
        2 => Op::ChangeWeight(a, w),
        3 => Op::AddVertex(a, w),
        _ => Op::DeleteVertex(a),
    })
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        4usize..20,
        proptest::collection::vec((0u32..20, 0u32..20, 1u32..6), 0..12),
        2usize..4,
        0u64..10_000,
        0u8..4,
        proptest::collection::vec(arb_op(), 1..8),
    )
        .prop_map(move |(n, extra_edges, procs, seed, policy_sel, ops)| Case {
            n,
            extra_edges,
            procs,
            seed,
            policy_sel,
            ops,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn ingest_matches_unbatched_reliable_links(case in arb_case()) {
        check_case(case)?;
    }
}

/// Tiny deterministic generator (xorshift64*) so a seed pins one schedule.
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

/// Replays deterministic schedules derived from `AA_DIFF_SEED` (default
/// 0xAA) across every drain policy.
#[test]
fn ingest_differential_seeded_replay() {
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
        let ops: Vec<Op> = (0..1 + rng.below(7))
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
            seed: seed ^ round,
            policy_sel: round as u8,
            ops,
        };
        if let Some(msg) = run_case(&case) {
            let minimal = shrink(&case);
            panic!("AA_DIFF_SEED={seed} round {round} failed ({msg}); minimal case: {minimal:?}");
        }
    }
}
