//! A weight increase is one exact call.
//!
//! A converged engine on an R-MAT (scale 5–6) or Barabási–Albert (n = 48)
//! graph, at P from 1 to 8 on either backend, takes a random run of single
//! `change_edge_weight` increases and of ingest flushes that mix weight
//! increases with deletions and insertions. The flush hands its increases
//! to the deletions' batch (`increase_edge_weights`) rather than splitting
//! each into a deletion and a re-add. After every call the rows equal the
//! APSP oracle before any recombination step and every rank is quiescent,
//! and each engine call adds exactly one to
//! `aa_dynamic_settled_updates_total`: an increase, or a whole flush's
//! deletions and increases, is one call.

use aa_core::{AnytimeEngine, EngineConfig};
use aa_graph::{algo, generators, rmat, VertexId, Weight};
use aa_ingest::{DrainPolicy, IngestConfig, IngestPipeline, UpdateOp};
use aa_runtime::BackendKind;
use proptest::prelude::*;

/// 24 cases in the tier-1 run; the nightly workflow asks for 3,000 through
/// `PROPTEST_CASES`, which the vendored runner does not read by itself.
fn cases() -> u32 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(24)
}

fn settled_updates(e: &AnytimeEngine) -> u64 {
    let r = e.metrics_registry();
    r.counter_value("aa_dynamic_settled_updates_total", &[])
}

/// The rows equal the oracle before any step, every rank is quiescent, and
/// the call made `calls` settled updates.
fn assert_one_exact_call_each(e: &AnytimeEngine, what: &str, before: u64, calls: u64) {
    let oracle = algo::apsp_dijkstra(e.graph());
    let dense = e.distances_dense();
    for v in e.graph().vertices().map(|v| v as usize) {
        assert_eq!(dense[v], oracle[v], "{what}: row {v} before any step");
    }
    if let Err(broken) = e.check_invariants() {
        panic!("{what}: {broken}");
    }
    assert!(e.is_settled(), "{what}: a rank owes a step");
    let made = settled_updates(e) - before;
    assert_eq!(made, calls, "{what}: settled updates");
}

/// The `pick`-th edge.
fn nth_edge(e: &AnytimeEngine, pick: u32) -> (VertexId, VertexId, Weight) {
    let edges: Vec<_> = e.graph().edges().collect();
    edges[pick as usize % edges.len()]
}

/// `k` edges made heavier by `step`, one deleted, one inserted — each on a
/// key of its own, so none cancels another — pushed and flushed at once.
fn flush(e: &mut AnytimeEngine, a: u32, k: usize, step: Weight) {
    let mut ingest = IngestPipeline::new(IngestConfig {
        policy: DrainPolicy::SizeTriggered(usize::MAX),
        ..IngestConfig::default()
    })
    .expect("a valid config");
    let edges: Vec<_> = e.graph().edges().collect();
    let every = (edges.len() / (k + 1)).max(1);
    let mut picks = edges.iter().skip(a as usize % every).step_by(every);
    let mut ops: Vec<UpdateOp> = (picks.by_ref().take(k))
        .map(|&(u, v, w)| UpdateOp::Reweight(u, v, w + step))
        .collect();
    ops.extend(picks.next().map(|&(u, v, _)| UpdateOp::DeleteEdge(u, v)));
    let ids: Vec<VertexId> = e.graph().vertices().collect();
    let (x, y) = (
        ids[a as usize % ids.len()],
        ids[(7 * a as usize + 3) % ids.len()],
    );
    if x != y && !e.graph().has_edge(x, y) {
        ops.push(UpdateOp::AddEdge(x, y, step));
    }
    for op in ops {
        ingest.push(e, op).expect("a valid op");
    }
    let before = settled_updates(e);
    let report = ingest
        .flush(e)
        .expect("it flushes")
        .expect("something buffered");
    assert!(report.edge_increases > 0, "{report:?}");
    let heavier = report.edge_deletes + report.edge_increases > 0;
    let calls = u64::from(heavier) + u64::from(report.edge_adds > 0);
    assert_one_exact_call_each(e, "a flush", before, calls);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn a_weight_increase_is_one_exact_call(
        rmat_graph in 0u8..2,
        size in 0usize..2,
        graph_seed in 0u64..1000,
        procs in 1usize..=8,
        backend in 0u8..2,
        calls in proptest::collection::vec((0u8..2, 0u32..1000, 1usize..=4, 1u32..6), 2..8),
    ) {
        let case = format!(
            "rmat={rmat_graph} size={size} graph_seed={graph_seed} procs={procs} \
             backend={backend} calls={calls:?}"
        );
        let run = std::panic::AssertUnwindSafe(|| {
            let graph = match rmat_graph == 1 {
                true => {
                    let scale = 5 + size as u32;
                    rmat::rmat(scale, 4 << scale, Default::default(), 4, graph_seed)
                }
                false => generators::barabasi_albert(48, 1 + size, 4, graph_seed),
            };
            let config = EngineConfig {
                num_procs: procs,
                seed: graph_seed,
                backend: [BackendKind::Sim, BackendKind::Threads][backend as usize],
                threads: 2 * backend as usize,
                ..Default::default()
            };
            let mut e = AnytimeEngine::new(graph, config);
            e.initialize();
            e.run_to_convergence(256);
            for (kind, a, k, step) in calls {
                match kind {
                    0 => {
                        let (u, v, w) = nth_edge(&e, a);
                        let before = settled_updates(&e);
                        assert!(e.change_edge_weight(u, v, w + step));
                        assert_eq!(e.graph().edge_weight(u, v), Some(w + step));
                        assert_one_exact_call_each(&e, "change_edge_weight", before, 1);
                    }
                    _ => flush(&mut e, a, k, step),
                }
            }
        });
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("failing case: {case}");
            std::panic::resume_unwind(panic);
        }
    }
}
