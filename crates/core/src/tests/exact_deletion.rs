//! Deletions end exact in their own call.
//!
//! A converged engine on an R-MAT or Barabási–Albert graph (a tree at
//! `m = 1`, so every edge is a bridge; unit weights tie everywhere), at P
//! from 1 to 8 on either backend, takes a random run of deleting calls:
//! single edges, batches of one to five edges sharing an endpoint or
//! scattered over the edge list, pendant edges, vertex deletions and weight
//! increases. After every call its rows equal the APSP oracle before any
//! recombination step, and its invariants hold. After every deletion the
//! engine owes nothing: the next step reports convergence and moves what a
//! step on a settled engine moves. And the entries a deletion resets are
//! symmetric, `(x, t)` with `(t, x)`: the row side and the column side are
//! one rule read from each end of a path.

use crate::config::EngineConfig;
use crate::dynamic::reference::recording;
use crate::AnytimeEngine;
use aa_graph::{algo, generators, rmat, Graph, VertexId, Weight};
use aa_runtime::BackendKind;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// 24 cases in the tier-1 run; the nightly workflow asks for 3,000 through
/// `PROPTEST_CASES`, which the vendored runner does not read by itself.
pub(crate) fn cases() -> u32 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(24)
}

/// The engine's messages and bytes so far.
pub(crate) fn traffic(e: &AnytimeEngine) -> (u64, u64) {
    let totals = e.cluster().ledger().totals();
    (totals.messages, totals.bytes)
}

/// The rows equal the oracle, and the invariants hold.
pub(crate) fn assert_exact(e: &AnytimeEngine, what: &str) {
    let oracle = algo::apsp_dijkstra(e.graph());
    let dense = e.distances_dense();
    for v in e.graph().vertices() {
        let v = v as usize;
        assert_eq!(dense[v], oracle[v], "{what}: row {v} before any step");
    }
    if let Err(broken) = e.check_invariants() {
        panic!("{what}: {broken}");
    }
}

/// Runs one deleting call and holds it to the module's contract. `gone` is
/// the vertex the call deletes, whose row goes with it.
fn delete<R>(
    e: &mut AnytimeEngine,
    what: &str,
    gone: Option<VertexId>,
    f: impl Fn(&mut AnytimeEngine) -> R,
) {
    let widened = e.obs.widenings;
    let (_, resets) = recording(|| f(e));
    assert_exact(e, what);
    let reset: BTreeSet<(usize, usize)> = (resets.iter())
        .flat_map(|(_, x, cols)| cols.iter().map(move |&t| (*x as usize, t)))
        .filter(|&(_, t)| Some(t) != gone.map(|v| v as usize))
        .collect();
    for &(x, t) in &reset {
        assert!(
            reset.contains(&(t, x)),
            "{what}: ({x}, {t}) reset, ({t}, {x}) kept"
        );
    }
    if e.obs.widenings > widened {
        return; // what a guarded write withheld, recombination re-derives
    }
    for ps in &e.procs {
        assert!(ps.is_quiescent(), "{what}: rank {} owes a step", ps.rank);
    }
    let before = traffic(e);
    assert!(e.rc_step(), "{what}: the next step does not converge");
    let after = traffic(e);
    assert!(e.rc_step(), "{what}: a settled engine's step");
    let settled = traffic(e);
    let moved = |a: (u64, u64), b: (u64, u64)| (b.0 - a.0, b.1 - a.1);
    assert_eq!(
        moved(before, after),
        moved(after, settled),
        "{what}: the step after it moves more than a settled engine's"
    );
}

/// The `pick`-th edge, if there is one.
pub(crate) fn nth_edge(g: &Graph, pick: u32) -> Option<(VertexId, VertexId, Weight)> {
    let edges: Vec<_> = g.edges().collect();
    edges.get(pick as usize % edges.len().max(1)).copied()
}

/// The `pick`-th live vertex.
pub(crate) fn live(g: &Graph, pick: u32) -> VertexId {
    let ids: Vec<VertexId> = g.vertices().collect();
    ids[pick as usize % ids.len()]
}

/// One random deleting call: `kind` selects it, `a` and `b` pick what it
/// deletes, `k` is a batch's size and a weight increase's step.
fn apply(e: &mut AnytimeEngine, kind: u8, a: u32, b: u32, k: usize) {
    let g = e.graph().clone();
    match kind {
        0 => {
            if let Some((u, v, _)) = nth_edge(&g, a) {
                delete(e, "delete_edge", None, |e| e.delete_edge(u, v));
            }
        }
        // Up to `k` edges at one vertex.
        1 => {
            let hub = live(&g, a);
            let batch: Vec<_> = (g.neighbors(hub).iter().take(k))
                .map(|&(y, _)| (hub, y))
                .collect();
            delete(e, "delete_edges at a vertex", None, |e| {
                e.delete_edges(&batch)
            });
        }
        // `k` edges spread over the edge list.
        2 => {
            let edges: Vec<_> = g.edges().collect();
            let every = (edges.len() / k).max(1);
            let spread = edges.iter().skip(a as usize % every).step_by(every).take(k);
            let batch: Vec<_> = spread.map(|&(u, v, _)| (u, v)).collect();
            delete(e, "scattered delete_edges", None, |e| {
                e.delete_edges(&batch)
            });
        }
        // A pendant edge, a bridge.
        3 => {
            let pendant = g
                .edges()
                .filter(|&(u, v, _)| g.degree(u) == 1 || g.degree(v) == 1);
            let pendant: Vec<_> = pendant.collect();
            if let Some(&(u, v, _)) = pendant.get(a as usize % pendant.len().max(1)) {
                delete(e, "delete a bridge", None, |e| e.delete_edge(u, v));
            }
        }
        4 if g.vertex_count() > 8 => {
            let v = live(&g, a);
            delete(e, "delete_vertex", Some(v), |e| e.delete_vertex(v));
        }
        // A heavier edge is a deletion whose edge survives.
        5 => {
            if let Some((u, v, w)) = nth_edge(&g, b) {
                let heavier = |e: &mut AnytimeEngine| e.change_edge_weight(u, v, w + k as Weight);
                delete(e, "weight increase", None, heavier);
            }
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn a_deletion_is_exact_in_its_own_call_and_owes_nothing(
        rmat_graph in 0u8..2,
        size in 0usize..2,
        max_weight in prop_oneof![Just(1u32), Just(4)],
        graph_seed in 0u64..1000,
        procs in 1usize..=8,
        backend in 0u8..2,
        ops in proptest::collection::vec((0u8..6, 0u32..1000, 0u32..1000, 1usize..=5), 4..16),
    ) {
        let case = format!(
            "rmat={rmat_graph} size={size} max_weight={max_weight} graph_seed={graph_seed} \
             procs={procs} backend={backend} ops={ops:?}"
        );
        let run = std::panic::AssertUnwindSafe(|| {
            let graph = match rmat_graph == 1 {
                true => {
                    let scale = 5 + size as u32;
                    rmat::rmat(scale, 4 << scale, Default::default(), max_weight, graph_seed)
                }
                false => generators::barabasi_albert(48, 1 + size, max_weight, graph_seed),
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
            assert_exact(&e, "converged");
            for (kind, a, b, k) in ops {
                apply(&mut e, kind, a, b, k);
            }
        });
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("failing case: {case}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A deletion's work counters on one run of deleting calls — edges at the
/// hubs, a scattered batch, weight increases, a vertex — at P = `procs` on
/// `backend`: rows reset, entries reset, repair edge reads and fetched
/// edges.
fn repair_work(procs: usize, backend: BackendKind) -> [u64; 4] {
    let graph = rmat::rmat(7, 4 << 7, Default::default(), 4, 11);
    let mut hubs: Vec<VertexId> = graph.vertices().collect();
    hubs.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    let at_hubs: Vec<_> = (hubs.iter().take(3))
        .flat_map(|&h| graph.neighbors(h).iter().take(2).map(move |&(y, _)| (h, y)))
        .collect();
    let edges: Vec<_> = graph.edges().collect();
    let config = EngineConfig {
        num_procs: procs,
        backend,
        threads: if backend == BackendKind::Threads {
            2
        } else {
            0
        },
        ..Default::default()
    };
    let mut e = AnytimeEngine::new(graph, config);
    e.initialize();
    e.run_to_convergence(256);
    for &(u, v) in &at_hubs {
        e.delete_edge(u, v);
    }
    let spread: Vec<_> = edges.iter().step_by(37).map(|&(u, v, _)| (u, v)).collect();
    e.delete_edges(&spread);
    for &(u, v, w) in edges.iter().skip(5).step_by(41) {
        e.change_edge_weight(u, v, w + 3);
    }
    e.delete_vertex(hubs[3]);
    assert_exact(&e, "after the run");
    let r = e.metrics_registry();
    let owned = |name: &str| r.counter_value(name, &[("rows", "owned")]);
    [
        owned("aa_invalidation_rows_reset_total"),
        owned("aa_invalidation_entries_reset_total"),
        r.counter_value("aa_repair_edge_reads_total", &[]),
        r.counter_value("aa_repair_fetched_edges_total", &[]),
    ]
}

#[test]
fn repair_work_is_the_same_at_every_p_and_on_both_backends() {
    let [rows, entries, reads, _] = repair_work(1, BackendKind::Sim);
    assert!(
        rows > 0 && entries > 0 && reads > 0,
        "the run repairs something"
    );
    for procs in [1, 3, 8] {
        let sim = repair_work(procs, BackendKind::Sim);
        assert_eq!(sim, repair_work(procs, BackendKind::Threads), "P = {procs}");
        let [r, n, e, fetched] = sim;
        assert_eq!([r, n, e], [rows, entries, reads], "P = {procs}");
        // Only a rank that does not own a raised column fetches its edges.
        assert_eq!(fetched == 0, procs == 1, "P = {procs}: {fetched} fetched");
    }
}
