//! Settled insertions relax only their candidate columns, and leave the rows
//! the whole-row relaxation leaves.
//!
//! Two engines on one graph — an R-MAT or Barabási–Albert graph, or two of
//! them side by side as two components — at P from 1 to 8 on either
//! backend, converged, take the same random run of insertions that land on
//! a settled engine: single edges, chains of edges in series, lighter
//! edges, and one new vertex with one anchor (a leaf) or several, placed by
//! RoundRobin-PS or CutEdge-PS. One relaxes as production does, on each
//! edge's or anchor's candidate columns; the other under
//! [`crate::dynamic::reference::whole_row`], every owned row through every
//! column. After every call the two engines hold equal rows, and where no
//! write was withheld both equal the APSP oracle before any step. An
//! insertion between the two components turns `INF` columns finite.
//!
//! In the widening case weights reach 10⁶: a call that withholds a
//! distance widens both engines alike, and both converge to the oracle
//! before the next call.

use crate::config::EngineConfig;
use crate::dynamic::reference::whole_row;
use crate::dynamic::{Endpoint, VertexBatch};
use crate::exact_deletion::{assert_exact, cases, live};
use crate::settled_flush::converge;
use crate::strategy::AdditionStrategy;
use crate::AnytimeEngine;
use aa_graph::{generators, rmat, Graph, VertexId, Weight};
use aa_runtime::BackendKind;
use proptest::prelude::*;

/// One random insertion: `kind` selects it, `a` and `b` pick what it
/// touches, `k` is a chain's length or an arrival's anchor count, `w` a
/// weight.
#[derive(Debug, Clone, Copy)]
struct Call {
    kind: u8,
    a: u32,
    b: u32,
    k: usize,
    w: Weight,
}

/// `g` beside a second copy of itself, as two components.
fn twice(g: &Graph) -> Graph {
    let n = g.capacity();
    let mut both = Graph::with_vertices(2 * n);
    for (u, v, w) in g.edges() {
        both.add_edge(u, v, w);
        both.add_edge(u + n as VertexId, v + n as VertexId, w);
    }
    both
}

/// Runs `call` on `e`; returns what it was, or `None` if the pick named
/// nothing to do.
fn apply(e: &mut AnytimeEngine, call: Call, heavy: Weight) -> Option<&'static str> {
    let Call { kind, a, b, k, w } = call;
    let g = e.graph().clone();
    let pick = |i: usize| live(&g, a.wrapping_add(b.wrapping_mul(i as u32 + 1)));
    let weight = 1 + w % heavy;
    match kind {
        0 => {
            let (u, v) = (live(&g, a), live(&g, b));
            (u != v && e.add_edge(u, v, weight)).then_some("add_edge")
        }
        // `k` new edges in series through `k + 1` vertices.
        1 => {
            let path: Vec<VertexId> = (0..=k).map(pick).collect();
            let chain: Vec<_> = (path.windows(2).enumerate())
                .map(|(i, p)| (p[0], p[1], 1 + (w + i as Weight) % heavy))
                .collect();
            (e.add_edges(&chain) > 0).then_some("add_edges in series")
        }
        2 => {
            let heavier: Vec<_> = g.edges().filter(|&(_, _, x)| x > 1).collect();
            let &(u, v, old) = heavier.get(a as usize % heavier.len().max(1))?;
            e.change_edge_weight(u, v, 1 + w % (old - 1))
                .then_some("lighter edge")
        }
        // One new vertex: a leaf, or `k + 1` anchors spread over the graph.
        3 | 4 => {
            let strategy = [AdditionStrategy::RoundRobinPs, AdditionStrategy::CutEdgePs];
            let mut batch = VertexBatch::new(1);
            let anchors = if kind == 3 { 1 } else { k + 1 };
            for i in 0..anchors {
                let w = 1 + (w + i as Weight) % heavy;
                batch.connect(0, Endpoint::Existing(pick(i)), w);
            }
            e.add_vertices(&batch, strategy[b as usize % 2]);
            Some(["a leaf added", "a vertex added"][usize::from(kind == 4)])
        }
        // An edge from the first half of the ids to the second: between the
        // components, while they are two.
        _ => {
            let half = g.capacity() as u32 / 2;
            let (u, v) = (a % half, half + b % half);
            let alive = g.is_alive(u) && g.is_alive(v);
            (alive && e.add_edge(u, v, weight)).then_some("an edge across")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn candidate_columns_equal_the_whole_row_reference_after_every_settled_insertion(
        rmat_graph in 0u8..2,
        split in proptest::bool::ANY,
        widening in (0u8..4).prop_map(|x| x == 0),
        graph_seed in 0u64..1000,
        procs in 1usize..=8,
        backend in 0u8..2,
        calls in proptest::collection::vec(
            (0u8..6, 0u32..1000, 0u32..1000, 1usize..=4, 0u32..1_000_000),
            4..16,
        ),
    ) {
        let case = format!(
            "rmat={rmat_graph} split={split} widening={widening} graph_seed={graph_seed} \
             procs={procs} backend={backend} calls={calls:?}"
        );
        let run = std::panic::AssertUnwindSafe(|| {
            let graph = match rmat_graph == 1 {
                true => rmat::rmat(5, 4 << 5, Default::default(), 4, graph_seed),
                false => generators::barabasi_albert(32, 2, 4, graph_seed),
            };
            let graph = if split { twice(&graph) } else { graph };
            let config = EngineConfig {
                num_procs: procs,
                seed: graph_seed,
                backend: [BackendKind::Sim, BackendKind::Threads][backend as usize],
                threads: 2 * backend as usize,
                ..Default::default()
            };
            let mut engines = [graph.clone(), graph].map(|g| {
                let mut e = AnytimeEngine::new(g, config.clone());
                e.initialize();
                converge(&mut e, "converged");
                e
            });
            let heavy: Weight = if widening { 1_000_000 } else { 4 };
            for (kind, a, b, k, w) in calls {
                let call = Call { kind, a, b, k, w };
                let [e, r] = &mut engines;
                let widened = e.obs.widenings;
                let what = apply(e, call, heavy);
                let twin = whole_row(|| apply(r, call, heavy));
                assert_eq!(what, twin, "the two engines took different calls");
                let Some(what) = what else {
                    continue;
                };
                assert_eq!(e.graph().capacity(), r.graph().capacity(), "{what}");
                assert_eq!(e.distances_dense(), r.distances_dense(), "{what}: rows differ");
                assert_eq!(e.obs.widenings, r.obs.widenings, "{what}: widened alone");
                if e.obs.widenings > widened {
                    converge(e, &format!("{what}, widened"));
                    converge(r, &format!("{what}, widened, whole-row reference"));
                    continue;
                }
                assert!(e.exact && r.exact, "{what}: not settled");
                assert_exact(e, what);
            }
        });
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("failing case: {case}");
            std::panic::resume_unwind(panic);
        }
    }
}
