//! A settled engine stays settled call by call.
//!
//! A converged engine on an R-MAT or Barabási–Albert graph, at P from 1 to 8
//! on either backend, takes a random run of the calls an ingest flush
//! makes: deletion batches; insertion batches in series, at one shared
//! endpoint, and naming edges twice or present already; weight decreases
//! and increases; one-vertex additions and deletions; a heavy detour whose
//! way round is then deleted; and a checkpoint round trip. Each call lands
//! on the engine as the one before it left it — stepped or not. After
//! every call its rows equal the APSP oracle before any recombination step,
//! its invariants hold and every rank is quiescent, so the next step runs
//! empty; where the case steps, that step converges and moves what a step
//! on a settled engine moves.
//!
//! In the widening case weights reach 10⁶: a call that withholds a distance
//! widens the rows and hands what is owed to recombination, which still
//! reaches the oracle. Neither a step, a widening nor a restore leaves the
//! engine marked exact.

use crate::config::EngineConfig;
use crate::dynamic::{Endpoint, VertexBatch};
use crate::exact_deletion::{assert_exact, cases, live, nth_edge, traffic};
use crate::strategy::AdditionStrategy;
use crate::AnytimeEngine;
use aa_graph::{generators, rmat, VertexId, Weight};
use aa_runtime::BackendKind;
use proptest::prelude::*;

/// One random call: `kind` selects it, `a` and `b` pick what it touches,
/// `k` is a batch's size, `w` a weight.
#[derive(Debug, Clone, Copy)]
struct Call {
    kind: u8,
    a: u32,
    b: u32,
    k: usize,
    w: Weight,
}

/// Steps once, which must clear the exact mark, and returns whether the
/// step reported convergence.
fn step(e: &mut AnytimeEngine, what: &str) -> bool {
    let converged = e.rc_step();
    assert!(!e.exact, "{what}: a step left the engine marked exact");
    converged
}

/// Steps to convergence, within the deletion barrier's budget, and holds
/// the rows to the oracle.
pub(crate) fn converge(e: &mut AnytimeEngine, what: &str) {
    let budget = e.deletion_barrier_budget();
    assert!((0..budget).any(|_| step(e, what)), "{what}: no convergence");
    assert_exact(e, what);
}

/// Holds the call just made to the module's contract; `step_after` steps
/// the engine past it, as a serving turn does.
fn settled(e: &mut AnytimeEngine, what: &str, widened: u64, step_after: bool) {
    if e.obs.widenings > widened {
        assert!(!e.exact && !e.is_settled(), "{what}: widened, yet settled");
        converge(e, &format!("{what}, widened and reconverged"));
        return;
    }
    assert_exact(e, what);
    for ps in &e.procs {
        assert!(ps.is_quiescent(), "{what}: rank {} owes a step", ps.rank);
    }
    assert!(e.is_settled(), "{what}: exact, yet not settled");
    if step_after {
        let before = traffic(e);
        assert!(step(e, what), "{what}: the next step does not converge");
        let after = traffic(e);
        assert!(step(e, what), "{what}: a settled engine's step");
        let moved = |a: (u64, u64), b: (u64, u64)| (b.0 - a.0, b.1 - a.1);
        assert_eq!(
            moved(before, after),
            moved(after, traffic(e)),
            "{what}: the step after it moves more than a settled engine's"
        );
    }
}

/// Runs one call of `kind` on `e`; returns what it was, or `None` if the
/// pick named nothing to do.
fn apply(e: &mut AnytimeEngine, call: Call, heavy: Weight) -> Option<&'static str> {
    let Call { kind, a, b, k, w } = call;
    let g = e.graph().clone();
    let ids: Vec<VertexId> = g.vertices().collect();
    let pick = |i: usize| ids[(a as usize + 7 * i + b as usize * i * i) % ids.len()];
    match kind {
        // `k` edges spread over the edge list, or at one vertex.
        0 => {
            let batch: Vec<_> = match b % 2 {
                0 => {
                    let edges: Vec<_> = g.edges().collect();
                    let every = (edges.len() / k).max(1);
                    let spread = edges.iter().skip(a as usize % every).step_by(every);
                    spread.take(k).map(|&(u, v, _)| (u, v)).collect()
                }
                _ => {
                    let hub = live(&g, a);
                    let at = g.neighbors(hub).iter().take(k);
                    at.map(|&(y, _)| (hub, y)).collect()
                }
            };
            (e.delete_edges(&batch) > 0).then_some("delete_edges")
        }
        // `k` new edges in series through `k + 1` vertices.
        1 => {
            let path: Vec<VertexId> = (0..=k).map(pick).collect();
            let batch: Vec<_> = (path.windows(2).enumerate())
                .map(|(i, p)| (p[0], p[1], 1 + (w + i as Weight) % heavy))
                .collect();
            (e.add_edges(&batch) > 0).then_some("add_edges in series")
        }
        // `k` new edges at one vertex, one named twice, one present.
        2 => {
            let hub = pick(0);
            let mut batch: Vec<_> = (1..=k).map(|i| (hub, pick(i), 1 + w % heavy)).collect();
            batch.push((pick(1), hub, 1));
            batch.extend(nth_edge(&g, b));
            (e.add_edges(&batch) > 0).then_some("add_edges at a vertex")
        }
        3 => {
            let lighter: Vec<_> = g.edges().filter(|&(_, _, x)| x > 1).collect();
            let &(u, v, old) = lighter.get(a as usize % lighter.len().max(1))?;
            e.change_edge_weight(u, v, 1 + w % (old - 1))
                .then_some("lighter edge")
        }
        4 => {
            let (u, v, old) = nth_edge(&g, a)?;
            e.change_edge_weight(u, v, old + 1 + w % heavy)
                .then_some("heavier edge")
        }
        5 => {
            let strategy = [AdditionStrategy::RoundRobinPs, AdditionStrategy::CutEdgePs];
            let mut batch = VertexBatch::new(1);
            batch.connect(0, Endpoint::Existing(pick(0)), 1 + w % heavy);
            if k > 1 {
                batch.connect(0, Endpoint::Existing(pick(1)), 1 + k as Weight);
            }
            e.add_vertices(&batch, strategy[b as usize % 2]);
            Some("one vertex added")
        }
        6 if g.vertex_count() > 8 => {
            e.delete_vertex(live(&g, a));
            Some("one vertex deleted")
        }
        _ => None,
    }
}

/// A heavy detour round edge `(u, v)`, from `u` to a neighbour `y` of `v`,
/// then `(u, v)` deleted: what ran over it now runs over the detour, which
/// the repair derives — past what 8 bits hold, in the widening case.
fn detour(e: &mut AnytimeEngine, a: u32, weight: Weight, step_after: bool) {
    let Some((u, v, _)) = nth_edge(e.graph(), a) else {
        return;
    };
    let far = e.graph().neighbors(v).iter().map(|&(y, _)| y);
    let Some(y) = far.filter(|&y| y != u).find(|&y| !e.graph().has_edge(u, y)) else {
        return;
    };
    let widened = e.obs.widenings;
    assert!(e.add_edge(u, y, weight));
    settled(e, "the detour", widened, false);
    let widened = e.obs.widenings;
    assert!(e.delete_edge(u, v));
    settled(e, "the way round deleted", widened, step_after);
}

/// Saves and restores a checkpoint: the restored engine marks every row to
/// send, is not settled and not marked exact, and converges to the oracle.
fn round_trip(e: &mut AnytimeEngine) {
    let mut buf = Vec::new();
    e.save_checkpoint(&mut buf).expect("a checkpoint to memory");
    let config = e.config().clone();
    *e = AnytimeEngine::restore_checkpoint(&mut &buf[..], config).expect("it restores");
    assert!(!e.exact && !e.is_settled(), "restored, yet settled");
    converge(e, "restored and reconverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn a_settled_flush_sequence_stays_exact_call_by_call(
        rmat_graph in 0u8..2,
        size in 0usize..2,
        widening in (0u8..4).prop_map(|x| x == 0),
        graph_seed in 0u64..1000,
        procs in 1usize..=8,
        backend in 0u8..2,
        calls in proptest::collection::vec(
            (0u8..9, 0u32..1000, 0u32..1000, 1usize..=5, 0u32..1_000_000, proptest::bool::ANY),
            4..16,
        ),
    ) {
        let case = format!(
            "rmat={rmat_graph} size={size} widening={widening} graph_seed={graph_seed} \
             procs={procs} backend={backend} calls={calls:?}"
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
            converge(&mut e, "converged");
            let heavy: Weight = if widening { 1_000_000 } else { 4 };
            for (kind, a, b, k, w, step_after) in calls {
                match kind {
                    7 => detour(&mut e, a, 1 + w % heavy, step_after),
                    8 => round_trip(&mut e),
                    _ => {
                        let widened = e.obs.widenings;
                        let call = Call { kind, a, b, k, w };
                        if let Some(what) = apply(&mut e, call, heavy) {
                            settled(&mut e, what, widened, step_after);
                        }
                    }
                }
            }
        });
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("failing case: {case}");
            std::panic::resume_unwind(panic);
        }
    }
}
