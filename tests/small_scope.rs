//! Small-scope enumerator: every small graph × every short op sequence.
//!
//! The random harnesses missed three sequences on which the engine converged
//! above the oracle (a mid-run migration, a checkpoint restore after one,
//! Repartition-S); all three fit in a handful of vertices and three calls.
//! This file walks that whole space instead of sampling it:
//!
//! * **graphs** — every connected graph on ≤ 4 labelled vertices plus the 21
//!   connected 5-vertex shapes, each with all weights 1 and with weights
//!   alternating 1, 2 along the edge list (graphs on ≤ 3 vertices take every
//!   assignment of {1, 2}; the full weight set on the larger ones is 3,700
//!   graphs, half an hour of release build);
//! * **ops** — every sequence of three calls out of `rc_step`, add / delete /
//!   reweight edge, add vertex, delete vertex and `rebalance`, the vertex
//!   additions under each of the three strategies
//!   (one strategy per sequence: a session's ingest pipeline has one). A
//!   shorter sequence is the same run as itself followed by `rc_step`s, so
//!   none is enumerated;
//! * **P** ∈ {1, 2, 3}, on the sim backend.
//!
//! Each case runs through a [`Session`] with a top-k tracker, and after
//! every call and every superstep checks that estimates are upper bounds of
//! the true distances and only fall between invalidation epochs (a
//! deletion), and that no true top-k vertex is pruned
//! and `Exact` answers equal the oracle ranking. At convergence the distances
//! are the oracle's, `check_invariants` holds and the tracker is exact. Every
//! 16th case runs a second time on the threads backend over a write-ahead
//! log, and what a `kill -9` leaves of that log must recover to the same
//! distances. A failure is shrunk with `support::ddmin`.
//!
//! A debug build costs half a millisecond per case, five on threads (a
//! stage spawns its workers), and tier-1 runs one; there the scope is cut to
//! fit a minute on two cores — first the weight set (one assignment per
//! graph, the alternating one), then the ops (no reweight: a decrease is the
//! edge-addition kernel and an increase is a deletion plus an addition, both
//! still in), and the threads sample is every 64th case. The release build,
//! which CI runs, walks it all.

mod support;

use aa_core::{AdditionStrategy, AnytimeEngine, EngineConfig};
use aa_durable::{recover, SimStorage};
use aa_graph::{algo, Graph, VertexId, Weight};
use aa_ingest::{DrainPolicy, IngestConfig, UpdateOp};
use aa_query::TopKConfig;
use aa_runtime::BackendKind;
use aa_serve::Session;
use std::sync::atomic::{AtomicUsize, Ordering};
use support::ddmin;

const K: usize = 2;
const BUDGET: usize = 64;
/// Whether this build walks the whole scope (see the module docs).
const FULL: bool = !cfg!(debug_assertions);
/// One case in this many runs a second time on threads over a WAL.
const SAMPLE: usize = if FULL { 16 } else { 64 };

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Step,
    AddEdge,
    DeleteEdge,
    Reweight,
    AddVertex,
    DeleteVertex,
    Rebalance,
}

const OPS: [Op; 7] = [
    Op::Step,
    Op::AddEdge,
    Op::DeleteEdge,
    Op::AddVertex,
    Op::DeleteVertex,
    Op::Rebalance,
    Op::Reweight,
];

const STRATEGIES: [AdditionStrategy; 3] = [
    AdditionStrategy::RoundRobinPs,
    AdditionStrategy::CutEdgePs,
    AdditionStrategy::RepartitionS,
];

type Edges = Vec<(VertexId, VertexId, Weight)>;

#[derive(Debug, Clone)]
struct Case {
    n: usize,
    edges: Edges,
    procs: usize,
    strategy: AdditionStrategy,
    /// Threads backend and a write-ahead log, instead of sim and none.
    sampled: bool,
    ops: Vec<Op>,
}

/// The vertex pairs of an `n`-vertex graph, in the order edge masks use.
fn pairs(n: usize) -> Vec<(VertexId, VertexId)> {
    let n = n as VertexId;
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect()
}

fn connected(n: usize, edges: &[(VertexId, VertexId)]) -> bool {
    let mut seen = vec![false; n];
    let mut stack = vec![0];
    seen[0] = true;
    while let Some(x) = stack.pop() {
        for &(u, v) in edges {
            for (a, b) in [(u, v), (v, u)] {
                if a == x && !std::mem::replace(&mut seen[b as usize], true) {
                    stack.push(b);
                }
            }
        }
    }
    seen.into_iter().all(|s| s)
}

/// Every connected graph on `n` labelled vertices; with `shapes`, one per
/// isomorphism class (the labelling with the smallest edge mask).
fn connected_graphs(n: usize, shapes: bool) -> Vec<Vec<(VertexId, VertexId)>> {
    let pairs = pairs(n);
    let of_mask = |mask: u32| -> Vec<(VertexId, VertexId)> {
        let members = pairs.iter().enumerate();
        members
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &p)| p)
            .collect()
    };
    let mut perms: Vec<Vec<VertexId>> = vec![vec![]];
    for _ in 0..n {
        perms = perms
            .iter()
            .flat_map(|p| {
                let free = (0..n as VertexId).filter(|x| !p.contains(x));
                free.map(|x| [&p[..], &[x]].concat()).collect::<Vec<_>>()
            })
            .collect();
    }
    let relabelled = |edges: &[(VertexId, VertexId)], perm: &[VertexId]| -> u32 {
        edges.iter().fold(0, |mask, &(u, v)| {
            let (a, b) = (perm[u as usize], perm[v as usize]);
            let at = pairs.iter().position(|&p| p == (a.min(b), a.max(b)));
            mask | 1 << at.expect("a pair of the graph")
        })
    };
    (0u32..1 << pairs.len())
        .map(of_mask)
        .filter(|edges| connected(n, edges))
        .filter(|edges| {
            !shapes
                || perms
                    .iter()
                    .all(|perm| relabelled(edges, perm) >= relabelled(edges, &perms[0]))
        })
        .collect()
}

/// The weighted graphs of the scope, as `(n, edges)`.
fn graphs() -> Vec<(usize, Edges)> {
    let mut out = Vec::new();
    for n in 1..=5 {
        for edges in connected_graphs(n, n == 5) {
            let weighted = |pick: &dyn Fn(usize) -> Weight| -> Vec<_> {
                let numbered = edges.iter().enumerate();
                numbered.map(|(i, &(u, v))| (u, v, pick(i))).collect()
            };
            if FULL && n <= 3 {
                for bits in 0usize..1 << edges.len() {
                    out.push((n, weighted(&|i| 1 + (bits >> i & 1) as Weight)));
                }
            } else if FULL {
                out.push((n, weighted(&|_| 1)));
                out.push((n, weighted(&|i| 1 + (i % 2) as Weight)));
            } else {
                out.push((n, weighted(&|i| 1 + (i % 2) as Weight)));
            }
        }
    }
    out
}

/// Every sequence of three ops, paired with each strategy it can tell
/// apart (all three if it adds a vertex, else the first).
fn sequences() -> Vec<(Vec<Op>, AdditionStrategy)> {
    let ops = &OPS[..if FULL { 7 } else { 6 }];
    let mut out = Vec::new();
    for &a in ops {
        for &b in ops {
            for &c in ops {
                let seq = vec![a, b, c];
                let tells = if seq.contains(&Op::AddVertex) { 3 } else { 1 };
                out.extend(STRATEGIES[..tells].iter().map(|&s| (seq.clone(), s)));
            }
        }
    }
    out
}

fn base_engine(case: &Case, backend: BackendKind) -> AnytimeEngine {
    let mut g = Graph::with_vertices(case.n);
    for &(u, v, w) in &case.edges {
        g.add_edge(u, v, w);
    }
    AnytimeEngine::new(
        g,
        EngineConfig {
            num_procs: case.procs,
            backend,
            threads: if backend == BackendKind::Threads {
                2
            } else {
                0
            },
            ..Default::default()
        },
    )
}

fn ingest(case: &Case) -> IngestConfig {
    IngestConfig {
        policy: DrainPolicy::SizeTriggered(1),
        strategy: case.strategy,
        ..Default::default()
    }
}

/// Applies the `i`-th op of a sequence. Arguments are resolved against the
/// live graph (`i` varies the pick), and an op with nothing to act on — no
/// absent pair, one vertex left — is skipped.
fn apply(s: &mut Session, op: Op, i: usize) -> Result<(), String> {
    let g = s.engine().graph();
    let ids: Vec<VertexId> = g.vertices().collect();
    let edges: Vec<_> = g.edges().collect();
    let nth = |len: usize| (len > 0).then(|| i % len);
    let update = match op {
        Op::Step => {
            s.step(1);
            None
        }
        Op::Rebalance => {
            s.engine_mut().rebalance();
            None
        }
        Op::AddEdge => {
            let absent = pairs(g.capacity())
                .into_iter()
                .filter(|&(u, v)| g.is_alive(u) && g.is_alive(v) && !g.has_edge(u, v));
            let absent: Vec<_> = absent.collect();
            nth(absent.len()).map(|k| UpdateOp::AddEdge(absent[k].0, absent[k].1, 1))
        }
        Op::DeleteEdge => nth(edges.len()).map(|k| UpdateOp::DeleteEdge(edges[k].0, edges[k].1)),
        Op::Reweight => nth(edges.len()).map(|k| {
            let (u, v, w) = edges[k];
            UpdateOp::Reweight(u, v, 3 - w.min(2)) // 1 -> 2, 2 -> 1
        }),
        Op::AddVertex => {
            // Attached to one vertex or, on odd positions, to two.
            let anchors = ids.iter().skip(i % ids.len()).take(1 + i % 2);
            Some(UpdateOp::AddVertex {
                anchors: anchors.map(|&a| (a, 1)).collect(),
            })
        }
        Op::DeleteVertex => (ids.len() > 1).then(|| UpdateOp::DeleteVertex(ids[i % ids.len()])),
    };
    if let Some(update) = update {
        let (outcome, _) = s.push(update.clone())?;
        if !outcome.enqueued {
            return Err(format!("{update:?} was not enqueued"));
        }
        if let Some(e) = s.apply_all()?.commit_error {
            return Err(e);
        }
    }
    Ok(())
}

/// The anytime state as of the last superstep.
struct Watch {
    dist: Vec<Vec<Weight>>,
    /// Changes whenever rows may legitimately rise.
    epoch: u64,
}

/// Observes a superstep and, with `verify`, runs the per-superstep checks;
/// `at` names the superstep in failures.
fn check(s: &mut Session, watch: &mut Watch, verify: bool, at: &str) -> Result<(), String> {
    s.observe();
    let answer = s.top_k(K);
    let e = s.engine();
    let g = e.graph();
    let dist = e.distances_dense();
    if !verify {
        let epoch = e.invalidation_epoch();
        *watch = Watch { dist, epoch };
        return Ok(());
    }
    let oracle = algo::apsp_dijkstra(g);
    for v in g.vertices() {
        let (row, truth) = (&dist[v as usize], &oracle[v as usize]);
        if let Some(t) = (0..row.len()).find(|&t| row[t] < truth[t]) {
            return Err(format!(
                "{at}: d({v},{t}) = {} is below the true {}",
                row[t], truth[t]
            ));
        }
        let before = watch
            .dist
            .get(v as usize)
            .filter(|_| e.invalidation_epoch() == watch.epoch);
        if let Some(t) = before.and_then(|b| (0..b.len()).find(|&t| row[t] > b[t])) {
            return Err(format!("{at}: d({v},{t}) rose to {}", row[t]));
        }
    }
    *watch = Watch {
        dist,
        epoch: e.invalidation_epoch(),
    };

    // Top-k soundness, as in `topk_differential`.
    let mut truth: Vec<(VertexId, f64)> = g
        .vertices()
        .map(|v| (v, algo::closeness_from_distances(&oracle[v as usize], v)))
        .filter(|&(_, c)| c > 0.0)
        .collect();
    truth.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    truth.truncate(K);
    let tracker = s.tracker().expect("the session has a tracker");
    let (members, unresolved, pruned) = tracker
        .partition(K)
        .ok_or(format!("{at}: no top-k partition"))?;
    for &(v, _) in &truth {
        if pruned.contains(&v) || !(members.contains(&v) || unresolved.contains(&v)) {
            return Err(format!(
                "{at}: true top-{K} vertex {v} is pruned or lost \
                 (members {members:?}, unresolved {unresolved:?})"
            ));
        }
    }
    let answer = answer.ok_or(format!("{at}: no top-k answer"))?;
    if answer.is_exact() && answer.members != truth {
        return Err(format!(
            "{at}: Exact answer {:?} is not the oracle's {truth:?}",
            answer.members
        ));
    }
    if e.is_converged() && !answer.is_exact() {
        return Err(format!("{at}: converged, yet {:?}", answer.confidence));
    }
    Ok(())
}

fn run(case: &Case) -> Result<(), String> {
    let sim = SimStorage::new();
    let topk = Some(TopKConfig {
        k: K,
        max_pivots: 4,
    });
    let mut s = if case.sampled {
        let storage = Box::new(sim.clone());
        let base = base_engine(case, BackendKind::Threads);
        Session::open_durable(storage, base, ingest(case), topk, Default::default())?.0
    } else {
        Session::new(base_engine(case, BackendKind::Sim), ingest(case), topk)?
    };
    let mut watch = Watch {
        dist: Vec::new(),
        epoch: s.engine().invalidation_epoch(),
    };
    // The state after `i` calls is verified by the sequence that only steps
    // from there on; the others reach it through the same calls.
    let only_steps_from = case.ops.iter().rposition(|&op| op != Op::Step);
    let only_steps_from = only_steps_from.map_or(0, |last| last + 1);
    check(&mut s, &mut watch, only_steps_from == 0, "after initialize")?;
    for (i, &op) in case.ops.iter().enumerate() {
        apply(&mut s, op, i)?;
        let at = format!("after op {i} ({op:?})");
        check(&mut s, &mut watch, i + 1 >= only_steps_from, &at)?;
    }
    let mut steps = 0;
    while s.step(1) == 1 {
        steps += 1;
        check(
            &mut s,
            &mut watch,
            true,
            &format!("convergence step {steps}"),
        )?;
        if steps == BUDGET {
            return Err(format!("not converged after {BUDGET} steps"));
        }
    }
    let e = s.engine();
    e.check_invariants()?;
    let oracle = algo::apsp_dijkstra(e.graph());
    for v in e.graph().vertices() {
        if watch.dist[v as usize] != oracle[v as usize] {
            return Err(format!(
                "converged row {v} is {:?}, the oracle's is {:?}",
                watch.dist[v as usize], oracle[v as usize]
            ));
        }
    }
    if case.sampled {
        // Recover-equals-live: what a kill -9 now leaves behind replays, on
        // the simulator, to the same distances.
        sim.kill();
        let mut storage = sim.clone();
        let base = base_engine(case, BackendKind::Sim);
        let mut recovered = recover(&mut storage, base, ingest(case))?.engine;
        recovered.run_to_convergence(BUDGET);
        if !recovered.is_converged() || recovered.distances_dense() != watch.dist {
            return Err("the recovered engine does not converge to the live distances".into());
        }
    }
    Ok(())
}

/// Runs every sequence on one graph and `procs` ranks; the first failure is
/// shrunk and reported.
fn enumerate(sequences: &[(Vec<Op>, AdditionStrategy)], n: usize, edges: &Edges, procs: usize) {
    for (number, (ops, strategy)) in sequences.iter().enumerate() {
        let mut case = Case {
            n,
            edges: edges.clone(),
            procs,
            strategy: *strategy,
            sampled: false,
            ops: ops.clone(),
        };
        let mut failure = run(&case).err();
        if failure.is_none() && number % SAMPLE == SAMPLE - 1 {
            case.sampled = true;
            failure = run(&case).err();
        }
        if let Some(first) = failure {
            let fails = |c: &Case| run(c).is_err();
            let small = ddmin(&case, &fails, |c| &c.ops, |c| &mut c.ops);
            let small = ddmin(&small, &fails, |c| &c.edges, |c| &mut c.edges);
            let why = run(&small).expect_err("ddmin keeps the case failing");
            panic!("{case:?} failed: {first}\nshrunk to {small:?}\nwhich fails with: {why}");
        }
    }
}

#[test]
fn the_scope_is_what_it_says() {
    let count = |n, shapes| connected_graphs(n, shapes).len();
    assert_eq!(
        [count(1, false), count(2, false), count(3, false)],
        [1, 1, 4]
    );
    assert_eq!([count(4, false), count(5, false)], [38, 728]);
    assert_eq!(count(5, true), 21);
    // 1, 2 and 3·4 + 8 weighted graphs on 1, 2 and 3 vertices, (38 + 21)·2
    // above; 7³ sequences, the 7³ − 6³ that add a vertex counted three times.
    let want = if FULL {
        [1 + 2 + 20 + 118, 216 + 3 * 127]
    } else {
        [1 + 1 + 4 + 38 + 21, 125 + 3 * 91]
    };
    assert_eq!([graphs().len(), sequences().len()], want);
}

#[test]
fn every_small_case_is_exact() {
    // One (graph, P) at a time off a shared counter, on every core: the cases
    // cost too unevenly for a fixed split into tests to keep them all busy.
    let work: Vec<_> = graphs()
        .into_iter()
        .flat_map(|(n, edges)| (1..=3).map(move |procs| (n, edges.clone(), procs)))
        .collect();
    let sequences = sequences();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some((n, edges, procs)) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                    enumerate(&sequences, *n, edges, *procs);
                }
            });
        }
    });
}
