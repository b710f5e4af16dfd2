//! The tracker against what it replaced: floors cut at the k-th pivot sum
//! and one ranking per observation, beside uncut floors
//! ([`StructuralBounds::build_cut`] at the rank [`UNCUT`]) and the ranking
//! that used to be computed per call (collect every candidate, sort, split,
//! classify — [`reference`] below, kept verbatim).
//!
//! After every mutation and every RC step of an edge-churn schedule (the
//! shape `tests/topk_differential.rs` drives) the two must agree on
//! `(members, unresolved, pruned)`, the k-th bound gap and the confidence
//! for every k up to the tracked one; a k above it must stay sound against
//! the APSP oracle. The property runs 24 small cases in tier 1 and whatever
//! `PROPTEST_CASES` asks for in the nightly; the R-MAT schedule is n = 512
//! in a release build (`cargo test --release -p aa-query`, a CI step) and
//! n = 64 in the debug build tier 1 runs.

use crate::pivots::StructuralBounds;
use crate::{den_to_score, Confidence, TopKConfig, TopKTracker};
use aa_core::{AnytimeEngine, EngineConfig, FaultConfig};
use aa_graph::rmat::{rmat, RmatParams};
use aa_graph::{algo, Graph, VertexId};
use proptest::prelude::*;

/// A cut rank above any pivot count: no threshold, every exploration runs
/// to `BALL_CAP` as all of them did before the cut.
const UNCUT: usize = usize::MAX;

/// What a ranking says, identities included.
#[derive(Debug, PartialEq)]
struct Verdict {
    members: Vec<VertexId>,
    unresolved: Vec<VertexId>,
    pruned: Vec<VertexId>,
    confidence: Confidence,
}

/// The per-call ranking the tracker computed before it ranked once per
/// observation, over the tracker's lower bounds and the floors of `s`.
fn reference(t: &TopKTracker, s: &StructuralBounds, k: usize, fresh: bool) -> Verdict {
    let mut cands: Vec<(u64, VertexId)> = Vec::new();
    for (i, &cs) in s.comp_size.iter().enumerate() {
        if cs >= 2 {
            let den = t.lb_den.get(i).copied().unwrap_or(u64::MAX);
            cands.push((den, i as VertexId));
        }
    }
    cands.sort_unstable();
    let members: Vec<(u64, VertexId)> = cands.iter().take(k).copied().collect();
    let kth_den = if members.len() < k {
        u64::MAX
    } else {
        members.last().map(|&(d, _)| d).unwrap_or(u64::MAX)
    };
    let mut pruned = Vec::new();
    let mut unresolved = Vec::new();
    let mut max_ub = 0.0f64;
    for &(_, v) in cands.iter().skip(k) {
        let floor = s.ub_sum.get(v as usize).copied().unwrap_or(0);
        if floor > kth_den && kth_den != u64::MAX {
            pruned.push(v);
        } else {
            unresolved.push(v);
            let ub = if floor == 0 { 1.0 } else { den_to_score(floor) };
            if ub > max_ub {
                max_ub = ub;
            }
        }
    }
    let members_exact = members.iter().all(|&(den, v)| {
        s.exact_sum
            .get(v as usize)
            .is_some_and(|&e| e != u64::MAX && e == den)
    });
    let confidence = if fresh || (unresolved.is_empty() && members_exact) {
        Confidence::Exact
    } else {
        Confidence::Anytime {
            kth_bound_gap: if unresolved.is_empty() {
                0.0
            } else {
                (max_ub - den_to_score(kth_den)).max(0.0)
            },
            unresolved_candidates: unresolved.len(),
        }
    };
    Verdict {
        members: members.iter().map(|&(_, v)| v).collect(),
        unresolved,
        pruned,
        confidence,
    }
}

/// What the tracker itself says for `k` (which must not exceed the tracked
/// k, or answering would raise it).
fn verdict(t: &mut TopKTracker, k: usize) -> Verdict {
    assert!(k <= t.config().k);
    let (members, unresolved, pruned) = t.partition(k).expect("observed");
    let confidence = t.answer(k).expect("observed").confidence;
    Verdict {
        members,
        unresolved,
        pruned,
        confidence,
    }
}

/// First k ≤ tracked k on which the tracker and the reference over `uncut`
/// disagree, described.
fn mismatch(t: &mut TopKTracker, uncut: &StructuralBounds) -> Option<String> {
    let fresh = t.last.as_ref().is_some_and(|f| f.meta.fresh);
    (0..=t.config().k).find_map(|k| {
        let (got, want) = (verdict(t, k), reference(t, uncut, k, fresh));
        (got != want).then(|| format!("k = {k}: tracker {got:?}, reference {want:?}"))
    })
}

/// A ranking for `k` may name no vertex of the true top-k pruned, nor lose
/// one.
fn unsound(t: &TopKTracker, g: &Graph, k: usize) -> Option<String> {
    let dist = algo::apsp_dijkstra(g);
    let mut truth: Vec<(VertexId, f64)> = g
        .vertices()
        .map(|v| (v, algo::closeness_from_distances(&dist[v as usize], v)))
        .filter(|&(_, c)| c > 0.0)
        .collect();
    truth.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    truth.truncate(k);
    let (members, unresolved, pruned) = t.partition(k)?;
    truth
        .iter()
        .find(|&&(v, _)| pruned.contains(&v) || !(members.contains(&v) || unresolved.contains(&v)))
        .map(|&(v, _)| format!("k = {k}: true member {v} is pruned or lost"))
}

/// An engine, the tracker observing it, and the uncut twin of the tracker's
/// current bounds.
struct Rig {
    engine: AnytimeEngine,
    tracker: TopKTracker,
    uncut: Option<StructuralBounds>,
    /// Vertices whose floor the cut lowered, over every generation so far.
    cut_floors: usize,
}

impl Rig {
    fn new(graph: Graph, procs: usize, config: TopKConfig, drop_rate: f64, seed: u64) -> Rig {
        let fault = (drop_rate > 0.0).then(|| FaultConfig {
            p_drop: drop_rate,
            seed: seed ^ 0x5eed,
            ..Default::default()
        });
        let mut engine = AnytimeEngine::new(
            graph,
            EngineConfig {
                num_procs: procs,
                seed,
                fault,
                ..Default::default()
            },
        );
        engine.enable_bound_feed();
        engine.initialize();
        Rig {
            engine,
            tracker: TopKTracker::new(config),
            uncut: None,
            cut_floors: 0,
        }
    }

    /// Observes the engine, rebuilds the uncut twin when the tracker rebuilt
    /// its bounds, and runs both checks.
    fn observe_and_check(&mut self, at: &str) -> Result<(), String> {
        let frame = self.engine.publish_snapshot();
        let deltas = self.engine.drain_bound_deltas();
        let rebuilds = self.tracker.rebuilds;
        let g = self.engine.graph();
        self.tracker.observe(&frame, g, &deltas);
        let TopKConfig { k, max_pivots } = self.tracker.config();
        let cut = self.tracker.structural.as_ref().expect("observed");
        if self.tracker.rebuilds != rebuilds {
            let (epoch, version) = (cut.epoch, cut.state_version);
            let uncut = StructuralBounds::build_cut(g, epoch, version, k, max_pivots, UNCUT);
            // The cut touches floors only: the lower bounds both rankings
            // share rest on the rest.
            assert_eq!(uncut.pivots, cut.pivots, "{at}");
            assert_eq!(uncut.exact_sum, cut.exact_sum, "{at}");
            assert_eq!(uncut.comp_size, cut.comp_size, "{at}");
            let lowered = cut.ub_sum.iter().zip(&uncut.ub_sum);
            self.cut_floors += lowered
                .inspect(|(c, u)| assert!(c <= u, "{at}: the cut raised a floor"))
                .filter(|(c, u)| c < u)
                .count();
            self.uncut = Some(uncut);
        }
        let uncut = self.uncut.as_ref().expect("first observe rebuilds");
        if let Some(m) = mismatch(&mut self.tracker, uncut) {
            return Err(format!("{at}: {m}"));
        }
        match unsound(&self.tracker, g, k + 3) {
            Some(m) => Err(format!("{at}: {m}")),
            None => Ok(()),
        }
    }

    /// Every op followed by one RC step, then convergence, checked after
    /// each.
    fn run(&mut self, ops: &[Op]) -> Result<(), String> {
        self.observe_and_check("after init")?;
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut self.engine, op);
            self.observe_and_check(&format!("after op[{i}]"))?;
            self.engine.rc_step();
            self.observe_and_check(&format!("after op[{i}] + rc_step"))?;
        }
        let mut steps = 0;
        while !self.engine.is_converged() {
            steps += 1;
            if steps > 1024 {
                return Err("no convergence in 1024 steps".into());
            }
            self.engine.rc_step();
            self.observe_and_check(&format!("convergence step {steps}"))?;
        }
        Ok(())
    }
}

/// One edge mutation, indices resolved against live state at apply time.
#[derive(Debug, Clone, Copy)]
enum Op {
    AddEdge(u32, u32, u32),
    DeleteEdge(u32),
    ChangeWeight(u32, u32),
}

fn apply(e: &mut AnytimeEngine, op: Op) {
    let ids: Vec<VertexId> = e.graph().vertices().collect();
    let edges: Vec<_> = e.graph().edges().collect();
    match op {
        Op::AddEdge(a, b, w) => {
            let (u, v) = (ids[a as usize % ids.len()], ids[b as usize % ids.len()]);
            if u != v {
                e.add_edge(u, v, w.max(1));
            }
        }
        Op::DeleteEdge(i) if edges.len() > 1 => {
            let (u, v, _) = edges[i as usize % edges.len()];
            e.delete_edge(u, v);
        }
        Op::ChangeWeight(i, w) if !edges.is_empty() => {
            let (u, v, old) = edges[i as usize % edges.len()];
            if old != w.max(1) {
                e.change_edge_weight(u, v, w.max(1));
            }
        }
        Op::DeleteEdge(_) | Op::ChangeWeight(..) => {}
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..3, 0u32..64, 0u32..64, 1u32..6).prop_map(|(kind, a, b, w)| match kind {
        0 => Op::AddEdge(a, b, w),
        1 => Op::DeleteEdge(a),
        _ => Op::ChangeWeight(a, w),
    })
}

/// Spine + extra edges, as in `tests/topk_differential.rs`.
fn spine(n: usize, extra: &[(u32, u32, u32)]) -> Graph {
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

/// 24 cases in the tier-1 run; the nightly asks for more through
/// `PROPTEST_CASES`, which the vendored runner does not read by itself.
fn cases() -> u32 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn cut_floors_and_one_ranking_equal_the_per_call_reference(
        n in 5usize..24,
        extra in proptest::collection::vec((0u32..24, 0u32..24, 1u32..6), 0..12),
        procs in 2usize..4,
        k in 1usize..6,
        lossy in proptest::bool::ANY,
        seed in 0u64..10_000,
        ops in proptest::collection::vec(arb_op(), 1..6),
    ) {
        let drop_rate = if lossy { 0.2 } else { 0.0 };
        let config = TopKConfig { k, max_pivots: 8 };
        let mut rig = Rig::new(spine(n, &extra), procs, config, drop_rate, seed);
        if let Err(e) = rig.run(&ops) {
            prop_assert!(false, "n={n} extra={extra:?} procs={procs} k={k} \
                drop_rate={drop_rate} seed={seed} ops={ops:?}: {e}");
        }
    }
}

/// The scale and tracker the cut was measured at: an R-MAT graph under edge
/// churn, top-10 over 16 pivots as the server asks. n = 512 is too slow for
/// the debug build tier 1 runs, which gets n = 64.
#[test]
fn cut_equals_reference_on_an_rmat_churn_schedule() {
    let scale = if cfg!(debug_assertions) { 6 } else { 9 };
    let n = 1usize << scale;
    let graph = rmat(scale, n * 4, RmatParams::default(), 4, 7);
    let config = TopKConfig {
        k: 10,
        max_pivots: 16,
    };
    let mut rig = Rig::new(graph, 4, config, 0.0, 7);
    let ops: Vec<Op> = (0..12u32)
        .map(|i| match i % 3 {
            0 => Op::AddEdge(i * 37, i * 101 + 5, 1 + i % 4),
            1 => Op::DeleteEdge(i * 53),
            _ => Op::ChangeWeight(i * 29, 1 + i % 5),
        })
        .collect();
    rig.run(&ops).unwrap();
    assert!(
        rig.cut_floors > 0,
        "the cut never stopped a search: the comparison proved nothing"
    );
}

/// The equivalence above has teeth: a threshold taken for a smaller k than
/// the one asked can sit below the k-th denominator, and then the cut
/// floors classify differently from the uncut ones.
#[test]
fn a_threshold_for_a_smaller_k_is_caught() {
    let graph = rmat(7, 512, RmatParams::default(), 4, 7);
    let config = TopKConfig {
        k: 8,
        max_pivots: 16,
    };
    let mut rig = Rig::new(graph, 4, config, 0.0, 7);
    rig.observe_and_check("after init").unwrap();
    let g = rig.engine.graph();
    let s = rig.tracker.structural.as_ref().unwrap();
    let (epoch, version) = (s.epoch, s.state_version);
    let wrong = StructuralBounds::build_cut(g, epoch, version, 8, 16, 1);
    rig.tracker.structural = Some(wrong);
    let caught = mismatch(&mut rig.tracker, rig.uncut.as_ref().unwrap());
    assert!(caught.is_some(), "a cut below the k-th denominator passed");
}
