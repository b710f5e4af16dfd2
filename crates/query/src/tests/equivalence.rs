//! The tracker against what it replaced: floors cut at the k-th pivot sum,
//! one ranking per observation and bounds built only for stale frames,
//! beside uncut floors ([`StructuralBounds::build_cut`] at the rank
//! [`UNCUT`]) built for every generation the moment it opens, ceilings kept
//! by the rig itself — the running minimum of every row over every frame it
//! observes — and the ranking that used to be computed per call (collect
//! every candidate, sort, split, classify — [`reference`] below, kept
//! verbatim). A fresh frame answers from its exact snapshot, so there the
//! reference is the oracle's own split.
//!
//! After every mutation and every RC step of an edge-churn schedule (the
//! shape `tests/topk_differential.rs` drives) the two must agree on
//! `(members, unresolved, pruned)`, the k-th bound gap and the confidence
//! for every k up to the tracked one; a k above it must stay sound against
//! the APSP oracle. The property runs 24 small cases in tier 1 and whatever
//! `PROPTEST_CASES` asks for in the nightly, with turns that settle before
//! they are observed as a server's do; the R-MAT
//! schedule is n = 512 in a release build (`cargo test --release -p
//! aa-query`, a CI step) and n = 64 in the debug build tier 1 runs.

use crate::pivots::StructuralBounds;
use crate::{den_to_score, Confidence, TopKConfig, TopKTracker};
use aa_core::{AnytimeEngine, EngineConfig, Snapshot};
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
/// observation, over the ceilings `lb_den` and the floors of `s`.
fn reference(lb_den: &[u64], s: &StructuralBounds, k: usize) -> Verdict {
    let mut cands: Vec<(u64, VertexId)> = Vec::new();
    for (i, &cs) in s.comp_size.iter().enumerate() {
        if cs >= 2 {
            let den = lb_den.get(i).copied().unwrap_or(u64::MAX);
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
    let confidence = if unresolved.is_empty() && members_exact {
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

/// The oracle's split for `k` from its full ranking: the first `k` are
/// members, nobody is unresolved, everyone else is pruned.
fn oracle_split(ranking: &[VertexId], k: usize) -> Verdict {
    let (members, pruned) = ranking.split_at(k.min(ranking.len()));
    Verdict {
        members: members.to_vec(),
        unresolved: Vec::new(),
        pruned: pruned.to_vec(),
        confidence: Confidence::Exact,
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

/// First k ≤ tracked k on which the tracker and what it must say — the
/// oracle split on a fresh frame, the per-call ranking over `lb_den` and
/// `uncut` on a stale one — disagree, described.
fn mismatch(
    t: &mut TopKTracker,
    ranking: &[VertexId],
    lb_den: &[u64],
    uncut: &StructuralBounds,
) -> Option<String> {
    let fresh = t.last.as_ref().is_some_and(|f| f.meta.converged);
    (0..=t.config().k).find_map(|k| {
        let want = if fresh {
            oracle_split(ranking, k)
        } else {
            reference(lb_den, uncut, k)
        };
        let got = verdict(t, k);
        (got != want).then(|| format!("k = {k}: tracker {got:?}, expected {want:?}"))
    })
}

/// The oracle's ranking of every vertex with positive closeness: score
/// descending, ties by lower id.
fn oracle_ranking(g: &Graph) -> Vec<VertexId> {
    let dist = algo::apsp_dijkstra(g);
    let mut scored: Vec<(VertexId, f64)> = g
        .vertices()
        .map(|v| (v, algo::closeness_from_distances(&dist[v as usize], v)))
        .filter(|&(_, c)| c > 0.0)
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.into_iter().map(|(v, _)| v).collect()
}

/// A ranking for `k` may name no vertex of the true top-k pruned, nor lose
/// one.
fn unsound(t: &TopKTracker, ranking: &[VertexId], k: usize) -> Option<String> {
    let (members, unresolved, pruned) = t.partition(k)?;
    ranking
        .iter()
        .take(k)
        .find(|&v| pruned.contains(v) || !(members.contains(v) || unresolved.contains(v)))
        .map(|v| format!("k = {k}: true member {v} is pruned or lost"))
}

/// `v`'s ceiling from one snapshot: its distance sum, unreached members of
/// its component charged the component's distance ceiling. `None` for a
/// vertex that cannot have positive closeness.
fn ceiling(snap: &Snapshot, s: &StructuralBounds, v: usize) -> Option<u64> {
    let reach = s.comp_size.get(v).copied().unwrap_or(0).checked_sub(1)?;
    if reach == 0 {
        return None;
    }
    let finite = u64::from(snap.finite_targets.get(v).copied().unwrap_or(0));
    let missing = reach.saturating_sub(finite);
    let padded = missing.saturating_mul(reach.saturating_mul(s.w_max));
    let sum = snap.dist_sum.get(v).copied().unwrap_or(0);
    Some(sum.saturating_add(padded).max(1))
}

/// An engine, the tracker observing it, and the rig's own eager bounds for
/// the generation of the last frame.
struct Rig {
    engine: AnytimeEngine,
    tracker: TopKTracker,
    /// `(epoch, state_version)` the bounds below describe.
    generation: Option<(u64, u64)>,
    /// Uncut bounds, built when the generation opened, whatever its frame.
    uncut: Option<StructuralBounds>,
    /// Pivot exact sums, then the running minimum of every candidate's
    /// ceiling over every frame of the generation.
    lb_den: Vec<u64>,
    /// A fresh frame of the current generation has been observed.
    saw_fresh: bool,
    /// Vertices whose floor the cut lowered, over every build so far.
    cut_floors: usize,
    /// Builds the tracker made after a fresh frame of the same generation:
    /// the ones that must equal bounds built eagerly and tightened since.
    lazy_builds: usize,
}

impl Rig {
    fn new(graph: Graph, procs: usize, config: TopKConfig, seed: u64) -> Rig {
        let mut engine = AnytimeEngine::new(
            graph,
            EngineConfig {
                num_procs: procs,
                seed,
                ..Default::default()
            },
        );
        engine.initialize();
        Rig {
            engine,
            tracker: TopKTracker::new(config),
            generation: None,
            uncut: None,
            lb_den: Vec::new(),
            saw_fresh: false,
            cut_floors: 0,
            lazy_builds: 0,
        }
    }

    /// Observes the engine, folds the frame into the rig's own bounds
    /// (opening a generation when the frame does), and runs both checks.
    fn observe_and_check(&mut self, at: &str) -> Result<(), String> {
        let frame = self.engine.publish_snapshot();
        let rebuilds = self.tracker.rebuilds;
        let g = self.engine.graph();
        self.tracker.observe(&frame, g, &[]);
        let TopKConfig { k, max_pivots } = self.tracker.config();
        let meta = frame.meta;
        let stamp = (meta.epoch, meta.state_version);
        if self.generation != Some(stamp) {
            let uncut = StructuralBounds::build_cut(g, stamp.0, stamp.1, k, max_pivots, UNCUT);
            self.lb_den = vec![u64::MAX; g.capacity()];
            for &p in &uncut.pivots {
                self.lb_den[p as usize] = uncut.exact_sum[p as usize];
            }
            self.uncut = Some(uncut);
            self.generation = Some(stamp);
            self.saw_fresh = false;
        }
        let uncut = self.uncut.as_ref().expect("opened above");
        for (v, slot) in self.lb_den.iter_mut().enumerate() {
            if let Some(den) = ceiling(&frame.snapshot, uncut, v) {
                *slot = (*slot).min(den);
            }
        }
        if self.tracker.rebuilds != rebuilds {
            if meta.converged {
                return Err(format!("{at}: a fresh frame built bounds"));
            }
            self.lazy_builds += usize::from(self.saw_fresh);
            let cut = self.tracker.structural.as_ref().expect("just built");
            assert_eq!((cut.epoch, cut.state_version), stamp, "{at}");
            // The cut touches floors only: the ceilings both rankings share
            // rest on the rest.
            assert_eq!(uncut.pivots, cut.pivots, "{at}");
            assert_eq!(uncut.exact_sum, cut.exact_sum, "{at}");
            assert_eq!(uncut.comp_size, cut.comp_size, "{at}");
            let lowered = cut.ub_sum.iter().zip(&uncut.ub_sum);
            self.cut_floors += lowered
                .inspect(|(c, u)| assert!(c <= u, "{at}: the cut raised a floor"))
                .filter(|(c, u)| c < u)
                .count();
        }
        self.saw_fresh |= meta.converged;
        let ranking = oracle_ranking(g);
        if let Some(m) = mismatch(&mut self.tracker, &ranking, &self.lb_den, uncut) {
            return Err(format!("{at}: {m}"));
        }
        match unsound(&self.tracker, &ranking, k + 3) {
            Some(m) => Err(format!("{at}: {m}")),
            None => Ok(()),
        }
    }

    /// RC steps to convergence, checked after each.
    fn converge(&mut self, at: &str) -> Result<(), String> {
        let mut steps = 0;
        while !self.engine.is_converged() {
            steps += 1;
            if steps > 1024 {
                return Err(format!("{at}: no convergence in 1024 steps"));
            }
            self.engine.rc_step();
            self.observe_and_check(&format!("{at}: convergence step {steps}"))?;
        }
        Ok(())
    }

    /// Every op followed by one RC step, then convergence, checked after
    /// each. With `settle`, every op is first run to convergence unobserved,
    /// as a serving turn that applied a deletion does before it publishes.
    fn run(&mut self, ops: &[Op], settle: bool) -> Result<(), String> {
        self.observe_and_check("after init")?;
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut self.engine, op);
            if settle {
                self.engine.run_to_convergence(1024);
            }
            self.observe_and_check(&format!("after op[{i}]"))?;
            self.engine.rc_step();
            self.observe_and_check(&format!("after op[{i}] + rc_step"))?;
        }
        self.converge("end")
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
        settle in proptest::bool::ANY,
        seed in 0u64..10_000,
        ops in proptest::collection::vec(arb_op(), 1..6),
    ) {
        let config = TopKConfig { k, max_pivots: 8 };
        let mut rig = Rig::new(spine(n, &extra), procs, config, seed);
        if let Err(e) = rig.run(&ops, settle) {
            prop_assert!(false, "n={n} extra={extra:?} procs={procs} k={k} \
                settle={settle} seed={seed} ops={ops:?}: {e}");
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
    let mut rig = Rig::new(graph, 4, config, 7);
    let ops: Vec<Op> = (0..12u32)
        .map(|i| match i % 3 {
            0 => Op::AddEdge(i * 37, i * 101 + 5, 1 + i % 4),
            1 => Op::DeleteEdge(i * 53),
            _ => Op::ChangeWeight(i * 29, 1 + i % 5),
        })
        .collect();
    rig.run(&ops, false).unwrap();
    assert!(
        rig.cut_floors > 0,
        "the cut never stopped a search: the comparison proved nothing"
    );
}

/// The lazy build has teeth to show: a generation opened by a fresh frame —
/// a deletion settled before anyone looked — builds nothing, and a
/// rebalance in the same generation makes the next frame stale, whose build
/// must then equal bounds built at the fresh frame and tightened through it.
#[test]
fn a_stale_frame_after_a_fresh_one_builds_what_an_eager_tracker_held() {
    let graph = rmat(6, 256, RmatParams::default(), 4, 7);
    let config = TopKConfig {
        k: 5,
        max_pivots: 8,
    };
    let mut rig = Rig::new(graph, 4, config, 7);
    rig.observe_and_check("after init").unwrap();
    rig.converge("init").unwrap();
    for (i, op) in [Op::DeleteEdge(11), Op::ChangeWeight(5, 6)]
        .into_iter()
        .enumerate()
    {
        apply(&mut rig.engine, op);
        rig.engine.run_to_convergence(1024);
        let rebuilds = rig.tracker.rebuilds;
        rig.observe_and_check(&format!("settled op[{i}]")).unwrap();
        assert!(rig.tracker.last.as_ref().is_some_and(|f| f.meta.converged));
        assert_eq!(
            rig.tracker.rebuilds, rebuilds,
            "a fresh frame builds nothing"
        );
        assert!(rig.tracker.pivots().is_empty());
        // Every row goes out again to its neighbourhood: not converged, and
        // the graph is the one the fresh frame described.
        rig.engine.rebalance();
        rig.observe_and_check(&format!("rebalance after op[{i}]"))
            .unwrap();
        rig.converge(&format!("settle after op[{i}]")).unwrap();
    }
    assert_eq!(
        rig.lazy_builds, 2,
        "each rebalance frame built the skipped bounds"
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
    let mut rig = Rig::new(graph, 4, config, 7);
    rig.observe_and_check("after init").unwrap();
    let g = rig.engine.graph();
    let s = rig.tracker.structural.as_ref().unwrap();
    let (epoch, version) = (s.epoch, s.state_version);
    let wrong = StructuralBounds::build_cut(g, epoch, version, 8, 16, 1);
    rig.tracker.structural = Some(wrong);
    let ranking = oracle_ranking(g);
    let uncut = rig.uncut.as_ref().unwrap();
    let caught = mismatch(&mut rig.tracker, &ranking, &rig.lb_den, uncut);
    assert!(caught.is_some(), "a cut below the k-th denominator passed");
}
