#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
//! Anytime top-k closeness queries over the running engine.
//!
//! Production traffic asks "who are the k most central vertices?", not
//! "dump all n closeness values". The paper's anytime property makes that
//! question answerable *mid-computation*: every in-flight distance estimate
//! is an upper bound on a true distance, so every partially-filled row
//! yields a sound **lower bound** on its vertex's closeness, and a few exact
//! pivot searches on `aa_graph::search`, the engine's own shortest-path
//! kernel, yield sound **upper bounds** (see [`pivots`]). A vertex
//! whose upper bound cannot beat the current k-th lower bound can never
//! enter the top-k of this graph generation — it is pruned without ever
//! waiting for its row to converge.
//!
//! [`TopKTracker`] is the first consumer that reads engine state
//! *incrementally across supersteps* rather than from a terminal snapshot:
//! it observes each published [`SnapshotFrame`], keeps every row's bound as
//! the running minimum over the frames of one graph generation, and answers
//! [`TopKAnswer`]s whose [`Confidence`] states precisely how settled the
//! ranking is:
//!
//! * [`Confidence::Exact`] — the members *are* the true top-k of the
//!   current graph, bit-for-bit what the brute-force oracle would return.
//!   Reported when the frame is fresh (the engine converged), or earlier,
//!   when every surviving candidate outside the members is pruned and every
//!   member's score is pivot-exact.
//! * [`Confidence::Anytime`] — the true top-k is guaranteed to be a subset
//!   of {members ∪ unresolved candidates}; `kth_bound_gap` says how far the
//!   best unresolved challenger's upper bound still sits above the k-th
//!   member's lower bound.
//!
//! ## Soundness under dynamics
//!
//! Lower bounds derive from the anytime invariant `d̂(v,t) ≥ d(v,t)`, which
//! the engine maintains through additions (only shorten true distances) and
//! deletions (invalidate-and-reseed before serving). Upper bounds are
//! structural per generation; any graph change bumps the frame's
//! `(epoch, state_version)` stamp and the tracker rebuilds them before
//! trusting anything — at the generation's first stale frame, since a fresh
//! frame is exact on its own and needs none. Pruning compares *integer
//! distance sums*, never floats, so there is no epsilon to get wrong.

pub mod pivots;

#[cfg(test)]
#[path = "tests/equivalence.rs"]
mod equivalence_tests;

use aa_core::{BoundDelta, Snapshot, SnapshotFrame, SnapshotMeta};
use aa_graph::{Graph, VertexId};
use aa_obs::MetricsRegistry;
use pivots::StructuralBounds;
use std::sync::Arc;

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKConfig {
    /// The k the tracker keys its pruning metrics, its degree seeds and its
    /// exploration cut to. [`TopKTracker::answer`] serves any k on demand
    /// and raises this one to the largest k it was asked.
    pub k: usize,
    /// Pivot budget for the structural upper bounds (degree seeds +
    /// component cover + greedy k-center fill). More pivots prune harder at
    /// `O(m log n)` build cost each per generation.
    pub max_pivots: usize,
}

impl Default for TopKConfig {
    fn default() -> Self {
        TopKConfig {
            k: 8,
            max_pivots: 16,
        }
    }
}

/// How settled a [`TopKAnswer`] is.
#[derive(Debug, Clone, PartialEq)]
pub enum Confidence {
    /// The members are the true top-k of the current graph, in the exact
    /// order (score descending, ties by lower vertex id) the brute-force
    /// oracle would produce.
    Exact,
    /// The ranking is still in flight. The true top-k is a subset of
    /// {members ∪ the unresolved candidates}.
    Anytime {
        /// How far the best unresolved challenger's closeness upper bound
        /// sits above the k-th member's lower bound (0 when the member
        /// *set* is resolved but member scores are not yet exact).
        kth_bound_gap: f64,
        /// Candidates outside the members that are not yet pruned.
        unresolved_candidates: usize,
    },
}

/// An answer to "who are the k most central vertices right now?".
#[derive(Debug, Clone, PartialEq)]
pub struct TopKAnswer {
    /// The k that was asked for (members may be fewer if the graph has
    /// fewer vertices with positive closeness).
    pub k: usize,
    /// Members, best first. Scores are exact closeness values when
    /// `confidence` is [`Confidence::Exact`]; otherwise they are the
    /// members' sound lower bounds (they converge to the exact values).
    pub members: Vec<(VertexId, f64)>,
    /// How settled the ranking is.
    pub confidence: Confidence,
    /// Consistency stamp of the snapshot frame the answer was derived from.
    pub meta: SnapshotMeta,
}

impl TopKAnswer {
    /// Whether the answer is exact.
    pub fn is_exact(&self) -> bool {
        matches!(self.confidence, Confidence::Exact)
    }

    /// Member vertex ids, best first.
    pub fn ids(&self) -> Vec<VertexId> {
        self.members.iter().map(|&(v, _)| v).collect()
    }
}

/// What the bound test says about one ranking: the members are a prefix of
/// the tracker's candidate order, everyone behind them is pruned or not.
struct Standing<'a> {
    /// `(lb denominator, id)` of the members, best (smallest denominator)
    /// first.
    members: &'a [(u64, VertexId)],
    /// Denominator of the k-th member (`u64::MAX` when fewer than k
    /// candidates exist — then nothing is prunable).
    kth_den: u64,
    /// Candidates with positive possible closeness.
    candidates: usize,
    /// Non-members whose upper bound cannot beat the k-th lower bound.
    pruned: usize,
    /// Non-members still in the running.
    unresolved: usize,
    /// Largest closeness upper bound among the unresolved (0 when none).
    max_unresolved_ub: f64,
    /// Every member's lower bound equals its pivot-exact sum.
    members_exact: bool,
}

impl Standing<'_> {
    /// The member set is settled and every member's score is pivot-exact.
    fn exact(&self) -> bool {
        self.unresolved == 0 && self.members_exact
    }

    /// How far the best unresolved upper bound sits above the k-th lower
    /// bound (0 when nobody is unresolved).
    fn gap(&self) -> f64 {
        if self.unresolved == 0 {
            0.0
        } else {
            (self.max_unresolved_ub - den_to_score(self.kth_den)).max(0.0)
        }
    }
}

/// Maintains sound per-vertex closeness bounds from published snapshot
/// frames, and answers anytime top-k queries. See the crate docs for the
/// bound derivation.
///
/// Candidates are ranked **once per observation**: [`TopKTracker::observe`]
/// sorts them by lower bound, and every ranking asked for until the next
/// observation is a prefix of that order, classified against the stored
/// floors without sorting or allocating anything the size of the graph.
#[derive(Debug, Clone, Default)]
pub struct TopKTracker {
    config: TopKConfig,
    /// Bounds of the generation they are stamped with; `None` while the
    /// frames of the current generation have all been fresh.
    structural: Option<StructuralBounds>,
    /// Upper bound on the final distance sum per id slot (`u64::MAX` =
    /// nothing known yet); `1/lb_den` is the closeness lower bound.
    lb_den: Vec<u64>,
    /// Every candidate as `(lb denominator, id)`, best first (smaller
    /// denominator = larger closeness, ties by lower id as in the
    /// snapshot/oracle ordering), as of the last observation.
    order: Vec<(u64, VertexId)>,
    /// The last observed frame, for answer metadata and the fresh path.
    last: Option<Arc<SnapshotFrame>>,
    /// Exact top-`config.k` of `last` when it is fresh, selected by the
    /// first answer that needs it and dropped with the frame.
    fresh_top: Option<Vec<(VertexId, f64)>>,
    observes: u64,
    rebuilds: u64,
    rows_updated: u64,
    /// First rc_step of the current generation at which the configured-k
    /// answer became exact.
    resolution_step: Option<u64>,
    last_candidates: usize,
    last_pruned: usize,
    last_unresolved: usize,
    last_gap: f64,
    last_exact: bool,
}

impl TopKTracker {
    /// A tracker with the given configuration.
    pub fn new(config: TopKConfig) -> TopKTracker {
        TopKTracker {
            config,
            ..TopKTracker::default()
        }
    }

    /// The configuration. `k` is the tracked k: the configured one, raised
    /// to the largest k answered so far.
    pub fn config(&self) -> TopKConfig {
        self.config
    }

    /// Folds one published frame into the tracker. Bounds are built only
    /// for a stale frame: one with no bounds for its graph generation — the
    /// frame's `(epoch, state_version)` stamp moved — gets structural bounds
    /// built from the graph, while a fresh frame in that position is
    /// answered from its own exact snapshot and builds nothing (the first
    /// stale frame of the generation builds, if one ever comes). Every stale
    /// frame then retightens every row: a row's ceiling is the running
    /// minimum of sums that only fall within a generation, and every
    /// operation that can raise one moves the stamp, so an unmoved row is
    /// left as it was. Handed the frame it already holds — an idle engine
    /// reuses its publication — it only counts the observation. `_deltas`
    /// is ignored, kept only because the benchmark harness still passes it;
    /// callers pass `&[]`.
    pub fn observe(&mut self, frame: &Arc<SnapshotFrame>, graph: &Graph, _deltas: &[BoundDelta]) {
        self.observes += 1;
        if self.last.as_ref().is_some_and(|l| Arc::ptr_eq(l, frame)) {
            return;
        }
        let meta = frame.meta;
        let stamp = |m: &SnapshotMeta| (m.epoch, m.state_version);
        if self.last.as_ref().map(|l| stamp(&l.meta)) != Some(stamp(&meta)) {
            self.resolution_step = None;
        }
        let unbounded = self
            .structural
            .as_ref()
            .is_none_or(|s| (s.epoch, s.state_version) != stamp(&meta));
        if unbounded && meta.converged {
            // Ceilings are running minima of sums that only fall within a
            // generation, so bounds a later stale frame of this generation
            // builds from its own sums equal bounds built here and tightened
            // since.
            self.structural = None;
        } else {
            if unbounded {
                self.build(graph, meta);
            }
            for v in graph.vertices() {
                self.update_row(v, &frame.snapshot);
            }
        }
        self.last = Some(Arc::clone(frame));
        self.fresh_top = None;

        // The one ranking of this observation.
        self.order.clear();
        if let Some(s) = &self.structural {
            let lb_den = &self.lb_den;
            self.order.extend(
                s.comp_size
                    .iter()
                    .enumerate()
                    .filter(|&(_, &cs)| cs >= 2)
                    .map(|(i, _)| {
                        let den = lb_den.get(i).copied().unwrap_or(u64::MAX);
                        (den, i as VertexId)
                    }),
            );
        }
        self.order.sort_unstable();
        self.refresh_stats();
    }

    /// Builds the structural bounds of `meta`'s generation, with the pivots'
    /// exact sums as their first ceilings.
    fn build(&mut self, graph: &Graph, meta: SnapshotMeta) {
        let s = StructuralBounds::build(
            graph,
            meta.epoch,
            meta.state_version,
            self.config.k,
            self.config.max_pivots,
        );
        let mut lb_den = vec![u64::MAX; graph.capacity()];
        for &p in &s.pivots {
            if let (Some(slot), Some(&exact)) =
                (lb_den.get_mut(p as usize), s.exact_sum.get(p as usize))
            {
                *slot = exact;
            }
        }
        self.lb_den = lb_den;
        self.structural = Some(s);
        self.rebuilds += 1;
    }

    /// Retightens one row's closeness lower bound from the snapshot's
    /// integer distance sum: unreached-but-reachable targets are padded with
    /// the component's distance ceiling `(|comp| − 1) · w_max`. The
    /// denominator is monotone non-increasing within a generation, so the
    /// smaller of old and new is always the tightest sound bound.
    fn update_row(&mut self, v: VertexId, snap: &Snapshot) {
        let Some(s) = &self.structural else { return };
        let i = v as usize;
        let cs = s.comp_size.get(i).copied().unwrap_or(0);
        if cs < 2 {
            return;
        }
        let reach = cs - 1;
        let dist_sum = snap.dist_sum.get(i).copied().unwrap_or(0);
        let finite = u64::from(snap.finite_targets.get(i).copied().unwrap_or(0));
        let missing = reach.saturating_sub(finite);
        let ceiling = reach.saturating_mul(s.w_max);
        let den = dist_sum
            .saturating_add(missing.saturating_mul(ceiling))
            .max(1);
        if let Some(slot) = self.lb_den.get_mut(i) {
            if den < *slot {
                *slot = den;
            }
            self.rows_updated += 1;
        }
    }

    /// Applies the pruning rule to the ranking for `k` — the first `k` of
    /// the candidate order — calling `visit(v, pruned)` for every candidate
    /// behind the members, in order. `None` before the first observation.
    fn classify(&self, k: usize, mut visit: impl FnMut(VertexId, bool)) -> Option<Standing<'_>> {
        let s = self.structural.as_ref()?;
        let (members, outside) = self.order.split_at(k.min(self.order.len()));
        let kth_den = if members.len() < k {
            u64::MAX
        } else {
            members.last().map_or(u64::MAX, |&(d, _)| d)
        };
        let (mut pruned, mut unresolved, mut max_ub) = (0, 0, 0.0f64);
        for &(_, v) in outside {
            let floor = s.ub_sum.get(v as usize).copied().unwrap_or(0);
            // Prune iff UB(v) < kth lower bound, as integers: the floor on
            // v's final distance sum strictly exceeds the k-th member's
            // denominator. `floor == 0` means "no structural bound".
            let is_pruned = floor > kth_den;
            if is_pruned {
                pruned += 1;
            } else {
                unresolved += 1;
                let ub = if floor == 0 { 1.0 } else { den_to_score(floor) };
                if ub > max_ub {
                    max_ub = ub;
                }
            }
            visit(v, is_pruned);
        }
        let members_exact = members.iter().all(|&(den, v)| {
            s.exact_sum
                .get(v as usize)
                .is_some_and(|&e| e != u64::MAX && e == den)
        });
        Some(Standing {
            members,
            kth_den,
            candidates: self.order.len(),
            pruned,
            unresolved,
            max_unresolved_ub: max_ub,
            members_exact,
        })
    }

    /// Refreshes the tracked-k pruning metrics from the current ranking — or,
    /// on a fresh frame without bounds, from the exact split.
    fn refresh_stats(&mut self) {
        let Some(frame) = &self.last else { return };
        let (meta, k) = (frame.meta, self.config.k);
        let (candidates, pruned, unresolved, gap, exact) = match self.classify(k, |_, _| {}) {
            Some(r) => {
                let exact = meta.converged || r.exact();
                (r.candidates, r.pruned, r.unresolved, r.gap(), exact)
            }
            None if meta.converged => {
                let snap = &frame.snapshot;
                let candidates = snap.closeness.iter().filter(|&&c| c > 0.0).count();
                (candidates, candidates.saturating_sub(k), 0, 0.0, true)
            }
            None => return,
        };
        self.last_candidates = candidates;
        self.last_pruned = pruned;
        self.last_unresolved = unresolved;
        self.last_gap = gap;
        self.last_exact = exact;
        if exact && self.resolution_step.is_none() {
            self.resolution_step = Some(meta.rc_step as u64);
        }
    }

    /// The current top-k answer for any `k`, from the last observed frame.
    /// `None` until the first [`TopKTracker::observe`]. A `k` above the
    /// tracked one raises it: the metrics follow at once, the degree seeds
    /// and the exploration cut from the next rebuild (until then the larger
    /// ranking is sound but may report more unresolved candidates than
    /// bounds built for it would).
    pub fn answer(&mut self, k: usize) -> Option<TopKAnswer> {
        if k > self.config.k {
            self.config.k = k;
            self.fresh_top = None;
            self.resolution_step = None;
            self.refresh_stats();
        }
        let frame = self.last.as_ref()?;
        let meta = frame.meta;
        if meta.converged {
            // The frame is exact (converged, nothing in flight, nobody
            // down): the snapshot's own ranking is the oracle's. Selected
            // once per frame; a read copies its k entries.
            let tracked = self.config.k;
            let top = self
                .fresh_top
                .get_or_insert_with(|| frame.snapshot.top_k(tracked));
            return Some(TopKAnswer {
                k,
                members: top.iter().take(k).copied().collect(),
                confidence: Confidence::Exact,
                meta,
            });
        }
        let r = self.classify(k, |_, _| {})?;
        let mut members: Vec<(VertexId, f64)> = r
            .members
            .iter()
            .map(|&(den, v)| (v, den_to_score(den)))
            .filter(|&(_, score)| score > 0.0)
            .collect();
        // Present in the oracle's order: score descending, ties by id.
        members.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let confidence = if r.exact() {
            Confidence::Exact
        } else {
            Confidence::Anytime {
                kth_bound_gap: r.gap(),
                unresolved_candidates: r.unresolved,
            }
        };
        Some(TopKAnswer {
            k,
            members,
            confidence,
            meta,
        })
    }

    /// Identity-level partition of the candidates for `k`: `(members,
    /// unresolved, pruned)` vertex ids. The soundness contract — checked
    /// every superstep by the differential harness — is that the true top-k
    /// is a subset of members ∪ unresolved, i.e. a pruned vertex can never
    /// re-enter the true top-k within this generation. On a fresh frame the
    /// split is exact, as the answer is: the snapshot's top k, nobody
    /// unresolved, every other candidate pruned in ranking order. `None`
    /// before the first observation.
    pub fn partition(&self, k: usize) -> Option<(Vec<VertexId>, Vec<VertexId>, Vec<VertexId>)> {
        let frame = self.last.as_ref()?;
        if frame.meta.converged {
            let ranking = frame.snapshot.top_k(usize::MAX);
            let mut members: Vec<VertexId> = ranking.iter().map(|&(v, _)| v).collect();
            let pruned = members.split_off(k.min(members.len()));
            return Some((members, Vec::new(), pruned));
        }
        let (mut unresolved, mut pruned) = (Vec::new(), Vec::new());
        let r = self.classify(k, |v, is_pruned| {
            if is_pruned {
                pruned.push(v);
            } else {
                unresolved.push(v);
            }
        })?;
        let members = r.members.iter().map(|&(_, v)| v).collect();
        Some((members, unresolved, pruned))
    }

    /// Fraction of candidates outside the members already pruned for the
    /// configured k (0 when there is nothing to prune); 1 on a fresh frame
    /// without bounds, whose split is exact.
    pub fn pruned_fraction(&self) -> f64 {
        let outside = self.last_candidates.saturating_sub(self.config.k);
        if outside == 0 {
            0.0
        } else {
            self.last_pruned as f64 / outside as f64
        }
    }

    /// Unresolved candidates for the configured k at the last observation.
    pub fn unresolved_candidates(&self) -> usize {
        self.last_unresolved
    }

    /// Whether the configured-k answer was exact at the last observation.
    pub fn is_exact(&self) -> bool {
        self.last_exact
    }

    /// First rc_step of the current generation at which the configured-k
    /// answer became exact.
    pub fn resolution_step(&self) -> Option<u64> {
        self.resolution_step
    }

    /// Pivots of the current generation (empty before the first observe).
    pub fn pivots(&self) -> &[VertexId] {
        self.structural
            .as_ref()
            .map(|s| s.pivots.as_slice())
            .unwrap_or(&[])
    }

    /// Exports tracker state as `aa_topk_*` metrics.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.inc_counter("aa_topk_observes_total", &[], self.observes);
        r.inc_counter("aa_topk_rebuilds_total", &[], self.rebuilds);
        r.inc_counter("aa_topk_rows_updated_total", &[], self.rows_updated);
        r.set_gauge("aa_topk_pivots", &[], self.pivots().len() as f64);
        r.set_gauge("aa_topk_pruned_fraction", &[], self.pruned_fraction());
        r.set_gauge("aa_topk_kth_bound_gap", &[], self.last_gap);
        r.set_gauge(
            "aa_topk_unresolved_candidates",
            &[],
            self.last_unresolved as f64,
        );
        r.set_gauge(
            "aa_topk_exact",
            &[],
            if self.last_exact { 1.0 } else { 0.0 },
        );
        r.set_gauge(
            "aa_topk_resolution_step",
            &[],
            self.resolution_step.map(|s| s as f64).unwrap_or(-1.0),
        );
        r
    }
}

/// Converts an integer distance-sum denominator to a closeness score.
fn den_to_score(den: u64) -> f64 {
    if den == 0 || den == u64::MAX {
        0.0
    } else {
        1.0 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_core::{AnytimeEngine, EngineConfig};
    use aa_graph::{algo, generators};

    fn engine(n: usize, p: usize, seed: u64) -> AnytimeEngine {
        let g = generators::barabasi_albert(n, 2, 4, seed);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: p,
                ..Default::default()
            },
        );
        e.initialize();
        e
    }

    fn oracle_top_k(g: &Graph, k: usize) -> Vec<VertexId> {
        let c = algo::exact_closeness(g);
        let mut ranked: Vec<(VertexId, f64)> = c
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x > 0.0)
            .map(|(v, &x)| (v as VertexId, x))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked.iter().map(|&(v, _)| v).collect()
    }

    #[test]
    fn converged_engine_yields_exact_answer_matching_oracle() {
        let mut e = engine(80, 4, 7);
        let mut t = TopKTracker::new(TopKConfig {
            k: 5,
            max_pivots: 8,
        });
        e.run_to_convergence(64);
        let frame = e.publish_snapshot();
        t.observe(&frame, e.graph(), &[]);
        let ans = t.answer(5).unwrap();
        assert!(ans.is_exact());
        assert_eq!(ans.ids(), oracle_top_k(e.graph(), 5));
        assert_eq!(ans.members, frame.snapshot.top_k(5));
        assert!(t.is_exact());
        assert!(t.resolution_step().is_some());
        // No bounds were built for the fresh frame, and the split is exact.
        assert!(t.pivots().is_empty());
        let (members, unresolved, pruned) = t.partition(5).unwrap();
        assert_eq!(members, ans.ids());
        assert!(unresolved.is_empty());
        let candidates = frame.snapshot.closeness.iter().filter(|&&c| c > 0.0);
        assert_eq!(members.len() + pruned.len(), candidates.count());
        assert_eq!(t.unresolved_candidates(), 0);
    }

    #[test]
    fn anytime_invariant_holds_every_superstep() {
        let mut e = engine(100, 5, 13);
        let mut t = TopKTracker::new(TopKConfig {
            k: 4,
            max_pivots: 8,
        });
        let truth = oracle_top_k(e.graph(), 4);
        for _ in 0..64 {
            let converged = e.rc_step();
            let frame = e.publish_snapshot();
            t.observe(&frame, e.graph(), &[]);
            let ans = t.answer(4).unwrap();
            // True top-k ⊆ members ∪ unresolved: every true member is
            // either reported or not yet pruned.
            let ids = ans.ids();
            let unresolved = match ans.confidence {
                Confidence::Exact => 0,
                Confidence::Anytime {
                    unresolved_candidates,
                    ..
                } => unresolved_candidates,
            };
            for &v in &truth {
                if !ids.contains(&v) {
                    assert!(
                        unresolved > 0,
                        "true member {v} missing with nothing unresolved"
                    );
                }
            }
            // Member scores are sound lower bounds.
            let exact = algo::exact_closeness(e.graph());
            if !ans.is_exact() {
                for &(v, score) in &ans.members {
                    assert!(
                        score <= exact[v as usize] + 1e-12,
                        "lb {score} above exact {} for {v}",
                        exact[v as usize]
                    );
                }
            }
            if converged {
                break;
            }
        }
        e.run_to_convergence(64);
        let frame = e.publish_snapshot();
        t.observe(&frame, e.graph(), &[]);
        assert_eq!(t.answer(4).unwrap().ids(), truth);
    }

    #[test]
    fn deletion_invalidates_and_tracker_recovers() {
        let mut e = engine(70, 4, 21);
        let mut t = TopKTracker::new(TopKConfig::default());
        e.run_to_convergence(64);
        let frame = e.publish_snapshot();
        t.observe(&frame, e.graph(), &[]);
        assert!(t.answer(8).unwrap().is_exact());

        let (u, v, _) = e.graph().edges().next().unwrap();
        assert!(e.delete_edge(u, v));
        let frame = e.publish_snapshot();
        assert_eq!(frame.meta.epoch, 1, "the deletion opened an epoch");
        t.observe(&frame, e.graph(), &[]);
        let mid = t.answer(8).unwrap();
        assert!(!mid.is_exact(), "post-deletion frame cannot be exact");

        e.run_to_convergence(64);
        let frame = e.publish_snapshot();
        t.observe(&frame, e.graph(), &[]);
        let ans = t.answer(8).unwrap();
        assert!(ans.is_exact());
        assert_eq!(ans.ids(), oracle_top_k(e.graph(), 8));
    }

    /// A vertex arrival moves rows all over the graph, under every
    /// strategy: the tracker, reading every row of each stale frame, stays
    /// sound at every step after it and ends exact.
    #[test]
    fn the_tracker_stays_sound_across_a_vertex_arrival() {
        use aa_core::{AdditionStrategy, Endpoint, VertexBatch};
        for strategy in [
            AdditionStrategy::RoundRobinPs,
            AdditionStrategy::CutEdgePs,
            AdditionStrategy::RepartitionS,
            AdditionStrategy::BaselineRestart,
        ] {
            let mut e = engine(90, 4, 17);
            let mut t = TopKTracker::new(TopKConfig {
                k: 4,
                max_pivots: 8,
            });
            e.run_to_convergence(64);
            t.observe(&e.publish_snapshot(), e.graph(), &[]);
            // Anchors far apart, so the arrival shortens many paths.
            let mut batch = VertexBatch::new(1);
            batch.connect(0, Endpoint::Existing(3), 1);
            batch.connect(0, Endpoint::Existing(88), 1);
            e.add_vertices(&batch, strategy);
            loop {
                let frame = e.publish_snapshot();
                t.observe(&frame, e.graph(), &[]);
                let truth = oracle_top_k(e.graph(), 4);
                let (members, unresolved, _) = t.partition(4).unwrap();
                for v in &truth {
                    let kept = members.contains(v) || unresolved.contains(v);
                    assert!(kept, "{strategy}: true member {v} pruned");
                }
                let ans = t.answer(4).unwrap();
                if ans.is_exact() {
                    assert_eq!(ans.ids(), truth, "{strategy}");
                }
                if frame.meta.converged {
                    assert!(ans.is_exact(), "{strategy}");
                    break;
                }
                e.rc_step();
            }
        }
    }

    #[test]
    fn pruning_bites_before_convergence_on_larger_graphs() {
        let mut e = engine(300, 6, 33);
        let mut t = TopKTracker::new(TopKConfig {
            k: 5,
            max_pivots: 24,
        });
        // Observe the very first published frame, before any rc_step.
        let frame = e.publish_snapshot();
        t.observe(&frame, e.graph(), &[]);
        let truth = oracle_top_k(e.graph(), 5);
        let mut peak = 0.0f64;
        for _ in 0..64 {
            let converged = e.rc_step();
            let frame = e.publish_snapshot();
            t.observe(&frame, e.graph(), &[]);
            peak = peak.max(t.pruned_fraction());
            // Pruned vertices never include true members.
            let ans = t.answer(5).unwrap();
            let unresolved = match ans.confidence {
                Confidence::Exact => 0,
                Confidence::Anytime {
                    unresolved_candidates,
                    ..
                } => unresolved_candidates,
            };
            for &v in &truth {
                assert!(
                    ans.ids().contains(&v) || unresolved > 0,
                    "true member {v} pruned"
                );
            }
            if converged {
                break;
            }
        }
        assert!(
            peak > 0.0,
            "bounds never pruned anyone on a 300-vertex graph"
        );
    }

    #[test]
    fn answer_serves_arbitrary_k_and_empty_graphs() {
        let g = Graph::with_vertices(3); // no edges: everyone has C = 0
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 2,
                ..Default::default()
            },
        );
        e.initialize();
        e.run_to_convergence(8);
        let mut t = TopKTracker::new(TopKConfig::default());
        assert!(t.answer(3).is_none(), "no observation yet");
        let frame = e.publish_snapshot();
        t.observe(&frame, e.graph(), &[]);
        let ans = t.answer(3).unwrap();
        assert!(ans.members.is_empty());
        assert!(ans.is_exact());
    }

    #[test]
    fn fresh_answers_are_the_full_sort_prefix_under_ties() {
        // A 4 x 4 grid: closeness ties in orbits of 4 (corners, centre) and
        // 8 (edges), so the id tie-break decides most of the order.
        let n = 16;
        let mut e = AnytimeEngine::new(
            generators::grid(4, 4),
            EngineConfig {
                num_procs: 3,
                ..Default::default()
            },
        );
        e.initialize();
        e.run_to_convergence(64);
        let frame = e.publish_snapshot();
        assert!(frame.meta.converged);
        let mut full: Vec<(VertexId, f64)> = frame
            .snapshot
            .closeness
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0.0)
            .map(|(v, &c)| (v as VertexId, c))
            .collect();
        full.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        assert!(full.windows(2).any(|w| w[0].1 == w[1].1), "no ties");
        let config = TopKConfig {
            k: 5,
            max_pivots: 8,
        };
        let mut t = TopKTracker::new(config);
        t.observe(&frame, e.graph(), &[]);
        // Ascending, so n and n + 5 each raise the tracked k and reselect;
        // config.k again at the end reads a prefix of the larger selection.
        for k in [0, 1, config.k, n, n + 5, config.k] {
            let ans = t.answer(k).unwrap();
            assert!(ans.is_exact());
            assert_eq!(ans.members, full[..k.min(full.len())], "k = {k}");
        }
        assert_eq!(t.config().k, n + 5);
    }

    #[test]
    fn observing_a_reused_frame_only_counts_the_observation() {
        let mut e = engine(60, 3, 5);
        let mut t = TopKTracker::new(TopKConfig::default());
        // Mid-run, so the frame is stale and its observation retightens
        // every row; observing it again retightens none.
        e.rc_step();
        let frame = e.publish_snapshot();
        t.observe(&frame, e.graph(), &[]);
        let before = t.metrics_registry();
        let answer = t.answer(8);
        let again = e.publish_snapshot();
        assert!(
            Arc::ptr_eq(&frame, &again),
            "an idle engine reuses its frame"
        );
        t.observe(&again, e.graph(), &[]);
        let after = t.metrics_registry();
        let rows = |r: &MetricsRegistry| r.counter_value("aa_topk_rows_updated_total", &[]);
        assert!(rows(&before) > 0);
        assert_eq!(rows(&after), rows(&before));
        assert_eq!(after.counter_value("aa_topk_observes_total", &[]), 2);
        assert_eq!(t.answer(8), answer);
    }

    #[test]
    fn metrics_export_families() {
        let mut e = engine(60, 3, 5);
        let mut t = TopKTracker::new(TopKConfig::default());
        e.run_to_convergence(64);
        let frame = e.publish_snapshot();
        t.observe(&frame, e.graph(), &[]);
        let r = t.metrics_registry();
        assert_eq!(r.counter_value("aa_topk_observes_total", &[]), 1);
        // The only frame is fresh: it answers from its own snapshot, so no
        // bounds are built and there are no pivots.
        assert_eq!(r.counter_value("aa_topk_rebuilds_total", &[]), 0);
        assert_eq!(r.gauge_value("aa_topk_pivots", &[]), Some(0.0));
        assert_eq!(r.gauge_value("aa_topk_exact", &[]), Some(1.0));
        assert_eq!(
            r.gauge_value("aa_topk_unresolved_candidates", &[]),
            Some(0.0)
        );
        assert!(r.gauge_value("aa_topk_pruned_fraction", &[]).is_some());
    }
}
