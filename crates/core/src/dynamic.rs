//! Dynamic graph updates: the "anywhere" half of the methodology.
//!
//! * **Edge additions** follow the papers' algorithm (Fig. 3 of the vertex-
//!   additions paper, originally from the edge-additions paper): the distance
//!   vectors of both endpoints are tree-broadcast, every processor applies the
//!   relaxation `D[x][t] > D[x][u] + w + D[v][t]` to its local rows, and
//!   subsequent recombination steps propagate the improvements. A settled
//!   engine needs none of them for one vertex, or for edges relaxed one at
//!   a time: a new shortest path uses each at most once, so each
//!   relaxation is already the new APSP (`AnytimeEngine::end_update`).
//! * **Edge deletions** (the titled paper's contribution) invalidate the
//!   entries the deleted edge *solely* supports — a shortest path runs over
//!   it and no tied detour keeps the distance — and repair them exactly from
//!   the entries that were kept and the edges of the invalidated columns,
//!   which a rank fetches from their owners where it does not own them.
//!   Deletions are applied at a *quiesced* point: if the engine has pending
//!   updates it first converges, so the equality-based support test and its
//!   tie check are exact (see `DESIGN.md`), and the deletion ends exact,
//!   owing recombination nothing.
//! * **Vertex additions** extend every distance vector with new columns, add
//!   an owner row, and then run the batch's edges through the edge-addition
//!   kernel. The owning processor is chosen by an [`crate::AdditionStrategy`].
//!   Growth is the paper's amortized analysis with ratio `1 + 1/16` in place
//!   of 2 (`dv.rs`): a row of `n` columns keeps fewer than `n/16 + 64` spare
//!   ones and is copied once per at least `n/16` arrivals.
//! * **Vertex deletions** — the papers' named future work — remove the vertex
//!   and invalidate every pair whose path ran through it.

#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::dv::{ColumnSet, Row, RowBuf};
use crate::engine::AnytimeEngine;
use crate::obs::InvalidationTally;
use crate::proc_state::ProcState;
use aa_graph::search::Search;
use aa_graph::{VertexId, Weight, INF};
use aa_logp::Phase;
use aa_obs::Stopwatch;
use aa_partition::partition::UNASSIGNED;
use aa_runtime::TransferOut;
use std::collections::BTreeMap;

/// What phase 1 of a deletion raised on one rank: each owned row with its
/// raised columns, ascending, in row order.
type Raised = Vec<(VertexId, Vec<usize>)>;

/// What phase 2 fetched for one rank: each raised column it does not own,
/// with that column's edges as its owner holds them, ascending in column.
type Fetched = Vec<(VertexId, Vec<(VertexId, Weight)>)>;

/// A vertex's edges: `(neighbour, weight)`.
type Edges<'a> = &'a [(VertexId, Weight)];

/// An endpoint of a batch edge: either another new vertex (by batch index) or
/// an existing vertex (by id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Index into the batch's new vertices.
    New(usize),
    /// An existing vertex id.
    Existing(VertexId),
}

/// A batch of vertices to add, with the edges they bring along. This is the
/// unit the processor-assignment strategies operate on (the papers extract
/// such batches from a larger graph with Louvain).
#[derive(Debug, Clone, Default)]
pub struct VertexBatch {
    /// Number of new vertices (batch indices `0..count`).
    pub count: usize,
    /// Edges: `(new vertex index, other endpoint, weight)`.
    pub edges: Vec<(usize, Endpoint, Weight)>,
}

impl VertexBatch {
    /// Creates an empty batch of `count` vertices.
    pub fn new(count: usize) -> Self {
        VertexBatch {
            count,
            edges: Vec::new(),
        }
    }

    /// Adds an edge from new vertex `i` to `other`.
    pub fn connect(&mut self, i: usize, other: Endpoint, w: Weight) -> &mut Self {
        self.edges.push((i, other, w));
        self
    }

    /// Validates indices against the batch size and an existing-graph
    /// capacity.
    pub fn validate(&self, existing_capacity: usize) -> Result<(), String> {
        for &(i, other, w) in &self.edges {
            if i >= self.count {
                return Err(format!(
                    "edge references new vertex {i} >= count {}",
                    self.count
                ));
            }
            if w == INF {
                return Err("edge weight must be finite".into());
            }
            match other {
                Endpoint::New(j) if j >= self.count => {
                    return Err(format!(
                        "edge references new vertex {j} >= count {}",
                        self.count
                    ));
                }
                Endpoint::New(j) if j == i => return Err(format!("self-loop on new vertex {i}")),
                Endpoint::Existing(v) if (v as usize) >= existing_capacity => {
                    return Err(format!("edge references unknown existing vertex {v}"));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl AnytimeEngine {
    /// Dynamically adds edge `(u, v, w)` during the analysis. Returns `false`
    /// if the edge already exists. The change is incorporated immediately
    /// (endpoint-row broadcast + relaxation) and fully propagated by
    /// subsequent recombination steps — on a settled engine by that
    /// relaxation alone ([`Self::end_update`]).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> bool {
        assert!(self.initialized, "call initialize() first");
        let exact = self.is_settled();
        if !self.world.add_edge(u, v, w) {
            return false;
        }
        let span = self.span_open();
        self.obs.note_mutation();
        self.view_add_edge(u, v, w);
        self.relax_through_edges(&[u, v], &[(u, v, w)], exact);
        self.converged = false;
        self.span_close(span, "dynamic-update", format!("add-edge {u}-{v}"));
        self.end_update(exact);
        true
    }

    /// Whether every row is the exact APSP of the current graph and no rank
    /// owes anything: the last recombination step reported convergence, or
    /// the last update ended exact ([`Self::end_update`]), and since then no
    /// rank has put a row on its frontier or marked one to send. The
    /// `converged` flag alone does not say it: a freshly restored checkpoint
    /// reports converged while every row is marked dirty, so the first
    /// recombination steps re-exchange boundary state.
    pub(crate) fn is_settled(&self) -> bool {
        (self.converged || self.exact) && self.procs.iter().all(ProcState::is_quiescent)
    }

    /// Ends an update, and records whether it left every row `exact`: a
    /// chain of new edges or lighter ones on a settled engine
    /// ([`Self::is_settled`]), each of which a new shortest path uses at
    /// most once, one new vertex there, or any deletion, which the barrier
    /// settles first and the repair ends exact. Every rank then owes
    /// nothing, as exact rows obey the triangle inequality over every edge —
    /// unless a rank withheld a distance its rows could not hold, and the
    /// rows widen instead ([`Self::widen_after_overflow`]). Call it last.
    /// `converged` stays false: the next recombination step runs empty and
    /// says so, and until then the engine is settled all the same.
    pub(crate) fn end_update(&mut self, exact: bool) {
        let widened = self.widen_after_overflow();
        self.exact = exact && !widened;
        if self.exact {
            self.procs.iter_mut().for_each(ProcState::owe_nothing);
            self.obs.settled_updates += 1;
        }
    }

    /// Records a new world edge in the views of its endpoints' owners.
    pub(crate) fn view_add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        let owners = [self.owner_of(u), self.owner_of(v)];
        let views = self.procs.iter_mut().filter(|ps| owners.contains(&ps.rank));
        views.for_each(|ps| ps.view_add_edge(u, v, w));
    }

    /// Tree-broadcasts the rows of `endpoints` from their owners and returns
    /// them, both in the order given: it feeds the virtual clocks. Where
    /// `adjacency` is parallel to `endpoints`, each row travels with its
    /// vertex's edges, 8 B each.
    fn broadcast_rows(
        &mut self,
        endpoints: &[VertexId],
        adjacency: &[Vec<(VertexId, Weight)>],
    ) -> Vec<RowBuf> {
        let broadcast = endpoints.iter().enumerate().map(|(i, &e)| {
            let owner = self.owner_of(e);
            let row = self.procs.get(owner).map(|ps| ps.dv.row(e).to_buf());
            let row = row.unwrap_or_default();
            let edges = adjacency.get(i).map_or(0, Vec::len);
            let bytes = 4 + 4 * row.as_row().len() + 8 * edges;
            self.cluster
                .broadcast_cost(Phase::DynamicUpdate, owner, bytes);
            row
        });
        broadcast.collect()
    }

    /// The edge-addition relaxation kernel, for `edges` already in the world
    /// and the views: broadcast the row of each of their distinct
    /// `endpoints` once; every processor relaxes every owned row through
    /// every edge — the owners learn the direct edge here too: `D[u][u] = 0`
    /// — then, unless that was `exact` ([`Self::end_update`]) and they
    /// would lower nothing, the local neighbours of each endpoint it borders
    /// through that endpoint's row, and propagates locally.
    ///
    /// An `exact` call names one edge, on a settled engine, and relaxes
    /// only its candidate columns ([`relax_row_on_candidates`]): the two
    /// broadcast rows give every rank, at no extra byte, the columns where
    /// either endpoint's distance falls through the other.
    #[expect(
        clippy::indexing_slicing,
        reason = "processor ranks come from owner_of or enumerate procs, which has one entry per rank from initialize; vertex ids are below world capacity"
    )]
    fn relax_through_edges(
        &mut self,
        endpoints: &[VertexId],
        edges: &[(VertexId, VertexId, Weight)],
        exact: bool,
    ) {
        debug_assert!(!exact || edges.len() == 1, "an exact call names one edge");
        let rows = self.broadcast_rows(endpoints, &[]);
        let via = of_edges(edges, endpoints, &rows, RowBuf::as_row);
        let narrow = exact;
        #[cfg(test)]
        let narrow = narrow && !reference::is_whole_row();
        let candidates: Vec<_> = (via.iter().zip(edges))
            .map(|(&(row_u, row_v), &(_, _, w))| {
                let lowered = |row, via| ColumnSet::lowered(row, via, w);
                narrow.then(|| (lowered(row_u, row_v), lowered(row_v, row_u)))
            })
            .collect();
        for rank in 0..self.procs.len() {
            let t = Stopwatch::start();
            let ps = &mut self.procs[rank];
            for x in ps.dv.vertices().to_vec() {
                let mut changed = false;
                for ((&edge, &rows), sets) in edges.iter().zip(&via).zip(&candidates) {
                    changed |= match sets {
                        Some(sets) => relax_row_on_candidates(ps, x, edge.2, rows, sets),
                        None => relax_row_through_edge(ps, x, edge, rows),
                    };
                }
                if changed {
                    ps.dirty.insert(x);
                }
            }
            if !exact {
                for (&e, row) in endpoints.iter().zip(&rows) {
                    ps.relax_through_external(e, row.as_row());
                }
                ps.propagate();
            }
            self.cluster
                .compute_measured(rank, Phase::DynamicUpdate, t.elapsed());
        }
    }

    /// Adds a batch of edges at once — the edge-additions paper's "new
    /// relationship formations" arrive in batches. Returns the number of
    /// edges actually inserted (duplicates and self-loops are skipped).
    ///
    /// On a settled engine the batch is a chain of single insertions: each
    /// inserted edge in turn broadcasts its endpoint rows as the edges
    /// before it left them and relaxes every row through itself alone. One
    /// new edge on exact rows leaves them exact, as a new shortest path uses
    /// it at most once, so every link starts from exact rows and the batch
    /// ends exact ([`Self::end_update`]). Elsewhere each distinct endpoint's
    /// row is broadcast once, every processor applies all relaxations in one
    /// sweep, local propagation runs once at the end, and recombination
    /// completes the rest: a new shortest path may use several new edges,
    /// which rows read before any of them cannot tell.
    pub fn add_edges(&mut self, edges: &[(VertexId, VertexId, Weight)]) -> usize {
        assert!(self.initialized, "call initialize() first");
        let settled = self.is_settled();
        let mut inserted: Vec<(VertexId, VertexId, Weight)> = Vec::with_capacity(edges.len());
        for &(u, v, w) in edges {
            if self.world.add_edge(u, v, w) {
                self.view_add_edge(u, v, w);
                inserted.push((u, v, w));
            }
        }
        if inserted.is_empty() {
            return 0;
        }
        let span = self.span_open();
        self.obs.note_mutation();
        if settled {
            for &(u, v, w) in &inserted {
                self.relax_through_edges(&[u, v], &[(u, v, w)], true);
            }
        } else {
            self.relax_through_edges(&distinct_endpoints(&inserted), &inserted, false);
        }
        self.converged = false;
        self.span_close(
            span,
            "dynamic-update",
            format!("add-edges n={}", inserted.len()),
        );
        self.end_update(settled);
        inserted.len()
    }

    /// Deletion barrier, and the preamble every structural deletion shares:
    /// bring the engine to a settled fixed point ([`Self::is_settled`]),
    /// then open the update's span, note the mutation and start a new
    /// invalidation epoch. The support test and its row filter are only
    /// exact there.
    fn deletion_barrier(&mut self) -> crate::obs::SpanStart {
        if !self.is_settled() {
            let steps = self.run_to_convergence(self.deletion_barrier_budget());
            self.obs.barrier_steps += steps as u64;
            assert!(self.converged, "deletion barrier failed to converge");
        }
        let span = self.span_open();
        self.obs.note_mutation();
        // Deletion can make pre-deletion rows underestimates.
        self.invalidation_epoch += 1;
        span
    }

    /// Recombination steps the deletion barrier runs at most before it gives
    /// up on reaching a fixed point: `64·P + 256`.
    pub(crate) fn deletion_barrier_budget(&self) -> usize {
        64 * self.procs.len() + 256
    }

    /// Deletes a batch of edges at once: one deletion barrier, one broadcast
    /// per distinct endpoint, one sole-support exchange, one combined
    /// invalidation sweep (a pair is invalidated if *any* deleted edge
    /// solely supports its current value), one fetch of the invalidated
    /// columns' edges, one exact repair. An edge named twice, in either
    /// orientation, counts once. Returns the number of edges actually
    /// removed.
    pub fn delete_edges(&mut self, edges: &[(VertexId, VertexId)]) -> usize {
        assert!(self.initialized, "call initialize() first");
        let present = edges.iter().filter_map(|&(u, v)| {
            let w = self.world.edge_weight(u, v)?;
            Some((u.min(v), u.max(v), w))
        });
        let mut present: Vec<(VertexId, VertexId, Weight)> = present.collect();
        present.sort_unstable();
        present.dedup();
        if present.is_empty() {
            return 0;
        }
        let span = self.deletion_barrier();
        for &(u, v, _) in &present {
            self.world.remove_edge(u, v);
        }
        // Pre-deletion rows of every distinct endpoint (exact: converged),
        // each with the endpoint's surviving edges, and from them each
        // edge's candidate columns, once for all ranks.
        let endpoints = distinct_endpoints(&present);
        let adjacency: Vec<_> = (endpoints.iter())
            .map(|&e| self.world.neighbors(e).to_vec())
            .collect();
        let rows = self.broadcast_rows(&endpoints, &adjacency);
        let via = of_edges(&present, &endpoints, &rows, RowBuf::as_row);
        let adj = of_edges(&present, &endpoints, &adjacency, Vec::as_slice);
        let mut deleted: Vec<DeletedEdge> = (present.iter().zip(via).zip(adj))
            .map(|((&edge, rows), adj)| DeletedEdge::new(edge, rows, adj))
            .collect();
        self.keep_sole_support(&mut deleted);
        let mut tested = 0u64;
        let views = |ps: &mut ProcState| {
            for &(u, v, _) in &present {
                ps.view_remove_edge(u, v);
            }
        };
        self.invalidate_and_repair(views, |row, x| {
            let mut targets = Vec::new();
            for edge in &deleted {
                tested += edge.affected_targets(row, x, &mut targets);
            }
            // Ascending, each once, whichever edges and directions
            // contributed.
            targets.sort_unstable();
            targets.dedup();
            targets
        });
        self.forget_unbordered(endpoints);
        self.obs.candidate_columns += tested;
        self.converged = false;
        let n = present.len();
        self.span_close(span, "dynamic-update", format!("delete-edges n={n}"));
        self.end_update(true);
        n
    }

    /// [`Self::delete_edges`] for one edge; `false` if the edge is absent.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.delete_edges(&[(u, v)]) == 1
    }

    /// Changes the weight of edge `(u, v)`. Decreases are incorporated like
    /// additions (pure relaxation, exact at once on a settled engine);
    /// increases as a deletion (exact at once, with the deletion barrier)
    /// and a re-add at the new weight, which recombination completes.
    /// Returns `false` if the edge is absent or the weight unchanged.
    #[expect(
        clippy::indexing_slicing,
        reason = "processor ranks come from owner_of or enumerate procs, which has one entry per rank from initialize; vertex ids are below world capacity"
    )]
    pub fn change_edge_weight(&mut self, u: VertexId, v: VertexId, new_w: Weight) -> bool {
        assert!(self.initialized, "call initialize() first");
        assert!(new_w != INF, "weight must be finite");
        let Some(old_w) = self.world.edge_weight(u, v) else {
            return false;
        };
        if old_w == new_w {
            return false;
        }
        if new_w < old_w {
            let exact = self.is_settled();
            let span = self.span_open();
            self.obs.note_mutation();
            self.world.set_edge_weight(u, v, new_w);
            for rank in 0..self.procs.len() {
                self.procs[rank].view_remove_edge(u, v);
                self.procs[rank].view_add_edge(u, v, new_w);
            }
            self.relax_through_edges(&[u, v], &[(u, v, new_w)], exact);
            self.converged = false;
            self.span_close(span, "dynamic-update", format!("decrease-weight {u}-{v}"));
            self.end_update(exact);
            return true;
        }
        // Increase: invalidate paths supported at the old weight, then make
        // the new weight known.
        let deleted = self.delete_edge(u, v);
        debug_assert!(deleted);
        let added = self.add_edge(u, v, new_w);
        debug_assert!(added);
        true
    }

    /// Dynamically deletes vertex `v` and all its incident edges (the papers'
    /// named future work). Applies the deletion barrier, invalidates every
    /// pair whose path ran through `v`, and repairs them like an edge
    /// deletion does. Returns the removed incident edges.
    #[expect(
        clippy::indexing_slicing,
        reason = "processor ranks come from owner_of or enumerate procs, which has one entry per rank from initialize; vertex ids are below world capacity"
    )]
    pub fn delete_vertex(&mut self, v: VertexId) -> Vec<(VertexId, Weight)> {
        assert!(self.initialized, "call initialize() first");
        assert!(self.world.is_alive(v), "vertex {v} is not alive");
        let span = self.deletion_barrier();
        let row_v = self.broadcast_rows(&[v], &[]).swap_remove(0);
        let row_v = row_v.as_row();

        let removed = self.world.remove_vertex(v);
        // Nobody owns `v` now: no rank asks for its edges.
        self.partition.assignment[v as usize] = UNASSIGNED;
        let views = |ps: &mut ProcState| {
            for &(x, _) in &removed {
                ps.view_remove_edge(v, x);
            }
            if ps.dv.has_row(v) {
                ps.dv.take_row(v);
                ps.dirty.remove(&v);
                ps.forget_receivers(v);
            }
            ps.is_local[v as usize] = false;
        };
        self.invalidate_and_repair(views, |row, x| affected_by_vertex(row, x, v, row_v));
        // The ranks that bordered a neighbour of `v` only through `v`.
        self.forget_unbordered(removed.iter().map(|&(x, _)| x));
        self.converged = false;
        self.span_close(span, "dynamic-update", format!("delete-vertex {v}"));
        self.end_update(true);
        removed
    }

    /// The sole-support phase of an edge deletion: every rank decides, for
    /// each candidate column it owns, whether the edge solely supports it
    /// ([`sole_members`], on the rank's exact rows); one `DynamicUpdate`
    /// exchange all-gathers the decisions, each rank's as a bitset over its
    /// owned candidates or a list of the sole ones' positions among them (a
    /// 4 B count, 4 B each), whichever is shorter; and each edge keeps the
    /// candidates no detour keeps.
    fn keep_sole_support(&mut self, deleted: &mut [DeletedEdge<'_>]) {
        let batch: &[DeletedEdge] = deleted;
        let decide = |_, ps: &mut ProcState, ()| {
            let dv = &ps.dv;
            sole_members(batch, move |t| dv.has_row(t).then(|| dv.row(t)))
        };
        let p = self.procs.len();
        let ranks = vec![(); p];
        let decisions =
            (self.cluster).run_on_ranks(Phase::DynamicUpdate, &mut self.procs, ranks, decide);
        let (mut sends, mut sole) = (Vec::with_capacity(p), Vec::new());
        for (src, (members, decided)) in decisions.into_iter().enumerate() {
            let bytes = (4 + 4 * members.len()).min(decided.div_ceil(8));
            let to = (0..p).filter(|&dst| dst != src && decided > 0);
            sends.push(
                to.map(|dst| TransferOut {
                    dst,
                    bytes,
                    payload: (),
                })
                .collect(),
            );
            sole.extend(members);
        }
        self.cluster.exchange(Phase::DynamicUpdate, sends);
        sole.sort_unstable();
        retain_sole(deleted, &sole);
    }

    /// What every deletion does, in three phases at a cost that follows the
    /// affected set: every rank takes the deletion into its view (`views`)
    /// and raises, in each owned row `x`, the entries `affected(row, x)`
    /// names; one exchange fetches the edges of the raised columns a rank
    /// does not own ([`Self::fetch_column_edges`]), since a rank's view holds
    /// only the edges of its own vertices; and every rank repairs the raised
    /// columns exactly ([`repair`]).
    fn invalidate_and_repair<F>(&mut self, views: impl Fn(&mut ProcState), mut affected: F)
    where
        F: FnMut(Row<'_>, VertexId) -> Vec<usize>,
    {
        let mut raised = Vec::with_capacity(self.procs.len());
        for (rank, ps) in self.procs.iter_mut().enumerate() {
            let t = Stopwatch::start();
            views(ps);
            raised.push(raise(ps, &mut self.obs.invalidation, &mut affected));
            self.cluster
                .compute_measured(rank, Phase::DynamicUpdate, t.elapsed());
        }
        let fetched = self.fetch_column_edges(&raised);
        let work = raised.into_iter().zip(fetched).collect();
        let repair = |_, ps: &mut ProcState, (raised, fetched)| repair(ps, raised, &fetched);
        self.cluster
            .run_on_ranks(Phase::DynamicUpdate, &mut self.procs, work, repair);
    }

    /// Phase 2 of a deletion, one `DynamicUpdate` exchange there and back:
    /// each rank asks the owner of every raised column it does not own for
    /// that column's edges, and the owner answers from its view, where the
    /// deletion is applied already. Topology does not change during the
    /// repair, so one round is all it takes. An ask is the columns as a list
    /// (a 4 B count, 4 B each) or a bitset, whichever is shorter; an answer,
    /// per column asked and in the order asked, a 4 B degree and 8 B per edge.
    fn fetch_column_edges(&mut self, raised: &[Raised]) -> Vec<Fetched> {
        let (cols, partition) = (self.world.capacity(), &self.partition);
        let ask = |_, ps: &mut ProcState, rows: &Raised| {
            let remote = |&&t: &&usize| ps.is_local.get(t) == Some(&false);
            let columns = rows
                .iter()
                .flat_map(|(_, targets)| targets.iter().filter(remote));
            let mut columns: Vec<usize> = columns.copied().collect();
            columns.sort_unstable();
            columns.dedup();
            let mut wanted: BTreeMap<usize, Vec<VertexId>> = BTreeMap::new();
            for t in columns
                .into_iter()
                .filter_map(|t| VertexId::try_from(t).ok())
            {
                if let Some(owner) = partition.part_of(t) {
                    wanted.entry(owner).or_default().push(t);
                }
            }
            let asks = wanted.into_iter().map(|(dst, columns)| TransferOut {
                dst,
                bytes: (4 + 4 * columns.len()).min(cols.div_ceil(8)),
                payload: columns,
            });
            asks.collect::<Vec<_>>()
        };
        let rows = raised.iter().collect();
        let asks = self
            .cluster
            .run_on_ranks(Phase::DynamicUpdate, &mut self.procs, rows, ask);
        let asked = self.cluster.exchange(Phase::DynamicUpdate, asks);
        let answer = |_, ps: &mut ProcState, asked: Vec<(usize, Vec<VertexId>)>| {
            let answers = asked.into_iter().map(|(dst, columns)| {
                let edges = |t: VertexId| ps.adj.get(t as usize).cloned().unwrap_or_default();
                let payload: Fetched = columns.into_iter().map(|t| (t, edges(t))).collect();
                let bytes = payload.iter().map(|(_, edges)| 4 + 8 * edges.len()).sum();
                TransferOut {
                    dst,
                    bytes,
                    payload,
                }
            });
            answers.collect::<Vec<_>>()
        };
        let answers =
            self.cluster
                .run_on_ranks(Phase::DynamicUpdate, &mut self.procs, asked, answer);
        let fetched = self.cluster.exchange(Phase::DynamicUpdate, answers);
        let sorted = fetched.into_iter().map(|inbox| {
            let mut fetched: Fetched = inbox.into_iter().flat_map(|(_, answer)| answer).collect();
            fetched.sort_unstable_by_key(|&(t, _)| t);
            fetched
        });
        sorted.collect()
    }
}

/// The distinct endpoints of `edges`, in ascending order.
fn distinct_endpoints(edges: &[(VertexId, VertexId, Weight)]) -> Vec<VertexId> {
    let mut endpoints: Vec<VertexId> = edges.iter().flat_map(|&(u, v, _)| [u, v]).collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    endpoints
}

/// What `items` holds for each edge's two endpoints, read through `read`,
/// where `items` is parallel to `endpoints` and every endpoint of `edges` is
/// among them.
fn of_edges<'a, T, R: Default>(
    edges: &[(VertexId, VertexId, Weight)],
    endpoints: &[VertexId],
    items: &'a [T],
    read: impl Fn(&'a T) -> R,
) -> Vec<(R, R)> {
    let item_of = |x: VertexId| {
        let found = endpoints.iter().zip(items).find(|&(&e, _)| e == x);
        found.map(|(_, item)| read(item)).unwrap_or_default()
    };
    let pairs = edges.iter().map(|&(u, v, _)| (item_of(u), item_of(v)));
    pairs.collect()
}

/// Relaxes owned row `x` through the new edge `(u, v, w)`, given both
/// endpoint rows. Level filter (Sarıyüce et al.): going `x → u → v` can only
/// lower an entry if it lowers `d(x, v)` itself, so a row with
/// `d(x,u) + w >= d(x,v)` skips that direction — exact when the rows obey
/// the triangle inequality, and mid-run it only withholds a shortcut that
/// the endpoint rows, relaxed unconditionally and on the frontier, deliver.
fn relax_row_through_edge(
    ps: &mut ProcState,
    x: VertexId,
    (u, v, w): (VertexId, VertexId, Weight),
    (row_u, row_v): (Row<'_>, Row<'_>),
) -> bool {
    let row = ps.dv.row(x);
    let (Some(a), Some(b)) = (row.get(u as usize), row.get(v as usize)) else {
        return false;
    };
    let (via_u, via_v) = (a.saturating_add(w), b.saturating_add(w));
    let endpoint = x == u || x == v;
    let mut changed = false;
    if a != INF && (endpoint || via_u < b) {
        changed |= ps.dv.relax_with_external(x, row_v, via_u);
    }
    if b != INF && (endpoint || via_v < a) {
        changed |= ps.dv.relax_with_external(x, row_u, via_v);
    }
    changed
}

/// Relaxes owned row `x` through a new edge of weight `w` on a settled
/// engine, on the edge's **candidate columns** only: `A_uv = {t : w +
/// row_v[t] < row_u[t]}`, where `d(u,t)` falls through `v`, and its mirror
/// `A_vu`, both [`ColumnSet::lowered`] off the endpoint rows. Row `x`
/// relaxes through `row_v` at `row_u[x] + w` on `A_uv`, and only if `x ∈
/// A_vu`; the other way round is the mirror. That is exact on exact rows:
/// if `d(x,t)` falls, its new shortest path runs over the edge once, say
/// `x → u → v → t`, and then `w + d(v,t) < d(u,t)`, as `d(x,t) ≤ d(x,u) +
/// d(u,t)` held before, and `d(x,u) + w < d(x,v)`, as `d(x,t) ≤ d(x,v) +
/// d(v,t)` did: `t ∈ A_uv`, `x ∈ A_vu`. With `w ≥ 1`, `x` lies in at most
/// one of the two; on an undirected graph `row_u[x]` is `d(x,u)`.
fn relax_row_on_candidates(
    ps: &mut ProcState,
    x: VertexId,
    w: Weight,
    (row_u, row_v): (Row<'_>, Row<'_>),
    (beyond_v, beyond_u): &(ColumnSet, ColumnSet),
) -> bool {
    let (col, dv) = (x as usize, &mut ps.dv);
    let offset = |row: Row<'_>| row.get(col).map_or(INF, |d| d.saturating_add(w));
    if beyond_u.contains(col) {
        return dv.relax_with_external_on(x, row_v, offset(row_u), beyond_v);
    }
    if beyond_v.contains(col) {
        return dv.relax_with_external_on(x, row_u, offset(row_v), beyond_u);
    }
    false
}

/// A deleted edge `(u, v, w)` with the pre-deletion rows of its endpoints
/// and, per direction, its **candidate columns**: the only entries any row
/// can lose to the deletion.
///
/// On exact rows, `d(x,t) = d(x,u) + w + d(v,t)` — `x` reaches `t` over
/// `u → v` — implies `d(u,t) = w + d(v,t)`, because sub-paths of shortest
/// paths are shortest. So whatever `x` is, `t` lies in `B_uv = {t : row_u[t]
/// = w + row_v[t]}`, which the two broadcast rows give every rank once per
/// edge; and on those columns the threshold `d(x,u) + w + d(v,t)` reads
/// `d(x,u) + row_u[t]`, kept beside the column.
///
/// **Sole support** narrows `B_uv` to `S_uv`, the columns where `d(u,t)` can
/// grow: [`retain_sole`] drops every `t` that has a detour, a surviving
/// neighbour `y` of `u` with `w(u,y) + d(y,t) = d(u,t)` and no shortest
/// `y → t` path over an edge of the batch ([`has_detour`]). A row `x` is
/// held to the far side's set as well, `x ∈ S_vu`. Why that keeps every
/// entry that can grow: if `d(x,t)` grows, take a shortest `x → t` path and
/// its first deleted edge `u → v`. The prefix `x → u` survives, so had
/// `d(u,t)` kept its value, so would `d(x,t)`: `t ∈ S_uv`. Should `x` have a
/// detour at `v`, replace the prefix up to `v` by it: that is a shortest
/// path whose first deleted edge lies farther on. The detour avoids every
/// edge of the batch, so the walk ends at an edge that passes both sides.
struct DeletedEdge<'a> {
    edge: (VertexId, VertexId, Weight),
    /// `(row_u, row_v)`. Exact at the barrier, on an undirected graph they
    /// also give each row `x` its distances to the endpoints: `d(x,u) = row_u[x]`.
    rows: (Row<'a>, Row<'a>),
    /// The edges `u` and `v` keep once the batch is gone.
    adj: (Edges<'a>, Edges<'a>),
    /// `S_uv` as `(t, row_u[t])`, ascending in `t` (`B_uv` until
    /// [`retain_sole`]).
    beyond_v: Vec<(u32, Weight)>,
    /// `S_vu` as `(t, row_v[t])`, ascending in `t`.
    beyond_u: Vec<(u32, Weight)>,
}

impl<'a> DeletedEdge<'a> {
    /// `B_uv` is where `row_u[t] ≥ w + row_v[t]`: on exact rows `row_u[t] ≤
    /// w + row_v[t]` by the edge, so that is equality. Read at the rows'
    /// stored width.
    fn new(
        edge: (VertexId, VertexId, Weight),
        rows: (Row<'a>, Row<'a>),
        adj: (Edges<'a>, Edges<'a>),
    ) -> Self {
        let w = edge.2;
        DeletedEdge {
            edge,
            rows,
            adj,
            beyond_v: rows.0.at_least(rows.1, w),
            beyond_u: rows.1.at_least(rows.0, w),
        }
    }

    /// Whether some shortest `y → t` path, `d(y,t)` long, runs over the edge
    /// in either direction.
    fn carries(&self, y: VertexId, t: u32, d: Weight) -> bool {
        let ((row_u, row_v), w) = (self.rows, self.edge.2);
        let at = |r: Row, c: u32| r.get(c as usize).unwrap_or(INF);
        let over = |a: Row, b: Row| at(a, y).saturating_add(w).saturating_add(at(b, t));
        d >= over(row_u, row_v).min(over(row_v, row_u))
    }

    /// Appends to `out` the targets of row `x` (owner vertex `x`) the
    /// deletion invalidates — entries of the direction's sole-support set
    /// whose value is ≥ the best path through the edge that way; `t == x`
    /// is never affected (`d(x,x) = 0 < w ≥ 1`) — and returns how many
    /// candidate entries it tested.
    ///
    /// Tightness filter: a direction can only find something if the edge is
    /// tight for `x` that way, `d(x,u) + w = d(x,v)`. Otherwise `d(x,u) + w >
    /// d(x,v)`, so `d(x,u) + w + d(v,t) > d(x,v) + d(v,t) >= d(x,t)` for
    /// every `t` by the triangle inequality: two lookups into the endpoint
    /// rows say so, and `row` is not read. With `w ≥ 1` at most one direction
    /// is tight. The row side, `x ∈ S_vu`, is one binary search.
    fn affected_targets(&self, row: Row<'_>, x: VertexId, out: &mut Vec<usize>) -> u64 {
        let (row_u, row_v) = self.rows;
        #[cfg(test)]
        if reference::is_whole_row() {
            out.extend(reference::affected_targets_edge(row, x, self));
            return 0;
        }
        let at = |r: Row| r.get(x as usize).unwrap_or(INF);
        let (du, dv, w) = (at(row_u), at(row_v), self.edge.2);
        #[cfg(test)]
        reference::assert_row_agrees(row, x, &[(self.edge.0, du), (self.edge.1, dv)]);
        // The row side: `x` must lie in the far side's set.
        let row_side = |back: &[(u32, Weight)]| back.binary_search_by_key(&x, |&(t, _)| t).is_ok();
        let mut tested = 0;
        let sides = [
            (du, dv, &self.beyond_v, &self.beyond_u),
            (dv, du, &self.beyond_u, &self.beyond_v),
        ];
        for (near, far, beyond, back) in sides {
            if near == INF || near.saturating_add(w) > far || !row_side(back) {
                continue;
            }
            tested += beyond.len() as u64;
            for &(t, through) in beyond {
                let reset = |d: Weight| d != INF && d >= near.saturating_add(through);
                if t != x && row.get(t as usize).is_some_and(reset) {
                    out.push(t as usize);
                }
            }
        }
        tested
    }
}

/// Whether `near` keeps `d(near,t) = d` once the batch is gone: some
/// surviving neighbour `y` of `near` has `w(near,y) + d(y,t) = d` and no
/// shortest `y → t` path runs over an edge of the batch. `row_t` is `t`'s
/// exact row, so `d(y,t) = row_t[y]`; the deleted edge's far end is no
/// surviving neighbour. The scan stops at the first such `y`.
fn has_detour(
    batch: &[DeletedEdge<'_>],
    near_adj: Edges<'_>,
    row_t: Row<'_>,
    (t, d): (u32, Weight),
) -> bool {
    near_adj.iter().any(|&(y, w)| {
        let to_t = row_t.get(y as usize).unwrap_or(INF);
        let ties = to_t != INF && w.saturating_add(to_t) == d;
        ties && !batch.iter().any(|e| e.carries(y, t, to_t))
    })
}

/// One rank's sole-support decisions: `(side, t)` for each candidate column
/// `t` that `row_of` gives a row for and that has no detour, where `side` is
/// `2i` for edge `i`'s `u → v` and `2i + 1` for its `v → u`; and how many
/// candidates it decided.
fn sole_members<'r>(
    batch: &[DeletedEdge<'_>],
    row_of: impl Fn(u32) -> Option<Row<'r>>,
) -> (Vec<(usize, u32)>, usize) {
    let (mut sole, mut decided) = (Vec::new(), 0);
    let sides = batch
        .iter()
        .flat_map(|e| [(e.adj.0, &e.beyond_v), (e.adj.1, &e.beyond_u)]);
    for (side, (near_adj, beyond)) in sides.enumerate() {
        for &(t, d) in beyond {
            let Some(row_t) = row_of(t) else {
                continue;
            };
            decided += 1;
            if !has_detour(batch, near_adj, row_t, (t, d)) {
                sole.push((side, t));
            }
        }
    }
    (sole, decided)
}

/// Narrows each edge's candidate columns to the sole-support sets: `sole`
/// is every rank's [`sole_members`], sorted.
fn retain_sole(batch: &mut [DeletedEdge<'_>], sole: &[(usize, u32)]) {
    let sides = batch
        .iter_mut()
        .flat_map(|e| [&mut e.beyond_v, &mut e.beyond_u]);
    for (side, beyond) in sides.enumerate() {
        beyond.retain(|&(t, _)| sole.binary_search(&(side, t)).is_ok());
    }
}

/// Targets of row `x` invalidated by deleting vertex `v`: the column `v`
/// itself plus every entry whose value routes through `v`, read at the rows'
/// stored width. `d(x,v)` is `row_v[x]` (the graph is undirected), so a row
/// that does not reach `v` is not read.
fn affected_by_vertex(row: Row<'_>, x: VertexId, v: VertexId, row_v: Row<'_>) -> Vec<usize> {
    let a = row_v.get(x as usize).unwrap_or(INF); // d(x, v)
    #[cfg(test)]
    reference::assert_row_agrees(row, x, &[(v, a)]);
    if a == INF {
        return Vec::new();
    }
    let through_v = (row.at_least(row_v, a).into_iter())
        .map(|(t, _)| t as usize)
        .filter(|&t| t != x as usize && t != v as usize);
    [v as usize].into_iter().chain(through_v).collect()
}

/// Phase 1 of a deletion on one rank: asks `affected(row, x)` once per owned
/// row `x`, on the exact row the barrier left, and raises those entries. A
/// raised entry leaves the row's unsent log: the row as last sent is the row
/// itself at the barrier, every rank repairs the rows it owns alike, and the
/// deletion ends owing nothing ([`AnytimeEngine::end_update`]).
fn raise<F>(ps: &mut ProcState, tally: &mut InvalidationTally, affected: &mut F) -> Raised
where
    F: FnMut(Row<'_>, VertexId) -> Vec<usize>,
{
    #[cfg(test)]
    if reference::is_whole_row() {
        return reference::raise(ps, tally, affected);
    }
    let mut raised = Vec::new();
    for x in ps.dv.vertices().to_vec() {
        let targets = affected(ps.dv.row(x), x);
        tally.note(targets.len());
        if targets.is_empty() {
            continue;
        }
        #[cfg(test)]
        reference::note_reset(ps.rank, x, &targets);
        ps.dv.raise_entries(x, &targets);
        #[cfg(test)]
        ps.mirror_raise(x, &targets);
        raised.push((x, targets));
    }
    raised
}

/// Phase 3 of a deletion on one rank: repairs each raised row `x` exactly,
/// by one search over its raised columns (SSSP-Del's re-derivation, carried
/// to the end, [`crate::dv::DistanceMatrix::repair_row`]). Each raised
/// column `t` is seeded with `min (row_x[y] + w)` over its edges `(y, t, w)`
/// — its own view's for a column the rank owns, the `fetched` ones for any
/// other — and the search relaxes raised columns only. That is exact: every
/// kept entry is exact on the graph as it now is (no deleted edge solely
/// supported it), and on a shortest `x → t` path the last vertex with a
/// kept entry is a seed's neighbour, after which every vertex is a raised
/// column.
fn repair(ps: &mut ProcState, raised: Raised, fetched: &Fetched) {
    #[cfg(test)]
    if reference::is_whole_row() {
        reference::rebuild(ps, &raised);
    }
    if raised.is_empty() {
        return;
    }
    let ProcState {
        adj,
        is_local,
        dv,
        dirty,
        ..
    } = ps;
    // Column → edges, once for every row: a rank's view holds every edge of
    // the columns it owns, `fetched` those of the others it raised.
    let local = adj.iter().zip(is_local.iter());
    let mut edges: Vec<Edges> = local
        .map(|(a, &own)| if own { a.as_slice() } else { &[] })
        .collect();
    for (t, fetched) in fetched {
        if let Some(slot) = edges.get_mut(*t as usize) {
            *slot = fetched;
        }
    }
    let (mut search, mut is_raised) = (Search::default(), vec![false; adj.len()]);
    for (x, targets) in raised {
        dv.repair_row(x, &targets, &edges, &mut is_raised, &mut search);
        dirty.insert(x);
    }
}

#[cfg(test)]
#[path = "tests/deletion_reference.rs"]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use aa_graph::{algo, generators, Graph};
    use std::collections::HashSet;

    fn engine(g: Graph, p: usize) -> AnytimeEngine {
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

    fn assert_oracle(e: &AnytimeEngine) {
        let dense = e.distances_dense();
        let oracle = algo::apsp_dijkstra(e.graph());
        for v in 0..e.graph().capacity() {
            if e.graph().is_alive(v as u32) {
                assert_eq!(dense[v], oracle[v], "row {v} differs from oracle");
            }
        }
    }

    #[test]
    fn add_edge_then_converge_matches_oracle() {
        let g = generators::barabasi_albert(100, 2, 3, 13);
        let mut e = engine(g, 4);
        e.run_to_convergence(32);
        assert!(e.add_edge(0, 57, 1));
        assert!(!e.is_converged());
        e.run_to_convergence(32);
        assert!(e.is_converged());
        assert_oracle(&e);
    }

    #[test]
    fn add_edge_mid_run_still_converges_correctly() {
        let g = generators::erdos_renyi_gnm(90, 200, 4, 3);
        let mut e = engine(g, 4);
        e.rc_step(); // not yet converged
        assert!(e.add_edge(1, 80, 2));
        assert!(e.add_edge(5, 33, 1));
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
    }

    #[test]
    fn add_edge_connecting_components() {
        let mut g = generators::path(12);
        g.remove_edge(5, 6);
        let mut e = engine(g, 3);
        e.run_to_convergence(32);
        assert_eq!(e.distances_dense()[0][11], INF);
        assert!(e.add_edge(5, 6, 7));
        e.run_to_convergence(32);
        assert_oracle(&e);
        assert_eq!(e.distances_dense()[0][11], 5 + 7 + 5);
    }

    #[test]
    fn duplicate_add_edge_is_rejected() {
        let g = generators::path(6);
        let mut e = engine(g, 2);
        e.run_to_convergence(16);
        assert!(!e.add_edge(0, 1, 5));
        assert!(e.is_converged(), "rejected update must not disturb state");
    }

    #[test]
    fn delete_edge_then_converge_matches_oracle() {
        let g = generators::barabasi_albert(80, 3, 2, 17);
        let mut e = engine(g, 4);
        e.run_to_convergence(32);
        let (u, v, _) = e.graph().edges().next().unwrap();
        assert!(e.delete_edge(u, v));
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
    }

    #[test]
    fn delete_bridge_disconnects() {
        let g = generators::path(10);
        let mut e = engine(g, 2);
        e.run_to_convergence(16);
        assert!(e.delete_edge(4, 5));
        e.run_to_convergence(32);
        assert_oracle(&e);
        assert_eq!(e.distances_dense()[0][9], INF);
    }

    #[test]
    fn delete_edge_mid_run_applies_barrier_first() {
        let g = generators::erdos_renyi_gnm(60, 150, 3, 23);
        let mut e = engine(g, 4);
        // No convergence calls: delete_edge must quiesce on its own.
        let (u, v, _) = e.graph().edges().nth(3).unwrap();
        assert!(e.delete_edge(u, v));
        e.run_to_convergence(64);
        assert_oracle(&e);
    }

    #[test]
    fn delete_absent_edge_is_rejected() {
        let g = generators::path(4);
        let mut e = engine(g, 2);
        assert!(!e.delete_edge(0, 3));
    }

    #[test]
    fn interleaved_adds_and_deletes_match_oracle() {
        let g = generators::watts_strogatz(70, 2, 0.1, 3, 31);
        let mut e = engine(g, 4);
        e.run_to_convergence(32);
        assert!(e.add_edge(0, 35, 1));
        e.rc_step();
        let (u, v, _) = e.graph().edges().nth(10).unwrap();
        assert!(e.delete_edge(u, v));
        e.rc_step();
        assert!(e.add_edge(3, 66, 2));
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
    }

    #[test]
    fn weight_decrease_matches_oracle() {
        let g = generators::erdos_renyi_gnm(50, 120, 9, 41);
        let mut e = engine(g, 3);
        e.run_to_convergence(32);
        let (u, v, w) = e.graph().edges().find(|&(_, _, w)| w > 1).unwrap();
        assert!(e.change_edge_weight(u, v, w - 1));
        e.run_to_convergence(32);
        assert_oracle(&e);
    }

    #[test]
    fn weight_increase_matches_oracle() {
        let g = generators::erdos_renyi_gnm(50, 120, 3, 43);
        let mut e = engine(g, 3);
        e.run_to_convergence(32);
        let (u, v, w) = e.graph().edges().next().unwrap();
        assert!(e.change_edge_weight(u, v, w + 7));
        e.run_to_convergence(64);
        assert_oracle(&e);
        assert_eq!(e.graph().edge_weight(u, v), Some(w + 7));
    }

    #[test]
    fn weight_change_rejects_absent_or_noop() {
        let g = generators::path(5);
        let mut e = engine(g, 2);
        e.run_to_convergence(16);
        assert!(!e.change_edge_weight(0, 4, 3), "absent edge");
        assert!(!e.change_edge_weight(0, 1, 1), "unchanged weight");
    }

    #[test]
    fn delete_vertex_matches_oracle() {
        let g = generators::barabasi_albert(60, 2, 1, 19);
        let mut e = engine(g, 4);
        e.run_to_convergence(32);
        let hub = e
            .graph()
            .vertices()
            .max_by_key(|&v| e.graph().degree(v))
            .unwrap();
        let removed = e.delete_vertex(hub);
        assert!(!removed.is_empty());
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
        e.check_invariants().unwrap();
        // Distances to the dead vertex are INF everywhere.
        let dense = e.distances_dense();
        for v in e.graph().vertices() {
            assert_eq!(dense[v as usize][hub as usize], INF);
        }
    }

    #[test]
    fn delete_leaf_vertex() {
        let g = generators::star(8);
        let mut e = engine(g, 2);
        e.run_to_convergence(16);
        e.delete_vertex(3);
        e.run_to_convergence(16);
        assert_oracle(&e);
        assert_eq!(e.graph().vertex_count(), 7);
    }

    #[test]
    fn batched_edge_additions_match_oracle() {
        let g = generators::barabasi_albert(80, 2, 3, 51);
        let mut e = engine(g, 4);
        e.run_to_convergence(32);
        // Pick one edge that certainly exists (a duplicate, which must be
        // skipped) and count how many of the batch are genuinely new.
        let (du, dv, _) = e.graph().edges().next().unwrap();
        let batch = [(0, 50, 1), (3, 60, 2), (0, 70, 1), (du, dv, 5), (10, 11, 1)];
        let fresh = batch
            .iter()
            .filter(|&&(u, v, _)| !e.graph().has_edge(u, v))
            .count();
        assert!(fresh < batch.len(), "batch must contain a duplicate");
        let added = e.add_edges(&batch);
        assert_eq!(added, fresh, "exactly the non-duplicate edges are added");
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
    }

    #[test]
    fn batched_edge_additions_mid_run() {
        let g = generators::erdos_renyi_gnm(60, 150, 4, 53);
        let mut e = engine(g, 4);
        e.rc_step();
        e.add_edges(&[(0, 30, 1), (1, 40, 2), (2, 50, 3)]);
        e.run_to_convergence(64);
        assert_oracle(&e);
    }

    #[test]
    fn batched_edge_deletions_match_oracle() {
        let g = generators::barabasi_albert(70, 3, 2, 55);
        let mut e = engine(g, 4);
        e.run_to_convergence(32);
        let victims: Vec<(VertexId, VertexId)> = e
            .graph()
            .edges()
            .step_by(7)
            .take(5)
            .map(|(u, v, _)| (u, v))
            .collect();
        let removed = e.delete_edges(&victims);
        assert_eq!(removed, victims.len());
        e.run_to_convergence(96);
        assert!(e.is_converged());
        assert_oracle(&e);
    }

    #[test]
    fn batched_deletions_with_shared_endpoints_and_misses() {
        let g = generators::path(12);
        let mut e = engine(g, 3);
        e.run_to_convergence(32);
        let removed = e.delete_edges(&[(3, 4), (4, 5), (0, 11)]); // last is absent
        assert_eq!(removed, 2);
        e.run_to_convergence(64);
        assert_oracle(&e);
        assert_eq!(e.distances_dense()[0][11], INF);
        assert_eq!(
            e.distances_dense()[4][4],
            0,
            "isolated middle vertex intact"
        );
    }

    #[test]
    fn a_pair_named_twice_is_deleted_and_counted_once() {
        let mut e = engine(generators::path(6), 2);
        e.run_to_convergence(16);
        for batch in [[(2, 3), (3, 2)], [(4, 5), (4, 5)]] {
            let before = e.graph().edge_count();
            let returned = e.delete_edges(&batch);
            let removed = before - e.graph().edge_count();
            assert_eq!(
                (returned, removed),
                (1, 1),
                "returned {returned}, removed {removed}"
            );
        }
        e.run_to_convergence(32);
        assert_oracle(&e);
    }

    /// Every row of the exact APSP of `g` held to both paths for a `batch`
    /// of deleted edges: each edge's candidate columns are `B_uv ∪ B_vu` by
    /// definition, and its sole-support sets lie inside them; per row and
    /// edge the candidate-column test and the whole-row scan, given the
    /// same sole-support sets, name the same targets, none outside `B_uv ∪
    /// B_vu`; and what no edge of the batch names is still exact once the
    /// batch is gone. Returns how many entries the batch solely supports.
    fn candidate_columns_equal_the_whole_row_scan(
        g: &Graph,
        batch: &[(VertexId, VertexId)],
    ) -> usize {
        let exact = algo::apsp_dijkstra(g);
        let mut after = g.clone();
        let batch: Vec<_> = (batch.iter())
            .map(|&(u, v)| (u, v, after.remove_edge(u, v).expect("an edge of g")))
            .collect();
        let mut deleted: Vec<DeletedEdge> = (batch.iter())
            .map(|&(u, v, w)| {
                let rows = (
                    exact[u as usize].as_slice().into(),
                    exact[v as usize].as_slice().into(),
                );
                let adj = (after.neighbors(u), after.neighbors(v));
                DeletedEdge::new((u, v, w), rows, adj)
            })
            .collect();
        let columns = |e: &DeletedEdge| -> HashSet<usize> {
            let sides = e.beyond_v.iter().chain(&e.beyond_u);
            sides.map(|&(t, _)| t as usize).collect()
        };
        let candidates: Vec<HashSet<usize>> = deleted.iter().map(columns).collect();
        // Brute force over the definition, not over the stored lists.
        for (&(u, v, w), candidates) in batch.iter().zip(&candidates) {
            let (row_u, row_v) = (&exact[u as usize], &exact[v as usize]);
            let on_a_path =
                |near: Weight, far: Weight| near != INF && near == far.saturating_add(w);
            for t in 0..g.capacity() {
                let expected = on_a_path(row_u[t], row_v[t]) || on_a_path(row_v[t], row_u[t]);
                assert_eq!(candidates.contains(&t), expected, "edge {u}-{v} column {t}");
            }
        }
        let (sole, _) = sole_members(&deleted, |t| {
            exact.get(t as usize).map(|r| r.as_slice().into())
        });
        retain_sole(&mut deleted, &sole);
        let mut reset = vec![HashSet::new(); g.capacity()];
        for (edge, candidates) in deleted.iter().zip(&candidates) {
            let (u, v, _) = edge.edge;
            assert!(columns(edge).is_subset(candidates), "edge {u}-{v}: S ⊄ B");
            for x in g.vertices() {
                let row = Row::from(&exact[x as usize]);
                let whole = reference::affected_targets_edge(row, x, edge);
                let mut ours = Vec::new();
                edge.affected_targets(row, x, &mut ours);
                assert_eq!(ours, whole, "edge {u}-{v} row {x}");
                let inside = whole.iter().all(|t| candidates.contains(t));
                assert!(inside, "edge {u}-{v} row {x}: a target outside B_uv ∪ B_vu");
                reset[x as usize].extend(whole);
            }
        }
        let post = algo::apsp_dijkstra(&after);
        for x in g.vertices().map(|x| x as usize) {
            for t in (0..g.capacity()).filter(|t| !reset[x].contains(t)) {
                assert_eq!(post[x][t], exact[x][t], "{batch:?}: kept entry {x}→{t}");
            }
        }
        reset.iter().map(HashSet::len).sum()
    }

    #[test]
    fn candidate_columns_hold_every_target_of_the_whole_row_scan() {
        // Unit weights on a grid: ties everywhere. Weights > 1. Two pieces,
        // so both endpoint rows carry `INF`. Each with every edge on its own
        // and with the edges at its hub as one batch sharing an endpoint,
        // every one judged on the pre-deletion rows as `delete_edges` does.
        let mut islands = generators::grid(3, 4);
        for (a, b, w) in [(12, 13, 2), (13, 14, 1), (12, 14, 3), (14, 15, 1)] {
            while islands.capacity() <= b as usize {
                islands.add_vertex();
            }
            islands.add_edge(a, b, w);
        }
        let fixtures = [
            ("grid", generators::grid(5, 6)),
            ("weighted G(n,m)", generators::erdos_renyi_gnm(40, 90, 7, 5)),
            ("scale-free", generators::barabasi_albert(45, 2, 4, 7)),
            ("islands", islands),
        ];
        for (name, g) in fixtures {
            let single = g.edges().map(|(u, v, _)| [(u, v)]);
            let supported: usize = single
                .map(|edge| candidate_columns_equal_the_whole_row_scan(&g, &edge))
                .sum();
            assert!(supported > 0, "{name}: some edge is on some shortest path");
            let hub = g
                .vertices()
                .max_by_key(|&v| g.degree(v))
                .expect("non-empty");
            let batch: Vec<_> = g.neighbors(hub).iter().map(|&(y, _)| (hub, y)).collect();
            assert!(batch.len() > 1, "{name}");
            candidate_columns_equal_the_whole_row_scan(&g, &batch);
            let spread: Vec<_> = g
                .edges()
                .step_by(5)
                .take(3)
                .map(|(u, v, _)| (u, v))
                .collect();
            candidate_columns_equal_the_whole_row_scan(&g, &spread);
        }
        // Two deleted edges in series on the one shortest path of 0 → 3,
        // apart and adjacent.
        let mut series = generators::path(5);
        series.add_edge(0, 4, 9);
        for batch in [[(0, 1), (2, 3)], [(0, 1), (1, 2)]] {
            assert!(candidate_columns_equal_the_whole_row_scan(&series, &batch) > 0);
        }
    }

    #[test]
    fn sole_support_resets_at_most_half_of_what_the_unrefined_rule_does_on_rmat() {
        // R-MAT at scale 8, weights 1..=4: hubs, and ties around them. Each
        // of the four highest-degree vertices loses its first three edges,
        // one deletion at a time.
        for seed in 1..=3 {
            let g = aa_graph::rmat::rmat(8, 4 << 8, Default::default(), 4, seed);
            let mut hubs: Vec<VertexId> = g.vertices().collect();
            hubs.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
            let mut victims: Vec<(VertexId, VertexId)> = (hubs.iter().take(4))
                .flat_map(|&h| {
                    g.neighbors(h)
                        .iter()
                        .take(3)
                        .map(move |&(y, _)| (h.min(y), h.max(y)))
                })
                .collect();
            victims.dedup();
            let mut e = engine(g, 4);
            e.run_to_convergence(256);
            let (mut refined, mut unrefined) = (0, 0);
            for (u, v) in victims {
                let pre = algo::apsp_dijkstra(e.graph());
                let Some(w) = e.graph().edge_weight(u, v) else {
                    continue;
                };
                let (deleted, resets) = reference::recording(|| e.delete_edge(u, v));
                assert!(deleted);
                refined += resets.iter().map(|(_, _, cols)| cols.len()).sum::<usize>();
                unrefined += reference::unrefined_resets(&pre, &[(u, v, w)]).len();
                e.run_to_convergence(256);
                assert!(e.is_converged());
                assert_oracle(&e);
            }
            assert!(
                2 * refined <= unrefined,
                "seed {seed}: {refined} entries reset, {unrefined} by the unrefined rule"
            );
            eprintln!("seed {seed}: reset {refined} of the unrefined rule's {unrefined}");
        }
    }

    #[test]
    fn empty_batches_are_noops() {
        let g = generators::path(6);
        let mut e = engine(g, 2);
        e.run_to_convergence(16);
        assert_eq!(e.add_edges(&[]), 0);
        assert_eq!(e.delete_edges(&[]), 0);
        assert!(e.is_converged(), "no-ops must not disturb convergence");
    }

    /// Oracle-exact distances and closeness at convergence, on rows `bits`
    /// wide on every rank.
    fn assert_exact_at_width(e: &mut AnytimeEngine, bits: u32) {
        e.run_to_convergence(256);
        assert!(e.is_converged());
        assert!(e.procs.iter().all(|ps| ps.dv.bits() == bits));
        assert_oracle(e);
        let dist = algo::apsp_dijkstra(e.graph());
        let snapshot = e.snapshot();
        for v in e.graph().vertices() {
            let exact = algo::closeness_from_distances(&dist[v as usize], v);
            assert_eq!(snapshot.closeness[v as usize], exact, "closeness of {v}");
        }
    }

    #[test]
    fn a_weight_past_the_narrow_bound_widens_the_rows_and_stays_exact() {
        // A ring of 24 with a pendant vertex: the pendant edge is a bridge.
        let mut g = generators::path(24);
        g.add_edge(0, 23, 1);
        let pendant = g.add_vertex();
        g.add_edge(5, pendant, 2);
        let mut e = engine(g, 3);
        assert_exact_at_width(&mut e, 8);
        assert!(e.change_edge_weight(5, pendant, 1_000_000));
        assert_exact_at_width(&mut e, 32);
        let far = e.distances_dense()[17][pendant as usize];
        assert_eq!(far, 12 + 1_000_000, "read back past 0xFFFF exactly");
        // Back down, the rows stay wide: the width never narrows.
        assert!(e.change_edge_weight(5, pendant, 2));
        assert!(e.delete_edge(5, pendant));
        assert_exact_at_width(&mut e, 32);
    }

    #[test]
    fn vertex_additions_past_the_narrow_bound_widen_the_rows_and_stay_exact() {
        use crate::strategy::AdditionStrategy;
        // 40 vertices at weights up to 4 fit 8 bits; every batch hangs its
        // ten vertices on edges up to 1,000, whose distances do not.
        for strategy in [
            AdditionStrategy::RoundRobinPs,
            AdditionStrategy::CutEdgePs,
            AdditionStrategy::RepartitionS,
            AdditionStrategy::BaselineRestart,
        ] {
            let g = generators::erdos_renyi_gnm(40, 80, 4, 9);
            let mut e = engine(g, 3);
            assert_exact_at_width(&mut e, 8);
            while e.graph().capacity() < 70 {
                let before = e.graph().capacity();
                let mut batch = VertexBatch::new(10);
                for i in 0..10 {
                    let existing = Endpoint::Existing((before - 1 - 3 * i) as VertexId);
                    batch.connect(i, existing, 1 + 97 * i as Weight);
                    batch.connect(i, Endpoint::New((i + 1) % 10), 1_000);
                }
                e.add_vertices(&batch, strategy);
                assert_exact_at_width(&mut e, 16);
            }
            let widened = e
                .metrics_registry()
                .counter_value("aa_dv_widenings_total", &[]);
            assert!(widened >= 1, "{strategy}");
        }
    }

    #[test]
    fn batch_validation() {
        let mut b = VertexBatch::new(2);
        b.connect(0, Endpoint::New(1), 1);
        b.connect(1, Endpoint::Existing(3), 2);
        assert!(b.validate(10).is_ok());
        assert!(b.validate(2).is_err(), "existing vertex 3 out of range");
        let mut bad = VertexBatch::new(1);
        bad.connect(0, Endpoint::New(0), 1);
        assert!(bad.validate(10).is_err(), "self-loop");
        let mut bad2 = VertexBatch::new(1);
        bad2.connect(0, Endpoint::New(5), 1);
        assert!(bad2.validate(10).is_err(), "new index out of range");
    }
}
