//! Per-processor state: the local sub-graph view and its distance vectors.
//!
//! Following the papers, processor `p_i` holds `G_i = (V_i ∪ B_i, E_i)` where
//! `V_i` are its owned (local) vertices, `E_i` the edges with at least one
//! endpoint in `V_i`, and `B_i` the *external boundary vertices* — endpoints
//! of cut edges owned elsewhere, which "act as bridges that connect the
//! neighbouring sub-graphs". External vertices appear in the adjacency view
//! but are never expanded, their neighbourhoods being unknown here: IA's
//! search ([`ProcState::seed_rows`]) labels them and never queues them.
//!
//! Only owned vertices have a distance vector here (`dv`). An external
//! boundary vertex's row is what its owner sends: it is relaxed into the
//! vertex's local neighbours on arrival and dropped, as in distance-vector
//! routing, where a router stores its own table and not its neighbours'. So
//! the frontier is `dv.frontier()`, and [`ProcState::sent_to`] is what says,
//! per owned row, which ranks have been relaxed against it.

#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::dv::{grow, ColumnSet, DistanceMatrix, Row, RowBuf, RowDelta};
use crate::dynamic::RepairScratch;
use aa_graph::search::Search;
#[cfg(test)]
use aa_graph::INF;
use aa_graph::{Graph, VertexId, Weight};
use aa_partition::Partition;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// A boundary-row update on the wire: the full distance vector on first
/// contact, or only the entries that changed since the last send — the
/// papers' "it is sufficient to send only the updated values of the boundary
/// DVs" optimization.
#[derive(Debug, Clone)]
pub enum RowUpdate {
    /// The complete row (first send to a given processor), at the width
    /// its matrix stores it. One buffer per row, shared by every destination
    /// the row goes to whole.
    Full(Arc<RowBuf>),
    /// The entries lowered since the row's last send. One buffer per row,
    /// shared by every destination the row's delta goes to.
    Delta(Arc<RowDelta>),
}

impl RowUpdate {
    /// Wire size in bytes (4-byte vertex id header + payload). A delta is
    /// modelled as `(column, value)` pairs, whatever it takes in memory.
    pub fn bytes(&self) -> usize {
        4 + match self {
            RowUpdate::Full(row) => 4 * row.as_row().len(),
            RowUpdate::Delta(d) => 8 * d.len(),
        }
    }

    /// A delta carrying `entries`, given in any column order.
    #[cfg(test)]
    pub(crate) fn delta(entries: &[(u32, Weight)]) -> Self {
        RowUpdate::Delta(Arc::new(RowDelta::from_pairs(entries)))
    }
}

/// The changed `(column, value)` pairs between a previously sent snapshot and
/// the current row (entries that decreased; increases only happen through
/// deletion invalidation, which resets both sides consistently). The
/// reference the unsent log is held to: production keeps no snapshot.
#[cfg(test)]
pub(crate) fn diff_rows(snapshot: &[Weight], current: &[Weight]) -> Vec<(u32, Weight)> {
    // Columns both rows have: the ones that decreased. Columns grown since
    // the snapshot: all of them.
    let lowered = current
        .iter()
        .zip(snapshot)
        .enumerate()
        .filter(|&(_, (&c, &s))| c < s)
        .map(|(i, (&c, _))| (i, c));
    let grown = current.iter().copied().enumerate().skip(snapshot.len());
    lowered.chain(grown).map(|(i, c)| (i as u32, c)).collect()
}

/// State of one virtual processor.
#[derive(Debug, Clone)]
pub struct ProcState {
    /// This processor's rank.
    pub rank: usize,
    /// Adjacency view: populated for local vertices (all their edges) and for
    /// external boundary vertices (only their edges to local vertices).
    pub adj: Vec<Vec<(VertexId, Weight)>>,
    /// Whether each vertex id slot is owned here.
    pub is_local: Vec<bool>,
    /// Distance vectors of owned vertices.
    pub dv: DistanceMatrix,
    /// Owned vertices whose rows changed since they were last sent.
    pub dirty: HashSet<VertexId>,
    /// Per boundary row `v`: the ranks whose local neighbours of `v` have
    /// been relaxed against `v`'s row as last sent, and can therefore take
    /// a delta — the row's unsent log in `dv` says of which entries. Every
    /// member borders `v`: a rank whose last edge to `v` goes leaves the set
    /// (`AnytimeEngine::forget_unbordered`), and so does a rank a migration
    /// gives a local neighbour of `v` not relaxed against that row.
    pub sent_to: HashMap<VertexId, HashSet<usize>>,
    /// What a deletion's repair reuses from call to call.
    pub(crate) repair: RepairScratch,
    /// What `sent_snapshot` used to be: a copy of each boundary row as of
    /// the send that last emptied its unsent log. Every delta is checked
    /// against the diff with it.
    #[cfg(test)]
    pub(crate) shadow: HashMap<VertexId, Vec<Weight>>,
}

impl ProcState {
    /// Creates an empty processor state for a graph with `capacity` id
    /// slots, its distance rows 8 bits wide until a distance needs more
    /// (see `dv.rs`).
    pub fn new(rank: usize, capacity: usize) -> Self {
        ProcState {
            rank,
            adj: vec![Vec::new(); capacity],
            is_local: vec![false; capacity],
            dv: DistanceMatrix::holding(capacity, 0),
            dirty: HashSet::new(),
            sent_to: HashMap::new(),
            repair: RepairScratch::default(),
            #[cfg(test)]
            shadow: HashMap::new(),
        }
    }

    /// Forgets who holds row `u`: the next send to any rank is a full row.
    pub fn forget_receivers(&mut self, u: VertexId) {
        self.sent_to.remove(&u);
        #[cfg(test)]
        self.shadow.remove(&u);
    }

    /// The entries of row `u` on its unsent columns — the delta every rank
    /// in `sent_to` is missing — or `None` if only the full row will do.
    /// Built once per row, into the one buffer all its destinations share.
    pub fn unsent_delta(&self, u: VertexId) -> Option<Arc<RowDelta>> {
        let delta = self.dv.unsent_entries(u);
        #[cfg(test)]
        if let (Some(delta), Some(shadow)) = (&delta, self.shadow.get(&u)) {
            let row = self.dv.row(u).to_vec();
            assert_eq!(delta.pairs(), diff_rows(shadow, &row), "row {u}");
        }
        delta.map(Arc::new)
    }

    /// The messages that bring the ranks `ranks` up to date on row `u`: the
    /// row's [`Self::unsent_delta`] to each one in `sent_to` (none if it is
    /// empty), the full row to the others. At most one buffer of each kind,
    /// built once and shared by every destination. Does not record the
    /// send — call [`Self::record_sent`] once all destinations are served.
    pub fn row_updates(&self, u: VertexId, ranks: &[usize]) -> Vec<(usize, RowUpdate)> {
        let delta = self.unsent_delta(u);
        let listed = |dst: &usize| self.sent_to.get(&u).is_some_and(|s| s.contains(dst));
        let mut full: Option<Arc<RowBuf>> = None;
        let mut updates = Vec::with_capacity(ranks.len());
        for &dst in ranks {
            let update = match &delta {
                Some(delta) if listed(&dst) => match delta.is_empty() {
                    true => continue,
                    false => RowUpdate::Delta(Arc::clone(delta)),
                },
                _ => RowUpdate::Full(Arc::clone(
                    full.get_or_insert_with(|| Arc::new(self.dv.row(u).to_buf())),
                )),
            };
            updates.push((dst, update));
        }
        updates
    }

    /// Records that row `u` was just brought up to date on exactly `ranks`
    /// — every send arrives — so its unsent log empties. Ranks *not* among
    /// them leave the up-to-date set: a processor whose cut edges to `u`
    /// came and went in between gets a full row on next contact rather
    /// than an under-informed delta.
    pub fn record_sent(&mut self, u: VertexId, ranks: &[usize]) {
        self.dv.clear_unsent(u);
        #[cfg(test)]
        self.shadow.insert(u, self.dv.row(u).to_vec());
        self.sent_to.insert(u, ranks.iter().copied().collect());
    }

    /// Forgets everything this rank owes — its frontier, its unsent logs,
    /// its rows marked to send — where every row of every rank is exact
    /// (`AnytimeEngine::end_update`): each receiver of a row already
    /// stands where a send of it would put it. An exact write logs nothing
    /// and marks no row to send, so after one exact update this costs
    /// nothing more than a look at two flags.
    pub(crate) fn owe_nothing(&mut self) {
        self.dirty.clear();
        self.dv.clear_all_logs();
        #[cfg(test)]
        for &v in self.dv.vertices() {
            if let Some(shadow) = self.shadow.get_mut(&v) {
                *shadow = self.dv.row(v).to_vec();
            }
        }
    }

    /// Mirrors [`DistanceMatrix::raise_entries`] in the shadow baseline: the
    /// row as last sent is raised on the same entries.
    #[cfg(test)]
    pub(crate) fn mirror_raise(&mut self, u: VertexId, cols: &[usize]) {
        if let Some(shadow) = self.shadow.get_mut(&u) {
            cols.iter().for_each(|&c| shadow[c] = INF);
        }
    }

    /// Rebuilds the adjacency view and locality flags from the world graph
    /// and a partition. Does **not** touch the distance values — callers
    /// decide what survives (everything after initial decomposition,
    /// migrated rows after repartitioning) — but the new adjacency may make
    /// any two surviving rows neighbours, so every row is marked all-columns.
    #[expect(
        clippy::indexing_slicing,
        reason = "vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time"
    )]
    pub fn rebuild_view(&mut self, world: &Graph, partition: &Partition) {
        let cap = world.capacity();
        self.adj = vec![Vec::new(); cap];
        self.is_local = vec![false; cap];
        for v in world.vertices() {
            if partition.part_of(v) == Some(self.rank) {
                self.is_local[v as usize] = true;
            }
        }
        for v in world.vertices() {
            if !self.is_local[v as usize] {
                continue;
            }
            for &(u, w) in world.neighbors(v) {
                self.adj[v as usize].push((u, w));
                if !self.is_local[u as usize] {
                    // External boundary vertex: record only its local edges.
                    self.adj[u as usize].push((v, w));
                }
            }
        }
        self.dv.mark_all_rows();
        // Local-local edges got pushed once from each side already; external
        // entries were pushed from the local side only. Nothing to dedup: the
        // loop above adds each (local, local) edge to both lists exactly once
        // and each (local, external) edge to both lists exactly once.
    }

    /// The distinct owner ranks of `u`'s external neighbours.
    #[expect(
        clippy::indexing_slicing,
        reason = "vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time"
    )]
    pub fn neighbor_ranks(&self, u: VertexId, partition: &Partition) -> Vec<usize> {
        let mut ranks: Vec<usize> = self.adj[u as usize]
            .iter()
            .filter(|&&(v, _)| !self.is_local[v as usize])
            .filter_map(|&(v, _)| partition.part_of(v))
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Records an edge in the adjacency view if at least one endpoint is
    /// local. Mirrors [`Self::rebuild_view`]'s shape. Nothing has been
    /// relaxed over the new edge yet, so an owned endpoint is marked
    /// all-columns; an external one owes its new neighbour what its broadcast
    /// row brings ([`Self::relax_through_external`]).
    pub fn view_add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        if self.view_record_edge(u, v, w) {
            for x in [u, v] {
                if self.dv.has_row(x) {
                    self.dv.mark_all_columns(x);
                }
            }
        }
    }

    /// [`Self::view_add_edge`] for an update that ends exact, whose rows
    /// obey the propagation invariant over every edge: the edge is recorded
    /// and no row is marked. Returns whether the view took it.
    #[expect(
        clippy::indexing_slicing,
        reason = "vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time"
    )]
    pub(crate) fn view_record_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> bool {
        if !self.is_local[u as usize] && !self.is_local[v as usize] {
            return false;
        }
        self.adj[u as usize].push((v, w));
        self.adj[v as usize].push((u, w));
        true
    }

    /// Removes an edge from the adjacency view (no-op if absent).
    #[expect(
        clippy::indexing_slicing,
        reason = "vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time"
    )]
    pub fn view_remove_edge(&mut self, u: VertexId, v: VertexId) {
        if let Some(p) = self.adj[u as usize].iter().position(|&(x, _)| x == v) {
            self.adj[u as usize].swap_remove(p);
        }
        if let Some(p) = self.adj[v as usize].iter().position(|&(x, _)| x == u) {
            self.adj[v as usize].swap_remove(p);
        }
    }

    /// Grows all capacity-indexed structures to `new_cap` slots, each by
    /// the step `dv.rs` states.
    pub fn extend_capacity(&mut self, new_cap: usize) {
        if new_cap <= self.adj.len() {
            return;
        }
        grow(&mut self.adj, new_cap, Vec::new());
        grow(&mut self.is_local, new_cap, false);
        self.dv.extend_cols(new_cap);
        #[cfg(test)]
        #[expect(
            clippy::iter_over_hash_type,
            reason = "independent per-row resize; no cross-row state, order cannot leak"
        )]
        for row in self.shadow.values_mut() {
            row.resize(new_cap, INF);
        }
    }

    /// Rank `dst` leaves the ranks relaxed against row `u`: it gets a full
    /// row on next contact, never a delta it cannot complete.
    pub fn forget_receiver(&mut self, u: VertexId, dst: usize) {
        if let Some(receivers) = self.sent_to.get_mut(&u) {
            receivers.remove(&dst);
        }
    }

    /// Relaxes the local neighbours of external vertex `v` here through a
    /// row of `v` — `relax(dv, u, w)` relaxes neighbour `u` over weight `w`
    /// — and marks the ones it lowers dirty. They join the frontier through
    /// the lowering writes' logs.
    fn relax_neighbours_of(
        &mut self,
        v: VertexId,
        relax: impl Fn(&mut DistanceMatrix, VertexId, Weight) -> bool,
    ) {
        for &(u, w) in self.adj.get(v as usize).into_iter().flatten() {
            if self.is_local.get(u as usize) == Some(&true) && relax(&mut self.dv, u, w) {
                self.dirty.insert(u);
            }
        }
    }

    /// Applies a received boundary-row update: `v`'s local neighbours here
    /// relax through it on the update's columns — a full row's finite ones,
    /// the only ones it can lower anything on, or a delta's — and the buffer
    /// is dropped. The next [`Self::propagate`] carries what it lowered on.
    pub fn apply_row_update(&mut self, v: VertexId, update: RowUpdate) {
        match update {
            RowUpdate::Full(row) => {
                let finite = ColumnSet::finite_of(row.as_row());
                self.relax_neighbours_of(v, |dv, u, w| {
                    dv.relax_with_external_on(u, row.as_row(), w, &finite)
                });
            }
            RowUpdate::Delta(delta) => {
                self.relax_neighbours_of(v, |dv, u, w| dv.relax_with_delta(u, &delta, w));
            }
        }
    }

    /// Relaxes the local neighbours here of `v`, if it is external, through
    /// its broadcast row on every column: a new edge's endpoint row is
    /// current, and may undercut what its neighbours were relaxed against.
    pub fn relax_through_external(&mut self, v: VertexId, row: Row<'_>) {
        if self.is_local.get(v as usize) == Some(&false) {
            self.relax_neighbours_of(v, |dv, u, w| dv.relax_with_external(u, row, w));
        }
    }

    /// Runs Dijkstra from each owned vertex of `rows` straight into its
    /// distance vector, restricted to the local sub-graph, and marks the row
    /// dirty. Local vertices are expanded; external boundary vertices are
    /// reached but not expanded — their distance is written and they never
    /// enter the queue (with most edges cut, that is most of what it would
    /// hold).
    pub fn seed_rows(&mut self, rows: &[VertexId]) {
        let mut search = Search::default();
        let neighbors = |v: VertexId| self.adj.get(v as usize).map_or(&[][..], Vec::as_slice);
        let expands = |v: VertexId| self.is_local.get(v as usize) == Some(&true);
        for &s in rows {
            self.dv.seed_row(s, &mut search, neighbors, expands);
            self.dirty.insert(s);
        }
    }

    /// Initial approximation: computes the local-sub-graph APSP rows for all
    /// owned vertices ([`Self::seed_rows`]).
    pub fn initial_approximation(&mut self) {
        let owned = self.dv.vertices().to_vec();
        self.seed_rows(&owned);
        // Exact local shortest paths obey the triangle inequality over every
        // local edge, so the propagation invariant holds on all columns.
        self.dv.clear_logs();
    }

    /// Whether this processor has nothing left to do or to say: no row on
    /// the frontier, none waiting to be sent.
    pub fn is_quiescent(&self) -> bool {
        self.dirty.is_empty() && self.dv.frontier().next().is_none()
    }

    /// Label-correcting propagation over local edges until the frontier is
    /// empty, which is the local fixed point: a popped row relaxes its local
    /// neighbours on the columns in its change log, which is then cleared,
    /// and a neighbour it lowers joins the queue. Marks improved rows dirty.
    /// Returns whether the frontier held anything.
    #[expect(
        clippy::indexing_slicing,
        reason = "vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time"
    )]
    pub fn propagate(&mut self) -> bool {
        let mut queue: VecDeque<VertexId> = self.dv.frontier().collect();
        if queue.is_empty() {
            return false;
        }
        let mut queued = vec![false; self.adj.len()];
        for &v in &queue {
            queued[v as usize] = true;
        }
        while let Some(v) = queue.pop_front() {
            queued[v as usize] = false;
            for &(u, w) in &self.adj[v as usize] {
                if self.is_local[u as usize] && self.dv.relax_rows_on(u, v, w) {
                    self.dirty.insert(u);
                    if !std::mem::replace(&mut queued[u as usize], true) {
                        queue.push_back(u);
                    }
                }
            }
            self.dv.clear_log(v);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::reference::local_sssp;
    use aa_graph::generators;
    use aa_partition::{Partitioner, RoundRobinPartitioner};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Path 0-1-2-3 split as {0,1} | {2,3}.
    fn split_path() -> (Graph, Partition, ProcState, ProcState) {
        let g = generators::path(4);
        let mut part = Partition::unassigned(4, 2);
        part.assign(0, 0);
        part.assign(1, 0);
        part.assign(2, 1);
        part.assign(3, 1);
        let mut p0 = ProcState::new(0, 4);
        let mut p1 = ProcState::new(1, 4);
        p0.rebuild_view(&g, &part);
        p1.rebuild_view(&g, &part);
        for v in [0u32, 1] {
            p0.dv.add_row(v);
        }
        for v in [2u32, 3] {
            p1.dv.add_row(v);
        }
        (g, part, p0, p1)
    }

    fn frontier(ps: &ProcState) -> Vec<VertexId> {
        ps.dv.frontier().collect()
    }

    fn full<'r>(row: impl Into<Row<'r>>) -> RowUpdate {
        RowUpdate::Full(Arc::new(row.into().to_buf()))
    }

    /// Rank 0 of [`split_path`] after its initial approximation, relaxed
    /// against rank 1's row of vertex 2 and at its local fixed point.
    fn split_path_relaxed_against_2() -> ProcState {
        let (_, _, mut p0, mut p1) = split_path();
        p0.initial_approximation();
        p1.initial_approximation();
        p0.apply_row_update(2, full(p1.dv.row(2)));
        p0.propagate();
        p0
    }

    /// The message that takes row `u` to `dst`, built off a fresh delta.
    fn update(ps: &ProcState, u: VertexId, dst: usize) -> Option<RowUpdate> {
        ps.row_updates(u, &[dst]).pop().map(|(_, update)| update)
    }

    #[test]
    fn view_contains_local_and_boundary_edges() {
        let (_, _, p0, p1) = split_path();
        assert!(p0.is_local[0] && p0.is_local[1]);
        assert!(!p0.is_local[2]);
        // p0 sees edge 1-2 from both sides, but nothing about 2-3.
        assert_eq!(p0.adj[1], vec![(0, 1), (2, 1)]);
        assert_eq!(p0.adj[2], vec![(1, 1)]);
        assert!(p0.adj[3].is_empty());
        assert!(p1.adj[0].is_empty());
    }

    #[test]
    fn boundary_detection() {
        let (_, part, p0, _) = split_path();
        assert_eq!(p0.neighbor_ranks(1, &part), vec![1]);
        assert!(p0.neighbor_ranks(0, &part).is_empty());
    }

    #[test]
    fn local_dijkstra_stops_at_external_vertices() {
        let (_, _, p0, _) = split_path();
        let d = local_sssp(&p0, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 2, "external boundary vertex is reachable");
        assert_eq!(d[3], INF, "but not expanded");
    }

    /// The local Dijkstra as it was before externals stopped entering the
    /// heap: pushed like any vertex, popped, skipped.
    fn dijkstra_enqueueing_externals(ps: &ProcState, source: VertexId) -> Vec<Weight> {
        let mut dist = vec![INF; ps.adj.len()];
        dist[source as usize] = 0;
        let mut heap = BinaryHeap::from([Reverse((0u32, source))]);
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] || !ps.is_local[u as usize] {
                continue;
            }
            for &(v, w) in &ps.adj[u as usize] {
                let nd = d.saturating_add(w);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    #[test]
    fn local_dijkstra_matches_the_enqueueing_reference_on_an_rmat_part() {
        let g = aa_graph::rmat::rmat(8, 1024, Default::default(), 4, 7);
        let part = RoundRobinPartitioner.partition(&g, 4);
        let mut ps = ProcState::new(1, g.capacity());
        ps.rebuild_view(&g, &part);
        let bordering = |v: &usize| !ps.is_local[*v] && !ps.adj[*v].is_empty();
        let externals: Vec<usize> = (0..g.capacity()).filter(bordering).collect();
        let owned = g.vertices().filter(|&v| ps.is_local[v as usize]);
        let owned: Vec<VertexId> = owned.collect();
        assert!(externals.len() > owned.len(), "most edges are cut");
        for &s in &owned {
            let before = dijkstra_enqueueing_externals(&ps, s);
            assert_eq!(local_sssp(&ps, s), before, "from {s}");
        }
    }

    #[test]
    fn initial_approximation_fills_rows_and_dirties() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        assert_eq!(p0.dv.row(0), &[0, 1, 2, INF]);
        assert_eq!(p0.dv.row(1), &[1, 0, 1, INF]);
        assert_eq!(p0.dirty.len(), 2);
    }

    #[test]
    fn external_row_application_relaxes_neighbors() {
        let (_, _, mut p0, mut p1) = split_path();
        p0.initial_approximation();
        p1.initial_approximation();
        // p1 sends row of vertex 2 to p0: 2's neighbour 1 relaxes through it
        // on arrival and joins the frontier with what it learnt, d(1,3).
        p0.dirty.clear();
        p0.apply_row_update(2, full(p1.dv.row(2)));
        assert_eq!(p0.dv.row(1), &[1, 0, 1, 2]);
        assert_eq!(frontier(&p0), vec![1]);
        assert!(p0.dv.log(1).contains(3) && !p0.dv.log(1).contains(0));
        assert!(!p0.is_quiescent());
        // Propagation carries it on to vertex 0, and leaves the frontier
        // empty.
        assert!(p0.propagate());
        assert_eq!(p0.dv.row(1), &[1, 0, 1, 2]);
        assert_eq!(p0.dv.row(0), &[0, 1, 2, 3]);
        assert!(p0.dirty.contains(&0) && p0.dirty.contains(&1));
        assert_eq!(frontier(&p0), vec![]);
        assert!(!p0.propagate(), "nothing left to drain");
    }

    #[test]
    fn view_edge_updates() {
        let (_, _, mut p0, _) = split_path();
        p0.view_add_edge(0, 3, 5); // 3 is external: recorded from both sides
        assert!(p0.adj[0].contains(&(3, 5)));
        assert!(p0.adj[3].contains(&(0, 5)));
        p0.view_remove_edge(0, 3);
        assert!(!p0.adj[0].contains(&(3, 5)));
        assert!(p0.adj[3].is_empty());
        // Edge fully external to this proc: ignored.
        p0.view_add_edge(2, 3, 1);
        assert!(p0.adj[2].iter().all(|&(x, _)| x != 3));
    }

    #[test]
    fn extend_capacity_grows_everything() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        p0.record_sent(1, &[1]);
        p0.extend_capacity(6);
        assert_eq!(p0.adj.len(), 6);
        assert_eq!(p0.is_local.len(), 6);
        assert_eq!(p0.dv.col_count(), 6);
        assert_eq!(p0.dv.row(0).to_vec()[5], INF);
        assert_eq!(p0.shadow[&1], [1, 0, 1, INF, INF, INF]);
    }

    #[test]
    fn a_broadcast_row_relaxes_the_neighbours_of_an_external_vertex_only() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        p0.dirty.clear();
        // A broadcast of the owned row 1 is nothing to relax here.
        let row = p0.dv.at_width(&[0, 0, 0, 0]);
        p0.relax_through_external(1, row.as_row());
        assert!(p0.dirty.is_empty() && frontier(&p0).is_empty());
        // Row 2 as broadcast undercuts row 1 on every column it carries.
        let row = p0.dv.at_width(&[2, 1, 0, 1]);
        p0.relax_through_external(2, row.as_row());
        assert_eq!(p0.dv.row(1), &[1, 0, 1, 2]);
        assert!(p0.dirty.contains(&1) && frontier(&p0) == [1]);
        p0.propagate();
        assert_eq!(p0.dv.row(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn reseed_overwrites_and_offset_zero_relax_takes_the_minimum() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        p0.dv.set_entry(0, 1, INF);
        let row = p0.dv.at_width(&[9, 1, 9, 9]);
        assert!(p0.dv.relax_with_external(0, row.as_row(), 0));
        assert_eq!(p0.dv.row(0), &[0, 1, 2, 9]);
        let row = p0.dv.at_width(&[9, 9, 9, 9]);
        assert!(!p0.dv.relax_with_external(0, row.as_row(), 0));
        // A reseed is the local SSSP itself, not a merge into what was there.
        p0.dirty.clear();
        p0.seed_rows(&[0]);
        assert_eq!(p0.dv.row(0), &[0, 1, 2, INF]);
        assert!(p0.dirty.contains(&0) && frontier(&p0) == [0]);
    }

    #[test]
    fn diff_rows_reports_decreases_and_new_columns() {
        assert_eq!(diff_rows(&[5, 3, INF], &[5, 2, INF]), vec![(1, 2)]);
        assert_eq!(
            diff_rows(&[5], &[5, 7]),
            vec![(1, 7)],
            "grown column counts as new"
        );
        assert!(diff_rows(&[5, 3], &[5, 3]).is_empty());
    }

    #[test]
    fn row_update_bytes() {
        assert_eq!(full(&[1, 2, 3]).bytes(), 4 + 12);
        assert_eq!(RowUpdate::delta(&[(0, 1), (5, 2)]).bytes(), 4 + 16);
    }

    #[test]
    fn first_send_is_full_then_delta() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        // Nobody holds the row, and the raw writes of the initial
        // approximation say nothing about which entries moved.
        assert!(p0.unsent_delta(1).is_none());
        assert!(matches!(update(&p0, 1, 1).unwrap(), RowUpdate::Full(_)));
        p0.record_sent(1, &[1]);
        assert!(p0.dv.unsent(1).is_empty());
        assert!(update(&p0, 1, 1).is_none(), "unchanged row sends nothing");
        // Improve one entry: next update is a one-entry delta, and the
        // adjacency-only marks add nothing to it.
        assert!(p0.dv.lower_entry(1, 3, 2));
        p0.dv.mark_all_columns(1);
        p0.dv.mark_all_rows();
        match update(&p0, 1, 1).unwrap() {
            RowUpdate::Delta(d) => assert_eq!(d.pairs(), vec![(3, 2)]),
            other => panic!("expected delta, got {other:?}"),
        }
        // A new destination still gets the full row; two of them share it.
        assert!(matches!(update(&p0, 1, 0).unwrap(), RowUpdate::Full(_)));
        match &p0.row_updates(1, &[0, 1, 2])[..] {
            [(0, RowUpdate::Full(a)), (1, RowUpdate::Delta(_)), (2, RowUpdate::Full(b))] => {
                assert!(Arc::ptr_eq(a, b) && a.as_row() == p0.dv.row(1));
            }
            other => panic!("expected full, delta, full, got {other:?}"),
        }
        // Raw access could have written anything: full rows all round.
        p0.dv.set_entry(1, 3, 1);
        assert!(matches!(update(&p0, 1, 1).unwrap(), RowUpdate::Full(_)));
    }

    #[test]
    fn record_sent_drops_missed_destinations() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        p0.record_sent(1, &[1, 0]);
        assert!(p0.dv.lower_entry(1, 3, 2));
        // Rank 0 no longer borders the row when it next goes out: it leaves
        // the up-to-date set, and the send empties the unsent log.
        p0.record_sent(1, &[1]);
        assert!(
            matches!(update(&p0, 1, 0).unwrap(), RowUpdate::Full(_)),
            "a rank that missed an update must get a full row"
        );
        assert!(update(&p0, 1, 1).is_none(), "rank 1 is up to date");
        // The next change goes to rank 1 as a one-entry delta.
        assert!(p0.dv.lower_entry(1, 3, 1));
        match update(&p0, 1, 1).unwrap() {
            RowUpdate::Delta(d) => assert_eq!(d.pairs(), vec![(3, 1)]),
            other => panic!("expected delta, got {other:?}"),
        }
    }

    #[test]
    fn apply_delta_relaxes_the_neighbours() {
        let mut p0 = split_path_relaxed_against_2();
        // p1 learns d(2,0) = 2 and ships only the delta: nothing here gains.
        p0.apply_row_update(2, RowUpdate::delta(&[(0, 2)]));
        assert!(!p0.propagate(), "no local row improves from this");
        assert_eq!(frontier(&p0), vec![]);
        // A useful one: a (fake) d(2,3) = 0 must relax local vertex 1, and
        // propagation takes it on to 0.
        p0.apply_row_update(2, RowUpdate::delta(&[(3, 0)]));
        assert_eq!(frontier(&p0), vec![1]);
        assert!(p0.propagate());
        assert_eq!((p0.dv.row(1).to_vec()[3], p0.dv.row(0).to_vec()[3]), (1, 2));
    }

    #[test]
    fn a_delta_logs_exactly_what_it_lowers_and_propagates_only_there() {
        let mut p0 = split_path_relaxed_against_2();
        assert_eq!(
            (p0.dv.row(0).to_vec(), p0.dv.row(1).to_vec()),
            (vec![0, 1, 2, 3], vec![1, 0, 1, 2])
        );
        // Give the neighbour something to gain on two columns; a delta
        // carries one of them, and one entry above what it holds.
        p0.dv.clear_unsent(1);
        p0.dv.raise_entries(1, &[0, 3]);
        p0.dirty.clear();
        p0.apply_row_update(2, RowUpdate::delta(&[(0, 2), (2, 5)]));
        assert_eq!(
            p0.dv.row(1),
            &[3, 0, 1, INF],
            "column 0 relaxed, column 3 left"
        );
        let log = p0.dv.log(1);
        assert!(log.contains(0) && !log.contains(2) && !log.contains(3));
        assert!(p0.dv.unsent(1).contains(0) && !p0.dv.unsent(1).contains(3));
        p0.propagate();
        assert_eq!(p0.dv.row(0), &[0, 1, 2, 3], "nothing beats d(0,0) = 0");
        assert!(p0.dirty.contains(&1) && frontier(&p0).is_empty());
    }

    #[test]
    fn a_duplicated_delivery_lowers_and_logs_nothing() {
        let mut p0 = split_path_relaxed_against_2();
        // A second delivery is a clone of the message: the same buffer.
        let delivered = RowUpdate::delta(&[(0, 2)]);
        let duplicate = delivered.clone();
        assert!(matches!(
            (&delivered, &duplicate),
            (RowUpdate::Delta(a), RowUpdate::Delta(b)) if Arc::ptr_eq(a, b)
        ));
        p0.apply_row_update(2, delivered);
        p0.propagate();
        p0.dirty.clear(); // as a send leaves it
        assert!(p0.is_quiescent());
        let rows = (p0.dv.row(0).to_vec(), p0.dv.row(1).to_vec());
        // The same delta arrives again.
        p0.apply_row_update(2, duplicate);
        assert!(p0.is_quiescent());
        assert!(!p0.propagate());
        let after = (p0.dv.row(0).to_vec(), p0.dv.row(1).to_vec());
        assert_eq!(after, rows);
        assert!(p0.dirty.is_empty());
    }

    #[test]
    fn rebuild_view_with_real_partitioner() {
        let g = generators::barabasi_albert(60, 2, 1, 3);
        let part = RoundRobinPartitioner.partition(&g, 4);
        for rank in 0..4 {
            let mut ps = ProcState::new(rank, g.capacity());
            ps.rebuild_view(&g, &part);
            // Every local vertex has its full world adjacency.
            for v in g.vertices() {
                if part.part_of(v) == Some(rank) {
                    assert_eq!(ps.adj[v as usize].len(), g.degree(v));
                }
            }
        }
    }
}
