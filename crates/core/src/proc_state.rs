//! Per-processor state: the local sub-graph view and its distance vectors.
//!
//! Following the papers, processor `p_i` holds `G_i = (V_i ∪ B_i, E_i)` where
//! `V_i` are its owned (local) vertices, `E_i` the edges with at least one
//! endpoint in `V_i`, and `B_i` the *external boundary vertices* — endpoints
//! of cut edges owned elsewhere, which "act as bridges that connect the
//! neighbouring sub-graphs". External vertices appear in the adjacency view
//! but are never expanded: their own neighbourhoods are unknown here.

use crate::dv::{ColumnSet, DistanceMatrix};
use aa_graph::{Graph, VertexId, Weight, INF};
use aa_partition::Partition;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

/// A boundary-row update on the wire: the full distance vector on first
/// contact, or only the entries that changed since the last send — the
/// papers' "it is sufficient to send only the updated values of the boundary
/// DVs" optimization.
#[derive(Debug, Clone)]
pub enum RowUpdate {
    /// The complete row (first send to a given processor).
    Full(Vec<Weight>),
    /// Changed `(column, new_value)` pairs since the receiver's copy.
    Delta(Vec<(u32, Weight)>),
}

impl RowUpdate {
    /// Wire size in bytes (4-byte vertex id header + payload).
    pub fn bytes(&self) -> usize {
        4 + match self {
            RowUpdate::Full(row) => 4 * row.len(),
            RowUpdate::Delta(d) => 8 * d.len(),
        }
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
    lowered
        .chain(grown)
        // aa-lint: allow(AA05, i indexes a distance row whose length is bounded by the u32 vertex-id space)
        .map(|(i, c)| (i as u32, c))
        .collect()
}

/// A boundary-row send whose delivery receipt came back negative: the
/// network dropped it and it awaits retransmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outstanding {
    /// Failed delivery attempts so far (≥ 1).
    pub attempts: u32,
    /// Earliest recombination step at which the next retransmit may go out.
    pub next_step: u64,
}

/// Longest backoff between retransmits of the same row, in rc steps.
pub const RETRY_BACKOFF_CAP: u64 = 8;

/// Backoff delay before the next retransmit after `attempts` failed
/// deliveries: 1, 2, 4, then capped at [`RETRY_BACKOFF_CAP`] steps. The
/// retry count itself is unbounded — min-merge delivery is idempotent, so
/// retrying forever is safe, and capping the *interval* keeps the expected
/// time-to-convergence finite for any drop rate below 1.
pub fn retry_backoff(attempts: u32) -> u64 {
    1u64 << (attempts.saturating_sub(1)).min(3)
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
    /// Cached DV rows of external boundary vertices, as last received.
    pub ext_rows: HashMap<VertexId, Vec<Weight>>,
    /// Cached external rows whose local neighbours may be behind the cached
    /// values on any column — a broadcast replaced the cache, or the
    /// adjacency around it changed. They are the cached half of the
    /// frontier: [`Self::propagate`] relaxes their neighbours densely, unless
    /// an update of the row gets there first. For every other cached row `b`
    /// and local neighbour `u` over an edge of weight `w`,
    /// `row_u[c] <= ext_rows[b][c] + w` on all columns.
    pub ext_unrelaxed: HashSet<VertexId>,
    /// Owned vertices whose rows changed since they were last sent.
    pub dirty: HashSet<VertexId>,
    /// Per boundary row: processors that already hold a copy (and can
    /// therefore accept deltas — the row's unsent log in `dv` says of which
    /// entries). Under the ack-based protocol a destination joins this set
    /// only once a delivery receipt confirms it actually received the row.
    pub sent_to: HashMap<VertexId, HashSet<usize>>,
    /// What `sent_snapshot` used to be: a copy of each boundary row as of
    /// the send that last emptied its unsent log. Every delta is checked
    /// against the diff with it.
    #[cfg(test)]
    pub(crate) shadow: HashMap<VertexId, Vec<Weight>>,
    /// Sends that were dropped by the (faulty) network and must be
    /// retransmitted, keyed by `(row, destination rank)`. Always empty on a
    /// fault-free cluster. A processor may not vote "no more updates" while
    /// this is non-empty — undelivered rows count as in-flight work.
    pub outstanding: HashMap<(VertexId, usize), Outstanding>,
}

impl ProcState {
    /// Creates an empty processor state for a graph with `capacity` id slots.
    pub fn new(rank: usize, capacity: usize) -> Self {
        ProcState {
            rank,
            adj: vec![Vec::new(); capacity],
            is_local: vec![false; capacity],
            dv: DistanceMatrix::new(capacity),
            ext_rows: HashMap::new(),
            ext_unrelaxed: HashSet::new(),
            dirty: HashSet::new(),
            sent_to: HashMap::new(),
            #[cfg(test)]
            shadow: HashMap::new(),
            outstanding: HashMap::new(),
        }
    }

    /// Forgets who holds which row (used when ownership changes under the
    /// receivers, e.g. repartitioning): the next send of every row is full.
    /// Pending retransmits are dropped too — callers re-dirty every affected
    /// row, so the data goes out again as full rows.
    pub fn reset_send_state(&mut self) {
        self.sent_to.clear();
        self.outstanding.clear();
        #[cfg(test)]
        self.shadow.clear();
    }

    /// Forgets who holds row `u`: the next send to any rank is a full row.
    pub fn forget_receivers(&mut self, u: VertexId) {
        self.sent_to.remove(&u);
        #[cfg(test)]
        self.shadow.remove(&u);
    }

    /// The entries of row `u` on its unsent columns — the delta every rank
    /// in `sent_to` is missing — or `None` if only the full row will do.
    /// Walked once per row, however many destinations the row has.
    pub fn unsent_delta(&self, u: VertexId) -> Option<Vec<(u32, Weight)>> {
        let delta = self.dv.unsent_entries(u);
        #[cfg(test)]
        if let (Some(delta), Some(shadow)) = (&delta, self.shadow.get(&u)) {
            assert_eq!(*delta, diff_rows(shadow, self.dv.row(u)), "row {u}");
        }
        delta
    }

    /// Builds the update message for row `u` towards processor `dst` out of
    /// the row's [`Self::unsent_delta`]: the delta if `dst` holds a copy, the
    /// full row otherwise, `None` if `dst` is already up to date. Does not
    /// record the send — call [`Self::record_sent`] once all destinations
    /// are served.
    pub fn build_row_update(
        &self,
        u: VertexId,
        dst: usize,
        delta: Option<&[(u32, Weight)]>,
    ) -> Option<RowUpdate> {
        match delta {
            Some(delta) if self.sent_to.get(&u).is_some_and(|s| s.contains(&dst)) => {
                (!delta.is_empty()).then(|| RowUpdate::Delta(delta.to_vec()))
            }
            _ => Some(RowUpdate::Full(self.dv.row(u).to_vec())),
        }
    }

    /// Records that row `u` was just sent and reached exactly `delivered`.
    /// Ranks *not* among them are dropped from the up-to-date set: a
    /// processor that misses an update (the send was dropped, or its cut
    /// edges to `u` came and went) gets a full row on next contact rather
    /// than an under-informed delta. The unsent log is emptied only when no
    /// rank can be left behind by that: the send was `complete` (every
    /// destination got it), or nobody held the row before it (every
    /// destination got a full row). Otherwise it stays, so later deltas
    /// remain supersets of what each member still needs.
    pub fn record_sent(&mut self, u: VertexId, delivered: HashSet<usize>, complete: bool) {
        if complete || !self.sent_to.contains_key(&u) {
            self.dv.clear_unsent(u);
            #[cfg(test)]
            self.shadow.insert(u, self.dv.row(u).to_vec());
        }
        self.sent_to.insert(u, delivered);
    }

    /// Mirrors [`DistanceMatrix::raise_entries`] in the shadow baseline: the
    /// receivers raise the same entries of their copies.
    #[cfg(test)]
    pub(crate) fn mirror_raise(&mut self, u: VertexId, cols: &[usize]) {
        if let Some(shadow) = self.shadow.get_mut(&u) {
            cols.iter().for_each(|&c| shadow[c] = INF);
        }
    }

    /// Rebuilds the adjacency view and locality flags from the world graph
    /// and a partition. Does **not** touch the distance values or caches —
    /// callers decide what survives (everything after initial decomposition,
    /// migrated rows after repartitioning) — but the new adjacency may make
    /// any two surviving rows neighbours, so every owned row is marked
    /// all-columns and every cached row unrelaxed.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
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
        // aa-lint: allow(AA04, set-to-set copy of every key; the result is identical for every visit order)
        self.ext_unrelaxed.extend(self.ext_rows.keys());
        // Local-local edges got pushed once from each side already; external
        // entries were pushed from the local side only. Nothing to dedup: the
        // loop above adds each (local, local) edge to both lists exactly once
        // and each (local, external) edge to both lists exactly once.
    }

    /// Owned vertices in row order.
    pub fn local_vertices(&self) -> &[VertexId] {
        self.dv.vertices()
    }

    /// Whether local vertex `u` has a cut edge (is a local boundary vertex).
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn is_boundary(&self, u: VertexId) -> bool {
        self.adj[u as usize]
            .iter()
            .any(|&(v, _)| !self.is_local[v as usize])
    }

    /// The distinct owner ranks of `u`'s external neighbours.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
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
    /// all-columns and a cached one unrelaxed.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn view_add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        if !self.is_local[u as usize] && !self.is_local[v as usize] {
            return;
        }
        self.adj[u as usize].push((v, w));
        self.adj[v as usize].push((u, w));
        for x in [u, v] {
            if self.dv.has_row(x) {
                self.dv.mark_all_columns(x);
            } else if self.ext_rows.contains_key(&x) {
                self.ext_unrelaxed.insert(x);
            }
        }
    }

    /// Removes an edge from the adjacency view (no-op if absent).
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn view_remove_edge(&mut self, u: VertexId, v: VertexId) {
        if let Some(p) = self.adj[u as usize].iter().position(|&(x, _)| x == v) {
            self.adj[u as usize].swap_remove(p);
        }
        if let Some(p) = self.adj[v as usize].iter().position(|&(x, _)| x == u) {
            self.adj[v as usize].swap_remove(p);
        }
    }

    /// Grows all capacity-indexed structures to `new_cap` slots.
    pub fn extend_capacity(&mut self, new_cap: usize) {
        if new_cap <= self.adj.len() {
            return;
        }
        self.adj.resize(new_cap, Vec::new());
        self.is_local.resize(new_cap, false);
        self.dv.extend_cols(new_cap);
        // aa-lint: allow(AA04, independent per-row resize; no cross-row state, order cannot leak)
        for row in self.ext_rows.values_mut() {
            row.resize(new_cap, INF);
        }
        #[cfg(test)]
        // aa-lint: allow(AA04, independent per-row resize; no cross-row state, order cannot leak)
        for row in self.shadow.values_mut() {
            row.resize(new_cap, INF);
        }
    }

    /// Caches a broadcast copy of `v`'s row if `v` is an external boundary
    /// vertex here, so later invalidations can re-relax from it. The copy
    /// replaces the cache without relaxing `v`'s local neighbours against
    /// it, which marks the cached row unrelaxed.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn cache_broadcast_row(&mut self, v: VertexId, row: &[Weight]) {
        if !self.is_local[v as usize] && !self.adj[v as usize].is_empty() {
            self.ext_rows.insert(v, row.to_vec());
            self.ext_unrelaxed.insert(v);
        }
    }

    /// Drops the cached copy of `v`'s row.
    pub fn forget_external_row(&mut self, v: VertexId) {
        self.ext_rows.remove(&v);
        self.ext_unrelaxed.remove(&v);
    }

    /// Applies a received boundary-row update: replaces or patches the cached
    /// copy, then relaxes the adjacent local rows.
    // aa-lint: allow(AA07, delta columns index a row resized to world capacity first, and senders share the same world whose capacity every processor extends before exchanging)
    pub fn apply_row_update(&mut self, v: VertexId, update: RowUpdate) {
        match update {
            RowUpdate::Full(row) => self.apply_external_row(v, row),
            RowUpdate::Delta(delta) => {
                let cap = self.adj.len();
                let row = self.ext_rows.entry(v).or_insert_with(|| vec![INF; cap]);
                row.resize(cap, INF);
                // Every column the sender lists, not only those that lower
                // the cache: a broadcast may have refreshed the cache with
                // the same values before the neighbours saw them.
                let mut cols = ColumnSet::empty(cap);
                for &(col, val) in &delta {
                    if val < row[col as usize] {
                        row[col as usize] = val;
                    }
                    cols.insert(col as usize);
                }
                if self.ext_unrelaxed.remove(&v) {
                    cols = ColumnSet::EVERY;
                }
                self.relax_through_cached(v, &cols)
            }
        }
    }

    /// Relaxes every local neighbour of external vertex `v` against its
    /// cached row on the columns `cols`, marking improved rows dirty (their
    /// logs put them on the frontier).
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    fn relax_through_cached(&mut self, v: VertexId, cols: &ColumnSet) {
        let Some(row) = self.ext_rows.get(&v) else {
            return;
        };
        for &(u, w) in &self.adj[v as usize] {
            if self.is_local[u as usize] && self.dv.relax_with_external_on(u, row, w, cols) {
                self.dirty.insert(u);
            }
        }
    }

    /// Dijkstra from `source` restricted to the local sub-graph: local
    /// vertices are expanded, external boundary vertices are reached but not
    /// expanded — their distance is written and they never enter the heap
    /// (with most edges cut, that is most of what it used to hold). Fills
    /// the full-width, `INF`-initialized row `dist`.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    fn local_dijkstra(&self, source: VertexId, dist: &mut [Weight]) {
        dist[source as usize] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u32, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            // Only an external `source` can be popped without being local.
            if d > dist[u as usize] || !self.is_local[u as usize] {
                continue;
            }
            for &(v, w) in &self.adj[u as usize] {
                let nd = d.saturating_add(w);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    if self.is_local[v as usize] {
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
        }
    }

    /// Local single-source shortest paths with the configured algorithm.
    /// All variants treat external boundary vertices as reachable sinks.
    pub fn local_sssp(&self, source: VertexId, algo: crate::config::IaAlgorithm) -> Vec<Weight> {
        let mut dist = vec![INF; self.adj.len()];
        self.local_sssp_into(source, algo, &mut dist);
        dist
    }

    /// [`Self::local_sssp`] written over the full-width row `dist`.
    fn local_sssp_into(
        &self,
        source: VertexId,
        algo: crate::config::IaAlgorithm,
        dist: &mut [Weight],
    ) {
        use crate::config::IaAlgorithm;
        dist.fill(INF);
        match algo {
            IaAlgorithm::Dijkstra => self.local_dijkstra(source, dist),
            IaAlgorithm::DeltaStepping { delta } => self.local_delta_stepping(source, delta, dist),
            IaAlgorithm::BellmanFord => self.local_bellman_ford(source, dist),
        }
    }

    /// Δ-stepping restricted to the local sub-graph (see
    /// [`aa_graph::centrality::delta_stepping`] for the sequential analogue).
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time — and the delta precondition is an assert naming its contract)
    fn local_delta_stepping(&self, source: VertexId, delta: Weight, dist: &mut [Weight]) {
        assert!(delta >= 1, "delta must be at least 1");
        dist[source as usize] = 0;
        let mut buckets: Vec<Vec<VertexId>> = vec![vec![source]];
        let mut bi = 0usize;
        while bi < buckets.len() {
            while let Some(v) = buckets[bi].pop() {
                let dv = dist[v as usize];
                if dv == INF || (dv / delta) as usize != bi {
                    continue;
                }
                if !self.is_local[v as usize] {
                    continue; // an external `source`: reachable, not expandable
                }
                for &(u, w) in &self.adj[v as usize] {
                    let nd = dv.saturating_add(w);
                    if nd < dist[u as usize] {
                        dist[u as usize] = nd;
                        if !self.is_local[u as usize] {
                            continue; // written, never bucketed
                        }
                        let b = (nd / delta) as usize;
                        if buckets.len() <= b {
                            buckets.resize(b + 1, Vec::new());
                        }
                        buckets[b].push(u);
                    }
                }
            }
            bi += 1;
            while bi < buckets.len() && buckets[bi].is_empty() {
                bi += 1;
            }
        }
    }

    /// Bellman–Ford sweeps over the local edges to a fixed point.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    fn local_bellman_ford(&self, source: VertexId, dist: &mut [Weight]) {
        dist[source as usize] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..self.adj.len() {
                if !self.is_local[v] || dist[v] == INF {
                    continue;
                }
                for &(u, w) in &self.adj[v] {
                    let nd = dist[v].saturating_add(w);
                    if nd < dist[u as usize] {
                        dist[u as usize] = nd;
                        changed = true;
                    }
                }
            }
        }
    }

    /// Initial approximation: computes the local-sub-graph APSP rows for all
    /// owned vertices, each SSSP running straight into its distance vector.
    /// Marks every row dirty.
    pub fn initial_approximation(&mut self, algo: crate::config::IaAlgorithm) {
        // The SSSPs read the view while writing the matrix: take the matrix
        // out of `self` for the duration.
        let mut dv = std::mem::take(&mut self.dv);
        for s in dv.vertices().to_vec() {
            self.local_sssp_into(s, algo, dv.row_mut(s));
            self.dirty.insert(s);
        }
        // Exact local shortest paths obey the triangle inequality over every
        // local edge, so the propagation invariant holds on all columns.
        dv.clear_logs();
        self.dv = dv;
    }

    /// Stores a received external boundary row and relaxes the adjacent local
    /// rows against it.
    pub fn apply_external_row(&mut self, v: VertexId, mut row: Vec<Weight>) {
        // The sender's column count can momentarily trail ours mid-batch;
        // pad defensively.
        row.resize(self.adj.len(), INF);
        // Only a finite entry can lower anything, so these columns make the
        // relaxation as good as a dense one whatever the cache held before.
        let cols = ColumnSet::finite_of(&row);
        self.ext_rows.insert(v, row);
        self.ext_unrelaxed.remove(&v);
        self.relax_through_cached(v, &cols)
    }

    /// Whether this processor has nothing left to do or to say: no row on
    /// the frontier, owned or cached, none waiting to be sent, no send
    /// unacknowledged.
    pub fn is_quiescent(&self) -> bool {
        self.dirty.is_empty()
            && self.outstanding.is_empty()
            && self.ext_unrelaxed.is_empty()
            && self.dv.frontier().next().is_none()
    }

    /// Label-correcting propagation over local edges until the frontier is
    /// empty, which is the local fixed point. Unrelaxed cached rows go first
    /// (what they lower joins the frontier); then a popped row relaxes its
    /// local neighbours on the columns in its change log, which is then
    /// cleared, and a neighbour it lowers joins the queue. Marks improved
    /// rows dirty. Returns whether anything was on the frontier.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn propagate(&mut self) -> bool {
        // aa-lint: allow(AA04, each cached row min-relaxes its own neighbours; the rows left behind are the same for every visit order)
        let unrelaxed: Vec<VertexId> = self.ext_unrelaxed.drain().collect();
        for &b in &unrelaxed {
            self.relax_through_cached(b, &ColumnSet::EVERY);
        }
        let mut queue: VecDeque<VertexId> = self.dv.frontier().collect();
        if queue.is_empty() {
            return !unrelaxed.is_empty();
        }
        let mut queued = vec![false; self.adj.len()];
        for &v in &queue {
            queued[v as usize] = true;
        }
        while let Some(v) = queue.pop_front() {
            queued[v as usize] = false;
            for &(u, w) in &self.adj[v as usize] {
                if !self.is_local[u as usize] {
                    continue;
                }
                if self.dv.relax_rows_logged(u, v, w) {
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

    /// The papers' Floyd–Warshall refinement variant: one pass relaxing every
    /// owned row through every local *boundary* pivot (`D[u][*] = min(D[u][*],
    /// D[u][l] + D[l][*])`). Marks improved rows dirty. Returns whether
    /// anything changed.
    // aa-lint: allow(AA07, pivots and rows both come from the matrix's own vertex list and row width equals capacity, so row(u)[l] is in range)
    pub fn pivot_pass(&mut self) -> bool {
        let pivots: Vec<VertexId> = self
            .dv
            .vertices()
            .iter()
            .copied()
            .filter(|&l| self.is_boundary(l))
            .collect();
        let rows: Vec<VertexId> = self.dv.vertices().to_vec();
        let mut changed = false;
        for &l in &pivots {
            for &u in &rows {
                if u == l {
                    continue;
                }
                let offset = self.dv.row(u)[l as usize];
                if offset != INF && self.dv.relax_rows(u, l, offset) {
                    changed = true;
                    self.dirty.insert(u);
                }
            }
        }
        changed
    }

    /// Re-relaxes the columns `cols` of local vertex `u` through the cached
    /// rows of its external neighbours (deletion invalidation raised those
    /// entries; on every other column the cached-row invariant still holds).
    /// Returns whether the row improved.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn relax_from_cache(&mut self, u: VertexId, cols: &ColumnSet) -> bool {
        let mut changed = false;
        for &(b, w) in &self.adj[u as usize] {
            if self.is_local[b as usize] {
                continue;
            }
            if let Some(row) = self.ext_rows.get(&b) {
                if self.dv.relax_with_external_on(u, row, w, cols) {
                    changed = true;
                    self.dirty.insert(u);
                }
            }
        }
        changed
    }

    /// Min-merges a freshly computed local-Dijkstra row into `u`'s stored row
    /// (used when reseeding after invalidation). Marks dirty on change.
    pub fn merge_row_min(&mut self, u: VertexId, fresh: &[Weight]) -> bool {
        let changed = self.dv.relax_with_external(u, fresh, 0);
        if changed {
            self.dirty.insert(u);
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_graph::generators;
    use aa_partition::{Partitioner, RoundRobinPartitioner};

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

    /// The message that takes row `u` to `dst`, as a retransmit builds it.
    fn update(ps: &ProcState, u: VertexId, dst: usize) -> Option<RowUpdate> {
        ps.build_row_update(u, dst, ps.unsent_delta(u).as_deref())
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
        assert!(!p0.is_boundary(0));
        assert!(p0.is_boundary(1));
        assert_eq!(p0.neighbor_ranks(1, &part), vec![1]);
        assert!(p0.neighbor_ranks(0, &part).is_empty());
    }

    #[test]
    fn local_dijkstra_stops_at_external_vertices() {
        let (_, _, p0, _) = split_path();
        let d = p0.local_sssp(0, crate::config::IaAlgorithm::Dijkstra);
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
    fn ia_rows_agree_across_algorithms_on_an_rmat_part_with_externals() {
        use crate::config::IaAlgorithm;
        let algos = [
            IaAlgorithm::Dijkstra,
            IaAlgorithm::DeltaStepping { delta: 2 },
            IaAlgorithm::BellmanFord,
        ];
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
            for algo in algos {
                assert_eq!(ps.local_sssp(s, algo), before, "{algo:?} from {s}");
            }
        }
        // A source that is external here is reached and not expanded.
        for algo in algos {
            let row = ps.local_sssp(externals[0] as VertexId, algo);
            assert_eq!(row.iter().filter(|&&d| d != INF).count(), 1, "{algo:?}");
        }
    }

    #[test]
    fn initial_approximation_fills_rows_and_dirties() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        assert_eq!(p0.dv.row(0), &[0, 1, 2, INF]);
        assert_eq!(p0.dv.row(1), &[1, 0, 1, INF]);
        assert_eq!(p0.dirty.len(), 2);
    }

    #[test]
    fn external_row_application_relaxes_neighbors() {
        let (_, _, mut p0, mut p1) = split_path();
        p0.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        p1.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        // p1 sends row of vertex 2 to p0.
        let row2 = p1.dv.row(2).to_vec();
        p0.dirty.clear();
        p0.apply_external_row(2, row2);
        assert_eq!(frontier(&p0), vec![1]);
        assert_eq!(p0.dv.row(1), &[1, 0, 1, 2]);
        assert!(!p0.is_quiescent());
        // Propagation carries it to vertex 0 and leaves the frontier empty.
        assert!(p0.propagate());
        assert_eq!(p0.dv.row(0), &[0, 1, 2, 3]);
        assert!(p0.dirty.contains(&0) && p0.dirty.contains(&1));
        assert_eq!(frontier(&p0), vec![]);
        assert!(!p0.propagate(), "nothing left to drain");
    }

    #[test]
    fn pivot_pass_spreads_boundary_knowledge() {
        let (_, _, mut p0, mut p1) = split_path();
        p0.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        p1.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        let row2 = p1.dv.row(2).to_vec();
        p0.apply_external_row(2, row2);
        // Row 1 now knows d(1,3)=2; a pivot pass through boundary vertex 1
        // must teach row 0.
        assert!(p0.pivot_pass());
        assert_eq!(p0.dv.row(0)[3], 3);
        assert!(!p0.pivot_pass(), "second pass is a fixed point");
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
        p0.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        p0.ext_rows.insert(2, vec![2, 1, 0, 1]);
        p0.extend_capacity(6);
        assert_eq!(p0.adj.len(), 6);
        assert_eq!(p0.dv.col_count(), 6);
        assert_eq!(p0.dv.row(0)[5], INF);
        assert_eq!(p0.ext_rows[&2].len(), 6);
    }

    #[test]
    fn relax_from_cache_uses_stored_rows() {
        let (_, _, mut p0, mut p1) = split_path();
        p0.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        p1.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        let row2 = p1.dv.row(2).to_vec();
        p0.apply_external_row(2, row2);
        // Wipe row 1's knowledge of vertex 3 and recover it from the cache.
        p0.dv.row_mut(1)[3] = INF;
        p0.dirty.clear();
        let mut wiped = ColumnSet::empty(4);
        wiped.insert(3);
        assert!(p0.relax_from_cache(1, &wiped));
        assert_eq!(p0.dv.row(1)[3], 2);
        assert!(p0.dirty.contains(&1));
    }

    #[test]
    fn merge_row_min_takes_pointwise_minimum() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        p0.dv.row_mut(0)[1] = INF;
        assert!(p0.merge_row_min(0, &[9, 1, 9, 9]));
        assert_eq!(p0.dv.row(0), &[0, 1, 2, 9]);
        assert!(!p0.merge_row_min(0, &[9, 9, 9, 9]));
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
        assert_eq!(RowUpdate::Full(vec![1, 2, 3]).bytes(), 4 + 12);
        assert_eq!(RowUpdate::Delta(vec![(0, 1), (5, 2)]).bytes(), 4 + 16);
    }

    #[test]
    fn first_send_is_full_then_delta() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        // Nobody holds the row, and the raw writes of the initial
        // approximation say nothing about which entries moved.
        assert!(p0.unsent_delta(1).is_none());
        assert!(matches!(update(&p0, 1, 1).unwrap(), RowUpdate::Full(_)));
        p0.record_sent(1, HashSet::from([1]), true);
        assert!(p0.dv.unsent(1).is_empty());
        assert!(update(&p0, 1, 1).is_none(), "unchanged row sends nothing");
        // Improve one entry: next update is a one-entry delta, and the
        // adjacency-only marks add nothing to it.
        assert!(p0.dv.lower_entry(1, 3, 2));
        p0.dv.mark_all_columns(1);
        p0.dv.mark_all_rows();
        match update(&p0, 1, 1).unwrap() {
            RowUpdate::Delta(d) => assert_eq!(d, vec![(3, 2)]),
            other => panic!("expected delta, got {other:?}"),
        }
        // A new destination still gets the full row.
        assert!(matches!(update(&p0, 1, 0).unwrap(), RowUpdate::Full(_)));
        // Raw access could have written anything: full rows all round.
        p0.dv.row_mut(1)[3] = 1;
        assert!(matches!(update(&p0, 1, 1).unwrap(), RowUpdate::Full(_)));
    }

    #[test]
    fn record_sent_drops_missed_destinations() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        p0.record_sent(1, HashSet::from([1, 0]), true);
        assert!(p0.dv.lower_entry(1, 3, 2));
        // Rank 0 missed this update: it leaves the up-to-date set, and the
        // unsent log stays as it is.
        p0.record_sent(1, HashSet::from([1]), false);
        assert!(
            matches!(update(&p0, 1, 0).unwrap(), RowUpdate::Full(_)),
            "a rank that missed an update must get a full row"
        );
        match update(&p0, 1, 1).unwrap() {
            RowUpdate::Delta(d) => assert_eq!(d, vec![(3, 2)], "a superset of what 1 needs"),
            other => panic!("expected delta, got {other:?}"),
        }
        // The next complete send empties it.
        p0.record_sent(1, HashSet::from([1, 0]), true);
        assert!(update(&p0, 1, 1).is_none() && update(&p0, 1, 0).is_none());
        // A send after which nobody held the row was full rows all round:
        // whatever became of them, no rank is left on an older copy.
        p0.forget_receivers(1);
        assert!(p0.dv.lower_entry(1, 3, 1));
        p0.record_sent(1, HashSet::from([1]), false);
        assert!(update(&p0, 1, 1).is_none());
    }

    #[test]
    fn apply_delta_patches_cache_and_relaxes() {
        let (_, _, mut p0, mut p1) = split_path();
        p0.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        p1.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        let row2 = p1.dv.row(2).to_vec();
        p0.apply_external_row(2, row2);
        // p1 learns d(2,0) = 2 and ships only the delta.
        p1.dv.row_mut(2)[0] = 2;
        p0.propagate();
        p0.apply_row_update(2, RowUpdate::Delta(vec![(0, 2)]));
        assert_eq!(p0.ext_rows[&2][0], 2);
        assert_eq!(frontier(&p0), vec![], "no local row improves from this");
        // A useful delta: d(2,3) drops to 1 (already known) then d(2,3)=0 fake
        // improvement must relax local vertex 1.
        p0.apply_row_update(2, RowUpdate::Delta(vec![(3, 0)]));
        assert_eq!(frontier(&p0), vec![1]);
        assert_eq!(p0.dv.row(1)[3], 1);
    }

    #[test]
    fn apply_delta_without_cache_starts_from_inf() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        p0.apply_row_update(2, RowUpdate::Delta(vec![(3, 1)]));
        assert_eq!(p0.ext_rows[&2][3], 1);
        assert_eq!(p0.ext_rows[&2][0], INF);
        assert_eq!(frontier(&p0), vec![1], "local 1 learns d(1,3) = 2");
        assert_eq!(p0.dv.row(1)[3], 2);
    }

    #[test]
    fn reset_send_state_forces_full_rows() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation(crate::config::IaAlgorithm::Dijkstra);
        p0.record_sent(1, HashSet::from([1]), true);
        p0.reset_send_state();
        assert!(matches!(update(&p0, 1, 1).unwrap(), RowUpdate::Full(_)));
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
