//! Vertex-addition strategies: processor assignment, repartitioning, restart.
//!
//! The vertex-additions paper evaluates four ways to incorporate a batch of
//! new vertices into a running analysis:
//!
//! * [`AdditionStrategy::RoundRobinPs`] — spread the new vertices cyclically
//!   over the processors (perfect count balance, community-oblivious);
//! * [`AdditionStrategy::CutEdgePs`] — treat the batch and its internal edges
//!   as a graph, partition it with the multilevel partitioner (each processor
//!   computes one candidate, the lowest-new-cut candidate wins), and map the
//!   parts onto processors by affinity to existing neighbours;
//! * [`AdditionStrategy::RepartitionS`] — repartition the whole grown graph
//!   and migrate the distance-vector rows of relocated vertices, *reusing*
//!   all partial results (the anytime middle ground; existing rows are not
//!   eagerly updated for the new vertices, so extra recombination steps
//!   follow);
//! * [`AdditionStrategy::BaselineRestart`] — discard everything and rerun the
//!   full pipeline (the comparison baseline).

use crate::dv::{ColumnSet, RowBuf};
use crate::dynamic::{Endpoint, VertexBatch};
use crate::engine::AnytimeEngine;
use aa_graph::{Graph, VertexId, Weight, INF};
use aa_logp::Phase;
use aa_obs::Stopwatch;
use aa_partition::{MultilevelKWay, Partitioner};
use aa_runtime::TransferOut;
use std::collections::HashSet;

/// How a batch of new vertices is incorporated into the running analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdditionStrategy {
    /// Round-robin processor assignment (`RoundRobin-PS`).
    RoundRobinPs,
    /// Cut-edge-optimizing processor assignment (`CutEdge-PS`).
    CutEdgePs,
    /// Whole-graph repartitioning with partial-result migration
    /// (`Repartition-S`).
    RepartitionS,
    /// Restart the analysis from scratch (the papers' baseline).
    BaselineRestart,
}

impl std::fmt::Display for AdditionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AdditionStrategy::RoundRobinPs => "RoundRobin-PS",
            AdditionStrategy::CutEdgePs => "CutEdge-PS",
            AdditionStrategy::RepartitionS => "Repartition-S",
            AdditionStrategy::BaselineRestart => "Baseline Restart",
        };
        f.write_str(s)
    }
}

impl AnytimeEngine {
    /// Adds a batch of vertices (and their edges) during the analysis using
    /// the given strategy. Returns the ids assigned to the new vertices, in
    /// batch order. Subsequent recombination steps propagate the changes,
    /// unless RoundRobin-PS or CutEdge-PS attach one vertex to a settled
    /// engine, which is exact at once (`AnytimeEngine::end_update`).
    pub fn add_vertices(
        &mut self,
        batch: &VertexBatch,
        strategy: AdditionStrategy,
    ) -> Vec<VertexId> {
        assert!(self.initialized, "call initialize() first");
        #[expect(
            clippy::expect_used,
            reason = "caller-contract precondition like the initialize assert above — a malformed batch is a harness bug and must fail loudly at the boundary"
        )]
        batch
            .validate(self.world.capacity())
            .expect("invalid vertex batch");
        let incremental = matches!(
            strategy,
            AdditionStrategy::RoundRobinPs | AdditionStrategy::CutEdgePs
        );
        let exact = incremental && batch.count == 1 && self.is_settled();
        let span = self.span_open();
        self.obs.note_mutation();
        let ids = match strategy {
            AdditionStrategy::RoundRobinPs => {
                let assign = self.round_robin_assignment(batch.count);
                self.incorporate_incremental(batch, &assign, exact)
            }
            AdditionStrategy::CutEdgePs => {
                let assign = self.cut_edge_assignment(batch);
                self.incorporate_incremental(batch, &assign, exact)
            }
            AdditionStrategy::RepartitionS => self.incorporate_repartition(batch),
            AdditionStrategy::BaselineRestart => self.incorporate_restart(batch),
        };
        self.span_close(
            span,
            "dynamic-update",
            format!("add-vertices n={} {strategy:?}", batch.count),
        );
        self.end_update(exact);
        ids
    }

    /// Round-robin assignment continuing from a persistent cursor, so
    /// successive batches keep cycling rather than always hammering
    /// processor 0.
    fn round_robin_assignment(&mut self, count: usize) -> Vec<usize> {
        let p = self.config.num_procs;
        (0..count)
            .map(|_| {
                let r = self.rr_cursor % p;
                self.rr_cursor += 1;
                r
            })
            .collect()
    }

    /// CutEdge-PS: every processor computes one candidate multilevel
    /// partition of the batch graph (differently seeded); the candidate
    /// introducing the fewest new cut edges wins. Parts map to processors
    /// greedily by affinity to the existing neighbours of their vertices.
    fn cut_edge_assignment(&mut self, batch: &VertexBatch) -> Vec<usize> {
        let p = self.config.num_procs;
        // The batch graph: new vertices plus the edges *between* them.
        let mut bg = Graph::with_vertices(batch.count);
        for &(i, other, w) in &batch.edges {
            if let Endpoint::New(j) = other {
                bg.add_edge(i as VertexId, j as VertexId, w);
            }
        }
        let mut best: Option<(usize, Vec<usize>)> = None;
        for rank in 0..p {
            let t = Stopwatch::start();
            let candidate = MultilevelKWay {
                seed: self.config.seed ^ (0x9E37 + rank as u64 * 0x51_7C_C1),
            }
            .partition(&bg, p);
            let assign = self.map_parts_to_procs(batch, &candidate, p);
            let score = self.new_cut_edges_for(batch, &assign);
            self.cluster
                .compute_measured(rank, Phase::DynamicUpdate, t.elapsed());
            if best.as_ref().is_none_or(|(s, _)| score < *s) {
                best = Some((score, assign));
            }
        }
        // Winner announcement: each processor's score to rank 0, decision
        // broadcast back (count bytes of assignments).
        self.cluster
            .broadcast_cost(Phase::DynamicUpdate, 0, 4 * batch.count);
        #[expect(
            clippy::expect_used,
            reason = "num_procs >= 1 is asserted at construction so the scoring loop sets best on its first iteration"
        )]
        best.expect("at least one candidate").1
    }

    /// Maps batch-graph parts onto processors by descending affinity (number
    /// of batch edges into existing vertices owned by each processor).
    fn map_parts_to_procs(
        &self,
        batch: &VertexBatch,
        candidate: &aa_partition::Partition,
        p: usize,
    ) -> Vec<usize> {
        let mut affinity = vec![vec![0usize; p]; p]; // [part][proc]
        for &(i, other, _) in &batch.edges {
            if let Endpoint::Existing(x) = other {
                if let (Some(part), Some(owner)) =
                    (candidate.part_of(i as VertexId), self.partition.part_of(x))
                {
                    affinity[part][owner] += 1;
                }
            }
        }
        let mut pairs: Vec<(usize, usize, usize)> = (0..p)
            .flat_map(|part| (0..p).map(move |proc| (part, proc, 0)))
            .map(|(part, proc, _)| (part, proc, affinity[part][proc]))
            .collect();
        pairs.sort_by_key(|&(part, proc, aff)| (std::cmp::Reverse(aff), part, proc));
        let mut part_to_proc = vec![usize::MAX; p];
        let mut proc_used = vec![false; p];
        for (part, proc, _) in pairs {
            if part_to_proc[part] == usize::MAX && !proc_used[proc] {
                part_to_proc[part] = proc;
                proc_used[proc] = true;
            }
        }
        (0..batch.count)
            .map(|i| {
                let part = candidate.part_of(i as VertexId).unwrap_or(0);
                part_to_proc[part]
            })
            .collect()
    }

    /// Number of new cut edges a batch assignment would introduce.
    fn new_cut_edges_for(&self, batch: &VertexBatch, assign: &[usize]) -> usize {
        batch
            .edges
            .iter()
            .filter(|&&(i, other, _)| {
                let pi = assign[i];
                match other {
                    Endpoint::New(j) => pi != assign[j],
                    Endpoint::Existing(x) => Some(pi) != self.partition.part_of(x),
                }
            })
            .count()
    }

    /// The anywhere vertex-addition path shared by RoundRobin-PS and
    /// CutEdge-PS (the paper's Fig. 3): create the vertices, extend every
    /// distance vector, add an owner row each, then attach each new vertex.
    ///
    /// Attachment follows the paper's communication pattern — each incident
    /// edge tree-broadcasts the other endpoint's distance vector, and the new
    /// vertex's own vector is broadcast once — but applies the relaxation in
    /// its "via the new vertex" form: every owned row `x` first derives
    /// `D[x][v] = min_(u,w) (D[x][u] + w)` from its own columns, then relaxes
    /// through `v`'s row once. This is algebraically the same set of
    /// relaxations as the per-edge `D[x][t] > D[x][u] + w + D[v][t]` test,
    /// applied in an order that avoids redundant full-matrix sweeps; any
    /// improvements it leaves for later are picked up by subsequent
    /// recombination steps, exactly as in the paper. Where it leaves none
    /// (`exact`: one vertex on a settled engine), the closing local
    /// propagation is skipped.
    fn incorporate_incremental(
        &mut self,
        batch: &VertexBatch,
        assign: &[usize],
        exact: bool,
    ) -> Vec<VertexId> {
        let p = self.config.num_procs;
        let ids: Vec<VertexId> = (0..batch.count).map(|_| self.world.add_vertex()).collect();
        let new_cap = self.world.capacity();
        // Assignment metadata reaches every processor (4 bytes per vertex).
        self.cluster
            .broadcast_cost(Phase::DynamicUpdate, 0, 4 * batch.count);
        for rank in 0..self.procs.len() {
            let t = Stopwatch::start();
            self.procs[rank].extend_capacity(new_cap);
            self.cluster
                .compute_measured(rank, Phase::DynamicUpdate, t.elapsed());
        }
        for (idx, &id) in ids.iter().enumerate() {
            let owner = assign[idx];
            self.partition.assign(id, owner);
            self.procs[owner].is_local[id as usize] = true;
            self.procs[owner].dv.add_row(id);
            self.procs[owner].dirty.insert(id);
        }

        // Bucket the edges by the batch vertex whose attachment makes them
        // insertable: an edge to an existing vertex attaches with its new
        // endpoint; an edge between two new vertices attaches with the later
        // of the two.
        let mut incident: Vec<Vec<(VertexId, Weight)>> = vec![Vec::new(); batch.count];
        for &(i, other, w) in &batch.edges {
            match other {
                Endpoint::New(j) => {
                    let (late, early) = (i.max(j), i.min(j));
                    incident[late].push((ids[early], w));
                }
                Endpoint::Existing(x) => {
                    assert!(self.world.is_alive(x), "batch references dead vertex {x}");
                    incident[i].push((x, w));
                }
            }
        }

        for (idx, &v) in ids.iter().enumerate() {
            self.attach_new_vertex(v, &incident[idx], exact);
        }
        // One local propagation pass per processor closes the intra-partition
        // chains; recombination steps carry the rest across boundaries.
        if !exact {
            for rank in 0..p {
                let t = Stopwatch::start();
                self.procs[rank].propagate();
                self.cluster
                    .compute_measured(rank, Phase::DynamicUpdate, t.elapsed());
            }
        }
        self.converged = false;
        ids
    }

    /// Attaches one new vertex `v` with its incident edges (endpoints already
    /// present in the world).
    ///
    /// On a settled engine (`exact`) each row relaxes only the columns the
    /// vertex can lower. `v`'s owner holds every anchor's row from the
    /// gather, and derives for each anchor `a_i`, edge weight `w_i`, the
    /// columns where `d(a_i,t)` falls through `v`: `A_i = {t : w_i +
    /// row_v[t] < row_(a_i)[t]}` ([`ColumnSet::lowered`]), `v` itself among
    /// them, as the anchor's row is read before it learns column `v`. The
    /// sets travel with `v`'s row, each as a list or a bitset, whichever is
    /// shorter. A row `x` relaxes through `v`'s row at `d(x,v)` on the set
    /// of the first anchor attaining `d(x,v) = min_i (d(x,a_i) + w_i)`.
    /// That is exact on exact rows: if `d(x,t)` falls, its new shortest path
    /// runs through `v` once, `d(x,v) + d(v,t)`, and were `t` outside `A_i`,
    /// `d(a_i,t) ≤ w_i + d(v,t)` would have kept `d(x,t) ≤ d(x,a_i) +
    /// d(a_i,t) ≤ d(x,v) + d(v,t)` before `v` came. A leaf's one set is
    /// `{v}`: `row_v` is its anchor's row plus `w`.
    fn attach_new_vertex(&mut self, v: VertexId, edges: &[(VertexId, Weight)], exact: bool) {
        let ov = self.owner_of(v);
        let mut attached: Vec<(VertexId, Weight)> = Vec::with_capacity(edges.len());
        for &(u, w) in edges {
            if !self.world.add_edge(v, u, w) {
                continue; // duplicate inside the batch
            }
            attached.push((u, w));
            self.view_add_edge(v, u, w);
        }
        if attached.is_empty() {
            return;
        }
        let row_len = self.procs[ov].dv.col_count();
        let row_bytes = 4 + 4 * row_len;

        // Gather each neighbour's row to v's owner — the only processor that
        // needs it to seed v's fresh row (point-to-point rather than the
        // paper's per-edge broadcast; same information, less traffic — see
        // DESIGN.md).
        let t = Stopwatch::start();
        let mut gather: Vec<Vec<TransferOut<()>>> =
            (0..self.procs.len()).map(|_| Vec::new()).collect();
        let mut anchors = Vec::with_capacity(attached.len());
        for &(u, w) in &attached {
            let ou = self.owner_of(u);
            if ou != ov {
                gather[ou].push(TransferOut {
                    dst: ov,
                    bytes: row_bytes,
                    payload: (),
                });
            }
            let row_u = self.procs[ou].dv.row(u).to_buf();
            self.procs[ov].dv.relax_with_external(v, row_u.as_row(), w);
            anchors.push(row_u);
        }
        self.procs[ov].dirty.insert(v);
        let row_v = self.procs[ov].dv.row(v).to_buf();
        #[cfg(test)]
        let exact = exact && !crate::dynamic::reference::is_whole_row();
        let sets: Vec<ColumnSet> = match exact {
            true => (anchors.iter().zip(&attached))
                .map(|(row_a, &(_, w))| ColumnSet::lowered(row_a.as_row(), row_v.as_row(), w))
                .collect(),
            false => Vec::new(),
        };
        self.cluster
            .compute_measured(ov, Phase::DynamicUpdate, t.elapsed());
        self.cluster.exchange(Phase::DynamicUpdate, gather);

        // Broadcast v's row, with the anchors' sets; every processor folds v
        // into its own rows — v's neighbours among them through v's row plus
        // at most the edge, which is all a rank bordering v owes them.
        let set_bytes: usize = sets.iter().map(|set| set.wire_bytes(row_len)).sum();
        self.cluster
            .broadcast_cost(Phase::DynamicUpdate, ov, row_bytes + set_bytes);
        let every = ColumnSet::EVERY;
        for rank in 0..self.procs.len() {
            let t = Stopwatch::start();
            let ps = &mut self.procs[rank];
            for x in ps.dv.vertices().to_vec() {
                if x == v {
                    continue;
                }
                // D[x][v] = min over v's edges of D[x][u] + w, and the first
                // anchor that attains it; then relax x's row through v once.
                let row = ps.dv.row(x);
                let (mut a, mut first) = (row.get(v as usize).unwrap_or(INF), None);
                for (i, &(u, w)) in attached.iter().enumerate() {
                    let du = row.get(u as usize).unwrap_or(INF).saturating_add(w);
                    if du < a {
                        (a, first) = (du, Some(i));
                    }
                }
                let cols = first.and_then(|i| sets.get(i)).unwrap_or(&every);
                if a != INF && ps.dv.relax_with_external_on(x, row_v.as_row(), a, cols) {
                    ps.dirty.insert(x);
                }
            }
            self.cluster
                .compute_measured(rank, Phase::DynamicUpdate, t.elapsed());
        }
    }

    /// Repartition-S: add the batch to the world, repartition the whole
    /// graph, migrate relocated distance-vector rows, seed fresh rows for the
    /// new vertices from local Dijkstra, and let recombination reconverge.
    fn incorporate_repartition(&mut self, batch: &VertexBatch) -> Vec<VertexId> {
        let p = self.config.num_procs;
        let ids: Vec<VertexId> = (0..batch.count).map(|_| self.world.add_vertex()).collect();
        for &(i, other, w) in &batch.edges {
            let u = ids[i];
            let v = match other {
                Endpoint::New(j) => ids[j],
                Endpoint::Existing(x) => x,
            };
            self.world.add_edge(u, v, w);
        }
        // Repartition the grown graph the way the papers reuse ParMETIS:
        // adaptive multilevel repartitioning from the current assignment, so
        // vertices move only for cut gain or balance. Parallel cost
        // approximation as in initialize().
        let t = Stopwatch::start();
        let new_partition = aa_partition::MultilevelKWay {
            seed: self.config.seed ^ 0xADA9,
        }
        .repartition(&self.world, &self.partition, p);
        let elapsed = t.elapsed();
        for rank in 0..p {
            self.cluster
                .compute_measured(rank, Phase::DomainDecomposition, elapsed / p as u32);
        }
        self.cluster.barrier();

        let migrated = self.migrate_to_partition(new_partition);
        debug_assert!(migrated < self.world.capacity());

        // New vertices get rows seeded from local SSSP (existing rows are
        // deliberately *not* updated — the paper's noted trade-off, paid
        // back in extra recombination steps).
        for rank in 0..p {
            let t = Stopwatch::start();
            for &id in &ids {
                if self.partition.part_of(id) == Some(rank) {
                    self.procs[rank].dv.add_row(id);
                    self.procs[rank].seed_rows(&[id]);
                }
            }
            self.cluster
                .compute_measured(rank, Phase::Migration, t.elapsed());
        }
        self.converged = false;
        ids
    }

    /// Installs `new_partition`: migrates the distance-vector rows (plus
    /// their unsent logs) of every relocated vertex to its new owner,
    /// rebuilds the processor views and marks every row dirty so the new
    /// neighbourhoods receive what they are missing. Returns the number of
    /// migrated vertices. Shared by Repartition-S and [`Self::rebalance`].
    ///
    /// A migrated row's receivers stay relaxed against it, so the new owner
    /// can keep sending them deltas instead of full rows ("communicating the
    /// vertex information and its partial results", as the paper describes)
    /// — all but those [`Self::unrelaxed_receivers`] names.
    pub(crate) fn migrate_to_partition(&mut self, new_partition: aa_partition::Partition) -> usize {
        let p = self.config.num_procs;
        let cap = self.world.capacity();
        for ps in &mut self.procs {
            ps.extend_capacity(cap);
        }
        let unrelaxed = self.unrelaxed_receivers(&new_partition);
        type Migrated = (VertexId, RowBuf, ColumnSet, Option<HashSet<usize>>);
        #[cfg(test)]
        let mut shadows = std::collections::HashMap::new();
        let mut outbox: Vec<Vec<TransferOut<Migrated>>> = (0..p).map(|_| Vec::new()).collect();
        let mut migrated = 0usize;
        for old_rank in 0..p {
            for v in self.procs[old_rank].dv.vertices().to_vec() {
                #[expect(
                    clippy::expect_used,
                    reason = "every caller repartitions the same world whose rows are walked here, so each live vertex has an assignment in new_partition"
                )]
                let new_rank = new_partition.part_of(v).expect("live vertex assigned");
                if new_rank != old_rank {
                    migrated += 1;
                    let ps = &mut self.procs[old_rank];
                    let (row, unsent) = ps.dv.take_row(v);
                    let sent_to = ps.sent_to.remove(&v);
                    #[cfg(test)]
                    shadows.extend(ps.shadow.remove_entry(&v));
                    ps.dirty.remove(&v);
                    // The unsent log is one bit per column, and only worth
                    // shipping with a list of ranks it is about.
                    let cols = row.as_row().len();
                    let send_state = sent_to
                        .as_ref()
                        .map_or(0, |s| cols.div_ceil(8) + 4 * s.len());
                    outbox[old_rank].push(TransferOut {
                        dst: new_rank,
                        bytes: 4 + 4 * cols + send_state,
                        payload: (v, row, unsent, sent_to),
                    });
                }
            }
        }
        let inbox = self.cluster.exchange(Phase::Migration, outbox);
        for (rank, received) in inbox.into_iter().enumerate() {
            for (_src, (v, row, unsent, sent_to)) in received {
                let ps = &mut self.procs[rank];
                ps.dv.insert_row(v, row);
                if let Some(mut sent_to) = sent_to {
                    // The new owner is no receiver of its own row: should the
                    // row move on before its next send prunes the set, this
                    // rank must not pass for relaxed against it.
                    sent_to.remove(&rank);
                    ps.dv.restore_unsent(v, unsent);
                    ps.sent_to.insert(v, sent_to);
                    #[cfg(test)]
                    ps.shadow.extend(shadows.remove_entry(&v));
                }
            }
        }

        self.partition = new_partition;
        for rank in 0..p {
            let t = Stopwatch::start();
            self.procs[rank].rebuild_view(&self.world, &self.partition);
            // Every row must flow to the (possibly new) neighbourhoods.
            for v in self.procs[rank].dv.vertices().to_vec() {
                self.procs[rank].dirty.insert(v);
            }
            self.cluster
                .compute_measured(rank, Phase::Migration, t.elapsed());
        }
        // Ranks that border a row no more, and ranks whose new neighbours of
        // it were never relaxed against it, get it whole next time.
        self.forget_unbordered(self.world.vertices().collect::<Vec<_>>());
        for (v, rank) in unrelaxed {
            if let Some(owner) = self.partition.part_of(v) {
                self.procs[owner].forget_receiver(v, rank);
            }
        }
        self.converged = false;
        migrated
    }

    /// The `(v, r)` pairs for which installing `next` gives rank `r` a local
    /// neighbour `u` of an external `v` that was never relaxed against `v`'s
    /// row as last sent — so `r` cannot take a delta of it. `u` was, if its
    /// old rank held that row's content with nothing left to relax: it owned
    /// `v` and `v` owed its neighbours nothing, or it was itself in `v`'s
    /// `sent_to`. A vertex new to the partition was relaxed against nothing.
    fn unrelaxed_receivers(&self, next: &aa_partition::Partition) -> Vec<(VertexId, usize)> {
        let relaxed = |q: usize, v: VertexId| match self.partition.part_of(v) {
            Some(owner) if owner == q => !self.procs[q].dv.owes(v),
            Some(owner) => self.procs[owner]
                .sent_to
                .get(&v)
                .is_some_and(|s| s.contains(&q)),
            None => false,
        };
        let mut unrelaxed = Vec::new();
        for u in self.world.vertices() {
            let (was, now) = (self.partition.part_of(u), next.part_of(u));
            let Some(r) = now.filter(|&r| was != Some(r)) else {
                continue;
            };
            for &(v, _) in self.world.neighbors(u) {
                let external = next.part_of(v) != Some(r);
                if external && !was.is_some_and(|q| relaxed(q, v)) {
                    unrelaxed.push((v, r));
                }
            }
        }
        unrelaxed
    }

    /// Baseline restart: add the batch to the world and rerun the full
    /// pipeline. Accounting accumulates (the figures compare cumulative
    /// time).
    fn incorporate_restart(&mut self, batch: &VertexBatch) -> Vec<VertexId> {
        let ids: Vec<VertexId> = (0..batch.count).map(|_| self.world.add_vertex()).collect();
        for &(i, other, w) in &batch.edges {
            let u = ids[i];
            let v = match other {
                Endpoint::New(j) => ids[j],
                Endpoint::Existing(x) => x,
            };
            self.world.add_edge(u, v, w);
        }
        self.partition =
            aa_partition::Partition::unassigned(self.world.capacity(), self.config.num_procs);
        self.procs = Vec::new();
        self.initialize();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use aa_graph::{algo, generators};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn engine(n: usize, p: usize, seed: u64) -> AnytimeEngine {
        let g = generators::barabasi_albert(n, 2, 2, seed);
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

    /// A batch with internal community structure plus random attachments to
    /// existing vertices.
    fn community_batch(count: usize, existing: u32, seed: u64) -> VertexBatch {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = VertexBatch::new(count);
        for i in 1..count {
            // Chain within the batch plus one random intra-batch chord.
            b.connect(i, Endpoint::New(i - 1), 1);
            if i > 2 && rng.gen_bool(0.5) {
                b.connect(i, Endpoint::New(rng.gen_range(0..i - 1)), 1);
            }
        }
        for i in 0..count {
            if rng.gen_bool(0.6) {
                b.connect(i, Endpoint::Existing(rng.gen_range(0..existing)), 1);
            }
        }
        // Guarantee the batch is attached to the existing graph.
        b.connect(0, Endpoint::Existing(0), 1);
        b
    }

    #[test]
    fn round_robin_ps_matches_oracle() {
        let mut e = engine(80, 4, 1);
        e.run_to_convergence(32);
        let batch = community_batch(10, 80, 2);
        let ids = e.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
        assert_eq!(ids.len(), 10);
        e.check_invariants().unwrap();
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
    }

    #[test]
    fn round_robin_balances_counts() {
        let mut e = engine(40, 4, 3);
        e.run_to_convergence(32);
        let before = e.partition().part_sizes();
        let batch = community_batch(8, 40, 4);
        e.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
        let after = e.partition().part_sizes();
        for rank in 0..4 {
            assert_eq!(after[rank], before[rank] + 2, "exactly two each");
        }
    }

    #[test]
    fn cut_edge_ps_matches_oracle() {
        let mut e = engine(80, 4, 5);
        e.run_to_convergence(32);
        let batch = community_batch(12, 80, 6);
        e.add_vertices(&batch, AdditionStrategy::CutEdgePs);
        e.check_invariants().unwrap();
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
    }

    #[test]
    fn cut_edge_ps_beats_round_robin_on_new_cut_edges() {
        // Two engines over the same world; a strongly clustered batch.
        let mut batch = VertexBatch::new(16);
        for c in 0..4 {
            let base = c * 4;
            for i in base..base + 4 {
                for j in (i + 1)..base + 4 {
                    batch.connect(j, Endpoint::New(i), 1);
                }
            }
        }
        batch.connect(0, Endpoint::Existing(0), 1);
        let mut rr = engine(60, 4, 7);
        rr.run_to_convergence(32);
        let ids_rr = rr.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
        let cut_rr = aa_partition::quality::new_cut_edges(rr.graph(), rr.partition(), &ids_rr);
        let mut ce = engine(60, 4, 7);
        ce.run_to_convergence(32);
        let ids_ce = ce.add_vertices(&batch, AdditionStrategy::CutEdgePs);
        let cut_ce = aa_partition::quality::new_cut_edges(ce.graph(), ce.partition(), &ids_ce);
        assert!(
            cut_ce < cut_rr,
            "CutEdge-PS new cut {cut_ce} must beat RoundRobin-PS {cut_rr}"
        );
    }

    #[test]
    fn repartition_s_matches_oracle() {
        let mut e = engine(80, 4, 9);
        e.run_to_convergence(32);
        let batch = community_batch(20, 80, 10);
        e.add_vertices(&batch, AdditionStrategy::RepartitionS);
        e.check_invariants().unwrap();
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
    }

    #[test]
    fn baseline_restart_matches_oracle() {
        let mut e = engine(80, 4, 11);
        e.run_to_convergence(32);
        let makespan_before = e.makespan_us();
        let batch = community_batch(10, 80, 12);
        e.add_vertices(&batch, AdditionStrategy::BaselineRestart);
        e.check_invariants().unwrap();
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
        assert!(
            e.makespan_us() > makespan_before,
            "restart cost accumulates"
        );
    }

    #[test]
    fn all_strategies_agree_on_final_distances() {
        let batch = community_batch(8, 50, 20);
        let mut reference: Option<Vec<Vec<u32>>> = None;
        for strategy in [
            AdditionStrategy::RoundRobinPs,
            AdditionStrategy::CutEdgePs,
            AdditionStrategy::RepartitionS,
            AdditionStrategy::BaselineRestart,
        ] {
            let mut e = engine(50, 4, 13);
            e.run_to_convergence(32);
            e.add_vertices(&batch, strategy);
            e.run_to_convergence(96);
            assert!(e.is_converged(), "{strategy} did not converge");
            let dense = e.distances_dense();
            match &reference {
                None => reference = Some(dense),
                Some(r) => assert_eq!(&dense, r, "{strategy} disagrees"),
            }
        }
    }

    #[test]
    fn additions_mid_run_converge() {
        let mut e = engine(60, 4, 15);
        e.rc_step(); // inject before static convergence (paper's RC0 case)
        let batch = community_batch(6, 60, 16);
        e.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
        e.run_to_convergence(64);
        assert_oracle(&e);
    }

    #[test]
    fn successive_batches_accumulate() {
        let mut e = engine(50, 4, 17);
        e.run_to_convergence(32);
        for round in 0..3 {
            let batch = community_batch(5, 50 + round * 5, 18 + round as u64);
            e.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
            e.rc_step();
        }
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
        assert_eq!(e.graph().vertex_count(), 65);
    }

    #[test]
    fn isolated_new_vertices_are_legal() {
        let mut e = engine(40, 4, 19);
        e.run_to_convergence(32);
        let batch = VertexBatch::new(3); // no edges at all
        let ids = e.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
        e.run_to_convergence(32);
        assert_oracle(&e);
        let snap = e.snapshot();
        for id in ids {
            assert_eq!(snap.closeness[id as usize], 0.0);
        }
    }
}
