//! The [`AnytimeEngine`]: domain decomposition, initial approximation, and
//! the recombination loop, orchestrated over the simulated cluster.

#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::closeness::Snapshot;
use crate::config::EngineConfig;
use crate::obs::EngineObs;
use crate::proc_state::{ProcState, RowUpdate};
use aa_graph::{Graph, VertexId, Weight, INF};
use aa_logp::{LogPParams, Phase};
use aa_obs::Stopwatch;
use aa_partition::Partition;
use aa_runtime::{Cluster, TransferOut};
use std::collections::HashSet;
use std::sync::Arc;

/// The distributed anytime-anywhere closeness-centrality engine.
///
/// Owns the "world" graph (the ground truth the environment mutates), the
/// current partition, one [`ProcState`] per virtual processor, and the
/// simulated cluster that accounts for every byte moved and every microsecond
/// computed. See the crate docs for the three-phase pipeline.
pub struct AnytimeEngine {
    pub(crate) world: Graph,
    pub(crate) partition: Partition,
    pub(crate) procs: Vec<ProcState>,
    pub(crate) cluster: Cluster,
    pub(crate) config: EngineConfig,
    pub(crate) rc_steps_done: usize,
    pub(crate) converged: bool,
    /// Whether the last update left every row the exact APSP of the current
    /// graph and every rank owing nothing (`AnytimeEngine::end_update`):
    /// settled without the recombination step that would say so. An update
    /// that widens the rows, any step, (re)initialization and restore clear
    /// it.
    pub(crate) exact: bool,
    pub(crate) initialized: bool,
    /// Cursor for round-robin processor assignment of new vertices.
    pub(crate) rr_cursor: usize,
    /// Bumped by every deletion (and weight increase): estimates from an
    /// older epoch may be underestimates of the current graph.
    pub(crate) invalidation_epoch: u64,
    /// Span log, progress-probe state and protocol counters (see
    /// [`crate::obs`]).
    pub(crate) obs: EngineObs,
}

/// Builds the execution backend an [`EngineConfig`] asks for, on the papers'
/// network (1 Gb/s Ethernet), with the configured compute calibration
/// installed. Shared by
/// [`AnytimeEngine::new`] and the whole-cluster checkpoint restore path.
pub(crate) fn build_cluster(config: &EngineConfig) -> Cluster {
    #[expect(
        clippy::panic,
        reason = "front-ends run BackendKind::check on the config first; failing here is construction-time misconfiguration, same contract as the num_procs assert"
    )]
    let mut cluster = Cluster::build(
        config.backend,
        config.num_procs,
        LogPParams::ethernet_1gbe(),
        config.threads,
    )
    .unwrap_or_else(|e| panic!("cannot build execution backend: {e}"));
    cluster.set_compute_scale(config.compute_scale);
    cluster
}

impl AnytimeEngine {
    /// Creates an engine over `graph`. Call [`Self::initialize`] before
    /// stepping.
    pub fn new(graph: Graph, config: EngineConfig) -> Self {
        assert!(config.num_procs >= 1, "need at least one processor");
        let p = config.num_procs;
        let cluster = build_cluster(&config);
        AnytimeEngine {
            partition: Partition::unassigned(graph.capacity(), p),
            world: graph,
            procs: Vec::new(),
            cluster,
            config,
            rc_steps_done: 0,
            converged: false,
            exact: false,
            initialized: false,
            rr_cursor: 0,
            invalidation_epoch: 0,
            obs: EngineObs::default(),
        }
    }

    /// Ends a call that wrote rows: if a rank withheld a distance its rows
    /// cannot hold (`dv.rs`), every rank widens its rows one step and owes
    /// every row whole — relaxed, marked dirty and sent in full — so
    /// recombination re-derives what was withheld. The engine is then
    /// neither converged nor settled. Returns whether it widened.
    pub(crate) fn widen_after_overflow(&mut self) -> bool {
        if !self.procs.iter().any(|ps| ps.dv.overflowed()) {
            return false;
        }
        for ps in &mut self.procs {
            ps.dv.widen();
            ps.dirty.extend(ps.dv.vertices());
        }
        self.obs.widenings += 1;
        self.converged = false;
        true
    }

    /// The partition rank owning `v`. Every vertex that reaches a mutation
    /// or recombination path has an assignment: `initialize()` partitions
    /// the whole world, and the vertex-addition strategies assign before
    /// attaching edges. An unassigned vertex here is a partition/world
    /// desync — a bug, not a runtime condition to degrade on.
    #[expect(
        clippy::expect_used,
        reason = "partition assignment is a structural invariant — initialize covers the world and add-vertex strategies assign before wiring edges"
    )]
    pub(crate) fn owner_of(&self, v: VertexId) -> usize {
        self.partition
            .part_of(v)
            .expect("vertex assigned at initialize/add-vertex time")
    }

    /// After views lost edges: every rank left with no local edge to one of
    /// `candidates` leaves its owner's `sent_to` — so every member borders
    /// the row, and an edge that returns brings a full row, not a delta onto
    /// neighbours that were never relaxed against the rest of it.
    pub(crate) fn forget_unbordered(&mut self, candidates: impl IntoIterator<Item = VertexId>) {
        for v in candidates {
            let Some(owner) = self.partition.part_of(v) else {
                continue;
            };
            let apart = |ps: &&ProcState| {
                ps.rank != owner && ps.adj.get(v as usize).is_none_or(Vec::is_empty)
            };
            let gone: Vec<usize> = self.procs.iter().filter(apart).map(|ps| ps.rank).collect();
            if let Some(owner) = self.procs.get_mut(owner) {
                gone.into_iter()
                    .for_each(|rank| owner.forget_receiver(v, rank));
            }
        }
    }

    /// Domain decomposition + initial approximation. Also used by the
    /// baseline-restart strategy to rebuild from scratch (accounting
    /// accumulates across restarts; use [`Cluster::reset_accounting`]
    /// via [`Self::cluster_mut`] to zero it).
    #[expect(
        clippy::indexing_slicing,
        reason = "outbox is sized to num_procs which is asserted >= 1 at construction"
    )]
    pub fn initialize(&mut self) {
        let p = self.config.num_procs;

        // --- Domain decomposition ---------------------------------------
        let dd_span = self.span_open();
        let partitioner = self.config.partitioner.build(self.config.seed);
        let t = Stopwatch::start();
        self.partition = partitioner.partition(&self.world, p);
        let elapsed = t.elapsed();
        // The papers partition in parallel (ParMETIS); approximate by
        // spreading the measured cost evenly and synchronizing.
        for rank in 0..p {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "p is the processor count, far below u32::MAX"
            )]
            self.cluster
                .compute_measured(rank, Phase::DomainDecomposition, elapsed / p as u32);
        }
        self.cluster.barrier();

        // Distribute sub-graphs: charge each processor's incoming sub-graph
        // bytes (8 bytes per half-edge + 4 per vertex) from rank 0.
        let mut outbox: Vec<Vec<TransferOut<()>>> = (0..p).map(|_| Vec::new()).collect();
        let members = self.partition.members();
        for (rank, verts) in members.iter().enumerate() {
            if rank == 0 {
                continue;
            }
            let bytes: usize = verts.iter().map(|&v| 4 + 8 * self.world.degree(v)).sum();
            outbox[0].push(TransferOut {
                dst: rank,
                bytes,
                payload: (),
            });
        }
        self.cluster.exchange(Phase::DomainDecomposition, outbox);

        // Build processor states.
        self.procs = (0..p)
            .map(|rank| {
                let mut ps = ProcState::new(rank, self.world.capacity());
                ps.rebuild_view(&self.world, &self.partition);
                for &v in &members[rank] {
                    ps.dv.add_row(v);
                }
                ps
            })
            .collect();
        self.span_close(
            dd_span,
            "domain-decomposition",
            format!("{:?} p={p}", self.config.partitioner),
        );

        // --- Initial approximation ---------------------------------------
        // The heavy per-rank SSSP phase: one closure per rank on the
        // execution backend (sequential on the simulator, worker threads on
        // the threads backend).
        let ia_span = self.span_open();
        self.cluster.run_on_ranks(
            Phase::InitialApproximation,
            &mut self.procs,
            vec![(); p],
            |_, ps, ()| ps.initial_approximation(),
        );
        self.cluster.barrier();
        self.span_close(ia_span, "initial-approximation", format!("p={p}"));
        self.widen_after_overflow();

        self.rc_steps_done = 0;
        (self.converged, self.exact) = (false, false);
        self.initialized = true;
    }

    /// One recombination step: exchange the distance vectors of boundary
    /// vertices updated since the last step, relax, refine, and agree on
    /// termination. Returns `true` when no processor has pending updates
    /// (the solution is the exact APSP of the current graph).
    ///
    /// The network is reliable, as MPI's is: a row's sends are recorded as
    /// they are built, because every one arrives.
    pub fn rc_step(&mut self) -> bool {
        assert!(self.initialized, "call initialize() first");
        let rc_span = self.span_open();
        let p = self.config.num_procs;
        self.rc_steps_done += 1;
        self.exact = false;
        let now = self.rc_steps_done as u64;

        // 1. Assemble and record boundary-row sends: full rows on first
        // contact, only the changed entries afterwards (the papers' "send
        // only the updated values of the boundary DVs"). Each rank assembles
        // its sends on the execution backend (the threads backend runs these
        // closures on real workers).
        let partition = &self.partition;
        let outbox = self.cluster.run_on_ranks(
            Phase::Recombination,
            &mut self.procs,
            vec![(); p],
            |_, ps, ()| {
                let mut outbox: Vec<TransferOut<(VertexId, RowUpdate)>> = Vec::new();
                let mut dirty: Vec<VertexId> = ps.dirty.drain().collect();
                dirty.sort_unstable(); // deterministic order
                for u in dirty {
                    let ranks = ps.neighbor_ranks(u, partition);
                    if ranks.is_empty() {
                        // Interior vertex: no neighbour processor needs it.
                        // One relaxed against it while the row had a cut edge
                        // misses this update, so it is up to date no longer:
                        // should it border the row again, it gets a full one.
                        ps.forget_receivers(u);
                        continue;
                    }
                    // One walk of the unsent bits, and at most one full row,
                    // into buffers that every destination shares.
                    for (dst, update) in ps.row_updates(u, &ranks) {
                        outbox.push(TransferOut {
                            dst,
                            bytes: update.bytes(),
                            payload: (u, update),
                        });
                    }
                    ps.record_sent(u, &ranks);
                }
                outbox
            },
        );
        // Delta buffers this step holds, each shared one counted once.
        let mut buffers = HashSet::new();
        let mut buffer_bytes = 0;
        for transfer in outbox.iter().flatten() {
            match &transfer.payload.1 {
                RowUpdate::Full(_) => self.obs.full_rows_sent += 1,
                RowUpdate::Delta(delta) => {
                    self.obs.delta_rows_sent += 1;
                    self.obs.delta_entries_sent += delta.len() as u64;
                    if buffers.insert(Arc::as_ptr(delta)) {
                        buffer_bytes += delta.buffer_bytes();
                    }
                }
            }
        }
        let max = &mut self.obs.delta_buffer_bytes_max;
        *max = (*max).max(buffer_bytes);

        // 2. Personalized all-to-all exchange.
        let inbox = self.cluster.exchange(Phase::Recombination, outbox);

        // 3. Relax each received row into its local neighbours, drop it, and
        // refine locally, one closure per rank on the backend.
        self.cluster.run_on_ranks(
            Phase::Recombination,
            &mut self.procs,
            inbox,
            |_, ps, received| {
                for (_, (v, update)) in received {
                    ps.apply_row_update(v, update);
                }
                // The frontier holds what the inbound rows just lowered and
                // whatever a dynamic event or a migration installed since the
                // last step; draining it reaches the local fixed point, which
                // does not depend on the order the rows arrived in.
                ps.propagate();
            },
        );

        // 4. Global termination test. A rank whose rows withheld a distance
        // votes on: widening marks every row.
        self.widen_after_overflow();
        let flags: Vec<bool> = self.procs.iter().map(|ps| !ps.is_quiescent()).collect();
        let any = self.cluster.all_reduce_or(Phase::Recombination, &flags);
        self.converged = !any;
        self.span_close(rc_span, "recombination", format!("step {now}"));
        self.record_progress_sample();
        self.converged
    }

    /// Runs recombination steps until convergence or `max_steps`. Returns the
    /// number of steps executed.
    pub fn run_to_convergence(&mut self, max_steps: usize) -> usize {
        let mut steps = 0;
        while steps < max_steps {
            steps += 1;
            if self.rc_step() {
                break;
            }
        }
        steps
    }

    /// The current world graph.
    pub fn graph(&self) -> &Graph {
        &self.world
    }

    /// The current partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The execution backend (clocks + ledger, sim or threads).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access (e.g. to reset accounting between experiment
    /// phases).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Virtual cluster time elapsed so far, in microseconds.
    pub fn makespan_us(&self) -> f64 {
        self.cluster.makespan_us()
    }

    /// Recombination steps executed so far (across dynamic updates).
    pub fn rc_steps(&self) -> usize {
        self.rc_steps_done
    }

    /// Whether the last recombination step reported convergence.
    pub fn is_converged(&self) -> bool {
        self.converged
    }

    /// Whether [`AnytimeEngine::initialize`] has run (domain decomposition
    /// and initial approximation are done, `rc_step` is legal).
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Deletions (and weight increases, which route through deletion) since
    /// engine creation: an estimate from an older epoch may be an
    /// underestimate of the current graph.
    pub fn invalidation_epoch(&self) -> u64 {
        self.invalidation_epoch
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// An anytime snapshot: closeness estimates from the current (possibly
    /// partial) distance vectors. Charges the small result gather.
    #[expect(
        clippy::indexing_slicing,
        reason = "processor ranks enumerate procs, which has one entry per rank from initialize; vertex ids are below world capacity"
    )]
    pub fn snapshot(&mut self) -> Snapshot {
        let snap_span = self.span_open();
        let cap = self.world.capacity();
        let mut closeness = vec![0.0f64; cap];
        let mut dist_sum = vec![0u64; cap];
        let mut finite_targets = vec![0u32; cap];
        let p = self.config.num_procs;
        let mut outbox: Vec<Vec<TransferOut<()>>> = (0..p).map(|_| Vec::new()).collect();
        for (rank, ps) in self.procs.iter().enumerate() {
            let t = Stopwatch::start();
            for &v in ps.dv.vertices() {
                let (sum, finite) = ps.dv.row(v).reach(v as usize);
                closeness[v as usize] = if sum == 0 { 0.0 } else { 1.0 / sum as f64 };
                dist_sum[v as usize] = sum;
                finite_targets[v as usize] = finite;
            }
            self.cluster
                .compute_measured(rank, Phase::Recombination, t.elapsed());
            if rank != 0 {
                // 16 bytes per owned vertex to the master: the closeness and
                // its integer distance sum, 8 bytes each.
                outbox[rank].push(TransferOut {
                    dst: 0,
                    bytes: 16 * ps.dv.row_count(),
                    payload: (),
                });
            }
        }
        self.cluster.exchange(Phase::Recombination, outbox);
        let snap = Snapshot {
            rc_step: self.rc_steps_done,
            makespan_us: self.cluster.makespan_us(),
            closeness,
            dist_sum,
            finite_targets,
        };
        self.span_close(
            snap_span,
            "snapshot",
            format!("step {}", self.rc_steps_done),
        );
        snap
    }

    /// The ranks `v`'s owner lists as relaxed against `v`'s row as last
    /// sent — the ranks it sends deltas of the row to — ascending. Empty for
    /// an unassigned vertex (test/debug helper).
    pub fn receivers(&self, v: VertexId) -> Vec<usize> {
        let owner = self.partition.part_of(v).and_then(|r| self.procs.get(r));
        let listed = owner.and_then(|ps| ps.sent_to.get(&v)).into_iter();
        let mut ranks: Vec<usize> = listed.flatten().copied().collect();
        ranks.sort_unstable();
        ranks
    }

    /// Gathers the full distance matrix by source vertex id (test/debug
    /// helper; free of cluster charges). Unowned/dead slots yield `INF` rows.
    #[expect(
        clippy::indexing_slicing,
        reason = "the dense output is sized to world capacity and row vertex ids are below it"
    )]
    pub fn distances_dense(&self) -> Vec<Vec<Weight>> {
        let cap = self.world.capacity();
        let mut out = vec![vec![INF; cap]; cap];
        for ps in &self.procs {
            for &v in ps.dv.vertices() {
                let row = ps.dv.row(v).iter();
                out[v as usize]
                    .iter_mut()
                    .zip(row)
                    .for_each(|(d, r)| *d = r);
            }
        }
        out
    }

    /// Internal consistency checks (tests): every live vertex has exactly one
    /// owning row; views agree with the partition; every rank an owner lists
    /// in a row's `sent_to` borders the row's vertex; a converged engine has
    /// every change log empty.
    #[expect(
        clippy::indexing_slicing,
        reason = "the diagnostic tables are sized to world capacity and row vertex ids are below it"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "world capacity is bounded by the u32 vertex-id space"
    )]
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut owned = vec![0usize; self.world.capacity()];
        for ps in &self.procs {
            for &v in ps.dv.vertices() {
                owned[v as usize] += 1;
                if !ps.is_local[v as usize] {
                    return Err(format!("proc {} owns row {v} but not locality", ps.rank));
                }
                if self.partition.part_of(v) != Some(ps.rank) {
                    return Err(format!("proc {} owns {v} against the partition", ps.rank));
                }
                // In rank order, not the set's: the first one reported repeats.
                let apart = |r: &&usize| self.procs[**r].adj[v as usize].is_empty();
                let listed = ps.sent_to.get(&v).into_iter().flatten();
                if let Some(r) = listed.filter(apart).min() {
                    let rank = ps.rank;
                    return Err(format!("proc {rank} lists {r} for row {v}: no edge there"));
                }
            }
            if let Some(v) = ps.dv.frontier().next().filter(|_| self.converged) {
                return Err(format!("converged, but row {v} is on the frontier"));
            }
        }
        for v in 0..self.world.capacity() as VertexId {
            let expect = usize::from(self.world.is_alive(v));
            if owned[v as usize] != expect {
                return Err(format!(
                    "vertex {v}: {} owners, expected {expect}",
                    owned[v as usize]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionerKind;
    use aa_graph::{algo, generators};

    fn config(p: usize) -> EngineConfig {
        EngineConfig {
            num_procs: p,
            ..Default::default()
        }
    }

    fn assert_matches_oracle(engine: &AnytimeEngine) {
        let dense = engine.distances_dense();
        let oracle = algo::apsp_dijkstra(engine.graph());
        for v in 0..engine.graph().capacity() {
            if engine.graph().is_alive(v as VertexId) {
                assert_eq!(dense[v], oracle[v], "row {v} differs from oracle");
            }
        }
    }

    #[test]
    fn static_pipeline_matches_oracle_scale_free() {
        let g = generators::barabasi_albert(150, 2, 3, 11);
        let mut e = AnytimeEngine::new(g, config(4));
        e.initialize();
        e.check_invariants().unwrap();
        let steps = e.run_to_convergence(32);
        assert!(e.is_converged(), "did not converge in 32 steps");
        // Steps are bounded by the maximum number of cut-edge crossings on
        // any shortest path (the papers bound this by P−1 for processor
        // chains); small-world graphs stay in the single digits.
        assert!(
            steps <= 10,
            "static convergence took too long: {steps} steps"
        );
        assert_matches_oracle(&e);
    }

    #[test]
    fn static_pipeline_matches_oracle_many_procs() {
        let g = generators::erdos_renyi_gnm(120, 360, 4, 5);
        let mut e = AnytimeEngine::new(g, config(8));
        e.initialize();
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_matches_oracle(&e);
    }

    #[test]
    fn single_processor_degenerates_to_local_apsp() {
        let g = generators::barabasi_albert(60, 2, 1, 3);
        let mut e = AnytimeEngine::new(g, config(1));
        e.initialize();
        let steps = e.run_to_convergence(8);
        assert!(e.is_converged());
        assert_eq!(steps, 1, "one processor converges in a single step");
        assert_matches_oracle(&e);
    }

    #[test]
    fn disconnected_graph_converges_with_inf_across_components() {
        let mut g = generators::path(20);
        g.remove_edge(9, 10);
        let mut e = AnytimeEngine::new(g, config(4));
        e.initialize();
        e.run_to_convergence(32);
        assert!(e.is_converged());
        assert_matches_oracle(&e);
        let d = e.distances_dense();
        assert_eq!(d[0][19], INF);
    }

    #[test]
    fn all_partitioners_converge_to_oracle() {
        for kind in [
            PartitionerKind::RoundRobin,
            PartitionerKind::Hash,
            PartitionerKind::BfsGrow,
            PartitionerKind::Multilevel,
        ] {
            let g = generators::watts_strogatz(80, 3, 0.2, 2, 6);
            let mut e = AnytimeEngine::new(
                g,
                EngineConfig {
                    num_procs: 5,
                    partitioner: kind,
                    ..Default::default()
                },
            );
            e.initialize();
            e.run_to_convergence(64);
            assert!(e.is_converged(), "{kind:?} did not converge");
            assert_matches_oracle(&e);
        }
    }

    #[test]
    fn anytime_estimates_are_monotone_nonincreasing() {
        let g = generators::barabasi_albert(150, 2, 1, 21);
        let mut e = AnytimeEngine::new(g, config(6));
        e.initialize();
        let mut prev = e.distances_dense();
        for _ in 0..40 {
            let done = e.rc_step();
            let cur = e.distances_dense();
            for (pr, cr) in prev.iter().zip(&cur) {
                for (&a, &b) in pr.iter().zip(cr) {
                    assert!(b <= a, "distance estimate increased: {a} -> {b}");
                }
            }
            prev = cur;
            if done {
                break;
            }
        }
        assert!(e.is_converged());
    }

    #[test]
    fn snapshot_closeness_matches_exact_at_convergence() {
        let g = generators::barabasi_albert(100, 2, 1, 8);
        let exact = algo::exact_closeness(&g);
        let mut e = AnytimeEngine::new(g, config(4));
        e.initialize();
        e.run_to_convergence(32);
        let snap = e.snapshot();
        for (v, (&got, &want)) in snap.closeness.iter().zip(&exact).enumerate() {
            assert!(
                (got - want).abs() < 1e-12,
                "closeness of {v}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn makespan_and_ledger_accumulate() {
        let g = generators::barabasi_albert(80, 2, 1, 4);
        let mut e = AnytimeEngine::new(g, config(4));
        e.initialize();
        let after_init = e.makespan_us();
        assert!(after_init > 0.0);
        e.run_to_convergence(32);
        assert!(e.makespan_us() > after_init);
        let ledger = e.cluster().ledger();
        assert!(ledger.phase(Phase::InitialApproximation).compute_us > 0.0);
        assert!(ledger.phase(Phase::Recombination).bytes > 0);
    }

    #[test]
    fn a_row_bordering_two_ranks_sends_them_one_buffer() {
        // Round-robin over three ranks: 0 and 3 on rank 0, 1 on rank 1, 2 on
        // rank 2. Row 1 borders ranks 0 and 2, and the first exchange teaches
        // it d(1,3) through 0's row: its second send is a delta to both.
        let mut g = Graph::with_vertices(4);
        for (p, q) in [(0, 1), (1, 2), (0, 3)] {
            g.add_edge(p, q, 1);
        }
        let config = EngineConfig {
            num_procs: 3,
            partitioner: PartitionerKind::RoundRobin,
            ..Default::default()
        };
        let mut e = AnytimeEngine::new(g, config);
        e.initialize();
        assert!(!e.rc_step());
        let ps = &e.procs[1];
        assert_eq!(ps.neighbor_ranks(1, &e.partition), [0, 2]);
        match &ps.row_updates(1, &[0, 2])[..] {
            [(0, RowUpdate::Delta(a)), (2, RowUpdate::Delta(b))] => {
                assert!(Arc::ptr_eq(a, b));
                assert_eq!(a.pairs(), [(3, 2)]);
            }
            other => panic!("expected two deltas, got {other:?}"),
        }
        // That step stages three one-entry deltas over one bitset word —
        // rows 0, 1 and 2 — and is the largest: row 1's is counted once, not
        // once per destination.
        e.run_to_convergence(16);
        assert!(e.is_converged());
        let r = e.metrics_registry();
        assert_eq!(r.counter_value("aa_rc_delta_rows_sent_total", &[]), 5);
        let staged = r.gauge_value("aa_rc_delta_buffer_bytes_max", &[]);
        assert_eq!(staged, Some(3.0 * (8.0 + 4.0)));
        assert_matches_oracle(&e);
    }

    #[test]
    #[should_panic(expected = "call initialize")]
    fn stepping_before_initialize_panics() {
        let g = generators::path(4);
        let mut e = AnytimeEngine::new(g, config(2));
        e.rc_step();
    }
}
