//! Distributed maximal clique enumeration on the simulated cluster.
//!
//! The anytime-anywhere framework family includes a maximal-clique
//! instantiation (cited by the papers alongside the closeness work). This
//! module distributes the classic *vertex-rooted* decomposition: every
//! maximal clique is enumerated exactly once, by the processor owning its
//! minimum-id member.
//!
//! One exchange round ships the adjacency lists of boundary vertices to the
//! processors that border them — after it, the owner of `v` knows every edge
//! among `{v} ∪ N(v)` (an edge between two external members is listed in
//! either endpoint's shipped adjacency) — and each processor then runs
//! pivoted Bron–Kerbosch on its owned roots, one after the other.

use crate::engine::AnytimeEngine;
use aa_graph::{cliques, Graph, VertexId};
use aa_logp::Phase;
use aa_obs::Stopwatch;
use aa_runtime::TransferOut;

impl AnytimeEngine {
    /// Enumerates all maximal cliques of the current graph, distributed over
    /// the virtual processors (boundary-adjacency exchange + per-root
    /// Bron–Kerbosch), and gathers them to rank 0. Results match
    /// [`aa_graph::cliques::maximal_cliques`] exactly (sorted).
    ///
    /// Intended for moderate graphs: clique counts are exponential in the
    /// worst case.
    pub fn maximal_cliques(&mut self) -> Vec<Vec<VertexId>> {
        assert!(self.initialized, "call initialize() first");
        let p = self.config.num_procs;
        let cap = self.world.capacity();

        // --- round 1: ship boundary adjacency lists ------------------------
        type AdjMsg = Vec<(VertexId, Vec<VertexId>)>;
        let mut outbox: Vec<Vec<TransferOut<AdjMsg>>> = (0..p).map(|_| Vec::new()).collect();
        for rank in 0..p {
            let t = Stopwatch::start();
            let ps = &self.procs[rank];
            let mut per_dst: Vec<AdjMsg> = vec![Vec::new(); p];
            for &u in ps.dv.vertices() {
                let dsts = ps.neighbor_ranks(u, &self.partition);
                if dsts.is_empty() {
                    continue;
                }
                let nbrs: Vec<VertexId> = ps.adj[u as usize].iter().map(|&(x, _)| x).collect();
                for dst in dsts {
                    per_dst[dst].push((u, nbrs.clone()));
                }
            }
            for (dst, msg) in per_dst.into_iter().enumerate() {
                if !msg.is_empty() {
                    let bytes: usize = msg.iter().map(|(_, l)| 4 + 4 * l.len()).sum();
                    outbox[rank].push(TransferOut {
                        dst,
                        bytes,
                        payload: msg,
                    });
                }
            }
            self.cluster
                .compute_measured(rank, Phase::Recombination, t.elapsed());
        }
        let inbox = self.cluster.exchange(Phase::Recombination, outbox);

        // --- round 2: per-processor rooted enumeration ---------------------
        let mut all: Vec<Vec<VertexId>> = Vec::new();
        let mut gather: Vec<Vec<TransferOut<()>>> = (0..p).map(|_| Vec::new()).collect();
        for (rank, received) in inbox.into_iter().enumerate() {
            let t = Stopwatch::start();
            // Augmented view: local knowledge + received boundary adjacency.
            let mut aug = Graph::with_vertices(cap);
            let ps = &self.procs[rank];
            for v in 0..cap {
                for &(u, w) in &ps.adj[v] {
                    if (u as usize) < cap && self.world.is_alive(u) && self.world.is_alive(v as u32)
                    {
                        aug.add_edge(v as VertexId, u, w);
                    }
                }
            }
            for (_src, msg) in received {
                for (u, nbrs) in msg {
                    for x in nbrs {
                        if self.world.is_alive(u) && self.world.is_alive(x) && u != x {
                            aug.add_edge(u, x, 1);
                        }
                    }
                }
            }
            let roots: Vec<VertexId> = ps.dv.vertices().to_vec();
            let mut local: Vec<Vec<VertexId>> = roots
                .iter()
                .flat_map(|&v| cliques::cliques_rooted_at(&aug, v))
                .collect();
            self.cluster
                .compute_measured(rank, Phase::Recombination, t.elapsed());
            if rank != 0 {
                let bytes: usize = local.iter().map(|c| 4 + 4 * c.len()).sum();
                gather[rank].push(TransferOut {
                    dst: 0,
                    bytes,
                    payload: (),
                });
            }
            all.append(&mut local);
        }
        self.cluster.exchange(Phase::Recombination, gather);
        all.sort();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::dynamic::{Endpoint, VertexBatch};
    use crate::strategy::AdditionStrategy;
    use aa_graph::generators;

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

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in [1u64, 2, 3] {
            let g = generators::erdos_renyi_gnm(50, 220, 1, seed);
            let want = cliques::maximal_cliques(&g);
            let mut e = engine(g, 4);
            assert_eq!(e.maximal_cliques(), want, "seed {seed}");
        }
    }

    #[test]
    fn matches_oracle_on_community_graph() {
        let g = generators::planted_partition(3, 10, 0.7, 0.05, 1, 7);
        let want = cliques::maximal_cliques(&g);
        let mut e = engine(g, 3);
        assert_eq!(e.maximal_cliques(), want);
    }

    #[test]
    fn works_with_one_processor() {
        let g = generators::complete(7);
        let mut e = engine(g, 1);
        let cliques = e.maximal_cliques();
        assert_eq!(cliques, vec![vec![0, 1, 2, 3, 4, 5, 6]]);
    }

    #[test]
    fn reflects_dynamic_updates() {
        let g = generators::path(6);
        let mut e = engine(g, 3);
        e.run_to_convergence(32);
        // Close a triangle dynamically.
        e.add_edge(0, 2, 1);
        e.run_to_convergence(32);
        let got = e.maximal_cliques();
        let want = cliques::maximal_cliques(e.graph());
        assert_eq!(got, want);
        assert!(got.contains(&vec![0, 1, 2]));
        // Add a vertex forming a 4-clique with 0,1,2.
        let mut batch = VertexBatch::new(1);
        for a in [0u32, 1, 2] {
            batch.connect(0, Endpoint::Existing(a), 1);
        }
        e.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
        let got = e.maximal_cliques();
        assert_eq!(got, cliques::maximal_cliques(e.graph()));
        assert!(got.iter().any(|c| c.len() == 4));
    }

    #[test]
    fn charges_communication() {
        let g = generators::erdos_renyi_gnm(40, 120, 1, 9);
        let mut e = engine(g, 4);
        let before = e.cluster().ledger().totals().bytes;
        e.maximal_cliques();
        assert!(e.cluster().ledger().totals().bytes > before);
    }

    #[test]
    fn handles_tombstones() {
        let g = generators::complete(6);
        let mut e = engine(g, 3);
        e.run_to_convergence(32);
        e.delete_vertex(2);
        let got = e.maximal_cliques();
        assert_eq!(got, cliques::maximal_cliques(e.graph()));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].len(), 5);
    }
}
