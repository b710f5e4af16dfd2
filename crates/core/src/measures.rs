//! Additional distributed SNA measures on the same simulated cluster.
//!
//! The papers list degree, betweenness, closeness and eigenvector centrality
//! as the key SNA measures and present their framework as general-purpose.
//! Closeness is the main contribution (the engine); this module adds the two
//! measures that distribute naturally over the same sub-graph views and
//! exchange machinery — degree centrality (embarrassingly local) and
//! eigenvector centrality / PageRank (iterative neighbour exchanges) — each
//! validated against its sequential oracle in `aa-graph`.

use crate::engine::AnytimeEngine;
use aa_graph::VertexId;
use aa_logp::Phase;
use aa_obs::Stopwatch;
use aa_runtime::TransferOut;

impl AnytimeEngine {
    /// Distributed degree centrality: each processor scores its owned
    /// vertices; results are gathered to rank 0 (cost charged). Matches
    /// [`aa_graph::centrality::degree_centrality`] exactly.
    pub fn degree_centrality(&mut self) -> Vec<f64> {
        assert!(self.initialized, "call initialize() first");
        let cap = self.world.capacity();
        let n = self.world.vertex_count();
        let denom = if n > 1 { (n - 1) as f64 } else { 1.0 };
        let mut out = vec![0.0f64; cap];
        let p = self.config.num_procs;
        let mut gather: Vec<Vec<TransferOut<()>>> = (0..p).map(|_| Vec::new()).collect();
        for (rank, ps) in self.procs.iter().enumerate() {
            let t = Stopwatch::start();
            for &v in ps.dv.vertices() {
                out[v as usize] = ps.adj[v as usize].len() as f64 / denom;
            }
            self.cluster
                .compute_measured(rank, Phase::Recombination, t.elapsed());
            if rank != 0 {
                gather[rank].push(TransferOut {
                    dst: 0,
                    bytes: 12 * ps.dv.row_count(),
                    payload: (),
                });
            }
        }
        self.cluster.exchange(Phase::Recombination, gather);
        out
    }

    /// Distributed eigenvector centrality by shifted power iteration
    /// (`x ← (I + A)x`, normalized): per iteration each processor exchanges
    /// the scores of its boundary vertices with its neighbours and the norm
    /// is agreed by all-reduce. Converges to the same dominant eigenvector as
    /// [`aa_graph::centrality::eigenvector_centrality`].
    pub fn eigenvector_centrality(&mut self, max_iters: usize, tol: f64) -> Vec<f64> {
        assert!(self.initialized, "call initialize() first");
        let cap = self.world.capacity();
        let n = self.world.vertex_count();
        let mut x = vec![0.0f64; cap];
        if n == 0 {
            return x;
        }
        for v in self.world.vertices() {
            x[v as usize] = 1.0 / (n as f64).sqrt();
        }
        // Every processor holds the full x vector here for simplicity of
        // expression; communication is still charged faithfully — only
        // boundary scores move (12 bytes per boundary vertex per neighbour).
        for _ in 0..max_iters {
            self.exchange_boundary_scalars(&x);
            let mut next = vec![0.0f64; cap];
            let mut sq = vec![0.0f64; self.config.num_procs];
            for (rank, ps) in self.procs.iter().enumerate() {
                let t = Stopwatch::start();
                for &v in ps.dv.vertices() {
                    let mut acc = x[v as usize];
                    for &(u, w) in &ps.adj[v as usize] {
                        acc += w as f64 * x[u as usize];
                    }
                    next[v as usize] = acc;
                    sq[rank] += acc * acc;
                }
                self.cluster
                    .compute_measured(rank, Phase::Recombination, t.elapsed());
            }
            let norm = self
                .cluster
                .all_reduce_f64(Phase::Recombination, &sq, |a, b| a + b)
                .sqrt();
            if norm == 0.0 {
                return x;
            }
            let mut max_diff = vec![0.0f64; self.config.num_procs];
            for (rank, ps) in self.procs.iter().enumerate() {
                for &v in ps.dv.vertices() {
                    let value = next[v as usize] / norm;
                    max_diff[rank] = max_diff[rank].max((value - x[v as usize]).abs());
                    x[v as usize] = value;
                }
            }
            let diff = self
                .cluster
                .all_reduce_f64(Phase::Recombination, &max_diff, f64::max);
            if diff < tol {
                break;
            }
        }
        x
    }

    /// Distributed PageRank (push model): each processor pushes its owned
    /// vertices' rank along their edges; contributions crossing a cut are
    /// exchanged, dangling mass and the convergence test are agreed by
    /// all-reduce. Matches [`aa_graph::centrality::pagerank`].
    pub fn pagerank(&mut self, damping: f64, max_iters: usize, tol: f64) -> Vec<f64> {
        assert!(self.initialized, "call initialize() first");
        let cap = self.world.capacity();
        let n = self.world.vertex_count();
        let mut pr = vec![0.0f64; cap];
        if n == 0 {
            return pr;
        }
        for v in self.world.vertices() {
            pr[v as usize] = 1.0 / n as f64;
        }
        let p = self.config.num_procs;
        for _ in 0..max_iters {
            // Push contributions; remote shares travel via the exchange.
            let mut incoming = vec![0.0f64; cap];
            let mut dangling = vec![0.0f64; p];
            type Contributions = Vec<(VertexId, f64)>;
            let mut outbox: Vec<Vec<TransferOut<Contributions>>> =
                (0..p).map(|_| Vec::new()).collect();
            for (rank, ps) in self.procs.iter().enumerate() {
                let t = Stopwatch::start();
                let mut remote: Vec<Vec<(VertexId, f64)>> = vec![Vec::new(); p];
                for &v in ps.dv.vertices() {
                    let edges = &ps.adj[v as usize];
                    if edges.is_empty() {
                        dangling[rank] += pr[v as usize];
                        continue;
                    }
                    let total_w: u64 = edges.iter().map(|&(_, w)| w as u64).sum();
                    for &(u, w) in edges {
                        let share = pr[v as usize] * w as f64 / total_w as f64;
                        if ps.is_local[u as usize] {
                            incoming[u as usize] += share;
                        } else {
                            let owner = self.owner_of(u);
                            remote[owner].push((u, share));
                        }
                    }
                }
                for (dst, contributions) in remote.into_iter().enumerate() {
                    if !contributions.is_empty() {
                        outbox[rank].push(TransferOut {
                            dst,
                            bytes: 12 * contributions.len(),
                            payload: contributions,
                        });
                    }
                }
                self.cluster
                    .compute_measured(rank, Phase::Recombination, t.elapsed());
            }
            let inbox = self.cluster.exchange(Phase::Recombination, outbox);
            for received in inbox {
                for (_src, contributions) in received {
                    for (u, share) in contributions {
                        incoming[u as usize] += share;
                    }
                }
            }
            let dangling_total =
                self.cluster
                    .all_reduce_f64(Phase::Recombination, &dangling, |a, b| a + b);
            let teleport = (1.0 - damping) / n as f64 + damping * dangling_total / n as f64;
            let mut deltas = vec![0.0f64; p];
            for (rank, ps) in self.procs.iter().enumerate() {
                for &v in ps.dv.vertices() {
                    let value = teleport + damping * incoming[v as usize];
                    deltas[rank] += (value - pr[v as usize]).abs();
                    pr[v as usize] = value;
                }
            }
            let delta = self
                .cluster
                .all_reduce_f64(Phase::Recombination, &deltas, |a, b| a + b);
            if delta < tol {
                break;
            }
        }
        pr
    }

    /// Charges the boundary-score exchange used by the iterative measures:
    /// 12 bytes (id + f64) per owned boundary vertex per neighbouring rank.
    fn exchange_boundary_scalars(&mut self, _scores: &[f64]) {
        let p = self.config.num_procs;
        let mut outbox: Vec<Vec<TransferOut<()>>> = (0..p).map(|_| Vec::new()).collect();
        for rank in 0..p {
            let mut per_dst = vec![0usize; p];
            for &v in self.procs[rank].dv.vertices() {
                for dst in self.procs[rank].neighbor_ranks(v, &self.partition) {
                    per_dst[dst] += 1;
                }
            }
            for (dst, count) in per_dst.into_iter().enumerate() {
                if count > 0 {
                    outbox[rank].push(TransferOut {
                        dst,
                        bytes: 12 * count,
                        payload: (),
                    });
                }
            }
        }
        self.cluster.exchange(Phase::Recombination, outbox);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use aa_graph::{centrality, generators};

    fn engine(n: usize, p: usize, seed: u64) -> AnytimeEngine {
        let g = generators::barabasi_albert(n, 2, 2, seed);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: p,
                seed,
                ..Default::default()
            },
        );
        e.initialize();
        e
    }

    #[test]
    fn degree_matches_oracle() {
        let mut e = engine(90, 4, 3);
        let got = e.degree_centrality();
        let want = centrality::degree_centrality(e.graph());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn eigenvector_matches_oracle() {
        let mut e = engine(80, 4, 5);
        let got = e.eigenvector_centrality(300, 1e-12);
        let want = centrality::eigenvector_centrality(e.graph(), 300, 1e-12).unwrap();
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-6, "vertex {v}: {g} vs {w}");
        }
    }

    #[test]
    fn pagerank_matches_oracle() {
        let mut e = engine(80, 4, 7);
        let got = e.pagerank(0.85, 200, 1e-12);
        let want = centrality::pagerank(e.graph(), 0.85, 200, 1e-12);
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-8, "vertex {v}: {g} vs {w}");
        }
        assert!((got.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn measures_charge_communication() {
        let mut e = engine(60, 4, 9);
        let before = e.cluster().ledger().totals().bytes;
        e.eigenvector_centrality(10, 1e-9);
        let after = e.cluster().ledger().totals().bytes;
        assert!(after > before, "boundary exchanges must be charged");
    }

    #[test]
    fn measures_work_after_dynamic_updates() {
        let mut e = engine(60, 4, 11);
        e.run_to_convergence(64);
        e.add_edge(0, 30, 1);
        e.run_to_convergence(64);
        let got = e.pagerank(0.85, 200, 1e-12);
        let want = centrality::pagerank(e.graph(), 0.85, 200, 1e-12);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-8);
        }
    }

    #[test]
    fn pagerank_with_isolated_vertices() {
        let mut g = generators::path(10);
        g.add_vertex(); // dangling
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 3,
                ..Default::default()
            },
        );
        e.initialize();
        let got = e.pagerank(0.85, 200, 1e-12);
        let want = centrality::pagerank(e.graph(), 0.85, 200, 1e-12);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-8);
        }
    }
}
