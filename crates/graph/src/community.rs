//! Louvain community detection, from scratch.
//!
//! The papers' CutEdge-PS experiments add batches of vertices "extracted from
//! a larger graph using Pajek's Louvain community extraction method". This
//! module reimplements Louvain (Blondel et al. 2008): repeated local moving of
//! vertices to the neighbouring community with the best modularity gain,
//! followed by graph aggregation, until modularity stops improving.

use crate::graph::{Graph, VertexId};
use std::collections::HashMap;

/// Result of community detection: a community label per vertex id slot
/// (tombstones get `usize::MAX`) and the final modularity.
#[derive(Debug, Clone)]
pub struct Communities {
    /// Community id (dense, `0..count`) per vertex slot.
    pub label: Vec<usize>,
    /// Number of communities.
    pub count: usize,
    /// Modularity of the returned partition.
    pub modularity: f64,
}

impl Communities {
    /// Vertices of each community, indexed by community id.
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.count];
        for (v, &c) in self.label.iter().enumerate() {
            if c != usize::MAX {
                out[c].push(v as VertexId);
            }
        }
        out
    }
}

/// Modularity of a labelled partition of `g` (weighted):
/// `Q = Σ_c (in_c / 2m - (tot_c / 2m)^2)`.
pub fn modularity(g: &Graph, label: &[usize]) -> f64 {
    let two_m = 2.0 * g.total_edge_weight() as f64;
    if two_m == 0.0 {
        return 0.0;
    }
    let ncomm = label
        .iter()
        .filter(|&&c| c != usize::MAX)
        .max()
        .map_or(0, |&c| c + 1);
    let mut internal = vec![0.0f64; ncomm]; // 2 * weight inside community
    let mut total = vec![0.0f64; ncomm]; // sum of degrees (weighted)
    for v in g.vertices() {
        let c = label[v as usize];
        for &(u, w) in g.neighbors(v) {
            total[c] += w as f64;
            if label[u as usize] == c {
                internal[c] += w as f64;
            }
        }
    }
    (0..ncomm)
        .map(|c| internal[c] / two_m - (total[c] / two_m).powi(2))
        .sum()
}

/// Internal working graph for the aggregation phase: dense weighted adjacency
/// maps with self-loop weights (contracted intra-community edges).
struct WorkGraph {
    adj: Vec<HashMap<usize, f64>>, // neighbor -> weight (no self entries)
    self_loop: Vec<f64>,           // weight of self loops (counted once)
    total_weight: f64,             // m (sum of edge weights incl. self loops)
}

impl WorkGraph {
    fn from_graph(g: &Graph) -> (Self, Vec<usize>) {
        // Map live vertices to dense indices.
        let mut dense = vec![usize::MAX; g.capacity()];
        let mut idx = 0usize;
        for v in g.vertices() {
            dense[v as usize] = idx;
            idx += 1;
        }
        let mut adj = vec![HashMap::new(); idx];
        let mut total = 0.0;
        for (u, v, w) in g.edges() {
            let (du, dv) = (dense[u as usize], dense[v as usize]);
            *adj[du].entry(dv).or_insert(0.0) += w as f64;
            *adj[dv].entry(du).or_insert(0.0) += w as f64;
            total += w as f64;
        }
        (
            WorkGraph {
                self_loop: vec![0.0; idx],
                adj,
                total_weight: total,
            },
            dense,
        )
    }

    fn n(&self) -> usize {
        self.adj.len()
    }

    fn weighted_degree(&self, v: usize) -> f64 {
        self.adj[v].values().sum::<f64>() + 2.0 * self.self_loop[v]
    }

    /// One pass of local moving. Returns (labels, improved).
    fn local_moving(&self) -> (Vec<usize>, bool) {
        let n = self.n();
        let two_m = 2.0 * self.total_weight;
        let mut comm: Vec<usize> = (0..n).collect();
        let mut comm_tot: Vec<f64> = (0..n).map(|v| self.weighted_degree(v)).collect();
        let mut improved = false;
        if two_m == 0.0 {
            return (comm, false);
        }
        let mut moved = true;
        let mut rounds = 0;
        while moved && rounds < 32 {
            moved = false;
            rounds += 1;
            for v in 0..n {
                let cur = comm[v];
                let k_v = self.weighted_degree(v);
                // Weight from v to each neighbouring community.
                let mut to_comm: HashMap<usize, f64> = HashMap::new();
                #[expect(
                    clippy::iter_over_hash_type,
                    reason = "integer-weighted f64 sums are exact in any order"
                )]
                for (&u, &w) in &self.adj[v] {
                    *to_comm.entry(comm[u]).or_insert(0.0) += w;
                }
                let w_cur = to_comm.get(&cur).copied().unwrap_or(0.0);
                comm_tot[cur] -= k_v;
                // Deterministic scan order: hash-map iteration order must not
                // influence tie-breaking.
                let mut to_comm: Vec<(usize, f64)> = to_comm.into_iter().collect();
                to_comm.sort_unstable_by_key(|&(c, _)| c);
                // Gain of moving v into community c (relative, constant terms
                // dropped): w_{v->c} - k_v * tot_c / 2m.
                let mut best = (cur, w_cur - k_v * comm_tot[cur] / two_m);
                for &(c, w_vc) in &to_comm {
                    if c == cur {
                        continue;
                    }
                    let gain = w_vc - k_v * comm_tot[c] / two_m;
                    if gain > best.1 + 1e-12 {
                        best = (c, gain);
                    }
                }
                comm_tot[best.0] += k_v;
                if best.0 != cur {
                    comm[v] = best.0;
                    moved = true;
                    improved = true;
                }
            }
        }
        (comm, improved)
    }

    /// Contracts communities into super-vertices.
    fn aggregate(&self, comm: &[usize]) -> (WorkGraph, Vec<usize>) {
        // Renumber communities densely.
        let mut renum: HashMap<usize, usize> = HashMap::new();
        let mut dense_comm = vec![0usize; comm.len()];
        for (v, &c) in comm.iter().enumerate() {
            let next = renum.len();
            let id = *renum.entry(c).or_insert(next);
            dense_comm[v] = id;
        }
        let nc = renum.len();
        let mut adj = vec![HashMap::new(); nc];
        let mut self_loop = vec![0.0; nc];
        for v in 0..self.n() {
            let cv = dense_comm[v];
            self_loop[cv] += self.self_loop[v];
            #[expect(
                clippy::iter_over_hash_type,
                reason = "integer-weighted f64 sums are exact in any order"
            )]
            for (&u, &w) in &self.adj[v] {
                if u < v {
                    continue; // each undirected edge once
                }
                let cu = dense_comm[u];
                if cu == cv {
                    self_loop[cv] += w;
                } else {
                    *adj[cv].entry(cu).or_insert(0.0) += w;
                    *adj[cu].entry(cv).or_insert(0.0) += w;
                }
            }
        }
        (
            WorkGraph {
                adj,
                self_loop,
                total_weight: self.total_weight,
            },
            dense_comm,
        )
    }
}

/// Runs Louvain on `g`. Deterministic (fixed vertex scan order).
pub fn louvain(g: &Graph) -> Communities {
    let (mut work, dense) = WorkGraph::from_graph(g);
    // membership[i] = community (in current work graph) of dense vertex i
    let mut membership: Vec<usize> = (0..work.n()).collect();
    loop {
        let (comm, improved) = work.local_moving();
        if !improved {
            break;
        }
        let (next, dense_comm) = work.aggregate(&comm);
        for m in membership.iter_mut() {
            *m = dense_comm[comm[*m]];
        }
        let stalled = next.n() == work.n();
        work = next;
        if stalled {
            break;
        }
    }
    // Map back to vertex-id slots and renumber densely.
    let mut renum: HashMap<usize, usize> = HashMap::new();
    let mut label = vec![usize::MAX; g.capacity()];
    let mut di = 0usize;
    for v in 0..g.capacity() {
        if dense[v] != usize::MAX {
            let c = membership[di];
            let next = renum.len();
            label[v] = *renum.entry(c).or_insert(next);
            di += 1;
        }
    }
    let count = renum.len();
    let q = modularity(g, &label);
    Communities {
        label,
        count,
        modularity: q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn two_cliques_found() {
        // Two K5s joined by one edge: Louvain must find exactly the cliques.
        let mut g = Graph::with_vertices(10);
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                g.add_edge(u, v, 1);
                g.add_edge(u + 5, v + 5, 1);
            }
        }
        g.add_edge(4, 5, 1);
        let c = louvain(&g);
        assert_eq!(c.count, 2);
        for v in 1..5 {
            assert_eq!(c.label[v], c.label[0]);
        }
        for v in 6..10 {
            assert_eq!(c.label[v], c.label[5]);
        }
        assert_ne!(c.label[0], c.label[5]);
        assert!(c.modularity > 0.3, "Q = {}", c.modularity);
    }

    #[test]
    fn planted_partition_recovered() {
        let g = generators::planted_partition(4, 20, 0.6, 0.01, 1, 77);
        let truth = generators::planted_partition_labels(4, 20);
        let c = louvain(&g);
        assert!(
            c.count >= 3 && c.count <= 6,
            "found {} communities",
            c.count
        );
        // Check strong agreement: most intra-truth pairs share a Louvain label.
        let mut agree = 0usize;
        let mut total = 0usize;
        for u in 0..80 {
            for v in (u + 1)..80 {
                if truth[u] == truth[v] {
                    total += 1;
                    if c.label[u] == c.label[v] {
                        agree += 1;
                    }
                }
            }
        }
        assert!(
            agree as f64 > 0.8 * total as f64,
            "only {agree}/{total} intra pairs recovered"
        );
    }

    #[test]
    fn modularity_of_single_community_is_zero() {
        let g = generators::complete(6);
        let label = vec![0usize; 6];
        assert!(modularity(&g, &label).abs() < 1e-12);
    }

    #[test]
    fn modularity_of_singletons_is_negative() {
        let g = generators::complete(6);
        let label: Vec<usize> = (0..6).collect();
        assert!(modularity(&g, &label) < 0.0);
    }

    #[test]
    fn empty_graph_handled() {
        let g = Graph::with_vertices(3);
        let c = louvain(&g);
        assert_eq!(c.count, 3, "isolated vertices stay singleton");
        assert_eq!(c.modularity, 0.0);
    }

    #[test]
    fn members_partition_vertices() {
        let g = generators::barabasi_albert(60, 2, 1, 5);
        let c = louvain(&g);
        let members = c.members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, 60);
        assert!(members.iter().all(|m| !m.is_empty()));
    }

    #[test]
    fn tombstones_excluded() {
        let mut g = generators::complete(5);
        g.remove_vertex(2);
        let c = louvain(&g);
        assert_eq!(c.label[2], usize::MAX);
        assert_eq!(c.members().iter().map(|m| m.len()).sum::<usize>(), 4);
    }
}
