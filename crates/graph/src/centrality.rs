//! Additional sequential centrality references.
//!
//! The papers position closeness centrality among the standard SNA measures
//! (degree, betweenness, eigenvector). These sequential implementations
//! serve as oracles for the distributed measures in `aa-core` and as
//! comparison baselines in examples.

use crate::graph::{Graph, VertexId, INF};
use std::collections::VecDeque;

/// Degree centrality: `deg(v) / (n - 1)` over live vertices.
pub fn degree_centrality(g: &Graph) -> Vec<f64> {
    let n = g.vertex_count();
    let denom = if n > 1 { (n - 1) as f64 } else { 1.0 };
    (0..g.capacity() as VertexId)
        .map(|v| {
            if g.is_alive(v) {
                g.degree(v) as f64 / denom
            } else {
                0.0
            }
        })
        .collect()
}

/// Betweenness centrality via Brandes' algorithm (unweighted: BFS DAGs).
/// Undirected convention: each pair counted once (final values halved).
pub fn betweenness_unweighted(g: &Graph) -> Vec<f64> {
    let cap = g.capacity();
    let mut bc = vec![0.0f64; cap];
    for s in g.vertices() {
        // BFS from s building the shortest-path DAG.
        let mut dist = vec![INF; cap];
        let mut sigma = vec![0.0f64; cap]; // number of shortest paths
        let mut preds: Vec<Vec<VertexId>> = vec![Vec::new(); cap];
        let mut order: Vec<VertexId> = Vec::new();
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &(v, _) in g.neighbors(u) {
                if dist[v as usize] == INF {
                    dist[v as usize] = dist[u as usize] + 1;
                    queue.push_back(v);
                }
                if dist[v as usize] == dist[u as usize] + 1 {
                    sigma[v as usize] += sigma[u as usize];
                    preds[v as usize].push(u);
                }
            }
        }
        // Dependency accumulation in reverse BFS order.
        let mut delta = vec![0.0f64; cap];
        for &w in order.iter().rev() {
            for &u in &preds[w as usize] {
                delta[u as usize] +=
                    sigma[u as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
            }
            if w != s {
                bc[w as usize] += delta[w as usize];
            }
        }
    }
    // Undirected graphs double-count each (s, t) pair.
    for b in bc.iter_mut() {
        *b /= 2.0;
    }
    bc
}

/// Eigenvector centrality by power iteration. Returns the dominant
/// eigenvector normalized to unit Euclidean length, or `None` if the
/// iteration fails to make progress (e.g. an empty graph).
pub fn eigenvector_centrality(g: &Graph, max_iters: usize, tol: f64) -> Option<Vec<f64>> {
    let cap = g.capacity();
    let n = g.vertex_count();
    if n == 0 {
        return None;
    }
    let mut x = vec![0.0f64; cap];
    for v in g.vertices() {
        x[v as usize] = 1.0 / (n as f64).sqrt();
    }
    for _ in 0..max_iters {
        let mut next = vec![0.0f64; cap];
        for v in g.vertices() {
            // Shifted iteration on (I + A): same dominant eigenvector, but
            // converges on bipartite graphs (stars, even cycles) where plain
            // power iteration oscillates between ±λ eigenpairs.
            next[v as usize] = x[v as usize];
            for &(u, w) in g.neighbors(v) {
                next[v as usize] += w as f64 * x[u as usize];
            }
        }
        let norm = next.iter().map(|a| a * a).sum::<f64>().sqrt();
        if norm == 0.0 {
            return Some(x); // no edges: the uniform vector is as good as any
        }
        for a in next.iter_mut() {
            *a /= norm;
        }
        let diff: f64 = next
            .iter()
            .zip(&x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        x = next;
        if diff < tol {
            return Some(x);
        }
    }
    Some(x)
}

/// PageRank with damping `d`, uniform teleport over live vertices. Dangling
/// mass is redistributed uniformly. Iterates to `tol` in L1 or `max_iters`.
pub fn pagerank(g: &Graph, d: f64, max_iters: usize, tol: f64) -> Vec<f64> {
    let cap = g.capacity();
    let n = g.vertex_count();
    if n == 0 {
        return vec![0.0; cap];
    }
    let alive: Vec<VertexId> = g.vertices().collect();
    let mut pr = vec![0.0f64; cap];
    for &v in &alive {
        pr[v as usize] = 1.0 / n as f64;
    }
    for _ in 0..max_iters {
        let mut next = vec![0.0f64; cap];
        let mut dangling = 0.0f64;
        for &v in &alive {
            let deg = g.degree(v);
            if deg == 0 {
                dangling += pr[v as usize];
                continue;
            }
            // Weighted split over incident edges.
            let total_w: u64 = g.neighbors(v).iter().map(|&(_, w)| w as u64).sum();
            for &(u, w) in g.neighbors(v) {
                next[u as usize] += pr[v as usize] * (w as f64 / total_w as f64);
            }
        }
        let teleport = (1.0 - d) / n as f64 + d * dangling / n as f64;
        let mut delta = 0.0;
        for &v in &alive {
            let value = teleport + d * next[v as usize];
            delta += (value - pr[v as usize]).abs();
            pr[v as usize] = value;
        }
        if delta < tol {
            break;
        }
    }
    pr
}

/// k-core decomposition: the core number of every live vertex (largest `k`
/// such that the vertex belongs to a subgraph of minimum degree `k`).
/// Tombstones get 0. Classic peeling algorithm, O(m).
pub fn k_core(g: &Graph) -> Vec<usize> {
    let cap = g.capacity();
    let mut degree: Vec<usize> = (0..cap as VertexId)
        .map(|v| if g.is_alive(v) { g.degree(v) } else { 0 })
        .collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    // Bucket queue by current degree.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); max_deg + 1];
    for v in g.vertices() {
        buckets[degree[v as usize]].push(v);
    }
    let mut core = vec![0usize; cap];
    let mut removed = vec![false; cap];
    let mut k = 0usize;
    for d in 0..=max_deg {
        k = k.max(d);
        let mut stack = std::mem::take(&mut buckets[d]);
        while let Some(v) = stack.pop() {
            if removed[v as usize] || degree[v as usize] > d {
                // Degree grew stale; it will be revisited from its true bucket.
                continue;
            }
            removed[v as usize] = true;
            core[v as usize] = k;
            for &(u, _) in g.neighbors(v) {
                if !removed[u as usize] && degree[u as usize] > d {
                    degree[u as usize] -= 1;
                    if degree[u as usize] == d {
                        stack.push(u);
                    } else {
                        buckets[degree[u as usize]].push(u);
                    }
                }
            }
        }
    }
    core
}

/// Sampled approximate closeness (Eppstein-Wang style): estimates
/// `sum_u d(v, u)` from `k` uniformly sampled pivot sources as
/// `n/k * sum_pivots d(v, p)` and inverts it. The papers cite this line of
/// work (Okamoto et al.) for scaling closeness beyond exact APSP; the
/// estimator converges as `O(sqrt(log n / k))` relative error on the distance
/// sums. Unreachable pivot-vertex pairs contribute nothing. Returns 0.0 for
/// vertices no pivot reaches.
pub fn approx_closeness(g: &Graph, k: usize, seed: u64) -> Vec<f64> {
    use rand::prelude::*;
    let cap = g.capacity();
    let alive: Vec<VertexId> = g.vertices().collect();
    let n = alive.len();
    if n == 0 || k == 0 {
        return vec![0.0; cap];
    }
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut pivots = alive.clone();
    pivots.shuffle(&mut rng);
    pivots.truncate(k.min(n));
    let mut sums = vec![0.0f64; cap];
    let mut reached = vec![0usize; cap];
    for &p in &pivots {
        let dist = crate::algo::dijkstra(g, p);
        for &v in &alive {
            let d = dist[v as usize];
            if d != INF && v != p {
                sums[v as usize] += d as f64;
                reached[v as usize] += 1;
            }
        }
    }
    let scale = n as f64 / pivots.len() as f64;
    (0..cap)
        .map(|v| {
            if reached[v] == 0 || sums[v] == 0.0 {
                0.0
            } else {
                1.0 / (sums[v] * scale)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use crate::generators;

    #[test]
    fn degree_centrality_of_star() {
        let g = generators::star(5);
        let dc = degree_centrality(&g);
        assert!((dc[0] - 1.0).abs() < 1e-12);
        assert!((dc[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn betweenness_of_path_center() {
        // Path 0-1-2-3-4: vertex 2 lies on 0-3, 0-4, 1-3, 1-4, plus 0..1 etc.
        let g = generators::path(5);
        let bc = betweenness_unweighted(&g);
        assert!((bc[0] - 0.0).abs() < 1e-12);
        assert!(
            (bc[2] - 4.0).abs() < 1e-12,
            "center: pairs (0,3),(0,4),(1,3),(1,4)"
        );
        assert!((bc[1] - 3.0).abs() < 1e-12, "pairs (0,2),(0,3),(0,4)");
    }

    #[test]
    fn betweenness_of_star_center_is_all_pairs() {
        let g = generators::star(6);
        let bc = betweenness_unweighted(&g);
        // All C(5,2) = 10 leaf pairs route through the hub.
        assert!((bc[0] - 10.0).abs() < 1e-12);
        for leaf in bc.iter().skip(1) {
            assert!(leaf.abs() < 1e-12);
        }
    }

    #[test]
    fn betweenness_splits_equal_paths() {
        let g = generators::cycle(4); // two equal paths between opposite corners
        let bc = betweenness_unweighted(&g);
        // Each vertex carries half of the single opposite pair.
        for (v, &b) in bc.iter().enumerate() {
            assert!((b - 0.5).abs() < 1e-12, "vertex {v}: {b}");
        }
    }

    #[test]
    fn eigenvector_centrality_hub_dominates() {
        let g = generators::star(8);
        let x = eigenvector_centrality(&g, 200, 1e-12).unwrap();
        for leaf in 1..8 {
            assert!(x[0] > x[leaf], "hub must dominate");
        }
        let norm: f64 = x.iter().map(|a| a * a).sum();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eigenvector_on_empty_and_edgeless() {
        assert!(eigenvector_centrality(&Graph::new(), 10, 1e-9).is_none());
        let g = Graph::with_vertices(3);
        let x = eigenvector_centrality(&g, 10, 1e-9).unwrap();
        assert!(x.iter().all(|&a| a > 0.0));
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hubs() {
        let g = generators::barabasi_albert(200, 2, 1, 3);
        let pr = pagerank(&g, 0.85, 100, 1e-10);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "mass conserved: {total}");
        let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
        let mean = total / g.vertex_count() as f64;
        assert!(pr[hub as usize] > 3.0 * mean, "hubs accumulate rank");
    }

    #[test]
    fn pagerank_handles_dangling_mass() {
        let mut g = generators::path(3);
        let isolated = g.add_vertex();
        let pr = pagerank(&g, 0.85, 100, 1e-12);
        assert!(
            pr[isolated as usize] > 0.0,
            "teleport reaches isolated vertices"
        );
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn k_core_of_clique_plus_tail() {
        let mut g = generators::complete(4); // 3-core
        let t = g.add_vertex();
        g.add_edge(t, 0, 1); // degree-1 tail
        let core = k_core(&g);
        for (v, &k) in core.iter().enumerate().take(4) {
            assert_eq!(k, 3, "clique member {v}");
        }
        assert_eq!(core[t as usize], 1);
    }

    #[test]
    fn k_core_of_tree_is_one() {
        let g = generators::star(10);
        let core = k_core(&g);
        for v in g.vertices() {
            assert_eq!(core[v as usize], 1);
        }
    }

    #[test]
    fn k_core_skips_tombstones() {
        let mut g = generators::complete(5);
        g.remove_vertex(2);
        let core = k_core(&g);
        assert_eq!(core[2], 0);
        for v in g.vertices() {
            assert_eq!(core[v as usize], 3);
        }
    }

    #[test]
    fn approx_closeness_with_all_pivots_is_exact() {
        let g = generators::barabasi_albert(80, 2, 1, 41);
        let approx = approx_closeness(&g, 80, 1);
        let exact = algo::exact_closeness(&g);
        for (a, e) in approx.iter().zip(&exact) {
            assert!((a - e).abs() < 1e-12, "{a} vs {e}");
        }
    }

    #[test]
    fn approx_closeness_ranks_top_vertices_well() {
        let g = generators::barabasi_albert(300, 2, 1, 43);
        let approx = approx_closeness(&g, 60, 2);
        let exact = algo::exact_closeness(&g);
        let top = |scores: &[f64]| -> Vec<usize> {
            let mut idx: Vec<usize> = (0..scores.len()).collect();
            idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
            idx.truncate(10);
            idx
        };
        let overlap = top(&approx)
            .iter()
            .filter(|v| top(&exact).contains(v))
            .count();
        assert!(overlap >= 6, "top-10 overlap only {overlap}");
    }

    #[test]
    fn approx_closeness_edge_cases() {
        assert!(approx_closeness(&Graph::new(), 5, 1).is_empty());
        let g = Graph::with_vertices(3); // no edges
        let a = approx_closeness(&g, 3, 1);
        assert_eq!(a, vec![0.0; 3]);
    }
}
