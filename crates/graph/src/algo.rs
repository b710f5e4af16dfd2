//! Sequential reference algorithms.
//!
//! These are the oracles the distributed anytime-anywhere engine is validated
//! against: single-source Dijkstra, full APSP via repeated Dijkstra or
//! Floyd–Warshall, connected components, and exact closeness centrality.

use crate::graph::{Graph, VertexId, Weight, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Single-source shortest path distances from `source` via Dijkstra with a
/// binary heap. Indices are vertex id slots; tombstoned vertices get `INF`.
///
/// ```
/// use aa_graph::{algo, generators};
/// let g = generators::path(4); // 0-1-2-3
/// assert_eq!(algo::dijkstra(&g, 0), vec![0, 1, 2, 3]);
/// ```
pub fn dijkstra(g: &Graph, source: VertexId) -> Vec<Weight> {
    let mut dist = vec![INF; g.capacity()];
    if !g.is_alive(source) {
        return dist;
    }
    dist[source as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u32, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for &(v, w) in g.neighbors(u) {
            let nd = d.saturating_add(w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// All-pairs shortest paths by running Dijkstra from every live vertex.
/// Row `u` is the distance vector of vertex `u`. O(n · (m log n)).
pub fn apsp_dijkstra(g: &Graph) -> Vec<Vec<Weight>> {
    (0..g.capacity() as VertexId)
        .map(|v| {
            if g.is_alive(v) {
                dijkstra(g, v)
            } else {
                vec![INF; g.capacity()]
            }
        })
        .collect()
}

/// All-pairs shortest paths via Floyd–Warshall. O(n³); a small-n cross-check
/// oracle for `apsp_dijkstra`.
pub fn apsp_floyd_warshall(g: &Graph) -> Vec<Vec<Weight>> {
    let n = g.capacity();
    let mut d = vec![vec![INF; n]; n];
    for v in g.vertices() {
        d[v as usize][v as usize] = 0;
    }
    for (u, v, w) in g.edges() {
        let (u, v) = (u as usize, v as usize);
        if w < d[u][v] {
            d[u][v] = w;
            d[v][u] = w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = d[i][k];
            if dik == INF || i == k {
                continue; // k == i relaxes through d[i][i] = 0: a no-op
            }
            let (before_i, from_i) = d.split_at_mut(i);
            #[expect(
                clippy::expect_used,
                reason = "from_i is the suffix starting at i < n, so it has at least one row"
            )]
            let (row_i, after_i) = from_i.split_first_mut().expect("i < n");
            let row_k: &[u32] = if k < i {
                &before_i[k]
            } else {
                &after_i[k - i - 1]
            };
            for (dij, &dkj) in row_i.iter_mut().zip(row_k) {
                let through = dik.saturating_add(dkj);
                if through < *dij {
                    *dij = through;
                }
            }
        }
    }
    d
}

/// Connected components. Returns `(component_of, component_count)`;
/// tombstoned slots get `usize::MAX`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let mut comp = vec![usize::MAX; g.capacity()];
    let mut count = 0;
    for s in g.vertices() {
        if comp[s as usize] != usize::MAX {
            continue;
        }
        let mut stack = vec![s];
        comp[s as usize] = count;
        while let Some(u) = stack.pop() {
            for &(v, _) in g.neighbors(u) {
                if comp[v as usize] == usize::MAX {
                    comp[v as usize] = count;
                    stack.push(v);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Closeness centrality of one vertex from its distance vector, using the
/// papers' definition `C(v) = 1 / Σ_u d(v, u)` over *reachable* `u ≠ v`.
/// Returns 0.0 for isolated vertices.
pub fn closeness_from_distances(dist: &[Weight], v: VertexId) -> f64 {
    let sum: u64 = dist
        .iter()
        .enumerate()
        .filter(|&(u, &d)| u != v as usize && d != INF)
        .map(|(_, &d)| d as u64)
        .sum();
    if sum == 0 {
        0.0
    } else {
        1.0 / sum as f64
    }
}

/// Exact closeness centrality of all vertices (sequential oracle).
pub fn exact_closeness(g: &Graph) -> Vec<f64> {
    (0..g.capacity() as VertexId)
        .map(|v| {
            if g.is_alive(v) {
                closeness_from_distances(&dijkstra(g, v), v)
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn dijkstra_on_path() {
        let g = generators::path(5);
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = dijkstra(&g, 2);
        assert_eq!(d2, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn dijkstra_weighted_prefers_cheap_detour() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 1, 10);
        g.add_edge(0, 2, 1);
        g.add_edge(2, 3, 1);
        g.add_edge(3, 1, 1);
        let d = dijkstra(&g, 0);
        assert_eq!(d[1], 3, "detour 0-2-3-1 beats direct 0-1");
    }

    #[test]
    fn dijkstra_unreachable_is_inf() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 1, 1);
        g.add_edge(2, 3, 1);
        let d = dijkstra(&g, 0);
        assert_eq!(d[2], INF);
        assert_eq!(d[3], INF);
    }

    #[test]
    fn dijkstra_from_dead_vertex() {
        let mut g = generators::path(3);
        g.remove_vertex(1);
        let d = dijkstra(&g, 1);
        assert!(d.iter().all(|&x| x == INF));
    }

    #[test]
    fn apsp_oracles_agree() {
        let g = generators::barabasi_albert(40, 2, 5, 17);
        let a = apsp_dijkstra(&g);
        let b = apsp_floyd_warshall(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn apsp_agree_after_vertex_removal() {
        let mut g = generators::erdos_renyi_gnm(30, 80, 3, 21);
        g.remove_vertex(7);
        g.remove_vertex(12);
        assert_eq!(apsp_dijkstra(&g), apsp_floyd_warshall(&g));
    }

    #[test]
    fn components_counted() {
        let mut g = Graph::with_vertices(6);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(3, 4, 1);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[5], comp[0]);
    }

    #[test]
    fn closeness_star_center_highest() {
        let g = generators::star(10);
        let c = exact_closeness(&g);
        let center = c[0];
        for (v, &leaf) in c.iter().enumerate().skip(1) {
            assert!(center > leaf, "star center must dominate leaf {v}");
        }
        // Center: 9 neighbours at distance 1 -> C = 1/9.
        assert!((center - 1.0 / 9.0).abs() < 1e-12);
        // Leaf: 1 at distance 1, 8 at distance 2 -> C = 1/17.
        assert!((c[1] - 1.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_isolated_vertex_is_zero() {
        let mut g = Graph::with_vertices(3);
        let c = exact_closeness(&g);
        assert_eq!(c, vec![0.0; 3]);
        // Beside the isolated vertex 2, vertex 0 sums only what it reaches.
        g.add_edge(0, 1, 2);
        assert_eq!(closeness_from_distances(&dijkstra(&g, 0), 0), 0.5);
    }
}
