//! Maximal clique enumeration — the sequential oracle.
//!
//! The anytime-anywhere framework family includes a maximal-clique-
//! enumeration instantiation (the papers cite it alongside the closeness
//! work). This module provides the sequential reference: Bron–Kerbosch with
//! pivoting, plus the vertex-ordered variant whose per-vertex subproblems the
//! distributed implementation in `aa-core` mirrors.

use crate::graph::{Graph, VertexId};
use std::collections::BTreeSet;

/// Enumerates all maximal cliques of `g` (Bron–Kerbosch with pivoting).
/// Each clique is returned sorted ascending; the list is sorted for
/// deterministic comparisons. Candidate sets are `BTreeSet`s so every
/// iteration — pivot selection included — walks vertices in id order: the
/// recursion tree, not just the final output, replays identically (the
/// sim-as-oracle property AA08 enforces). Intended for validation on small/medium graphs.
pub fn maximal_cliques(g: &Graph) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    let p: BTreeSet<VertexId> = g.vertices().collect();
    let mut r = Vec::new();
    bron_kerbosch(g, &mut r, p, BTreeSet::new(), &mut out);
    for c in &mut out {
        c.sort_unstable();
    }
    out.sort();
    out
}

fn neighbors_set(g: &Graph, v: VertexId) -> BTreeSet<VertexId> {
    g.neighbors(v).iter().map(|&(u, _)| u).collect()
}

fn bron_kerbosch(
    g: &Graph,
    r: &mut Vec<VertexId>,
    p: BTreeSet<VertexId>,
    x: BTreeSet<VertexId>,
    out: &mut Vec<Vec<VertexId>>,
) {
    if p.is_empty() && x.is_empty() {
        if !r.is_empty() {
            out.push(r.clone());
        }
        return;
    }
    // Pivot: the vertex of P ∪ X with the most neighbours in P.
    #[expect(
        clippy::expect_used,
        reason = "guarded by the is_empty early-return at the top of the recursion"
    )]
    let pivot = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&u| {
            let nu = neighbors_set(g, u);
            let count = p.intersection(&nu).count();
            (count, std::cmp::Reverse(u)) // deterministic tie-break
        })
        .expect("P ∪ X non-empty");
    let pivot_nbrs = neighbors_set(g, pivot);
    let candidates: Vec<VertexId> = {
        let mut c: Vec<VertexId> = p.difference(&pivot_nbrs).copied().collect();
        c.sort_unstable();
        c
    };
    let mut p = p;
    let mut x = x;
    for v in candidates {
        let nv = neighbors_set(g, v);
        r.push(v);
        bron_kerbosch(
            g,
            r,
            p.intersection(&nv).copied().collect(),
            x.intersection(&nv).copied().collect(),
            out,
        );
        r.pop();
        p.remove(&v);
        x.insert(v);
    }
}

/// The cliques for which `v` is the minimum-id member: exactly the maximal
/// cliques of the graph induced on `{v} ∪ {u ∈ N(v) : u > v}` that contain
/// `v` and are maximal in the full graph. Partitioning enumeration by this
/// rule covers every maximal clique exactly once — the decomposition the
/// distributed enumerator ships to the owner of `v`.
pub fn cliques_rooted_at(g: &Graph, v: VertexId) -> Vec<Vec<VertexId>> {
    let nv: BTreeSet<VertexId> = g
        .neighbors(v)
        .iter()
        .map(|&(u, _)| u)
        .filter(|&u| u > v)
        .collect();
    // X starts with the smaller neighbours: any clique extendable by one of
    // them is *not* rooted at v.
    let x: BTreeSet<VertexId> = g
        .neighbors(v)
        .iter()
        .map(|&(u, _)| u)
        .filter(|&u| u < v)
        .collect();
    let mut out = Vec::new();
    let mut r = vec![v];
    bron_kerbosch(g, &mut r, nv, x, &mut out);
    for c in &mut out {
        c.sort_unstable();
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn triangle_plus_tail() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(0, 2, 1);
        g.add_edge(2, 3, 1);
        let cliques = maximal_cliques(&g);
        assert_eq!(cliques, vec![vec![0, 1, 2], vec![2, 3]]);
    }

    #[test]
    fn complete_graph_is_one_clique() {
        let g = generators::complete(6);
        let cliques = maximal_cliques(&g);
        assert_eq!(cliques, vec![vec![0, 1, 2, 3, 4, 5]]);
    }

    #[test]
    fn path_cliques_are_edges() {
        let g = generators::path(5);
        let cliques = maximal_cliques(&g);
        assert_eq!(cliques.len(), 4);
        assert!(cliques.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn isolated_vertices_are_trivial_cliques() {
        let g = Graph::with_vertices(3);
        let cliques = maximal_cliques(&g);
        assert_eq!(cliques, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn tombstones_excluded() {
        let mut g = generators::complete(4);
        g.remove_vertex(1);
        let cliques = maximal_cliques(&g);
        assert_eq!(cliques, vec![vec![0, 2, 3]]);
    }

    #[test]
    fn rooted_decomposition_covers_exactly_once() {
        let g = generators::erdos_renyi_gnm(40, 160, 1, 11);
        let all = maximal_cliques(&g);
        let mut rooted: Vec<Vec<VertexId>> = Vec::new();
        for v in g.vertices() {
            rooted.extend(cliques_rooted_at(&g, v));
        }
        rooted.sort();
        assert_eq!(rooted, all, "rooted union must equal the full enumeration");
    }

    #[test]
    fn rooted_at_min_vertex_of_each_clique() {
        let g = generators::planted_partition(3, 8, 0.8, 0.05, 1, 13);
        for v in g.vertices() {
            for clique in cliques_rooted_at(&g, v) {
                assert_eq!(clique[0], v, "{clique:?} must be rooted at {v}");
            }
        }
    }

    #[test]
    fn known_count_on_moon_moser_like_graph() {
        // K_{3,3,3} complement-ish check is heavy; instead verify the clique
        // count of a cycle with chords. C5 has 5 maximal cliques (edges).
        let g = generators::cycle(5);
        assert_eq!(maximal_cliques(&g).len(), 5);
    }
}
