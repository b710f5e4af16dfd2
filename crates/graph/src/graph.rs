//! A dynamic undirected weighted graph with stable vertex identifiers.
//!
//! Vertex ids are dense `u32` indices that never move: adding a vertex appends
//! a slot, deleting one leaves a tombstone. Stability matters because the
//! distributed engine stores one distance-vector *column* per vertex id;
//! reusing or compacting ids would silently corrupt distance state mid-run.

use std::fmt;

/// Identifier of a vertex. Dense, stable across additions and deletions.
pub type VertexId = u32;

/// Edge weight. The papers use non-negative integer weights; `u32` keeps the
/// distance matrices at four bytes per entry.
pub type Weight = u32;

/// "Unreachable" distance sentinel.
pub const INF: Weight = u32::MAX;

/// An undirected weighted graph supporting dynamic vertex/edge updates.
///
/// Parallel edges are rejected; self-loops are rejected (they never affect
/// shortest paths). Deleted vertices keep their id slot as a tombstone so the
/// ids of surviving vertices are unaffected.
///
/// ```
/// use aa_graph::Graph;
///
/// let mut g = Graph::with_vertices(3);
/// g.add_edge(0, 1, 5);
/// let v = g.add_vertex();
/// g.add_edge(1, v, 2);
/// assert_eq!(g.vertex_count(), 4);
/// g.remove_vertex(0);
/// assert_eq!(g.capacity(), 4, "id slots are stable");
/// assert_eq!(g.degree(1), 1);
/// ```
#[derive(Clone, Default)]
pub struct Graph {
    adj: Vec<Vec<(VertexId, Weight)>>,
    alive: Vec<bool>,
    num_edges: usize,
    num_alive: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated vertices, ids `0..n`.
    pub fn with_vertices(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            alive: vec![true; n],
            num_edges: 0,
            num_alive: n,
        }
    }

    /// Number of vertex id slots ever allocated (including tombstones).
    /// Distance matrices are sized by this value.
    pub fn capacity(&self) -> usize {
        self.adj.len()
    }

    /// Number of live vertices.
    pub fn vertex_count(&self) -> usize {
        self.num_alive
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.num_edges
    }

    /// Whether `v` is a live vertex.
    pub fn is_alive(&self, v: VertexId) -> bool {
        (v as usize) < self.alive.len() && self.alive[v as usize]
    }

    /// Adds a new isolated vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = self.adj.len() as VertexId;
        self.adj.push(Vec::new());
        self.alive.push(true);
        self.num_alive += 1;
        id
    }

    /// Iterator over live vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as VertexId)
    }

    /// Adds the undirected edge `(u, v)` with weight `w`.
    ///
    /// Returns `true` if the edge was inserted, `false` if it already existed
    /// (in which case the weight is left unchanged) or is a self-loop.
    ///
    /// # Panics
    /// Panics if either endpoint is not a live vertex or `w == INF`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> bool {
        assert!(self.is_alive(u), "add_edge: vertex {u} is not alive");
        assert!(self.is_alive(v), "add_edge: vertex {v} is not alive");
        assert!(w != INF, "add_edge: weight must be finite");
        if u == v || self.has_edge(u, v) {
            return false;
        }
        self.adj[u as usize].push((v, w));
        self.adj[v as usize].push((u, w));
        self.num_edges += 1;
        true
    }

    /// Removes the undirected edge `(u, v)`. Returns the removed weight.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Option<Weight> {
        let pos = self
            .adj
            .get(u as usize)?
            .iter()
            .position(|&(x, _)| x == v)?;
        let (_, w) = self.adj[u as usize].swap_remove(pos);
        #[expect(
            clippy::expect_used,
            reason = "graph invariant: an undirected edge is in both endpoints' adjacency lists"
        )]
        let pos_v = self.adj[v as usize]
            .iter()
            .position(|&(x, _)| x == u)
            .expect("graph invariant: undirected edge present in both lists");
        self.adj[v as usize].swap_remove(pos_v);
        self.num_edges -= 1;
        Some(w)
    }

    /// Deletes vertex `v`, removing all incident edges. The id slot becomes a
    /// tombstone; other ids are unaffected. Returns the removed neighbors.
    pub fn remove_vertex(&mut self, v: VertexId) -> Vec<(VertexId, Weight)> {
        assert!(self.is_alive(v), "remove_vertex: vertex {v} is not alive");
        let neighbors = std::mem::take(&mut self.adj[v as usize]);
        for &(u, _) in &neighbors {
            #[expect(
                clippy::expect_used,
                reason = "graph invariant: an undirected edge is in both endpoints' adjacency lists"
            )]
            let pos = self.adj[u as usize]
                .iter()
                .position(|&(x, _)| x == v)
                .expect("graph invariant: undirected edge present in both lists");
            self.adj[u as usize].swap_remove(pos);
        }
        self.num_edges -= neighbors.len();
        self.alive[v as usize] = false;
        self.num_alive -= 1;
        neighbors
    }

    /// Neighbors of `v` with edge weights, in unspecified order.
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, Weight)] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Whether the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (u, v) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[u as usize].iter().any(|&(x, _)| x == v)
    }

    /// Weight of edge `(u, v)`, if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.adj[u as usize]
            .iter()
            .find(|&&(x, _)| x == v)
            .map(|&(_, w)| w)
    }

    /// Sets the weight of the existing edge `(u, v)`; returns the old weight.
    pub fn set_edge_weight(&mut self, u: VertexId, v: VertexId, w: Weight) -> Option<Weight> {
        assert!(w != INF, "set_edge_weight: weight must be finite");
        let old = {
            let e = self.adj[u as usize].iter_mut().find(|(x, _)| *x == v)?;
            std::mem::replace(&mut e.1, w)
        };
        #[expect(
            clippy::expect_used,
            reason = "graph invariant: an undirected edge is in both endpoints' adjacency lists"
        )]
        let e = self.adj[v as usize]
            .iter_mut()
            .find(|(x, _)| *x == u)
            .expect("graph invariant: undirected edge present in both lists");
        e.1 = w;
        Some(old)
    }

    /// Iterator over all undirected edges `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, list)| {
            list.iter()
                .filter(move |&&(v, _)| (u as VertexId) < v)
                .map(move |&(v, w)| (u as VertexId, v, w))
        })
    }

    /// Total weight of all edges.
    pub fn total_edge_weight(&self) -> u64 {
        self.edges().map(|(_, _, w)| w as u64).sum()
    }

    /// Checks internal invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut count = 0usize;
        for (u, list) in self.adj.iter().enumerate() {
            if !self.alive[u] && !list.is_empty() {
                return Err(format!("tombstone vertex {u} has edges"));
            }
            for &(v, w) in list {
                if !self.is_alive(v) {
                    return Err(format!("edge ({u},{v}) points at dead vertex"));
                }
                match self.edge_weight(v, u as VertexId) {
                    Some(wb) if wb == w => {}
                    Some(wb) => return Err(format!("asymmetric weight on ({u},{v}): {w} vs {wb}")),
                    None => return Err(format!("edge ({u},{v}) missing reverse direction")),
                }
                count += 1;
            }
        }
        if count != 2 * self.num_edges {
            return Err(format!(
                "edge count mismatch: counted {count} half-edges, expected {}",
                2 * self.num_edges
            ));
        }
        Ok(())
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph {{ vertices: {}, edges: {}, slots: {} }}",
            self.num_alive,
            self.num_edges,
            self.adj.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.capacity(), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn add_vertices_and_edges() {
        let mut g = Graph::with_vertices(3);
        assert!(g.add_edge(0, 1, 5));
        assert!(g.add_edge(1, 2, 7));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.edge_weight(2, 1), Some(7));
        assert!(g.has_edge(1, 0));
        g.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_and_self_loop_rejected() {
        let mut g = Graph::with_vertices(2);
        assert!(g.add_edge(0, 1, 1));
        assert!(!g.add_edge(1, 0, 9), "duplicate must be rejected");
        assert_eq!(
            g.edge_weight(0, 1),
            Some(1),
            "weight unchanged on duplicate"
        );
        assert!(!g.add_edge(0, 0, 1), "self-loop must be rejected");
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn add_vertex_returns_fresh_stable_id() {
        let mut g = Graph::with_vertices(2);
        let v = g.add_vertex();
        assert_eq!(v, 2);
        assert!(g.is_alive(v));
        assert_eq!(g.vertex_count(), 3);
        g.add_edge(v, 0, 4);
        assert_eq!(g.neighbors(v), &[(0, 4)]);
    }

    #[test]
    fn remove_edge() {
        let mut g = Graph::with_vertices(3);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 2, 3);
        assert_eq!(g.remove_edge(1, 0), Some(2));
        assert_eq!(g.remove_edge(1, 0), None);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(0, 1));
        g.check_invariants().unwrap();
    }

    #[test]
    fn remove_vertex_leaves_tombstone() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(1, 3, 1);
        let removed = g.remove_vertex(1);
        assert_eq!(removed.len(), 3);
        assert!(!g.is_alive(1));
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.capacity(), 4, "id slots preserved");
        // Remaining ids unaffected.
        assert!(g.is_alive(0) && g.is_alive(2) && g.is_alive(3));
        g.check_invariants().unwrap();
    }

    #[test]
    fn set_edge_weight_updates_both_directions() {
        let mut g = Graph::with_vertices(2);
        g.add_edge(0, 1, 10);
        assert_eq!(g.set_edge_weight(0, 1, 3), Some(10));
        assert_eq!(g.edge_weight(1, 0), Some(3));
        assert_eq!(g.set_edge_weight(0, 0, 3), None);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let mut g = Graph::with_vertices(4);
        g.add_edge(0, 1, 1);
        g.add_edge(2, 1, 2);
        g.add_edge(3, 0, 3);
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1, 1), (0, 3, 3), (1, 2, 2)]);
        assert_eq!(g.total_edge_weight(), 6);
    }

    #[test]
    fn vertices_iterator_skips_tombstones() {
        let mut g = Graph::with_vertices(3);
        g.remove_vertex(1);
        let vs: Vec<_> = g.vertices().collect();
        assert_eq!(vs, vec![0, 2]);
    }
}
