//! Update operations accepted by the ingestion pipeline.

use aa_graph::{VertexId, Weight};

/// One streaming update, expressed against engine vertex ids.
///
/// Vertex ids named by an op must be *projected-alive*: alive in the engine's
/// graph, or created by an earlier [`UpdateOp::AddVertex`] still buffered in
/// the pipeline (predicted ids are handed out at push time), and not deleted
/// by a buffered [`UpdateOp::DeleteVertex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Add an undirected edge `(u, v)` with weight `1 <= w < INF`.
    AddEdge(VertexId, VertexId, Weight),
    /// Delete the undirected edge `(u, v)`.
    DeleteEdge(VertexId, VertexId),
    /// Change the weight of the existing edge `(u, v)` to `1 <= w < INF`.
    Reweight(VertexId, VertexId, Weight),
    /// Add one vertex with weighted edges to the listed anchor vertices.
    /// The assigned id is predictable (ids are never reused): it is returned
    /// by `push` and may be referenced by later ops in the same batch.
    AddVertex {
        /// `(anchor vertex, edge weight)` pairs; dead anchors are skipped
        /// with a warning, matching unbatched stream semantics.
        anchors: Vec<(VertexId, Weight)>,
    },
    /// Delete a vertex and all incident edges. Subsumes any buffered edge
    /// ops incident to the vertex.
    DeleteVertex(VertexId),
}

/// Canonical (undirected) edge key: endpoints stored low-to-high so that
/// `(u, v)` and `(v, u)` coalesce onto the same entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EdgeKey {
    /// Smaller endpoint.
    pub lo: VertexId,
    /// Larger endpoint.
    pub hi: VertexId,
}

impl EdgeKey {
    /// Builds the canonical key for an endpoint pair. Callers must have
    /// rejected self-loops already.
    pub fn new(u: VertexId, v: VertexId) -> Self {
        if u <= v {
            EdgeKey { lo: u, hi: v }
        } else {
            EdgeKey { lo: v, hi: u }
        }
    }

    /// True if either endpoint equals `v`.
    pub fn touches(&self, v: VertexId) -> bool {
        self.lo == v || self.hi == v
    }
}
