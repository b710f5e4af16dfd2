//! The coalescing buffer: folds a run of updates into their *net effect*.
//!
//! Per undirected edge key the buffer keeps a symbolic transfer function
//! ([`EdgeNet`]) from the edge's pre-flush state to its post-flush state,
//! rather than a list of ops. Folding an op composes it onto the function,
//! which gives the contract semantics for free:
//!
//! - add-then-delete of the same edge cancels (the net maps absent → absent);
//! - repeated reweights are last-wins (`Set(w)` overwrites `Set(w0)`);
//! - duplicate adds are no-ops (add on a present edge keeps its weight,
//!   matching the unbatched engine API);
//! - delete-then-add nets out to a single reweight when the edge existed.
//!
//! Because the net is a function of the pre-state, resolution at flush time
//! against the live graph is exact for *any* interleaving — the buffer never
//! needs to know whether the edge currently exists when an op arrives.

use crate::op::EdgeKey;
use aa_graph::{Graph, VertexId, Weight, INF};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome for an edge that existed (with some weight `w0`) before the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PresentNet {
    /// Edge survives with its original weight.
    Keep,
    /// Edge is removed.
    Remove,
    /// Edge survives with the given weight.
    Set(Weight),
}

/// Net effect of all buffered ops on one edge key, as a transfer function
/// from pre-flush state to post-flush state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeNet {
    /// Post-state if the edge was absent before the batch: `Some(w)` means
    /// it ends up present with weight `w`, `None` means still absent.
    pub if_absent: Option<Weight>,
    /// Post-state if the edge was present before the batch.
    pub if_present: PresentNet,
}

impl EdgeNet {
    /// The identity net: no buffered op touches this edge.
    pub fn identity() -> Self {
        EdgeNet {
            if_absent: None,
            if_present: PresentNet::Keep,
        }
    }

    /// True if the net leaves every pre-state unchanged.
    pub fn is_identity(&self) -> bool {
        self.if_absent.is_none() && self.if_present == PresentNet::Keep
    }

    /// Composes an `AddEdge(w)` onto the net (applied after everything
    /// already folded). Adding an already-present edge is a no-op, matching
    /// `AnytimeEngine::add_edge`.
    pub fn then_add(&mut self, w: Weight) {
        if self.if_absent.is_none() {
            self.if_absent = Some(w);
        }
        if self.if_present == PresentNet::Remove {
            self.if_present = PresentNet::Set(w);
        }
    }

    /// Composes a `DeleteEdge` onto the net. Deleting an absent edge is a
    /// no-op, so both branches simply end absent.
    pub fn then_delete(&mut self) {
        self.if_absent = None;
        self.if_present = PresentNet::Remove;
    }

    /// Composes a `Reweight(w)` onto the net. Reweighting an absent edge is
    /// a no-op, matching `AnytimeEngine::change_edge_weight`.
    pub fn then_reweight(&mut self, w: Weight) {
        if self.if_absent.is_some() {
            self.if_absent = Some(w);
        }
        match self.if_present {
            PresentNet::Keep | PresentNet::Set(_) => self.if_present = PresentNet::Set(w),
            PresentNet::Remove => {}
        }
    }

    /// Evaluates the net against a concrete pre-state.
    pub fn eval(&self, pre: Option<Weight>) -> Option<Weight> {
        match pre {
            None => self.if_absent,
            Some(w0) => match self.if_present {
                PresentNet::Keep => Some(w0),
                PresentNet::Remove => None,
                PresentNet::Set(w) => Some(w),
            },
        }
    }
}

/// One buffered vertex addition. The id was predicted (and handed to the
/// producer) at push time; anchors may be stripped later by a subsuming
/// vertex deletion.
#[derive(Debug, Clone)]
pub struct PendingVertex {
    /// The id this vertex will receive at flush time.
    pub id: VertexId,
    /// `(anchor, weight)` edges created together with the vertex.
    pub anchors: Vec<(VertexId, Weight)>,
}

/// Concrete ops an [`EdgeNet`] resolves to against a live graph, in flush
/// order. Deletions and weight increases go to the engine as one batch
/// (`increase_edge_weights`): an increase is a deletion whose edge survives
/// at its new weight, so it shares the single invalidation sweep and ends
/// exact in the same call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolvedBatch {
    /// Edges to remove.
    pub deletes: Vec<(VertexId, VertexId)>,
    /// Edges that get heavier, at their new weights.
    pub increases: Vec<(VertexId, VertexId, Weight)>,
    /// Edges to insert via `add_edges`.
    pub adds: Vec<(VertexId, VertexId, Weight)>,
    /// Pure weight decreases, applied via `change_edge_weight` (a relaxation
    /// with no invalidation cost).
    pub decreases: Vec<(VertexId, VertexId, Weight)>,
    /// Number of edge keys that resolved to any action at all.
    pub actions: usize,
}

impl ResolvedBatch {
    /// Total number of materialized edge operations.
    pub fn len(&self) -> usize {
        self.deletes.len() + self.increases.len() + self.adds.len() + self.decreases.len()
    }

    /// The deletions, at `INF`, and the weight increases: the one batch
    /// `increase_edge_weights` takes.
    pub fn heavier(&self) -> Vec<(VertexId, VertexId, Weight)> {
        let deletes = self.deletes.iter().map(|&(u, v)| (u, v, INF));
        deletes.chain(self.increases.iter().copied()).collect()
    }

    /// True when the batch resolves to nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The coalescing buffer: per-edge nets plus ordered vertex-level pending
/// work. All containers are ordered (`BTreeMap`/`BTreeSet`) so drains are
/// deterministic regardless of insertion history.
#[derive(Debug, Clone, Default)]
pub struct Coalescer {
    nets: BTreeMap<EdgeKey, EdgeNet>,
    pending_vertices: Vec<PendingVertex>,
    pending_deletes: BTreeSet<VertexId>,
}

impl Coalescer {
    /// An empty buffer.
    pub fn new() -> Self {
        Coalescer::default()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty() && self.pending_vertices.is_empty() && self.pending_deletes.is_empty()
    }

    /// Number of distinct edge keys with a non-identity net.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Buffered vertex additions, in push order.
    pub fn pending_vertices(&self) -> &[PendingVertex] {
        &self.pending_vertices
    }

    /// Buffered vertex deletions (ascending id order).
    pub fn pending_deletes(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.pending_deletes.iter().copied()
    }

    /// True if `v` is scheduled for deletion.
    pub fn is_pending_delete(&self, v: VertexId) -> bool {
        self.pending_deletes.contains(&v)
    }

    /// True if `v` is a predicted id of a buffered vertex addition.
    pub fn is_pending_vertex(&self, v: VertexId) -> bool {
        self.pending_vertices.iter().any(|p| p.id == v)
    }

    /// Folds an edge addition into the buffer.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.nets
            .entry(EdgeKey::new(u, v))
            .or_insert_with(EdgeNet::identity)
            .then_add(w);
        self.prune(EdgeKey::new(u, v));
    }

    /// Folds an edge deletion into the buffer.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) {
        self.nets
            .entry(EdgeKey::new(u, v))
            .or_insert_with(EdgeNet::identity)
            .then_delete();
        self.prune(EdgeKey::new(u, v));
    }

    /// Folds a reweight into the buffer.
    pub fn reweight(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.nets
            .entry(EdgeKey::new(u, v))
            .or_insert_with(EdgeNet::identity)
            .then_reweight(w);
        self.prune(EdgeKey::new(u, v));
    }

    /// Records a vertex addition whose id was predicted by the caller.
    pub fn add_vertex(&mut self, id: VertexId, anchors: Vec<(VertexId, Weight)>) {
        self.pending_vertices.push(PendingVertex { id, anchors });
    }

    /// Records a vertex deletion and subsumes buffered work incident to it:
    /// edge nets touching `v` are dropped, and anchor edges onto `v` are
    /// stripped from buffered vertex additions. If `v` is itself a buffered
    /// addition its creation is kept (id assignment must match unbatched
    /// replay, which also consumes the id) but its anchors are stripped, so
    /// it is created isolated and then deleted.
    pub fn delete_vertex(&mut self, v: VertexId) {
        self.nets.retain(|k, _| !k.touches(v));
        for p in &mut self.pending_vertices {
            if p.id == v {
                p.anchors.clear();
            } else {
                p.anchors.retain(|&(a, _)| a != v);
            }
        }
        self.pending_deletes.insert(v);
    }

    /// The buffer's view of edge `(u, v)` given the live `graph`: the base
    /// state (graph edge, or a buffered anchor edge when an endpoint is a
    /// pending vertex) passed through the buffered net.
    pub fn projected_weight(&self, graph: &Graph, u: VertexId, v: VertexId) -> Option<Weight> {
        let key = EdgeKey::new(u, v);
        let base = if (key.hi as usize) < graph.capacity() {
            graph.edge_weight(key.lo, key.hi)
        } else {
            // `hi` is a pending vertex; its only base edges are its anchors.
            self.pending_vertices
                .iter()
                .find(|p| p.id == key.hi)
                .and_then(|p| p.anchors.iter().find(|&&(a, _)| a == key.lo))
                .map(|&(_, w)| w)
        };
        match self.nets.get(&key) {
            Some(net) => net.eval(base),
            None => base,
        }
    }

    /// Resolves every buffered edge net against the live graph (which must
    /// already contain the batch's vertex additions). Keys resolve in
    /// ascending order, so output order is deterministic.
    pub fn resolve(&self, graph: &Graph) -> ResolvedBatch {
        let mut out = ResolvedBatch::default();
        for (key, net) in &self.nets {
            let pre = graph.edge_weight(key.lo, key.hi);
            match (pre, net.eval(pre)) {
                (Some(_), None) => {
                    out.deletes.push((key.lo, key.hi));
                    out.actions += 1;
                }
                (Some(w0), Some(w)) if w < w0 => {
                    out.decreases.push((key.lo, key.hi, w));
                    out.actions += 1;
                }
                (Some(w0), Some(w)) if w > w0 => {
                    out.increases.push((key.lo, key.hi, w));
                    out.actions += 1;
                }
                (None, Some(w)) => {
                    out.adds.push((key.lo, key.hi, w));
                    out.actions += 1;
                }
                // Unchanged weight or still-absent: nothing to do.
                _ => {}
            }
        }
        out
    }

    /// Clears all buffered state (after a flush has applied it).
    pub fn clear(&mut self) {
        self.nets.clear();
        self.pending_vertices.clear();
        self.pending_deletes.clear();
    }

    /// Drops a net that composed back to the identity, so `net_count` and
    /// resolution skip keys whose ops fully cancelled.
    fn prune(&mut self, key: EdgeKey) {
        if self.nets.get(&key).is_some_and(|n| n.is_identity()) {
            self.nets.remove(&key);
        }
    }
}
