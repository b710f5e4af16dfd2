//! Partition quality metrics.
//!
//! Everything the papers report about partitions lives here: the edge cut
//! (total communication volume proxy), the per-part cut size (per-processor
//! communication load), the balance factor (computational load), and the
//! "new cut edges created by a vertex-addition batch" metric of Figure 7.

use crate::partition::Partition;
use aa_graph::{Graph, VertexId};

/// Number of cut edges: edges whose endpoints lie in different parts.
pub fn edge_cut(g: &Graph, p: &Partition) -> usize {
    g.edges()
        .filter(|&(u, v, _)| p.part_of(u) != p.part_of(v))
        .count()
}

/// Total weight of cut edges.
pub fn cut_weight(g: &Graph, p: &Partition) -> u64 {
    g.edges()
        .filter(|&(u, v, _)| p.part_of(u) != p.part_of(v))
        .map(|(_, _, w)| w as u64)
        .sum()
}

/// Cut size of every part: number of cut edges with an endpoint in that part.
/// (Each cut edge counts once for each of its two parts — this is the paper's
/// per-sub-graph "cut-size".)
pub fn per_part_cut(g: &Graph, p: &Partition) -> Vec<usize> {
    let mut cut = vec![0usize; p.num_parts];
    for (u, v, _) in g.edges() {
        let (pu, pv) = (p.part_of(u), p.part_of(v));
        if pu != pv {
            if let Some(a) = pu {
                cut[a] += 1;
            }
            if let Some(b) = pv {
                cut[b] += 1;
            }
        }
    }
    cut
}

/// Balance factor: `max_part_size * k / total_assigned`. 1.0 is perfect;
/// the multilevel partitioner keeps this ≤ 1 + ε.
pub fn balance(p: &Partition) -> f64 {
    let sizes = p.part_sizes();
    let total: usize = sizes.iter().sum();
    if total == 0 {
        return 1.0;
    }
    #[expect(
        clippy::unwrap_used,
        reason = "the empty-partition early-return above guarantees sizes is non-empty"
    )]
    let max = *sizes.iter().max().unwrap();
    max as f64 * p.num_parts as f64 / total as f64
}

/// Number of *new* cut edges introduced by the vertices in `batch`: cut edges
/// with at least one endpoint in the batch. This is the quantity plotted in
/// the paper's Figure 7 for comparing processor-assignment strategies.
pub fn new_cut_edges(g: &Graph, p: &Partition, batch: &[VertexId]) -> usize {
    let mut in_batch = vec![false; g.capacity()];
    for &v in batch {
        in_batch[v as usize] = true;
    }
    g.edges()
        .filter(|&(u, v, _)| in_batch[u as usize] || in_batch[v as usize])
        .filter(|&(u, v, _)| p.part_of(u) != p.part_of(v))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_graph::generators;

    fn two_part_path() -> (Graph, Partition) {
        let g = generators::path(4); // 0-1-2-3
        let mut p = Partition::unassigned(4, 2);
        p.assign(0, 0);
        p.assign(1, 0);
        p.assign(2, 1);
        p.assign(3, 1);
        (g, p)
    }

    use aa_graph::Graph;

    #[test]
    fn cut_of_split_path() {
        let (g, p) = two_part_path();
        assert_eq!(edge_cut(&g, &p), 1);
        assert_eq!(per_part_cut(&g, &p), vec![1, 1]);
        assert!((balance(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cut_weight_sums_weights() {
        let mut g = Graph::with_vertices(3);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 2, 7);
        let mut p = Partition::unassigned(3, 2);
        p.assign(0, 0);
        p.assign(1, 1);
        p.assign(2, 1);
        assert_eq!(cut_weight(&g, &p), 5);
    }

    #[test]
    fn balance_detects_skew() {
        let mut p = Partition::unassigned(4, 2);
        p.assign(0, 0);
        p.assign(1, 0);
        p.assign(2, 0);
        p.assign(3, 1);
        assert!((balance(&p) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn new_cut_edges_counts_batch_incident_only() {
        // 0-1 in part 0; new vertices 2,3: 2 in part 1 connected to 0 (cut)
        // and to 3 in part 1 (not cut). Old edge 0-1 is not counted even if cut.
        let mut g = generators::path(2);
        let a = g.add_vertex();
        let b = g.add_vertex();
        g.add_edge(a, 0, 1);
        g.add_edge(a, b, 1);
        let mut p = Partition::unassigned(4, 2);
        p.assign(0, 0);
        p.assign(1, 1); // old edge 0-1 is cut but not "new"
        p.assign(a, 1);
        p.assign(b, 1);
        assert_eq!(new_cut_edges(&g, &p, &[a, b]), 1);
        assert_eq!(edge_cut(&g, &p), 2);
    }
}
