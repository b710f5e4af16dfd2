//! Structural graph metrics: degree statistics, clustering coefficients.
//!
//! Used to sanity-check that generated inputs have the properties the papers
//! assume (scale-free degree distributions, community structure) and by the
//! benchmark harness to report workload characteristics.

use crate::graph::{Graph, VertexId};

/// Degree distribution summary.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
    /// Histogram: `histogram[d]` = number of vertices with degree `d`.
    pub histogram: Vec<usize>,
}

/// Computes degree statistics over live vertices.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    if degrees.is_empty() {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            histogram: Vec::new(),
        };
    }
    let min = degrees.iter().copied().min().unwrap_or(0);
    let max = degrees.iter().copied().max().unwrap_or(0);
    let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
    let mut histogram = vec![0usize; max + 1];
    for d in degrees {
        histogram[d] += 1;
    }
    DegreeStats {
        min,
        max,
        mean,
        histogram,
    }
}

/// Local clustering coefficient of vertex `v`: fraction of neighbour pairs
/// that are themselves connected.
pub fn local_clustering(g: &Graph, v: VertexId) -> f64 {
    let nbrs: Vec<VertexId> = g.neighbors(v).iter().map(|&(u, _)| u).collect();
    let k = nbrs.len();
    if k < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            if g.has_edge(nbrs[i], nbrs[j]) {
                links += 1;
            }
        }
    }
    2.0 * links as f64 / (k * (k - 1)) as f64
}

/// Average local clustering coefficient over live vertices.
pub fn average_clustering(g: &Graph) -> f64 {
    let n = g.vertex_count();
    if n == 0 {
        return 0.0;
    }
    g.vertices().map(|v| local_clustering(g, v)).sum::<f64>() / n as f64
}

/// Fits a power-law exponent to the degree distribution by the standard
/// maximum-likelihood estimator `alpha = 1 + n / Σ ln(d_i / (d_min - 0.5))`
/// over vertices with degree ≥ `d_min`. Returns `None` if too few samples.
pub fn power_law_alpha(g: &Graph, d_min: usize) -> Option<f64> {
    let samples: Vec<f64> = g
        .vertices()
        .map(|v| g.degree(v) as f64)
        .filter(|&d| d >= d_min as f64)
        .collect();
    if samples.len() < 10 {
        return None;
    }
    let denom: f64 = samples
        .iter()
        .map(|&d| (d / (d_min as f64 - 0.5)).ln())
        .sum();
    Some(1.0 + samples.len() as f64 / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn degree_stats_on_star() {
        let g = generators::star(6);
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5);
        assert!((s.mean - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.histogram[1], 5);
        assert_eq!(s.histogram[5], 1);
    }

    #[test]
    fn degree_stats_empty() {
        let s = degree_stats(&crate::Graph::new());
        assert_eq!(s.max, 0);
        assert!(s.histogram.is_empty());
    }

    #[test]
    fn clustering_of_clique_is_one() {
        let g = generators::complete(5);
        assert!((average_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let g = generators::star(8);
        assert_eq!(average_clustering(&g), 0.0);
        assert_eq!(local_clustering(&g, 0), 0.0);
        assert_eq!(local_clustering(&g, 1), 0.0, "degree-1 vertex");
    }

    #[test]
    fn ba_alpha_in_plausible_range() {
        let g = generators::barabasi_albert(2000, 3, 1, 13);
        let alpha = power_law_alpha(&g, 3).unwrap();
        // BA graphs have alpha ≈ 3; MLE on finite samples lands near it.
        assert!(
            (2.0..4.5).contains(&alpha),
            "alpha {alpha} outside plausible scale-free range"
        );
    }

    #[test]
    fn alpha_needs_enough_samples() {
        let g = generators::path(5);
        assert!(power_law_alpha(&g, 10).is_none());
    }
}
