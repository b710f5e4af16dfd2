//! R-MAT / Kronecker-style recursive-matrix graph generator (Chakrabarti,
//! Zhan & Faloutsos), the standard HPC benchmark family (Graph500 uses the
//! same recursion). Produces skewed, community-ish graphs that stress the
//! partitioner differently than Barabási–Albert.

use crate::graph::{Graph, VertexId, Weight};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// R-MAT parameters: quadrant probabilities (must sum to 1) and noise.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// Probability of the top-left quadrant (homophily).
    pub a: f64,
    /// Top-right.
    pub b: f64,
    /// Bottom-left.
    pub c: f64,
    /// Per-level multiplicative noise applied to the probabilities (0 = none).
    pub noise: f64,
}

impl Default for RmatParams {
    /// The widely used Graph500-ish parameterization.
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
        }
    }
}

/// Generates an R-MAT graph with `2^scale` vertex slots and (up to) `edges`
/// distinct undirected edges; self-loops and duplicates are re-drawn a
/// bounded number of times, so very dense requests may fall slightly short.
pub fn rmat(scale: u32, edges: usize, params: RmatParams, max_weight: Weight, seed: u64) -> Graph {
    assert!((1..31).contains(&scale), "scale out of range");
    let sum = params.a + params.b + params.c;
    assert!(
        sum < 1.0 + 1e-9 && sum > 0.0,
        "quadrant probabilities must leave room for d = 1 - a - b - c"
    );
    let n = 1usize << scale;
    let mut g = Graph::with_vertices(n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut attempts = 0usize;
    let max_attempts = edges * 16;
    while g.edge_count() < edges && attempts < max_attempts {
        attempts += 1;
        let (u, v) = draw_edge(scale, &params, &mut rng);
        if u != v {
            let w = if max_weight <= 1 {
                1
            } else {
                rng.gen_range(1..=max_weight)
            };
            g.add_edge(u, v, w);
        }
    }
    g
}

fn draw_edge(scale: u32, p: &RmatParams, rng: &mut ChaCha8Rng) -> (VertexId, VertexId) {
    let (mut u, mut v) = (0u32, 0u32);
    for _ in 0..scale {
        // Jitter the quadrant probabilities per level.
        let mut jitter = |x: f64| x * (1.0 - p.noise + 2.0 * p.noise * rng.gen::<f64>());
        let (a, b, c) = (jitter(p.a), jitter(p.b), jitter(p.c));
        let d = jitter(1.0 - p.a - p.b - p.c);
        let total = a + b + c + d;
        let r = rng.gen::<f64>() * total;
        u <<= 1;
        v <<= 1;
        if r < a {
            // top-left: no bits set
        } else if r < a + b {
            v |= 1;
        } else if r < a + b + c {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (max, mean) degree over live vertices.
    fn degree_max_mean(g: &Graph) -> (usize, f64) {
        let degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        let max = degrees.iter().copied().max().unwrap_or(0);
        (
            max,
            degrees.iter().sum::<usize>() as f64 / degrees.len() as f64,
        )
    }

    #[test]
    fn rmat_basic_shape() {
        let g = rmat(8, 1000, RmatParams::default(), 1, 5);
        assert_eq!(g.capacity(), 256);
        assert!(
            g.edge_count() > 800,
            "only {} edges materialized",
            g.edge_count()
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn rmat_is_deterministic() {
        let a = rmat(7, 400, RmatParams::default(), 3, 9);
        let b = rmat(7, 400, RmatParams::default(), 3, 9);
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn rmat_degrees_are_skewed() {
        let g = rmat(10, 4000, RmatParams::default(), 1, 13);
        let (max, mean) = degree_max_mean(&g);
        assert!(
            max as f64 > 6.0 * mean,
            "R-MAT must be skewed: max {max} mean {mean}"
        );
    }

    #[test]
    fn uniform_quadrants_are_roughly_erdos_renyi() {
        let params = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            noise: 0.0,
        };
        let g = rmat(9, 2000, params, 1, 17);
        let (max, mean) = degree_max_mean(&g);
        assert!(
            (max as f64) < 5.0 * mean,
            "uniform recursion should not be heavily skewed: max {max} mean {mean}"
        );
    }

    #[test]
    #[should_panic(expected = "quadrant probabilities")]
    fn invalid_probabilities_rejected() {
        rmat(
            5,
            10,
            RmatParams {
                a: 0.8,
                b: 0.2,
                c: 0.2,
                noise: 0.0,
            },
            1,
            1,
        );
    }
}
