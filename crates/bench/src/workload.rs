//! Workload generation for the experiments.
//!
//! The papers generate undirected scale-free base graphs with Pajek and, for
//! the CutEdge-PS experiments, extract the batches of new vertices "from a
//! larger graph using Pajek's Louvain community extraction method" — i.e. the
//! arriving vertices carry community structure. [`community_vertex_batch`]
//! reproduces that: it generates a community-structured donor graph, detects
//! its communities with our Louvain implementation, and turns whole
//! communities into the batch, attaching them to the existing graph by
//! preferential attachment.

use aa_core::{Endpoint, EngineConfig, VertexBatch};
use aa_graph::{community, generators, Graph, VertexId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Shared experiment parameters. Defaults mirror the papers' setup scaled to
/// laptop-friendly sizes (see `DESIGN.md`).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Base graph size (the papers use 50 000).
    pub n: usize,
    /// Virtual processors (the papers use 16).
    pub procs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Compute calibration factor (see `EngineConfig::compute_scale`).
    pub compute_scale: f64,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            n: 2000,
            procs: 16,
            seed: 0xC10_5EAE55,
            compute_scale: 1.0,
        }
    }
}

/// Barabási–Albert attachment degree of the base graph.
const BA_M: usize = 2;

impl ExperimentParams {
    /// The base scale-free graph.
    pub fn base_graph(&self) -> Graph {
        generators::barabasi_albert(self.n, BA_M, 1, self.seed)
    }

    /// The engine configuration every experiment starts from.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            num_procs: self.procs,
            seed: self.seed,
            compute_scale: self.compute_scale,
            ..Default::default()
        }
    }
}

/// Scales a batch size quoted for the papers' 50 000-vertex graphs to a graph
/// of `n` vertices, preserving the fraction of |V| (minimum 1).
pub fn scaled(paper_count: usize, n: usize) -> usize {
    ((paper_count as f64) * (n as f64) / 50_000.0)
        .round()
        .max(1.0) as usize
}

/// Builds a community-structured batch of `count` new vertices attached to
/// `existing`:
///
/// 1. generate a planted-partition donor graph a bit larger than the batch;
/// 2. run Louvain on it and accept whole communities until `count` vertices
///    are selected (mirroring the papers' Pajek/Louvain extraction);
/// 3. keep the donor edges among selected vertices as intra-batch edges;
/// 4. attach each selected vertex to the existing graph by preferential
///    attachment (on average ~1 anchor edge per new vertex).
pub fn community_vertex_batch(existing: &Graph, count: usize, seed: u64) -> VertexBatch {
    assert!(count >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // Donor graph: communities of ~12 vertices, dense inside, sparse across.
    let community_size = 12.min(count.max(2));
    let communities = (count * 3 / 2).div_ceil(community_size).max(1);
    let donor = generators::planted_partition(
        communities,
        community_size,
        0.5,
        4.0 / (communities.max(2) * community_size) as f64,
        1,
        seed ^ 0xD0_40,
    );
    let detected = community::louvain(&donor);

    // Accept whole communities (largest first) until `count` is reached.
    let mut members = detected.members();
    members.sort_by_key(|m| std::cmp::Reverse(m.len()));
    let mut selected: Vec<VertexId> = Vec::with_capacity(count);
    for m in members {
        if selected.len() >= count {
            break;
        }
        selected.extend(m.into_iter().take(count - selected.len()));
    }
    // Pad with arbitrary donor vertices if the donor was too small.
    let mut next = 0u32;
    while selected.len() < count {
        if !selected.contains(&next) && donor.is_alive(next) {
            selected.push(next);
        }
        next += 1;
    }
    let index_of: std::collections::HashMap<VertexId, usize> =
        selected.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    let mut batch = VertexBatch::new(count);
    for (u, v, w) in donor.edges() {
        if let (Some(&i), Some(&j)) = (index_of.get(&u), index_of.get(&v)) {
            batch.connect(i.max(j), Endpoint::New(i.min(j)), w);
        }
    }

    // Preferential attachment anchors into the existing graph.
    let anchors: Vec<VertexId> = {
        let mut pool = Vec::new();
        for v in existing.vertices() {
            for _ in 0..existing.degree(v).max(1) {
                pool.push(v);
            }
        }
        pool
    };
    for i in 0..count {
        let anchor = anchors[rng.gen_range(0..anchors.len())];
        batch.connect(i, Endpoint::Existing(anchor), 1);
    }
    batch
        .validate(existing.capacity())
        .expect("generated batch must be valid");
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_preserves_fraction() {
        assert_eq!(scaled(500, 50_000), 500);
        assert_eq!(scaled(500, 5_000), 50);
        assert_eq!(scaled(512, 2_000), 20);
        assert_eq!(scaled(1, 100), 1, "never scales to zero");
    }

    #[test]
    fn batch_has_structure_and_anchors() {
        let existing = generators::barabasi_albert(200, 2, 1, 1);
        let b = community_vertex_batch(&existing, 30, 7);
        assert_eq!(b.count, 30);
        let intra = b
            .edges
            .iter()
            .filter(|(_, e, _)| matches!(e, Endpoint::New(_)))
            .count();
        let anchors = b
            .edges
            .iter()
            .filter(|(_, e, _)| matches!(e, Endpoint::Existing(_)))
            .count();
        assert!(
            intra > 30,
            "community batches are internally dense: {intra}"
        );
        assert_eq!(anchors, 30, "one anchor per new vertex");
    }

    #[test]
    fn batch_generation_is_deterministic() {
        let existing = generators::barabasi_albert(100, 2, 1, 2);
        let a = community_vertex_batch(&existing, 15, 3);
        let b = community_vertex_batch(&existing, 15, 3);
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn tiny_batches_work() {
        let existing = generators::path(10);
        let b = community_vertex_batch(&existing, 1, 5);
        assert_eq!(b.count, 1);
        assert!(b.validate(existing.capacity()).is_ok());
    }
}
