//! Deterministic mixed read/write load generation.
//!
//! The generator produces a configurable stream of [`ClientOp`]s against a
//! live [`Server`](crate::Server): top-k and single-vertex reads plus
//! edge-churn writes chosen from the engine's current graph. Randomness
//! comes from an inlined SplitMix64 so the workload is reproducible from
//! its seed alone with no external RNG dependency; virtual time never
//! enters the generator, so the same seed drives the same op sequence on
//! every run.

use crate::request::{ClientOp, ReadKind};
use crate::server::Server;
use aa_core::AnytimeEngine;
use aa_graph::VertexId;
use aa_ingest::UpdateOp;

/// SplitMix64: tiny, seedable, full-period; plenty for workload shaping.
#[derive(Debug, Clone, Copy)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`; `n` must be positive.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Shape of the offered load.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// RNG seed; the whole op stream is a function of it.
    pub seed: u64,
    /// Requests offered per turn.
    pub offered_per_turn: usize,
    /// Fraction of offered requests that are reads (the rest are writes).
    pub read_fraction: f64,
    /// Fraction of reads that are top-k queries (the rest are
    /// single-vertex lookups).
    pub topk_read_mix: f64,
    /// `k` for top-k reads.
    pub top_k: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0x5EED_5EED,
            offered_per_turn: 32,
            read_fraction: 0.8,
            topk_read_mix: 0.7,
            top_k: 8,
        }
    }
}

/// Deterministic client-population stand-in; see the module docs.
#[derive(Debug, Clone)]
pub struct LoadGen {
    config: WorkloadConfig,
    rng: SplitMix64,
}

impl LoadGen {
    /// Builds a generator from its config.
    pub fn new(config: WorkloadConfig) -> Self {
        LoadGen {
            rng: SplitMix64(config.seed),
            config,
        }
    }

    /// The generator's config.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Submits one turn's worth of offered requests to `server`.
    pub fn offer(&mut self, server: &mut Server) {
        for op in self.turn_ops(server.engine()) {
            match op {
                ClientOp::Read(kind) => {
                    server.submit_read(kind);
                }
                ClientOp::Write(op) => {
                    server.submit_write(op);
                }
            }
        }
    }

    /// Produces one turn's worth of offered requests against the engine's
    /// current graph. Reads split into top-k / single-vertex per
    /// [`WorkloadConfig::topk_read_mix`]; writes are an add/delete/reweight
    /// edge-churn mix over live state.
    pub fn turn_ops(&mut self, engine: &AnytimeEngine) -> Vec<ClientOp> {
        let mut ops = Vec::with_capacity(self.config.offered_per_turn);
        for _ in 0..self.config.offered_per_turn {
            if self.rng.unit() < self.config.read_fraction {
                ops.push(ClientOp::Read(self.read(engine)));
            } else {
                ops.push(ClientOp::Write(self.write(engine)));
            }
        }
        ops
    }

    fn read(&mut self, engine: &AnytimeEngine) -> ReadKind {
        if self.rng.unit() < self.config.topk_read_mix {
            ReadKind::TopK(self.config.top_k)
        } else {
            let vertices: Vec<VertexId> = engine.graph().vertices().collect();
            if vertices.is_empty() {
                ReadKind::TopK(self.config.top_k)
            } else {
                ReadKind::Vertex(vertices[self.rng.below(vertices.len())])
            }
        }
    }

    fn write(&mut self, engine: &AnytimeEngine) -> UpdateOp {
        let vertices: Vec<VertexId> = engine.graph().vertices().collect();
        let edges: Vec<(VertexId, VertexId, aa_graph::Weight)> = engine.graph().edges().collect();
        let roll = self.rng.unit();
        if roll < 0.4 || edges.is_empty() {
            // Add an edge between two distinct live vertices (duplicates
            // become warned no-ops at the pipeline, like real traffic).
            let u = vertices[self.rng.below(vertices.len())];
            let mut v = vertices[self.rng.below(vertices.len())];
            if v == u {
                v = vertices
                    [(self.rng.below(vertices.len() - 1) + 1 + u as usize) % vertices.len()];
            }
            if v == u {
                // Single-vertex graph: emit a harmless no-op reweight probe.
                return UpdateOp::AddEdge(u, u.wrapping_add(1), 1);
            }
            UpdateOp::AddEdge(u, v, 1 + self.rng.below(4) as aa_graph::Weight)
        } else if roll < 0.75 {
            let (u, v, _) = edges[self.rng.below(edges.len())];
            UpdateOp::DeleteEdge(u, v)
        } else {
            let (u, v, w) = edges[self.rng.below(edges.len())];
            let new_w = if w > 1 && self.rng.unit() < 0.5 {
                w - 1
            } else {
                w + 1 + self.rng.below(3) as aa_graph::Weight
            };
            UpdateOp::Reweight(u, v, new_w)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_core::EngineConfig;
    use aa_graph::generators;

    fn engine() -> AnytimeEngine {
        let g = generators::barabasi_albert(50, 2, 1, 7);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 3,
                ..Default::default()
            },
        );
        e.initialize();
        e
    }

    #[test]
    fn same_seed_same_stream() {
        let e = engine();
        let cfg = WorkloadConfig::default();
        let a: Vec<ClientOp> = LoadGen::new(cfg).turn_ops(&e);
        let b: Vec<ClientOp> = LoadGen::new(cfg).turn_ops(&e);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.offered_per_turn);
    }

    #[test]
    fn read_fraction_shapes_the_mix() {
        let e = engine();
        let mut gen = LoadGen::new(WorkloadConfig {
            offered_per_turn: 400,
            read_fraction: 0.9,
            ..Default::default()
        });
        let ops = gen.turn_ops(&e);
        let reads = ops
            .iter()
            .filter(|o| matches!(o, ClientOp::Read(_)))
            .count();
        assert!(reads > 320, "~90% reads expected, got {reads}/400");
        let writes = ops.len() - reads;
        assert!(writes > 10, "some writes expected, got {writes}");
    }

    #[test]
    fn topk_read_mix_shapes_the_read_split() {
        let e = engine();
        let mut all_topk = LoadGen::new(WorkloadConfig {
            offered_per_turn: 200,
            read_fraction: 1.0,
            topk_read_mix: 1.0,
            ..Default::default()
        });
        assert!(all_topk
            .turn_ops(&e)
            .iter()
            .all(|o| matches!(o, ClientOp::Read(ReadKind::TopK(_)))));
        let mut no_topk = LoadGen::new(WorkloadConfig {
            offered_per_turn: 200,
            read_fraction: 1.0,
            topk_read_mix: 0.0,
            ..Default::default()
        });
        assert!(no_topk
            .turn_ops(&e)
            .iter()
            .all(|o| matches!(o, ClientOp::Read(ReadKind::Vertex(_)))));
    }

    #[test]
    fn writes_reference_live_state() {
        let e = engine();
        let mut gen = LoadGen::new(WorkloadConfig {
            offered_per_turn: 200,
            read_fraction: 0.0,
            ..Default::default()
        });
        for op in gen.turn_ops(&e) {
            if let ClientOp::Write(w) = op {
                match w {
                    UpdateOp::AddEdge(u, v, wt) => {
                        assert!(e.graph().is_alive(u));
                        assert!(e.graph().is_alive(v));
                        assert_ne!(u, v);
                        assert!(wt >= 1);
                    }
                    UpdateOp::DeleteEdge(u, v) | UpdateOp::Reweight(u, v, _) => {
                        assert!(e.graph().edge_weight(u, v).is_some());
                    }
                    other => panic!("unexpected op {other:?}"),
                }
            }
        }
    }
}
