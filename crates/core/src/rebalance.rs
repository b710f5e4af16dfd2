//! Load rebalancing — the papers' named future work ("develop graph
//! rebalancing strategies to deal with load imbalances caused by these
//! changes"), implemented here as a recombination strategy.
//!
//! Dynamic updates skew both load dimensions the papers identify: the number
//! of vertices per processor (computation) and the per-processor cut size
//! (communication). [`AnytimeEngine::imbalance`] reports both;
//! [`AnytimeEngine::rebalance`] migrates distance-vector rows onto a
//! rebalanced partition (adaptive multilevel, so migration stays proportional
//! to the skew) while reusing all partial results — the same anytime property
//! Repartition-S leans on. [`AnytimeEngine::rebalance_if_needed`] is the
//! constraint-guarded variant matching the papers' "choose recombination
//! strategy based on a set of constraints".

use crate::engine::AnytimeEngine;
use aa_partition::{quality, MultilevelKWay};

/// Snapshot of the two load dimensions the papers call out.
#[derive(Debug, Clone, PartialEq)]
pub struct ImbalanceReport {
    /// Owned-vertex count per processor (computation load).
    pub vertex_counts: Vec<usize>,
    /// Cut size per processor (communication load).
    pub cut_sizes: Vec<usize>,
    /// `max(vertex_counts) · P / Σ vertex_counts`; 1.0 is perfect.
    pub vertex_imbalance: f64,
    /// `max(cut_sizes) · P / Σ cut_sizes`; 1.0 is perfect (0 cut ⇒ 1.0).
    pub cut_imbalance: f64,
}

impl ImbalanceReport {
    /// Whether either dimension exceeds the given factor.
    pub fn exceeds(&self, max_factor: f64) -> bool {
        self.vertex_imbalance > max_factor || self.cut_imbalance > max_factor
    }
}

impl AnytimeEngine {
    /// Measures the current computation/communication load imbalance.
    pub fn imbalance(&self) -> ImbalanceReport {
        let p = self.config.num_procs;
        let vertex_counts = self.partition.part_sizes();
        let cut_sizes = quality::per_part_cut(&self.world, &self.partition);
        #[expect(
            clippy::unwrap_used,
            reason = "counts has one slot per processor and num_procs is asserted >= 1 at construction"
        )]
        let ratio = |counts: &[usize]| -> f64 {
            let total: usize = counts.iter().sum();
            if total == 0 {
                return 1.0;
            }
            *counts.iter().max().unwrap() as f64 * p as f64 / total as f64
        };
        ImbalanceReport {
            vertex_imbalance: ratio(&vertex_counts),
            cut_imbalance: ratio(&cut_sizes),
            vertex_counts,
            cut_sizes,
        }
    }

    /// Rebalances the partition with adaptive multilevel repartitioning and
    /// migrates the affected distance-vector rows (partial results are
    /// reused, not recomputed). Returns the number of migrated vertices.
    /// Subsequent recombination steps re-exchange what the new neighbourhoods
    /// are missing.
    pub fn rebalance(&mut self) -> usize {
        assert!(self.initialized, "call initialize() first");
        let p = self.config.num_procs;
        let t = aa_obs::Stopwatch::start();
        let new_partition = MultilevelKWay {
            seed: self.config.seed ^ 0x4EBA,
        }
        .repartition(&self.world, &self.partition, p);
        let elapsed = t.elapsed();
        for rank in 0..p {
            self.cluster.compute_measured(
                rank,
                aa_logp::Phase::DomainDecomposition,
                elapsed / p as u32,
            );
        }
        self.cluster.barrier();
        self.migrate_to_partition(new_partition)
    }

    /// Rebalances only when [`Self::imbalance`] exceeds `max_factor` (e.g.
    /// 1.25 = allow 25 % skew). Returns the number of migrated vertices, or
    /// `None` if the load was within bounds.
    pub fn rebalance_if_needed(&mut self, max_factor: f64) -> Option<usize> {
        assert!(max_factor >= 1.0, "factor below 1.0 is unsatisfiable");
        if self.imbalance().exceeds(max_factor) {
            Some(self.rebalance())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, PartitionerKind};
    use crate::dynamic::{Endpoint, VertexBatch};
    use crate::strategy::AdditionStrategy;
    use aa_graph::{algo, generators};

    fn skewed_engine() -> AnytimeEngine {
        // A balanced starting point; tests skew it explicitly where needed.
        let g = generators::barabasi_albert(60, 2, 1, 5);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 4,
                ..Default::default()
            },
        );
        e.initialize();
        e.run_to_convergence(64);
        e
    }

    fn one_vertex_batch(anchor: u32) -> VertexBatch {
        let mut b = VertexBatch::new(1);
        b.connect(0, Endpoint::Existing(anchor), 1);
        b
    }

    #[test]
    fn imbalance_report_on_balanced_partition() {
        let e = skewed_engine();
        let report = e.imbalance();
        assert!(report.vertex_imbalance < 1.25, "{report:?}");
        assert_eq!(report.vertex_counts.iter().sum::<usize>(), 60);
        // Cut sizes are naturally lumpier than vertex counts; just sanity-
        // check the ratio is finite and ≥ 1.
        assert!(report.cut_imbalance >= 1.0);
        assert!(!report.exceeds(4.0));
    }

    #[test]
    fn rebalance_reduces_vertex_skew() {
        let mut e = skewed_engine();
        // Create skew directly: add 20 vertices, then delete the ones that
        // did not land on rank 0, leaving rank 0 overloaded.
        let batch = {
            let mut b = VertexBatch::new(20);
            for i in 0..20 {
                b.connect(i, Endpoint::Existing(0), 1);
            }
            b
        };
        let ids = e.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
        for &id in &ids {
            if e.partition().part_of(id) != Some(0) {
                e.delete_vertex(id);
            }
        }
        e.run_to_convergence(64);
        let before = e.imbalance();
        assert!(before.vertex_imbalance > 1.15, "setup failed: {before:?}");
        let moved = e.rebalance();
        assert!(moved > 0, "rebalance must move something");
        let after = e.imbalance();
        assert!(
            after.vertex_imbalance < before.vertex_imbalance,
            "skew must drop: {:.3} -> {:.3}",
            before.vertex_imbalance,
            after.vertex_imbalance
        );
        // Results unharmed.
        e.run_to_convergence(64);
        assert!(e.is_converged());
        let dense = e.distances_dense();
        let oracle = algo::apsp_dijkstra(e.graph());
        for v in e.graph().vertices() {
            assert_eq!(dense[v as usize], oracle[v as usize]);
        }
        e.check_invariants().unwrap();
    }

    #[test]
    fn rebalance_if_needed_respects_threshold() {
        let mut e = skewed_engine();
        assert_eq!(
            e.rebalance_if_needed(4.0),
            None,
            "balanced partition must not trigger"
        );
        // An unreachably tight threshold always triggers a (harmless) pass.
        assert!(e.rebalance_if_needed(1.0).is_some());
        e.run_to_convergence(64);
        assert!(e.is_converged());
    }

    #[test]
    fn rebalance_fixes_a_terrible_initial_partition() {
        // Round-robin DD on a community graph leaves a high cut; rebalancing
        // must not break results (and usually improves the cut).
        let g = generators::planted_partition(4, 15, 0.5, 0.02, 1, 9);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 4,
                partitioner: PartitionerKind::RoundRobin,
                ..Default::default()
            },
        );
        e.initialize();
        e.run_to_convergence(64);
        let cut_before = quality::edge_cut(e.graph(), e.partition());
        e.rebalance();
        let cut_after = quality::edge_cut(e.graph(), e.partition());
        assert!(cut_after <= cut_before, "cut {cut_before} -> {cut_after}");
        e.run_to_convergence(64);
        let dense = e.distances_dense();
        let oracle = algo::apsp_dijkstra(e.graph());
        for v in e.graph().vertices() {
            assert_eq!(dense[v as usize], oracle[v as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "unsatisfiable")]
    fn threshold_below_one_rejected() {
        let mut e = skewed_engine();
        e.rebalance_if_needed(0.5);
    }

    #[test]
    fn single_batch_then_rebalance_keeps_new_vertices() {
        let mut e = skewed_engine();
        e.add_vertices(&one_vertex_batch(3), AdditionStrategy::RoundRobinPs);
        e.rebalance();
        e.run_to_convergence(64);
        assert_eq!(e.graph().vertex_count(), 61);
        e.check_invariants().unwrap();
    }
}
