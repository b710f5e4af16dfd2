//! Engine configuration.

use aa_logp::LogPParams;
use aa_partition::{
    BfsGrowPartitioner, HashPartitioner, MultilevelKWay, Partitioner, RoundRobinPartitioner,
};
use aa_runtime::{BackendKind, ExchangeMode};

/// Which partitioner drives domain decomposition (and repartitioning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionerKind {
    /// Cyclic assignment by vertex id.
    RoundRobin,
    /// Multiplicative hash of the vertex id.
    Hash,
    /// BFS region growing from high-degree seeds.
    BfsGrow,
    /// Multilevel k-way with FM refinement (the METIS substitute; default).
    Multilevel,
}

impl PartitionerKind {
    /// Instantiates the partitioner, seeding randomized ones with `seed`.
    pub fn build(&self, seed: u64) -> Box<dyn Partitioner> {
        match self {
            PartitionerKind::RoundRobin => Box::new(RoundRobinPartitioner),
            PartitionerKind::Hash => Box::new(HashPartitioner),
            PartitionerKind::BfsGrow => Box::new(BfsGrowPartitioner),
            PartitionerKind::Multilevel => Box::new(MultilevelKWay {
                seed,
                ..MultilevelKWay::default()
            }),
        }
    }
}

/// Which single-source shortest-path algorithm the initial-approximation
/// phase runs inside each local sub-graph. The papers use multithreaded
/// Dijkstra ("a possible algorithm to implement the IA ... is Dijkstra's");
/// Delta-stepping and Bellman-Ford are the classic alternatives, available as
/// ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IaAlgorithm {
    /// Binary-heap Dijkstra (default).
    Dijkstra,
    /// Delta-stepping bucketed label correcting with the given bucket width.
    DeltaStepping {
        /// Bucket width (>= 1).
        delta: u32,
    },
    /// Bellman-Ford sweeps to a fixed point.
    BellmanFord,
}

/// How a processor refines its local distance vectors after receiving
/// boundary updates in a recombination step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refinement {
    /// Label-correcting worklist over local edges until the local fixed point
    /// (default). Static convergence is then bounded by the processor count.
    WorklistRelax,
    /// The papers' Floyd–Warshall variant: a single pass pivoting through
    /// local boundary vertices. Cheaper per step, may need more steps; gives
    /// "more up-to-date partial results" between exchanges.
    PivotPass,
}

/// How the Repartition-S strategy recomputes the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepartitionMode {
    /// ParMETIS-style adaptive multilevel repartitioning: coarsen with
    /// label-constrained matching, project the current partition, refine on
    /// the way up (default — the scheme ParMETIS applies when reused for
    /// repartitioning, as the papers do).
    AdaptiveMultilevel,
    /// Full fresh multilevel repartition with part labels greedily remapped
    /// onto the old partition. Maximum cut quality, heavy migration
    /// (ablation).
    FullRemap,
    /// Flat stability-aware refinement from the current assignment;
    /// near-zero migration, weakest cut (ablation).
    Adaptive,
}

/// Configuration of an [`crate::AnytimeEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of virtual processors `P`.
    pub num_procs: usize,
    /// LogP parameters of the simulated interconnect.
    pub logp: LogPParams,
    /// All-to-all schedule (the papers' serialized schedule by default).
    pub exchange: ExchangeMode,
    /// Local refinement strategy inside recombination steps.
    pub refinement: Refinement,
    /// Local SSSP algorithm for the initial approximation (and reseeds).
    pub ia: IaAlgorithm,
    /// Domain-decomposition partitioner.
    pub partitioner: PartitionerKind,
    /// Repartition-S flavour.
    pub repartition: RepartitionMode,
    /// Compute calibration: measured wall time is multiplied by this before
    /// entering the virtual clocks (≈10 models the papers' 2012-era Xeons on
    /// a modern host). Default 1.0.
    pub compute_scale: f64,
    /// Seed for all randomized components.
    pub seed: u64,
    /// Execution backend: the deterministic simulator (default, the
    /// correctness oracle) or real OS threads with the same schedule and
    /// accounting (see `aa_runtime::backend`).
    pub backend: BackendKind,
    /// Worker-thread cap for the threads backend (`0` = one worker per
    /// rank). Must be 0 or 1 on the sim backend, which is strictly
    /// sequential — requesting more fails loudly at construction.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_procs: 16,
            logp: LogPParams::ethernet_1gbe(),
            exchange: ExchangeMode::Serialized,
            refinement: Refinement::WorklistRelax,
            ia: IaAlgorithm::Dijkstra,
            partitioner: PartitionerKind::Multilevel,
            repartition: RepartitionMode::AdaptiveMultilevel,
            compute_scale: 1.0,
            seed: 0xA17A,
            backend: BackendKind::Sim,
            threads: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_graph::generators;

    #[test]
    fn every_kind_builds_and_partitions() {
        let g = generators::barabasi_albert(80, 2, 1, 1);
        for kind in [
            PartitionerKind::RoundRobin,
            PartitionerKind::Hash,
            PartitionerKind::BfsGrow,
            PartitionerKind::Multilevel,
        ] {
            let p = kind.build(7).partition(&g, 4);
            p.validate(&g).unwrap();
        }
    }

    #[test]
    fn default_config_matches_paper_setup() {
        let c = EngineConfig::default();
        assert_eq!(c.num_procs, 16, "the papers evaluate on 16 processors");
        assert_eq!(c.refinement, Refinement::WorklistRelax);
        assert_eq!(c.exchange, ExchangeMode::Serialized);
    }
}
