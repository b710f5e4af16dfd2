//! Engine configuration.

use aa_partition::{
    BfsGrowPartitioner, HashPartitioner, MultilevelKWay, Partitioner, RoundRobinPartitioner,
};
use aa_runtime::BackendKind;

/// Which partitioner drives domain decomposition.
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
            PartitionerKind::Multilevel => Box::new(MultilevelKWay { seed }),
        }
    }
}

/// Configuration of an [`crate::AnytimeEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of virtual processors `P`.
    pub num_procs: usize,
    /// Domain-decomposition partitioner.
    pub partitioner: PartitionerKind,
    /// Compute calibration: measured wall time is multiplied by this before
    /// entering the virtual clocks (≈10 models the papers' 2012-era Xeons on
    /// a modern host). Default 1.0.
    pub compute_scale: f64,
    /// Seed for all randomized components.
    pub seed: u64,
    /// Execution backend: the deterministic simulator (default, the
    /// correctness oracle) or the same simulator with its per-rank stages
    /// on OS worker threads (see `aa_runtime::Cluster::run_on_ranks`).
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
            partitioner: PartitionerKind::Multilevel,
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
    }
}
