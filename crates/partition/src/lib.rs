#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
//! Graph partitioning substrate — the reproduction's METIS/ParMETIS substitute.
//!
//! The anytime-anywhere papers use ParMETIS for domain decomposition, METIS
//! inside the CutEdge-PS processor-assignment strategy, and state that "any
//! cut-edge optimization based graph partitioning algorithm can be used". This
//! crate provides that contract from scratch:
//!
//! * [`MultilevelKWay`] — the workhorse: heavy-edge-matching coarsening, greedy
//!   graph-growing initial partition, Fiduccia–Mattheyses-style boundary
//!   refinement during uncoarsening, with an explicit balance constraint;
//!   its `repartition` is the adaptive, migration-aware variant ParMETIS
//!   provides for the papers' Repartition-S;
//! * [`RoundRobinPartitioner`], [`HashPartitioner`], [`BfsGrowPartitioner`] —
//!   cheap baselines used in ablations;
//! * [`quality`] — edge-cut, per-part cut size, balance factor, and the
//!   "new cut edges introduced by a batch" metric plotted in the paper's
//!   Figure 7.

mod adaptive;
pub mod multilevel;
pub mod partition;
pub mod partitioners;
pub mod quality;

pub use multilevel::MultilevelKWay;
pub use partition::Partition;
pub use partitioners::{BfsGrowPartitioner, HashPartitioner, Partitioner, RoundRobinPartitioner};
