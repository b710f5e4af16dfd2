#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
//! Anytime-anywhere closeness centrality for large and dynamic graphs.
//!
//! This crate is the reproduction of the papers' contribution: a
//! parallel/distributed algorithm for closeness centrality (all-pairs
//! shortest paths) that is
//!
//! * **anytime** — interruptible after any recombination step with partial
//!   results whose distance estimates only ever improve, and
//! * **anywhere** — able to fold dynamic graph changes (edge additions and
//!   deletions, vertex additions and deletions) into the running computation
//!   instead of restarting it.
//!
//! The pipeline follows the papers' three phases:
//!
//! 1. **Domain decomposition** ([`EngineConfig::partitioner`]) — the graph is
//!    split into `P` balanced sub-graphs minimizing cut edges;
//! 2. **Initial approximation** — every virtual processor computes all-pairs
//!    shortest paths *within its local sub-graph* by Dijkstra from each owned
//!    vertex;
//! 3. **Recombination** ([`AnytimeEngine::rc_step`]) — processors repeatedly
//!    exchange the distance vectors of boundary vertices over the papers'
//!    personalized all-to-all schedule and relax their local vectors until no
//!    processor has updates.
//!
//! Dynamic **vertex additions** go through a [`AdditionStrategy`]:
//! round-robin assignment, cut-edge-optimizing assignment, whole-graph
//! repartitioning that reuses partial results, or a baseline restart.
//!
//! ```
//! use aa_core::{AnytimeEngine, EngineConfig};
//! use aa_graph::generators;
//!
//! let g = generators::barabasi_albert(200, 2, 1, 7);
//! let mut engine = AnytimeEngine::new(g, EngineConfig { num_procs: 4, ..Default::default() });
//! engine.initialize();                  // domain decomposition + initial approximation
//! let steps = engine.run_to_convergence(64);
//! assert!(steps <= 10);                 // a handful of steps on small-world graphs
//! let snapshot = engine.snapshot();
//! let (top, _score) = snapshot.top_k(1)[0];
//! assert!(engine.graph().is_alive(top));
//! ```

#![expect(
    clippy::needless_range_loop,
    reason = "per-rank engine loops index `self.procs[rank]` while also borrowing the cluster for cost charging; the iterator form cannot express that without splitting borrows"
)]

pub mod checkpoint;
pub mod closeness;
pub mod config;
pub mod dv;
pub mod dynamic;
pub mod engine;
pub mod obs;
pub mod proc_state;
pub mod publish;
pub mod rebalance;
pub mod strategy;

#[cfg(test)]
#[path = "tests/candidate_insertion.rs"]
mod candidate_insertion;
#[cfg(test)]
#[path = "tests/changelog.rs"]
mod changelog_tests;
#[cfg(test)]
#[path = "tests/exact_deletion.rs"]
mod exact_deletion;
#[cfg(test)]
#[path = "tests/resilience.rs"]
mod resilience;
#[cfg(test)]
#[path = "tests/settled_flush.rs"]
mod settled_flush;
#[cfg(test)]
#[path = "tests/widening.rs"]
mod widening;

pub use aa_obs::{
    decode_jsonl, encode_jsonl, kendall_tau, MetricsRegistry, ProgressSample, SpanLog, SpanRecord,
};
pub use closeness::Snapshot;
pub use config::{EngineConfig, PartitionerKind};
pub use dynamic::{Endpoint, VertexBatch};
pub use engine::AnytimeEngine;
pub use publish::{BoundDelta, SnapshotFrame, SnapshotMeta};
pub use rebalance::ImbalanceReport;
pub use strategy::AdditionStrategy;
