#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
//! A deterministic simulated message-passing cluster — the MPI substitute.
//!
//! The papers run on a 32-node MPI cluster. This runtime replaces it with a
//! *simulated* distributed-memory machine: `P` virtual processors advance in
//! supersteps; the algorithm layer keeps one state object per processor and
//! moves data between them exclusively through [`SimCluster`], which charges
//! every transfer to per-processor LogP virtual clocks and a cost ledger.
//! The network is reliable, as MPI's is: every transfer arrives, once.
//!
//! Why keep the simulator at all: the algorithms under study are defined
//! entirely by *which bytes move when* and *what each processor may know*; a
//! deterministic simulator preserves exactly those semantics, makes every
//! run reproducible, and yields a hardware-independent "cluster time" (the
//! LogP makespan) that the figure reproductions report — see DESIGN.md §2.
//!
//! Since ISSUE 9 there are two interchangeable [`backend::Cluster`]
//! variants: the [`SimCluster`] oracle above, and a [`ThreadCluster`] that
//! runs per-rank work on real OS threads with bounded channels while
//! funnelling all accounting through the same simulator core — so real
//! wall-clock parallelism and the deterministic replay contract coexist,
//! proven equivalent by the cross-backend differential suite (DESIGN.md
//! §16).

pub mod backend;
pub mod cluster;
pub mod threads;

pub use backend::{BackendKind, Cluster, ExecutionBackend};
pub use cluster::{SimCluster, TraceEvent, TransferOut};
pub use threads::{threads_available, ThreadCluster};
