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
//! moves data between them exclusively through [`Cluster`], which charges
//! every transfer to per-processor LogP virtual clocks and a cost ledger.
//! The network is reliable, as MPI's is: every transfer arrives, once.
//!
//! Why keep the simulator at all: the algorithms under study are defined
//! entirely by *which bytes move when* and *what each processor may know*; a
//! deterministic simulator preserves exactly those semantics, makes every
//! run reproducible, and yields a hardware-independent "cluster time" (the
//! LogP makespan) that the figure reproductions report — see DESIGN.md §2.
//!
//! The [`BackendKind`] only sets how many worker lanes
//! [`Cluster::run_on_ranks`] uses for the per-rank stages: one on the sim
//! backend, which runs the ranks inline, and up to `P` OS threads on the
//! threads backend. Results and measured charges merge back in rank order
//! either way, and every collective is the simulator's, so the two
//! backends are interchangeable, as the cross-backend differential suite
//! checks (DESIGN.md §16).

mod backend;
mod cluster;

pub use backend::{threads_available, BackendKind};
pub use cluster::{Cluster, TraceEvent, TransferOut};
