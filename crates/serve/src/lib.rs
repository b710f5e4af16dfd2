#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
//! `aa-serve` — a resident query/update server over the anytime engine.
//!
//! The paper's *anytime* property promises centrality estimates with
//! bounded error at any point mid-computation; this crate is where that
//! promise meets concurrent load. A [`Session`] owns the
//! [`AnytimeEngine`](aa_core::AnytimeEngine), the
//! [`IngestPipeline`](aa_ingest::IngestPipeline), the top-k tracker and the
//! write-ahead log, and is the one place that orders their calls; every
//! front-end (`aa analyze`, `aa stream`, the benches) drives it. A
//! [`Server`] is a session plus a bounded read queue and a per-turn write
//! budget, advancing in deterministic turns with two guarantees:
//!
//! * **Snapshot isolation** — every read is answered from a published
//!   [`SnapshotFrame`](aa_core::SnapshotFrame): an `Arc`-shared, epoch-
//!   stamped snapshot rebuilt only when engine state changes (double-
//!   buffered publication, allocation-stable on reuse). A reader can never
//!   observe a torn mid-`rc_step` state or a frame claiming convergence
//!   while rows are dirty.
//! * **Every read answered at the next turn** — each turn serves every
//!   queued read from the frame it publishes, converged or not: the
//!   anytime estimate is always there to answer from. A read is shed only
//!   at submission, when the queue holds [`READ_QUEUE_CAP`] reads; writes
//!   pass a per-turn token budget and then the aa-ingest
//!   `Accepted / Throttled{retry_after} / Shed` contract. Nothing hangs.
//!
//! [`LoadGen`] provides the deterministic mixed-workload generator that the
//! `aa serve` CLI subcommand and the serving tests drive.

mod admission;
mod request;
mod server;
mod session;
mod workload;

pub use admission::{ServeConfig, TokenBucket};
pub use request::{ClientOp, ReadKind, ReadOutcome, ReadTicket, ReadValue, WriteOutcome};
pub use server::{ServeStats, Server, TurnReport, READ_QUEUE_CAP};
pub use session::{Applied, Recovery, Session};
pub use workload::{LoadGen, WorkloadConfig};
