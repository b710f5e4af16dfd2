#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
//! `aa-serve` — an overload-safe resident query/update server over the
//! anytime engine.
//!
//! The paper's *anytime* property promises centrality estimates with
//! bounded error at any point mid-computation; this crate is where that
//! promise meets concurrent load. A [`Session`] owns the
//! [`AnytimeEngine`](aa_core::AnytimeEngine), the
//! [`IngestPipeline`](aa_ingest::IngestPipeline), the top-k tracker and the
//! write-ahead log, and is the one place that orders their calls; every
//! front-end (`aa analyze`, `aa stream`, the benches) drives it. A
//! [`Server`] is a session plus a read queue, token budgets and a mode
//! machine, advancing in deterministic turns with three guarantees:
//!
//! * **Snapshot isolation** — every read is answered from a published
//!   [`SnapshotFrame`](aa_core::SnapshotFrame): an `Arc`-shared, epoch-
//!   stamped snapshot rebuilt only when engine state changes (double-
//!   buffered publication, allocation-stable on reuse). A reader can never
//!   observe a torn mid-`rc_step` state or a frame claiming convergence
//!   while rows are dirty.
//! * **Admission control** — reads and writes share the aa-ingest
//!   `Accepted / Throttled{retry_after} / Shed` backpressure contract,
//!   with per-class token budgets, queue watermarks, and deadline-aware
//!   shedding. Every admitted request resolves at a turn boundary;
//!   nothing hangs.
//! * **Graceful degradation** — under sustained overload the server
//!   enters an explicit degraded mode: reads keep being served from
//!   stale-but-bounded frames (finite max-overestimate bound, epoch
//!   consistency preserved) and the write budget tightens.
//!
//! [`LoadGen`] provides the deterministic mixed-workload generator that the
//! `aa serve` CLI subcommand and the serving tests drive.

mod admission;
mod request;
mod server;
mod session;
mod workload;

pub use admission::{ServeConfig, TokenBucket};
pub use request::{
    ClientOp, ReadKind, ReadOutcome, ReadTicket, ReadValue, ShedReason, WriteOutcome,
};
pub use server::{ServeMode, ServeStats, Server, TurnReport, READ_QUEUE_CAP, READ_QUEUE_HWM};
pub use session::{Applied, Recovery, Session};
pub use workload::{LoadGen, WorkloadConfig};
