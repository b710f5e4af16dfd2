#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
//! Dependency-free observability for the anytime-anywhere engine.
//!
//! Three pieces, all deterministic and allocation-light:
//!
//! * [`registry`] — a typed metrics registry: monotone counters, gauges and
//!   fixed-bucket histograms, each addressed by a name plus a sorted label
//!   set. Exports as JSON with stable ordering, so the output can be
//!   golden-file tested.
//! * [`trace`] — span-style phase tracing: one [`trace::SpanRecord`] per
//!   engine activity (domain decomposition, initial approximation, each
//!   recombination step, dynamic updates, snapshots) carrying the
//!   LogP-modeled makespan delta alongside the measured compute charged
//!   during the span, plus the ledger's byte and message deltas.
//! * [`progress`] — the anytime progress probe's sample type: per-step
//!   distance-overestimate statistics, closeness Kendall tau against an
//!   exact oracle, converged-row fraction and in-flight row counts, with a
//!   replayable JSONL encoding (`progress.jsonl`).
//!
//! The crate knows nothing about graphs or engines: the `aa-core` side
//! computes the numbers and feeds them in. That keeps this layer reusable by
//! the CLI and the benchmark harness without dependency cycles, and keeps it
//! trivially deterministic — with one audited exception: [`stopwatch`],
//! the workspace's single sanctioned wall-clock boundary (see its docs for
//! the observability-only contract).

pub mod json;
pub mod progress;
pub mod registry;
pub mod stopwatch;
pub mod trace;

pub use progress::{decode_jsonl, encode_jsonl, kendall_tau, ProgressSample};
pub use registry::{HistogramData, MetricKey, MetricValue, MetricsRegistry};
pub use stopwatch::Stopwatch;
pub use trace::{SpanLog, SpanRecord};
