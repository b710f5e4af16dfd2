//! The one sanctioned wall-clock boundary in the workspace.
//!
//! No crate may touch `Instant` directly (clippy.toml's `disallowed-types`):
//! sim-as-oracle differential testing replays the same seeded run twice and
//! diffs every byte of state, so any clock read that leaks into control flow
//! or stored state breaks the oracle. Measured compute still has to be
//! *charged* somewhere, though — the LogP ledger records how long each phase
//! really took. [`Stopwatch`] is that boundary: it reads the clock, hands
//! back an opaque `Duration`, and its contract (enforced by review, vouched
//! for by the `#[expect]` below) is that the value flows only into
//! observability sinks — span logs, the measured-compute ledger, progress
//! samples — never into branches, seeds, or recombination state.
//!
//! Call sites read exactly like the `Instant` idiom they replace:
//!
//! ```
//! let t = aa_obs::Stopwatch::start();
//! // ... work ...
//! let took = t.elapsed();
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "observability boundary — the clock value is charged to the LogP ledger and span logs only and never feeds control flow or replayable state"
)]

use std::time::{Duration, Instant};

/// A started wall-clock timer. See the module docs for the contract.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Wall time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}
