#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]
//! LogP/LogGP cost model and communication schedules.
//!
//! The papers analyze their algorithms in the LogP model (Culler et al.) and
//! run on a 1 Gb/s Ethernet cluster. This crate is the reproduction's
//! replacement for that hardware: every message the simulated runtime moves is
//! charged to per-processor virtual clocks under explicit LogP parameters
//! (latency `L`, per-message overhead `o`, inter-message gap `g`, plus the
//! LogGP per-byte gap `G` for long messages, and the paper's bounded message
//! size `M`).
//!
//! Two communication schedules from the papers are provided:
//!
//! * [`schedule::serialized_all_to_all`] — the paper's personalized all-to-all
//!   schedule that "ensures only one message traverses the network at any
//!   given time" (Θ(P²) sequential transfers, flood-free);
//! * [`schedule::tree_broadcast`] — the binomial-tree broadcast used for
//!   distance-vector row distribution during edge additions.

pub mod clocks;
pub mod ledger;
pub mod params;
pub mod schedule;

pub use clocks::VirtualClocks;
pub use ledger::{CostLedger, Phase, PhaseStats};
pub use params::LogPParams;
