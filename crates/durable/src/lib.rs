//! Crash-consistent durability for the anytime-anywhere serve path.
//!
//! PR 6 made `aa serve` a resident process whose admission contract reports
//! `Accepted` — but acknowledged updates lived only in memory, so a crash
//! silently lost them. This crate closes that gap with the classic
//! WAL-plus-checkpoint recipe, specialised for the engine's deterministic
//! ingest pipeline:
//!
//! * [`wal`] — a CRC32-framed, length-prefixed **write-ahead log** of
//!   [`aa_ingest::UpdateOp`]s. Records are appended to an in-memory group
//!   and made durable with one `fsync` per commit (group commit), so
//!   durability costs one storage round-trip per serve turn, not per op.
//!   An update may only be acknowledged once [`WalWriter::commit`] has
//!   returned its sequence number.
//! * [`store`] — [`DurableLog`], the orchestrator owning the WAL plus
//!   **atomic on-disk checkpoints**: engine state framed with
//!   [`aa_core::checkpoint`] framing, written via temp-file + fsync +
//!   rename, stamped with the WAL sequence it covers. A checkpoint rotates
//!   the WAL and compacts fully-covered segments.
//! * [`recover`] — startup **recovery**: load the newest valid checkpoint
//!   (quarantining corrupt ones), replay the WAL suffix through an
//!   [`aa_ingest::IngestPipeline`], and quarantine — never panic on — torn
//!   tails and corrupt frames.
//! * [`storage`] — the [`Storage`] abstraction: [`DiskStorage`] for real
//!   directories and [`SimStorage`], an in-memory double-buffered model
//!   (durable vs. not-yet-fsynced bytes) whose [`SimStorage::kill`]
//!   simulates `kill -9` at any point.
//! * [`fault`] — [`StorageFaultPlan`], a seeded deterministic fault
//!   injector for I/O (torn writes, short reads, bit flips, failed
//!   fsync/rename).
//!
//! Everything in this crate is deterministic: no wall clocks, no unseeded
//! randomness, `BTreeMap` for all keyed state. Recovery decisions are pure
//! functions of the bytes on storage.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod fault;
pub mod recover;
pub mod storage;
pub mod store;
pub mod wal;

pub use fault::{StorageFaultPlan, StorageFaults};
pub use recover::{recover, Recovered, RecoveryReport};
pub use storage::{atomic_write_file, DiskStorage, SimStats, SimStorage, Storage};
pub use store::{DurabilityConfig, DurableLog, KEEP_CHECKPOINTS};
pub use wal::{
    decode_record, encode_commit, encode_record, scan_segment, SegmentScan, WalRecord, WalWriter,
    MAX_RECORD_BYTES,
};
