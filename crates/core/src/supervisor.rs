//! Self-healing supervision: heartbeat failure detection, periodic per-rank
//! checkpoints, and the checkpoint-assisted recovery ladder.
//!
//! [`crate::resilience`] holds the crash-and-replace protocol; this module
//! decides when it runs and from what. [`crate::config::ProcFaultConfig`]
//! schedules fail-stop crashes and stragglers, the recombination step
//! piggybacks one-byte heartbeats on every exchange, a
//! [`FailureDetector`](aa_runtime::FailureDetector) turns silence into
//! suspicion, and suspicion triggers the recovery ladder. The same ladder is
//! the one way to replace a rank by hand ([`AnytimeEngine::recover_rank`]):
//!
//! 1. **Checkpoint restore.** Every `checkpoint_interval` recombination
//!    steps each live rank serializes its rows (same CRC32-footed envelope
//!    as the whole-engine checkpoint, magic `AARK`) to its stable store. A
//!    replacement rank restores those rows — exact upper bounds of the
//!    pre-crash state — and reseeds only rows the checkpoint misses (rows a
//!    migration brought in since; rows it took away are dropped). Installed
//!    rows are on the frontier, so restored and reseeded ones relax each
//!    other at the next step; one full boundary re-flood later the cluster
//!    is caught up.
//! 2. **SSSP reseed.** When the checkpoint is missing, fails its CRC, or
//!    predates a deletion (the `invalidation_epoch` changed — deletions are
//!    the one mutation that makes old rows unsafe lower-side), recovery
//!    falls back to the local initial-approximation reseed of
//!    [`crate::resilience`]. Reseeded rows improve after the inbound
//!    boundary flood, so extra delta rounds flow before reconvergence.
//! 3. **Baseline restart.** The measurable worst case: throw everything
//!    away and rerun the static pipeline
//!    ([`AdditionStrategy::BaselineRestart`](crate::AdditionStrategy)).
//!
//! The ladder is ordered by recombination bytes moved: 1 < 2 < 3 (asserted
//! by the `selfheal` integration tests).

use crate::checkpoint::{bad, read_framed, read_u32, read_u64, write_framed};
use crate::engine::AnytimeEngine;
use crate::proc_state::ProcState;
use crate::resilience::{RecoveryError, RecoveryReport};
use aa_graph::{VertexId, Weight};
use aa_logp::Phase;
use aa_runtime::{FailureDetector, RankHealth};
use std::io;

/// Per-rank checkpoint envelope: magic `AARK`, version 2 (declared body
/// length + CRC32 footer) —
/// the same framing as the whole-engine `AACP` checkpoint.
const RANK_MAGIC: &[u8; 4] = b"AARK";
const RANK_VERSION: u32 = 2;

/// Modeled cost of serializing/deserializing a checkpoint to the rank's
/// stable store, in microseconds per byte (~2 GB/s, an NVMe-class medium).
const CHECKPOINT_US_PER_BYTE: f64 = 5e-4;

/// One recovery performed by the supervisor (or [`AnytimeEngine::recover_rank`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Recombination step at which the recovery ran.
    pub step: u64,
    /// What was rebuilt and how.
    pub report: RecoveryReport,
}

/// Cluster health as the failure detector sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Recombination step the report describes.
    pub rc_step: usize,
    /// Per-rank verdict.
    pub statuses: Vec<RankHealth>,
    /// Ranks currently confirmed down.
    pub down_ranks: Vec<usize>,
    /// Ranks currently flagged as stragglers.
    pub stragglers: Vec<usize>,
    /// Total recoveries performed so far.
    pub recoveries: usize,
}

/// Supervision state carried by the engine: the failure detector, the
/// per-rank checkpoint store, and the recovery log.
#[derive(Debug, Clone)]
pub(crate) struct Supervision {
    pub(crate) detector: FailureDetector,
    /// Latest checkpoint blob per rank (in-memory stand-in for each rank's
    /// stable store).
    pub(crate) checkpoints: Vec<Option<Vec<u8>>>,
    pub(crate) log: Vec<RecoveryEvent>,
}

impl Supervision {
    pub(crate) fn new(p: usize, cfg: &crate::config::SupervisorConfig) -> Self {
        Supervision {
            detector: FailureDetector::new(
                p,
                cfg.detector_timeout,
                cfg.straggler_factor,
                cfg.straggler_floor_us,
                cfg.straggler_patience,
            ),
            checkpoints: vec![None; p],
            log: Vec::new(),
        }
    }
}

/// A decoded per-rank checkpoint.
pub(crate) struct RankCheckpoint {
    pub(crate) epoch: u64,
    pub(crate) rows: Vec<(VertexId, Vec<Weight>)>,
}

/// Serializes `rank`'s distance-vector rows into the framed per-rank
/// checkpoint format: rank, step and invalidation epoch, then each row.
pub(crate) fn encode_rank_checkpoint(
    ps: &ProcState,
    rank: usize,
    rc_step: u64,
    epoch: u64,
) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&(rank as u32).to_le_bytes());
    body.extend_from_slice(&rc_step.to_le_bytes());
    body.extend_from_slice(&epoch.to_le_bytes());
    body.extend_from_slice(&(ps.dv.row_count() as u64).to_le_bytes());
    for &v in ps.dv.vertices() {
        let row = ps.dv.row(v);
        body.extend_from_slice(&v.to_le_bytes());
        body.extend_from_slice(&(row.len() as u64).to_le_bytes());
        for &d in row {
            body.extend_from_slice(&d.to_le_bytes());
        }
    }
    write_framed(RANK_MAGIC, RANK_VERSION, &body)
}

/// Validates and decodes a per-rank checkpoint blob. Corruption (bit flips,
/// truncation), the wrong rank, or malformed structure all surface as
/// `InvalidData`-style errors — the recovery ladder treats any error as
/// "no usable checkpoint" and falls back to the SSSP reseed.
pub(crate) fn decode_rank_checkpoint(bytes: &[u8], rank: usize) -> io::Result<RankCheckpoint> {
    let body = read_framed(bytes, RANK_MAGIC, RANK_VERSION)?;
    let r = &mut &body[..];
    if read_u32(r)? as usize != rank {
        return Err(bad("checkpoint belongs to a different rank"));
    }
    let _rc_step = read_u64(r)?;
    let epoch = read_u64(r)?;
    let row_count = read_u64(r)? as usize;
    let mut rows = Vec::with_capacity(row_count.min(1 << 20));
    for _ in 0..row_count {
        let v = read_u32(r)?;
        let len = read_u64(r)? as usize;
        if len > body.len() {
            return Err(bad("row longer than the checkpoint"));
        }
        let mut row = Vec::with_capacity(len);
        for _ in 0..len {
            row.push(read_u32(r)? as Weight);
        }
        rows.push((v, row));
    }
    if !r.is_empty() {
        return Err(bad("checkpoint has trailing bytes"));
    }
    Ok(RankCheckpoint { epoch, rows })
}

impl AnytimeEngine {
    /// The failure detector's current per-rank verdicts plus recovery stats.
    pub fn health_report(&self) -> HealthReport {
        let now = self.rc_steps_done as u64;
        let p = self.config.num_procs;
        let statuses: Vec<RankHealth> = (0..p)
            .map(|r| self.supervision.detector.health(r, now))
            .collect();
        HealthReport {
            rc_step: self.rc_steps_done,
            down_ranks: (0..p)
                .filter(|&r| statuses[r] == RankHealth::Down)
                .collect(),
            stragglers: (0..p)
                .filter(|&r| statuses[r] == RankHealth::Straggling)
                .collect(),
            recoveries: self.supervision.log.len(),
            statuses,
        }
    }

    /// Every recovery the supervisor (or [`Self::recover_rank`]) performed,
    /// in order.
    pub fn recovery_log(&self) -> &[RecoveryEvent] {
        &self.supervision.log
    }

    /// Deletions (and weight increases, which route through deletion) since
    /// engine creation — per-rank checkpoints from an older epoch are
    /// unusable, because deletion is the one mutation that can make old
    /// distance rows underestimates.
    pub fn invalidation_epoch(&self) -> u64 {
        self.invalidation_epoch
    }

    /// Schedules a fail-stop crash of `rank` at recombination step `step`
    /// (absolute step count, see [`Self::rc_steps`]). The crash fires inside
    /// `rc_step` with no further calls; the heartbeat detector notices the
    /// silence and the supervisor recovers the rank.
    pub fn schedule_crash(&mut self, step: u64, rank: usize) {
        assert!(rank < self.config.num_procs, "rank {rank} out of range");
        let pf = self.config.proc_fault.get_or_insert_with(Default::default);
        pf.crashes.push((step, rank));
        if let Some(plan) = self.cluster.fault_plan_mut() {
            plan.schedule_crash(step, rank);
        } else {
            let plan = self.config.build_fault_plan();
            self.cluster.set_fault_plan(plan);
        }
    }

    /// Makes `rank` a straggler: its compute runs `scale`× slower from now
    /// on (`scale` 1.0 clears the fault). The straggler detector flags it in
    /// [`Self::health_report`] once the slowdown shows for
    /// `straggler_patience` consecutive steps.
    pub fn set_straggler(&mut self, rank: usize, scale: f64) {
        assert!(rank < self.config.num_procs, "rank {rank} out of range");
        let pf = self.config.proc_fault.get_or_insert_with(Default::default);
        pf.stragglers.retain(|&(r, _)| r != rank);
        // aa-lint: allow(AA03, scale 1.0 is the exact user-set "no straggler" sentinel, not a computed estimate)
        if scale != 1.0 {
            pf.stragglers.push((rank, scale));
        }
        if let Some(plan) = self.cluster.fault_plan_mut() {
            plan.clear_straggler(rank);
            // aa-lint: allow(AA03, scale 1.0 is the exact user-set "no straggler" sentinel, not a computed estimate)
            if scale != 1.0 {
                plan.set_straggler(rank, scale);
            }
            self.cluster.refresh_stragglers();
        } else {
            let plan = self.config.build_fault_plan();
            self.cluster.set_fault_plan(plan);
        }
    }

    /// Replaces `rank` by a blank node with the same assignment and runs the
    /// recovery ladder for it (checkpoint restore when a valid same-epoch
    /// checkpoint exists, SSSP reseed otherwise), whether or not the rank
    /// was down: this is the crash injection of the `fail` stream command
    /// and the tests as much as the entry point for supervision policies
    /// with `auto_recover` off. The automatic path — heartbeat timeout
    /// inside `rc_step` — runs the same ladder. The engine is left
    /// unconverged; subsequent recombination steps restore exactness.
    pub fn recover_rank(&mut self, rank: usize) -> Result<RecoveryReport, RecoveryError> {
        if !self.initialized {
            return Err(RecoveryError::NotInitialized);
        }
        if rank >= self.config.num_procs {
            return Err(RecoveryError::InvalidRank {
                rank,
                num_procs: self.config.num_procs,
            });
        }
        Ok(self.recover_rank_ladder(rank, self.rc_steps_done as u64))
    }

    /// Whether a periodic checkpoint is currently stored for `rank`.
    pub fn has_rank_checkpoint(&self, rank: usize) -> bool {
        self.supervision.checkpoints[rank].is_some()
    }

    /// Test hook: mutable access to `rank`'s stored checkpoint blob, for
    /// corruption-injection tests (bit flips, truncation). Not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn rank_checkpoint_mut(&mut self, rank: usize) -> Option<&mut Vec<u8>> {
        self.supervision.checkpoints[rank].as_mut()
    }

    /// Takes the periodic per-rank checkpoints due at step `now` (live ranks
    /// only), charging the serialization to each rank's clock as modeled
    /// stable-store I/O under [`Phase::Recovery`].
    pub(crate) fn take_periodic_checkpoints(&mut self, now: u64) {
        let interval = self.config.supervision.checkpoint_interval;
        if interval == 0 || !now.is_multiple_of(interval as u64) {
            return;
        }
        for rank in 0..self.config.num_procs {
            if self.cluster.is_down(rank) {
                continue;
            }
            let blob =
                encode_rank_checkpoint(&self.procs[rank], rank, now, self.invalidation_epoch);
            self.cluster.compute_modeled(
                rank,
                Phase::Recovery,
                blob.len() as f64 * CHECKPOINT_US_PER_BYTE,
            );
            self.supervision.checkpoints[rank] = Some(blob);
        }
    }

    /// The recovery ladder: restore `rank` from its last checkpoint when the
    /// blob decodes, belongs to the current invalidation epoch, and has rows
    /// to offer; otherwise fall back to the SSSP reseed. Brings the rank
    /// back up in the cluster and the detector, and logs the recovery.
    pub(crate) fn recover_rank_ladder(&mut self, rank: usize, now: u64) -> RecoveryReport {
        let recovery_span = self.span_open();
        // Rows whose owner moved since the checkpoint (repartitioning) are
        // dropped here and reseeded by `replace_rank`.
        let usable: Option<Vec<(VertexId, Vec<Weight>)>> = self.supervision.checkpoints[rank]
            .as_ref()
            .and_then(|blob| match decode_rank_checkpoint(blob, rank) {
                Ok(cp) if cp.epoch == self.invalidation_epoch => Some(
                    cp.rows
                        .into_iter()
                        .filter(|(v, _)| self.partition.part_of(*v) == Some(rank))
                        .collect(),
                ),
                _ => None,
            });
        let blob_len = self.supervision.checkpoints[rank]
            .as_ref()
            .map_or(0, |b| b.len());
        self.cluster.mark_up(rank);
        let report = match usable {
            Some(rows) => {
                // Reading the checkpoint back from the rank's stable store
                // is local I/O, not network traffic.
                self.cluster.compute_modeled(
                    rank,
                    Phase::Recovery,
                    blob_len as f64 * CHECKPOINT_US_PER_BYTE,
                );
                self.replace_rank(rank, Some(rows))
            }
            None => self.replace_rank(rank, None),
        };
        self.supervision.detector.mark_up(rank, now);
        self.supervision
            .log
            .push(RecoveryEvent { step: now, report });
        self.obs.note_recovery();
        self.span_close(
            recovery_span,
            "recovery",
            format!("{} rank={rank}", report.method),
        );
        report
    }
}
