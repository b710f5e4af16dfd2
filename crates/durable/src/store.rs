//! [`DurableLog`]: the WAL + checkpoint orchestrator the serve layer owns.
//!
//! A checkpoint is the engine's `aa_core::checkpoint` image wrapped in one
//! more CRC32 frame (magic `AADC`) whose body is prefixed with the WAL
//! sequence number it **covers**: every op with `seq <= covered` is baked
//! into the image, every later op must be replayed from the WAL. Checkpoint
//! files are named `ckpt-<covered:020>.aadc` and published with
//! [`Storage::write_atomic`] — a crash mid-checkpoint leaves the previous
//! checkpoint intact, never a torn one.
//!
//! Taking a checkpoint rotates the WAL first, so every older segment holds
//! only covered records and is deleted (compaction); checkpoint files older
//! than the newest [`KEEP_CHECKPOINTS`] are deleted too. All mutation
//! metrics are recorded in an owned [`MetricsRegistry`] the serve layer
//! merges into its own.

use crate::storage::Storage;
use crate::wal::{parse_segment_name, WalWriter};
use aa_core::checkpoint::{read_framed, write_framed};
use aa_core::AnytimeEngine;
use aa_ingest::UpdateOp;
use aa_obs::MetricsRegistry;
use std::io;

/// Durable-checkpoint frame magic (distinct from the engine's `AACP`).
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"AADC";
/// Durable-checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// File name for the checkpoint covering `seq`. Zero-padded so the newest
/// checkpoint is the lexicographically largest.
pub fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:020}.aadc")
}

/// Parses a checkpoint file name back to its covered sequence number.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".aadc")?
        .parse()
        .ok()
}

/// Encodes a durable checkpoint: covered sequence + engine image, framed.
pub fn encode_checkpoint(covered: u64, engine: &AnytimeEngine) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    body.extend_from_slice(&covered.to_le_bytes());
    engine.save_checkpoint(&mut body)?;
    Ok(write_framed(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &body))
}

/// Decodes a durable checkpoint image into `(covered_seq, engine)`.
pub fn decode_checkpoint(
    bytes: &[u8],
    config: aa_core::EngineConfig,
) -> io::Result<(u64, AnytimeEngine)> {
    let body = read_framed(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    if body.len() < 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "checkpoint body shorter than its covered-seq stamp",
        ));
    }
    let covered =
        u64::from_le_bytes(body[0..8].try_into().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "covered-seq stamp unreadable")
        })?);
    let engine = AnytimeEngine::restore_checkpoint(&mut &body[8..], config)?;
    Ok((covered, engine))
}

/// Checkpoint files compaction retains in total, the newest included: the
/// newest plus one older. The older one is the paranoia margin: if the
/// newest is unreadable, recovery falls back to it plus a longer replay.
pub const KEEP_CHECKPOINTS: usize = 2;

/// Tuning for the durability layer.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Serve layer: take a checkpoint every this many turns (0 = only on
    /// shutdown). Stored here so one config travels through the stack.
    pub checkpoint_every_turns: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            checkpoint_every_turns: 16,
        }
    }
}

/// Owns the WAL writer and checkpoint/compaction policy; the single entry
/// point the serve layer drives.
#[derive(Debug)]
pub struct DurableLog {
    wal: WalWriter,
    config: DurabilityConfig,
    metrics: MetricsRegistry,
}

impl DurableLog {
    /// Opens the log, assigning sequence numbers from `next_seq` (recovery
    /// hands in `last replayed + 1`).
    pub fn open(
        storage: &mut dyn Storage,
        next_seq: u64,
        config: DurabilityConfig,
    ) -> io::Result<DurableLog> {
        let wal = WalWriter::open(storage, next_seq)?;
        Ok(DurableLog {
            wal,
            config,
            metrics: MetricsRegistry::new(),
        })
    }

    /// The layer's config.
    pub fn config(&self) -> &DurabilityConfig {
        &self.config
    }

    /// Highest sequence number known durable.
    pub fn committed_seq(&self) -> u64 {
        self.wal.committed_seq()
    }

    /// Records buffered and awaiting the next group commit.
    pub fn pending_records(&self) -> u64 {
        self.wal.pending_records()
    }

    /// Buffers an op in the WAL and returns its sequence number. Durable
    /// only after the next successful [`DurableLog::commit`].
    pub fn append(&mut self, op: &UpdateOp) -> u64 {
        self.metrics.inc_counter("aa_wal_appends_total", &[], 1);
        self.wal.append(op)
    }

    /// Group-commits all buffered records (one fsync). Returns the highest
    /// durable sequence. On `Err` the buffered records are discarded — the
    /// caller must un-acknowledge / abort the matching pipeline ops.
    pub fn commit(&mut self, storage: &mut dyn Storage) -> io::Result<u64> {
        let batch_records = self.wal.pending_records();
        let batch_bytes = self.wal.pending_bytes();
        match self.wal.commit(storage) {
            Ok(seq) => {
                self.metrics
                    .inc_counter("aa_wal_commits_total", &[("outcome", "ok")], 1);
                if batch_records > 0 {
                    self.metrics.inc_counter("aa_wal_fsyncs_total", &[], 1);
                    self.metrics
                        .inc_counter("aa_wal_bytes_total", &[], batch_bytes);
                }
                self.metrics
                    .set_gauge("aa_wal_committed_seq", &[], seq as f64);
                if self.wal.wants_rotation() {
                    match self.wal.rotate(storage) {
                        Ok(()) => self.metrics.inc_counter(
                            "aa_wal_rotations_total",
                            &[("outcome", "ok")],
                            1,
                        ),
                        // Non-fatal: the data is durable, the segment just
                        // keeps growing until a later rotation succeeds.
                        Err(_) => self.metrics.inc_counter(
                            "aa_wal_rotations_total",
                            &[("outcome", "error")],
                            1,
                        ),
                    }
                }
                Ok(seq)
            }
            Err(e) => {
                self.metrics
                    .inc_counter("aa_wal_commits_total", &[("outcome", "error")], 1);
                self.metrics
                    .inc_counter("aa_wal_records_aborted_total", &[], batch_records);
                Err(e)
            }
        }
    }

    /// Writes an atomic checkpoint of `engine` covering every committed
    /// record, rotates the WAL, and compacts fully-covered segments and
    /// superseded checkpoints. The caller must have applied all committed
    /// records to `engine` (the serve turn loop commits, then flushes, then
    /// checkpoints). Returns the covered sequence number.
    pub fn checkpoint(
        &mut self,
        storage: &mut dyn Storage,
        engine: &AnytimeEngine,
    ) -> io::Result<u64> {
        let covered = self.wal.committed_seq();
        let image = encode_checkpoint(covered, engine)?;
        let image_len = image.len() as u64;
        let name = checkpoint_name(covered);
        if let Err(e) = storage.write_atomic(&name, &image) {
            self.metrics
                .inc_counter("aa_checkpoint_writes_total", &[("outcome", "error")], 1);
            return Err(e);
        }
        self.metrics
            .inc_counter("aa_checkpoint_writes_total", &[("outcome", "ok")], 1);
        self.metrics
            .inc_counter("aa_checkpoint_bytes_total", &[], image_len);
        // Rotate so the active segment's records all have seq > covered;
        // failure is non-fatal (compaction just keeps the active segment).
        match self.wal.rotate(storage) {
            Ok(()) => {
                self.metrics
                    .inc_counter("aa_wal_rotations_total", &[("outcome", "ok")], 1);
            }
            Err(_) => {
                self.metrics
                    .inc_counter("aa_wal_rotations_total", &[("outcome", "error")], 1);
            }
        }
        self.compact(storage, covered)?;
        Ok(covered)
    }

    /// Deletes all but the newest [`KEEP_CHECKPOINTS`] checkpoints, and WAL
    /// segments fully covered by the **oldest retained** checkpoint — not the
    /// newest:
    /// if the newest checkpoint is later quarantined (media corruption),
    /// recovery falls back to an older one and must still find every record
    /// past that older horizon in the WAL. Deletion failures are ignored —
    /// stale files cost disk, not correctness, and the next checkpoint
    /// retries.
    fn compact(&mut self, storage: &mut dyn Storage, covered: u64) -> io::Result<()> {
        let names = storage.list()?;
        let mut ckpts: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_checkpoint_name(n))
            .collect();
        ckpts.push(covered); // the one just written may not be in `names`
        ckpts.sort_unstable();
        ckpts.dedup();
        if ckpts.len() > KEEP_CHECKPOINTS {
            for seq in &ckpts[..ckpts.len() - KEEP_CHECKPOINTS] {
                if storage.remove(&checkpoint_name(*seq)).is_ok() {
                    self.metrics
                        .inc_counter("aa_checkpoints_deleted_total", &[], 1);
                }
            }
            ckpts.drain(..ckpts.len() - KEEP_CHECKPOINTS);
        }
        // Replay-fallback horizon: every record <= horizon is baked into
        // every retained checkpoint.
        let horizon = *ckpts.first().unwrap_or(&0);
        // Records in segment i all precede segment i+1's first sequence, so
        // a segment is fully covered iff its successor starts at or below
        // horizon + 1. The active (last) segment is never deleted.
        let mut segments: Vec<(u64, &String)> = names
            .iter()
            .filter_map(|n| parse_segment_name(n).map(|s| (s, n)))
            .collect();
        segments.sort_unstable();
        for pair in segments.windows(2) {
            let (_, name) = &pair[0];
            let (succ_first, _) = pair[1];
            if succ_first <= horizon + 1 && storage.remove(name).is_ok() {
                self.metrics
                    .inc_counter("aa_wal_segments_deleted_total", &[], 1);
            }
        }
        Ok(())
    }

    /// Snapshot of this layer's metrics (serve merges them each turn).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SimStorage;
    use aa_core::EngineConfig;
    use aa_graph::generators;

    fn engine() -> AnytimeEngine {
        let g = generators::barabasi_albert(30, 2, 1, 5);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 2,
                ..Default::default()
            },
        );
        e.initialize();
        e
    }

    #[test]
    fn checkpoint_name_round_trips_and_sorts() {
        assert_eq!(parse_checkpoint_name(&checkpoint_name(42)), Some(42));
        assert!(checkpoint_name(9) < checkpoint_name(10));
        assert_eq!(parse_checkpoint_name("ckpt-x.aadc"), None);
        assert_eq!(parse_checkpoint_name("wal-00000000000000000001.aawl"), None);
    }

    #[test]
    fn checkpoint_encodes_and_decodes() {
        let e = engine();
        let bytes = match encode_checkpoint(7, &e) {
            Ok(b) => b,
            Err(err) => panic!("encode: {err}"),
        };
        let (covered, restored) = match decode_checkpoint(&bytes, e.config().clone()) {
            Ok(v) => v,
            Err(err) => panic!("decode: {err}"),
        };
        assert_eq!(covered, 7);
        assert_eq!(
            restored.graph().vertices().count(),
            e.graph().vertices().count()
        );
    }

    #[test]
    fn truncated_checkpoint_is_clean_err() {
        let e = engine();
        let bytes = match encode_checkpoint(3, &e) {
            Ok(b) => b,
            Err(err) => panic!("encode: {err}"),
        };
        for cut in [0, 8, 15, 16, bytes.len() / 2, bytes.len() - 1] {
            let r = decode_checkpoint(&bytes[..cut], e.config().clone());
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn checkpoint_compacts_covered_segments_and_old_checkpoints() {
        let sim = SimStorage::new();
        let mut s = sim.clone();
        let e = engine();
        let mut log = match DurableLog::open(&mut s, 1, DurabilityConfig::default()) {
            Ok(l) => l,
            Err(err) => panic!("open: {err}"),
        };
        for round in 0..4u32 {
            for i in 0..5u32 {
                log.append(&UpdateOp::AddEdge(round * 5 + i, round * 5 + i + 1, 1));
            }
            log.commit(&mut s).ok();
            log.checkpoint(&mut s, &e).ok();
        }
        let names = s.list().unwrap_or_default();
        let segments = names
            .iter()
            .filter(|n| parse_segment_name(n).is_some())
            .count();
        let mut ckpts: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_checkpoint_name(n))
            .collect();
        ckpts.sort_unstable();
        // The keep-count is a total, the newest included: of the checkpoints
        // covering 5, 10, 15 and 20, the newest `KEEP_CHECKPOINTS` survive.
        let taken = [5, 10, 15, 20];
        assert_eq!(
            ckpts,
            taken[taken.len() - KEEP_CHECKPOINTS..],
            "keep-count bounds checkpoints: {names:?}"
        );
        // Segments past the oldest retained checkpoint stay for fallback:
        // one per newer checkpoint, plus the active segment.
        assert_eq!(
            segments, KEEP_CHECKPOINTS,
            "active + fallback segments survive: {names:?}"
        );
        let m = log.metrics_registry();
        assert!(m.counter_value("aa_wal_segments_deleted_total", &[]) >= 3);
        assert!(m.counter_value("aa_checkpoints_deleted_total", &[]) >= 2);
        assert_eq!(
            m.counter_value("aa_checkpoint_writes_total", &[("outcome", "ok")]),
            4
        );
    }
}
