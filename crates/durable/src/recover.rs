//! Startup recovery: newest valid checkpoint + WAL suffix replay.
//!
//! Recovery is a pure function of the bytes on storage:
//!
//! 1. **Sweep debris** — `*.tmp` files are leftovers of interrupted atomic
//!    writes; delete them.
//! 2. **Load the newest valid checkpoint** — try checkpoints newest-first;
//!    any that fails its frame/CRC/parse checks is *quarantined* (counted,
//!    noted, left in place) and the next older one is tried. With no valid
//!    checkpoint, recovery starts from the caller's base engine at covered
//!    sequence 0.
//! 3. **Replay the WAL suffix** — scan segments in sequence order, skip
//!    records with `seq <= covered`, push the rest through a fresh
//!    [`IngestPipeline`] against the engine (the pipeline's coalescing is
//!    exactness-preserving, so replay batching cannot change the result).
//!    Torn tails and corrupt frames quarantine the remainder of their
//!    segment — a descriptive note, never a panic.
//!
//! The recovered engine is *oracle-exact*: identical closeness state (after
//! convergence) to a process that applied exactly the acknowledged ops and
//! never died. The kill-sweep differential test in `tests/durability.rs`
//! asserts this at every turn-boundary kill point under write-side faults.

use crate::storage::Storage;
use crate::store::{decode_checkpoint, parse_checkpoint_name};
use crate::wal::{parse_segment_name, scan_segment};
use aa_core::AnytimeEngine;
use aa_ingest::{DrainPolicy, IngestConfig, IngestPipeline};
use aa_obs::MetricsRegistry;

/// What recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Covered sequence of the checkpoint used (0 = none, started from base).
    pub checkpoint_seq: u64,
    /// Whether a checkpoint was loaded (vs. starting from the base engine).
    pub used_checkpoint: bool,
    /// Checkpoint files that failed validation and were skipped.
    pub checkpoints_quarantined: u64,
    /// WAL segments scanned.
    pub segments_scanned: u64,
    /// WAL segments whose header failed validation (file quarantined).
    pub segments_quarantined: u64,
    /// Records replayed into the engine.
    pub records_replayed: u64,
    /// Records skipped because the checkpoint already covered them.
    pub records_skipped: u64,
    /// Well-formed records dropped because no commit marker covered them
    /// (their group commit — and so their acknowledgement — never happened).
    pub records_uncommitted: u64,
    /// Torn/corrupt frame regions quarantined across all segments.
    pub frames_quarantined: u64,
    /// Bytes inside quarantined regions.
    pub bytes_quarantined: u64,
    /// Interrupted atomic-write temp files swept.
    pub tmp_files_removed: u64,
    /// Human-readable notes (one per quarantine/skip decision).
    pub notes: Vec<String>,
}

/// A recovered engine plus everything learned on the way.
pub struct Recovered {
    /// Engine with all durable acknowledged ops applied (pre-convergence:
    /// callers run supersteps to taste, exactly like after live ingest).
    pub engine: AnytimeEngine,
    /// Sequence number the reopened WAL must hand out next.
    pub next_seq: u64,
    /// What happened.
    pub report: RecoveryReport,
    /// `aa_recovery_*` / quarantine metrics to merge into the serve registry.
    pub metrics: MetricsRegistry,
}

fn note(report: &mut RecoveryReport, msg: String) {
    report.notes.push(msg);
}

/// Runs recovery against `storage`. `base` is the engine built from the
/// graph file, used when no valid checkpoint exists; `ingest` configures the
/// replay pipeline (its strategy must match the serving config so predicted
/// vertex ids line up). Returns an error only for unrecoverable conditions
/// (storage itself unreadable, or replay of a *valid* record rejected —
/// which would mean the log and engine disagree about projected state).
pub fn recover(
    storage: &mut dyn Storage,
    base: AnytimeEngine,
    ingest: IngestConfig,
) -> Result<Recovered, String> {
    let mut report = RecoveryReport::default();
    let names = storage.list().map_err(|e| format!("list storage: {e}"))?;

    // 1. Sweep interrupted atomic-write debris.
    for name in &names {
        if name.ends_with(".tmp") && storage.remove(name).is_ok() {
            report.tmp_files_removed += 1;
        }
    }

    // 2. Newest valid checkpoint wins; invalid ones are quarantined.
    let mut ckpts: Vec<(u64, &String)> = names
        .iter()
        .filter_map(|n| parse_checkpoint_name(n).map(|s| (s, n)))
        .collect();
    ckpts.sort_unstable_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    let config = base.config().clone();
    let mut engine = base;
    let mut covered = 0u64;
    for (seq, name) in ckpts {
        let bytes = match storage.read(name) {
            Ok(b) => b,
            Err(e) => {
                report.checkpoints_quarantined += 1;
                note(&mut report, format!("checkpoint {name}: unreadable: {e}"));
                continue;
            }
        };
        match decode_checkpoint(&bytes, config.clone()) {
            Ok((stamped, restored)) => {
                if stamped != seq {
                    report.checkpoints_quarantined += 1;
                    note(
                        &mut report,
                        format!("checkpoint {name}: stamp {stamped} disagrees with name"),
                    );
                    continue;
                }
                engine = restored;
                covered = stamped;
                report.used_checkpoint = true;
                report.checkpoint_seq = stamped;
                break;
            }
            Err(e) => {
                report.checkpoints_quarantined += 1;
                note(&mut report, format!("checkpoint {name}: {e}"));
            }
        }
    }
    if !engine.is_initialized() {
        engine.initialize();
    }

    // 3. Replay the WAL suffix in segment order.
    let mut segments: Vec<(u64, &String)> = names
        .iter()
        .filter_map(|n| parse_segment_name(n).map(|s| (s, n)))
        .collect();
    segments.sort_unstable();
    // Replay must never shed: size the queue to swallow any suffix.
    let replay_cfg = IngestConfig {
        queue_cap: usize::MAX / 2,
        high_watermark: usize::MAX / 2,
        policy: DrainPolicy::SizeTriggered(64),
        ..ingest
    };
    let mut pipeline =
        IngestPipeline::new(replay_cfg).map_err(|e| format!("replay pipeline: {e}"))?;
    let mut last_seq = covered;
    let mut next_seq = covered + 1;
    for (_, name) in segments {
        let bytes = match storage.read(name) {
            Ok(b) => b,
            Err(e) => {
                report.segments_quarantined += 1;
                note(&mut report, format!("segment {name}: unreadable: {e}"));
                continue;
            }
        };
        let scan = match scan_segment(&bytes) {
            Ok(sc) => sc,
            Err(e) => {
                report.segments_quarantined += 1;
                report.bytes_quarantined += bytes.len() as u64;
                note(&mut report, format!("segment {name}: {e}"));
                continue;
            }
        };
        report.segments_scanned += 1;
        report.records_uncommitted += scan.uncommitted_records;
        report.frames_quarantined += scan.quarantined_frames;
        report.bytes_quarantined += scan.quarantined_bytes + scan.uncommitted_bytes;
        if let Some(why) = scan.note {
            note(&mut report, format!("segment {name}: {why}"));
        }
        for (seq, op) in scan.records {
            if seq <= covered {
                report.records_skipped += 1;
                continue;
            }
            if seq <= last_seq {
                // Overlapping segments would replay an op twice; quarantine
                // instead (this cannot happen with our writer, but recovery
                // trusts nothing).
                report.frames_quarantined += 1;
                note(
                    &mut report,
                    format!("segment {name}: record {seq} <= already-replayed {last_seq}; skipped"),
                );
                continue;
            }
            let outcome = pipeline
                .push(&engine, op.clone())
                .map_err(|e| format!("replay record {seq} ({op:?}): {e}"))?;
            if !outcome.admission.is_admitted() {
                return Err(format!(
                    "replay record {seq} shed by pipeline — queue misconfigured"
                ));
            }
            pipeline
                .maybe_flush(&mut engine)
                .map_err(|e| format!("replay flush at record {seq}: {e}"))?;
            last_seq = seq;
            report.records_replayed += 1;
            next_seq = seq + 1;
        }
    }
    // Barrier-flush whatever the drain policy left buffered.
    pipeline
        .flush(&mut engine)
        .map_err(|e| format!("final replay flush: {e}"))?;

    let mut metrics = MetricsRegistry::new();
    metrics.inc_counter("aa_recoveries_total", &[], 1);
    metrics.inc_counter(
        "aa_wal_replayed_records_total",
        &[],
        report.records_replayed,
    );
    metrics.inc_counter("aa_wal_replay_skipped_total", &[], report.records_skipped);
    metrics.inc_counter(
        "aa_wal_uncommitted_records_total",
        &[],
        report.records_uncommitted,
    );
    metrics.inc_counter(
        "aa_wal_quarantined_frames_total",
        &[],
        report.frames_quarantined,
    );
    metrics.inc_counter(
        "aa_wal_quarantined_bytes_total",
        &[],
        report.bytes_quarantined,
    );
    metrics.inc_counter(
        "aa_checkpoint_quarantined_total",
        &[],
        report.checkpoints_quarantined,
    );
    metrics.set_gauge(
        "aa_recovery_checkpoint_seq",
        &[],
        report.checkpoint_seq as f64,
    );

    Ok(Recovered {
        engine,
        next_seq,
        report,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SimStorage;
    use crate::store::{DurabilityConfig, DurableLog, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
    use aa_core::checkpoint::write_framed;
    use aa_core::EngineConfig;
    use aa_graph::generators;
    use aa_ingest::UpdateOp;

    fn base() -> AnytimeEngine {
        let g = generators::barabasi_albert(24, 2, 1, 9);
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

    fn converge(e: &mut AnytimeEngine) {
        e.run_to_convergence(100_000);
    }

    fn closeness(e: &mut AnytimeEngine) -> Vec<f64> {
        e.snapshot().closeness
    }

    #[test]
    fn empty_storage_recovers_to_base() {
        let sim = SimStorage::new();
        let mut s = sim.clone();
        let r = match recover(&mut s, base(), IngestConfig::default()) {
            Ok(r) => r,
            Err(e) => panic!("recover: {e}"),
        };
        assert!(!r.report.used_checkpoint);
        assert_eq!(r.next_seq, 1);
        assert_eq!(r.report.records_replayed, 0);
        assert_eq!(
            r.engine.graph().vertices().count(),
            base().graph().vertices().count()
        );
    }

    #[test]
    fn replay_after_kill_matches_oracle() {
        let sim = SimStorage::new();
        let mut s = sim.clone();
        let mut log = match DurableLog::open(&mut s, 1, DurabilityConfig::default()) {
            Ok(l) => l,
            Err(e) => panic!("open: {e}"),
        };
        let ops = vec![
            UpdateOp::AddEdge(0, 9, 2),
            UpdateOp::DeleteEdge(0, 1),
            UpdateOp::AddVertex {
                anchors: vec![(3, 1), (4, 2)],
            },
            UpdateOp::Reweight(2, 0, 5),
        ];
        // Durable path: log + commit, never applied before the "crash".
        for op in &ops {
            log.append(op);
        }
        log.commit(&mut s).ok();
        sim.kill();

        let r = match recover(&mut s, base(), IngestConfig::default()) {
            Ok(r) => r,
            Err(e) => panic!("recover: {e}"),
        };
        assert_eq!(r.report.records_replayed, 4);
        assert_eq!(r.next_seq, 5);
        let mut recovered = r.engine;
        converge(&mut recovered);

        // Oracle: a process that never died, applying the same ops.
        let mut oracle = base();
        let mut p = match IngestPipeline::new(IngestConfig::default()) {
            Ok(p) => p,
            Err(e) => panic!("pipeline: {e}"),
        };
        for op in &ops {
            p.push(&oracle, op.clone()).ok();
        }
        p.flush(&mut oracle).ok();
        converge(&mut oracle);

        let a = closeness(&mut recovered);
        let b = closeness(&mut oracle);
        assert_eq!(a.len(), b.len());
        for (u, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < 1e-12, "vertex {u}: {x} vs {y}");
        }
    }

    #[test]
    fn checkpoint_skips_covered_records() {
        let sim = SimStorage::new();
        let mut s = sim.clone();
        let mut engine = base();
        let mut log = match DurableLog::open(&mut s, 1, DurabilityConfig::default()) {
            Ok(l) => l,
            Err(e) => panic!("open: {e}"),
        };
        let mut p = match IngestPipeline::new(IngestConfig::default()) {
            Ok(p) => p,
            Err(e) => panic!("pipeline: {e}"),
        };
        // Two committed+applied ops, then a checkpoint, then one more.
        for op in [UpdateOp::AddEdge(0, 9, 1), UpdateOp::DeleteEdge(1, 0)] {
            log.append(&op);
            p.push(&engine, op).ok();
        }
        log.commit(&mut s).ok();
        p.flush(&mut engine).ok();
        log.checkpoint(&mut s, &engine).ok();
        log.append(&UpdateOp::AddEdge(2, 9, 3));
        log.commit(&mut s).ok();
        sim.kill();

        let r = match recover(&mut s, base(), IngestConfig::default()) {
            Ok(r) => r,
            Err(e) => panic!("recover: {e}"),
        };
        assert!(r.report.used_checkpoint);
        assert_eq!(r.report.checkpoint_seq, 2);
        assert_eq!(r.report.records_replayed, 1);
        assert_eq!(
            r.report.records_skipped, 0,
            "compaction removed covered records"
        );
        assert_eq!(r.next_seq, 4);
        assert!(r.engine.graph().edge_weight(2, 9).is_some());
    }

    /// A durable checkpoint covering `covered` whose engine image passes
    /// both CRC frames but declares 2^40 vertices.
    fn forged_checkpoint(covered: u64) -> Vec<u8> {
        let mut image = Vec::new();
        image.extend_from_slice(&0u64.to_le_bytes()); // rc steps
        image.extend_from_slice(&2u32.to_le_bytes()); // processors
        image.extend_from_slice(&0u32.to_le_bytes()); // converged
        image.extend_from_slice(&0u64.to_le_bytes()); // round-robin cursor
        image.extend_from_slice(&(1u64 << 40).to_le_bytes()); // vertex capacity
        let mut body = covered.to_le_bytes().to_vec();
        body.extend_from_slice(&write_framed(b"AACP", 3, &image));
        write_framed(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &body)
    }

    #[test]
    fn corrupt_checkpoint_quarantined_falls_back() {
        // A flipped body bit fails the CRC; a forged image passes it, and
        // restore must refuse its vertex count before allocating for it.
        let flip: fn(&SimStorage, &mut SimStorage, &str) = |sim, _, name| {
            assert!(sim.flip_durable_bit(name, 200), "flip a body bit");
        };
        let forge: fn(&SimStorage, &mut SimStorage, &str) = |_, s, name| {
            if let Err(e) = s.write_atomic(name, &forged_checkpoint(2)) {
                panic!("forge: {e}");
            }
        };
        for (corrupt, why) in [(flip, "checksum"), (forge, "vertex count")] {
            let sim = SimStorage::new();
            let mut s = sim.clone();
            let mut engine = base();
            let mut log = match DurableLog::open(&mut s, 1, DurabilityConfig::default()) {
                Ok(l) => l,
                Err(e) => panic!("open: {e}"),
            };
            let mut p = match IngestPipeline::new(IngestConfig::default()) {
                Ok(p) => p,
                Err(e) => panic!("pipeline: {e}"),
            };
            // Checkpoint at seq 1, then at seq 2; corrupt the newer one.
            for op in [UpdateOp::AddEdge(0, 9, 1), UpdateOp::AddEdge(1, 9, 1)] {
                log.append(&op);
                p.push(&engine, op).ok();
                log.commit(&mut s).ok();
                p.flush(&mut engine).ok();
                log.checkpoint(&mut s, &engine).ok();
            }
            corrupt(&sim, &mut s, &crate::store::checkpoint_name(2));
            sim.kill();

            let r = match recover(&mut s, base(), IngestConfig::default()) {
                Ok(r) => r,
                Err(e) => panic!("recover: {e}"),
            };
            assert_eq!(r.report.checkpoints_quarantined, 1);
            assert!(
                r.report.notes.iter().any(|n| n.contains(why)),
                "{why}: {:?}",
                r.report.notes
            );
            assert!(r.report.used_checkpoint);
            assert_eq!(r.report.checkpoint_seq, 1);
            // Compaction only deletes WAL segments covered by the *oldest
            // retained* checkpoint, so op 2's record survives the fallback
            // and is replayed: no acknowledged op is lost to a single
            // corrupt checkpoint.
            assert_eq!(r.report.records_replayed, 1);
            assert!(r.engine.graph().edge_weight(0, 9).is_some());
            assert!(r.engine.graph().edge_weight(1, 9).is_some());
            assert_eq!(
                r.metrics
                    .counter_value("aa_checkpoint_quarantined_total", &[]),
                1
            );
        }
    }

    /// A ring of 24 with vertex 24 hanging off vertex 5 by a bridge.
    fn bridged() -> AnytimeEngine {
        let mut g = generators::path(24);
        g.add_edge(0, 23, 1);
        let pendant = g.add_vertex();
        g.add_edge(5, pendant, 2);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 3,
                ..Default::default()
            },
        );
        e.initialize();
        e
    }

    #[test]
    fn checkpoints_of_a_bridge_made_heavy_and_light_again_both_restore() {
        // The first checkpoint's rows hold distances past 0xFFFF; the second
        // is taken after the weight came back down, before reconverging.
        let sim = SimStorage::new();
        let mut s = sim.clone();
        let mut engine = bridged();
        converge(&mut engine);
        let mut log = match DurableLog::open(&mut s, 1, DurabilityConfig::default()) {
            Ok(l) => l,
            Err(e) => panic!("open: {e}"),
        };
        let mut p = match IngestPipeline::new(IngestConfig::default()) {
            Ok(p) => p,
            Err(e) => panic!("pipeline: {e}"),
        };
        for (w, reconverge) in [(1_000_000, true), (2, false)] {
            let op = UpdateOp::Reweight(5, 24, w);
            log.append(&op);
            p.push(&engine, op).ok();
            log.commit(&mut s).ok();
            p.flush(&mut engine).ok();
            if reconverge {
                converge(&mut engine);
                assert_eq!(engine.distances_dense()[0][24], 5 + 1_000_000);
            }
            log.checkpoint(&mut s, &engine).ok();
        }
        sim.kill();

        let r = match recover(&mut s, bridged(), IngestConfig::default()) {
            Ok(r) => r,
            Err(e) => panic!("recover: {e}"),
        };
        assert_eq!(r.report.checkpoints_quarantined, 0, "{:?}", r.report.notes);
        assert_eq!(r.report.checkpoint_seq, 2);
        assert_eq!(r.report.records_replayed, 0);
        let mut recovered = r.engine;
        converge(&mut recovered);
        assert_eq!(
            recovered.distances_dense(),
            aa_graph::algo::apsp_dijkstra(engine.graph()),
            "oracle-exact"
        );
    }

    #[test]
    fn torn_wal_tail_quarantined_in_metrics() {
        let sim = SimStorage::new();
        let mut s = sim.clone();
        let mut log = match DurableLog::open(&mut s, 1, DurabilityConfig::default()) {
            Ok(l) => l,
            Err(e) => panic!("open: {e}"),
        };
        log.append(&UpdateOp::AddEdge(0, 9, 1));
        log.commit(&mut s).ok();
        log.append(&UpdateOp::AddEdge(1, 9, 1));
        log.commit(&mut s).ok();
        sim.kill();
        // Manually tear the tail of the only segment: the cut lands inside
        // the second batch's commit marker, so its op record survives
        // complete but uncovered.
        let seg = crate::wal::segment_name(1);
        let full = sim.durable_len(&seg).unwrap_or(0);
        assert!(sim.truncate_durable(&seg, full - 3));

        let r = match recover(&mut s, base(), IngestConfig::default()) {
            Ok(r) => r,
            Err(e) => panic!("recover: {e}"),
        };
        assert_eq!(r.report.records_replayed, 1);
        assert_eq!(r.report.records_uncommitted, 1);
        assert_eq!(r.report.frames_quarantined, 1);
        assert!(r.report.bytes_quarantined > 0);
        assert!(!r.report.notes.is_empty());
        assert_eq!(
            r.metrics
                .counter_value("aa_wal_quarantined_frames_total", &[]),
            1
        );
    }
}
