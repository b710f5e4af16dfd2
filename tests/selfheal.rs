//! Self-healing after process death: the restarted process recovers on its
//! own from what the dead one left on storage, walking a three-rung ladder —
//! the newest valid checkpoint, an older one, and, when no checkpoint
//! survives, a reseed from the graph — and replays the write-ahead log past
//! whichever rung it lands on. Every rung must reach the exact oracle and
//! the state of a process that never died.
//!
//! The cost claim being exercised: each rung moves strictly fewer
//! recombination bytes than the next. A checkpoint hands the restart exact
//! rows for a prefix of the log (one re-flood, then corrections for the
//! replayed suffix); an older checkpoint leaves a longer suffix to correct;
//! a reseed re-runs the whole analysis.
//!
//! Every scenario runs on both execution backends (`mod on_sim`,
//! `mod on_threads`): recovery is a pure function of the bytes on storage,
//! so it must behave identically whether ranks run sequentially in the
//! simulator or on real OS threads.

use aa_core::{AnytimeEngine, EngineConfig};
use aa_durable::{
    recover, DurabilityConfig, DurableLog, Recovered, SimStorage, Storage, KEEP_CHECKPOINTS,
};
use aa_graph::{algo, generators, VertexId};
use aa_ingest::{IngestConfig, IngestPipeline, UpdateOp};
use aa_runtime::BackendKind;

const STEPS: usize = 100_000;

fn assert_oracle(e: &AnytimeEngine) {
    let dense = e.distances_dense();
    let oracle = algo::apsp_dijkstra(e.graph());
    for v in e.graph().vertices() {
        assert_eq!(dense[v as usize], oracle[v as usize], "row {v}");
    }
}

/// Worker cap used for the threaded backend in these tests: fewer workers
/// than ranks, so lane multiplexing is exercised too.
fn threads_for(backend: BackendKind) -> usize {
    match backend {
        BackendKind::Sim => 0,
        BackendKind::Threads => 3,
    }
}

/// The engine the dead process started from and the restart reseeds from.
fn base(backend: BackendKind) -> AnytimeEngine {
    let g = generators::barabasi_albert(50, 2, 1, 53);
    AnytimeEngine::new(
        g,
        EngineConfig {
            num_procs: 4,
            seed: 53,
            backend,
            threads: threads_for(backend),
            ..Default::default()
        },
    )
}

/// Batch `i` of the dead process's updates, chosen against its current
/// graph: insertions between absent pairs, a vertex, a deletion and a
/// weight change on distinct edges.
fn batch(e: &AnytimeEngine, i: usize) -> Vec<UpdateOp> {
    let ids: Vec<VertexId> = e.graph().vertices().collect();
    let x = ids[(5 * i) % ids.len()];
    let y = *ids
        .iter()
        .find(|&&y| y != x && e.graph().edge_weight(x, y).is_none())
        .unwrap();
    let edges: Vec<_> = e.graph().edges().collect();
    let (a, b, _) = edges[(7 * i + 3) % edges.len()];
    let (c, d, w) = edges[(7 * i + 4) % edges.len()];
    vec![
        UpdateOp::AddEdge(x, y, 1 + i as u32),
        UpdateOp::AddVertex {
            anchors: vec![(ids[i], 1), (ids[ids.len() / 2 + i], 2)],
        },
        UpdateOp::DeleteEdge(a, b),
        UpdateOp::Reweight(c, d, w + 3),
    ]
}

/// Batches the dead process applied; the last was logged and committed
/// but not yet checkpointed when it died. With the startup image that is
/// one checkpoint per batch, as many as compaction retains.
const BATCHES: usize = KEEP_CHECKPOINTS;
/// Ops per batch (all enqueued: see `batch`).
const OPS: u64 = 4;

/// The process that dies: it writes a startup checkpoint, then logs,
/// commits and applies `BATCHES` batches, checkpointing after every batch
/// but the last, and is killed. Returns its storage and its engine — the
/// state recovery must reproduce.
fn run_and_kill(backend: BackendKind) -> (SimStorage, AnytimeEngine) {
    let sim = SimStorage::new();
    let mut s = sim.clone();
    let mut live = base(backend);
    live.initialize();
    live.run_to_convergence(STEPS);
    let mut log = DurableLog::open(&mut s, 1, DurabilityConfig::default()).unwrap();
    let mut pipeline = IngestPipeline::new(IngestConfig::default()).unwrap();
    // The startup image covers no record, and every checkpoint is retained,
    // so compaction keeps the whole log behind the oldest one.
    log.checkpoint(&mut s, &live).unwrap();
    for i in 0..BATCHES {
        for op in batch(&live, i) {
            let outcome = pipeline.push(&live, op.clone()).unwrap();
            assert!(outcome.enqueued, "batch {i}: {op:?} was a no-op");
            log.append(&op);
        }
        log.commit(&mut s).unwrap();
        pipeline.flush(&mut live).unwrap();
        live.run_to_convergence(STEPS);
        if i + 1 < BATCHES {
            log.checkpoint(&mut s, &live).unwrap();
        }
    }
    sim.kill();
    (sim, live)
}

/// Checkpoint files on `sim`, oldest first.
fn checkpoints(sim: &SimStorage) -> Vec<String> {
    let mut names: Vec<String> = Storage::list(sim)
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".aadc"))
        .collect();
    names.sort();
    assert_eq!(names.len(), BATCHES, "{names:?}");
    names
}

/// The restart: recovery from `sim` alone, then convergence. Checks the
/// recovered engine against the oracle and against the process that died.
fn restart(sim: &SimStorage, backend: BackendKind, dead: &mut AnytimeEngine) -> Recovered {
    let mut st = sim.clone();
    let mut rec = recover(&mut st, base(backend), IngestConfig::default())
        .unwrap_or_else(|e| panic!("recovery failed: {e}"));
    assert_eq!(rec.next_seq, BATCHES as u64 * OPS + 1);
    assert!(
        !rec.engine.is_converged(),
        "the replayed suffix must leave work to do"
    );
    rec.engine.run_to_convergence(STEPS);
    assert!(rec.engine.is_converged());
    assert_oracle(&rec.engine);
    rec.engine.check_invariants().unwrap();
    dead.run_to_convergence(STEPS);
    assert_eq!(rec.engine.distances_dense(), dead.distances_dense());
    rec
}

/// The headline scenario: a crash at a scheduled point — after a batch the
/// log made durable but no checkpoint covers — is detected at restart by
/// the committed suffix past the newest checkpoint, which is loaded and
/// the suffix replayed, with no manual step anywhere.
fn scheduled_crash_detected_and_recovered_via_checkpoint(backend: BackendKind) {
    let (sim, mut dead) = run_and_kill(backend);
    let rec = restart(&sim, backend, &mut dead);
    let r = &rec.report;
    assert!(r.used_checkpoint);
    assert_eq!(r.checkpoint_seq, (BATCHES as u64 - 1) * OPS);
    assert_eq!(r.records_replayed, OPS, "exactly the uncovered batch");
    assert_eq!(r.checkpoints_quarantined, 0);
    assert_eq!(r.frames_quarantined, 0);
}

/// Recombination bytes the restart moves to converge, after recovering
/// from the dead process's storage with its newest `damaged` checkpoints
/// bit-flipped.
fn restart_bytes(backend: BackendKind, damaged: usize) -> u64 {
    let (sim, mut dead) = run_and_kill(backend);
    for name in checkpoints(&sim).iter().rev().take(damaged) {
        let len = sim.durable_len(name).unwrap();
        assert!(sim.flip_durable_bit(name, len * 4 + 3));
    }
    let rec = restart(&sim, backend, &mut dead);
    assert_eq!(rec.report.checkpoints_quarantined, damaged as u64);
    assert_eq!(rec.report.used_checkpoint, damaged < BATCHES);
    // Each damaged checkpoint hands one more batch to the replay.
    let replayed = (damaged + 1).min(BATCHES) as u64 * OPS;
    assert_eq!(rec.report.records_replayed, replayed);
    rec.engine.cluster().ledger().totals().bytes
}

/// The ladder's cost ordering: the newest checkpoint moves strictly fewer
/// recombination bytes than an older one, which moves strictly fewer than a
/// reseed from the graph.
fn recovery_ladder_byte_ordering(backend: BackendKind) {
    let newest = restart_bytes(backend, 0);
    let older = restart_bytes(backend, 1);
    let reseed = restart_bytes(backend, BATCHES);
    assert!(
        newest < older,
        "the newest checkpoint ({newest} B) must move fewer recombination \
         bytes than an older one ({older} B)"
    );
    assert!(
        older < reseed,
        "an older checkpoint ({older} B) must move fewer recombination bytes \
         than a reseed ({reseed} B)"
    );
}

/// Damages every checkpoint the dead process left with `mutate` — recovery
/// must reject each (CRC, framing or stamp) and fall back to reseeding the
/// graph and replaying the whole log, still reaching the oracle.
fn corrupt_and_recover(backend: BackendKind, mutate: impl Fn(&SimStorage, &[String])) {
    let (sim, mut dead) = run_and_kill(backend);
    mutate(&sim, &checkpoints(&sim));
    let rec = restart(&sim, backend, &mut dead);
    let r = &rec.report;
    assert_eq!(
        r.checkpoints_quarantined, BATCHES as u64,
        "a damaged checkpoint must not be trusted: {:?}",
        r.notes
    );
    assert!(!r.used_checkpoint);
    assert_eq!(r.checkpoint_seq, 0);
    assert_eq!(r.records_replayed, BATCHES as u64 * OPS, "the whole log");
}

fn bit_flipped_checkpoint_falls_back_to_reseed(backend: BackendKind) {
    // Flip one payload bit: the CRC32 footer must reject the image.
    corrupt_and_recover(backend, |sim, names| {
        for name in names {
            let mid = sim.durable_len(name).unwrap() / 2;
            assert!(sim.flip_durable_bit(name, mid * 8 + 4));
        }
    });
}

fn truncated_checkpoint_falls_back_to_reseed(backend: BackendKind) {
    // Cut the image short: framing must reject it before any row is read.
    corrupt_and_recover(backend, |sim, names| {
        for name in names {
            let half = sim.durable_len(name).unwrap() / 2;
            assert!(sim.truncate_durable(name, half));
        }
    });
}

/// A checkpoint from another point of the log — a stale image under a newer
/// name, well-formed and checksummed — describes distances for a graph the
/// log says is not the one at that name. Recovery must notice the stamp
/// disagreeing with the name and reseed instead of restoring.
fn stale_epoch_checkpoint_falls_back_to_reseed(backend: BackendKind) {
    corrupt_and_recover(backend, |sim, names| {
        let mut st = sim.clone();
        let images: Vec<Vec<u8>> = names.iter().map(|n| st.read(n).unwrap()).collect();
        for (i, name) in names.iter().enumerate() {
            let stale = &images[(i + names.len() - 1) % names.len()];
            st.write_atomic(name, stale).unwrap();
        }
    });
}

/// Recovery is a pure function of storage: two deaths at the same point,
/// one with its newest checkpoint damaged, restart with identical reports,
/// traffic counters and distances each time.
fn self_healing_is_deterministic(backend: BackendKind) {
    let run = |damaged: bool| {
        let (sim, mut dead) = run_and_kill(backend);
        if damaged {
            let newest = checkpoints(&sim).pop().unwrap();
            assert!(sim.flip_durable_bit(&newest, 999));
        }
        let rec = restart(&sim, backend, &mut dead);
        let r = &rec.report;
        let t = rec.engine.cluster().ledger().totals();
        (
            (
                r.checkpoint_seq,
                r.records_replayed,
                r.checkpoints_quarantined,
            ),
            (t.messages, t.bytes),
            rec.engine.distances_dense(),
        )
    };
    for damaged in [false, true] {
        let (r1, t1, d1) = run(damaged);
        let (r2, t2, d2) = run(damaged);
        assert_eq!(r1, r2, "same storage must recover the same way");
        assert_eq!(t1, t2, "same storage must replay the same traffic");
        assert_eq!(d1, d2);
    }
}

macro_rules! backend_tests {
    ($backend:expr) => {
        #[test]
        fn scheduled_crash_detected_and_recovered_via_checkpoint() {
            super::scheduled_crash_detected_and_recovered_via_checkpoint($backend);
        }

        #[test]
        fn recovery_ladder_byte_ordering() {
            super::recovery_ladder_byte_ordering($backend);
        }

        #[test]
        fn bit_flipped_checkpoint_falls_back_to_reseed() {
            super::bit_flipped_checkpoint_falls_back_to_reseed($backend);
        }

        #[test]
        fn truncated_checkpoint_falls_back_to_reseed() {
            super::truncated_checkpoint_falls_back_to_reseed($backend);
        }

        #[test]
        fn stale_epoch_checkpoint_falls_back_to_reseed() {
            super::stale_epoch_checkpoint_falls_back_to_reseed($backend);
        }

        #[test]
        fn self_healing_is_deterministic() {
            super::self_healing_is_deterministic($backend);
        }
    };
}

/// Every self-healing scenario on the deterministic simulator (the oracle).
mod on_sim {
    backend_tests!(aa_runtime::BackendKind::Sim);
}

/// The identical scenarios on real OS threads: recovery and the ladder must
/// behave exactly as they do on the simulator.
mod on_threads {
    backend_tests!(aa_runtime::BackendKind::Threads);
}
