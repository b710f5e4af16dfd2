//! Serving-layer integration tests: torn-read regression at every superstep
//! boundary (including the invalidation epochs of deletions), allocation-
//! stable snapshot publication, end-to-end backpressure behavior under
//! read overload, and service through storage faults and process deaths.

use aa_core::{AnytimeEngine, EngineConfig, SnapshotMeta};
use aa_durable::{DurabilityConfig, SimStorage, StorageFaultPlan, StorageFaults};
use aa_graph::rmat::{rmat, RmatParams};
use aa_graph::{algo, generators};
use aa_ingest::Admission;
use aa_serve::{
    ClientOp, LoadGen, ReadKind, ReadOutcome, ServeConfig, ServeStats, Server, WorkloadConfig,
    READ_QUEUE_CAP, READ_QUEUE_HWM,
};
use std::collections::BTreeSet;
use std::sync::Arc;

fn assert_oracle(e: &AnytimeEngine) {
    let dense = e.distances_dense();
    let oracle = algo::apsp_dijkstra(e.graph());
    for v in e.graph().vertices() {
        assert_eq!(dense[v as usize], oracle[v as usize], "row {v}");
    }
}

/// The frame-level consistency contract every served response must satisfy:
/// a frame never claims convergence while rows are dirty, convergence means
/// a zero error bound, anything else a finite positive one, and the
/// quiescent-row fraction is a real fraction.
fn assert_meta_consistent(meta: &SnapshotMeta) {
    assert!(
        (0.0..=1.0).contains(&meta.quiescent_row_fraction),
        "quiescent fraction {} out of range",
        meta.quiescent_row_fraction
    );
    assert!(
        !(meta.converged && meta.quiescent_row_fraction < 1.0),
        "frame claims converged with {:.3} of its rows quiescent (epoch {})",
        meta.quiescent_row_fraction,
        meta.epoch
    );
    assert!(
        meta.max_overestimate_bound.is_finite(),
        "error bound must be finite, got {}",
        meta.max_overestimate_bound
    );
    if meta.converged {
        assert!(
            meta.max_overestimate_bound.abs() < f64::EPSILON,
            "converged frame must have a zero bound, got {}",
            meta.max_overestimate_bound
        );
    } else {
        assert!(
            meta.max_overestimate_bound > 0.0,
            "unconverged frame must carry a positive bound"
        );
    }
}

/// A reader turning at *every* superstep boundary — through edge deletions
/// and weight increases applied between turns, each a new invalidation
/// epoch whose barrier, resets and reseeds the next steps race — never
/// observes a torn frame: epochs are monotone, convergence never coexists
/// with dirty rows, and every bound stays finite.
#[test]
fn torn_read_regression_at_every_superstep_boundary() {
    let graph = generators::barabasi_albert(80, 2, 2, 19);
    let engine = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: 4,
            seed: 19,
            ..Default::default()
        },
    );
    let mut s = Server::new(engine, ServeConfig::default()).unwrap();

    let mut last_epoch = 0u64;
    let mut served = 0usize;
    let mut saw_unconverged = false;
    for turn in 0..200 {
        // Applied straight to the engine, not through ingest: the turn does
        // not settle them, so the reader races every step after each one.
        if turn % 4 == 2 && turn < 40 {
            let edges: Vec<_> = s.engine().graph().edges().collect();
            let (u, v, w) = edges[(turn * 7) % edges.len()];
            let e = s.engine_mut();
            if turn % 8 == 2 {
                assert!(e.delete_edge(u, v));
            } else {
                assert!(e.change_edge_weight(u, v, w + 3));
            }
        }
        // One read per superstep boundary.
        s.submit_read(ReadKind::TopK(5));
        let rep = s.turn().unwrap();
        for out in &rep.served {
            if let ReadOutcome::Served { meta, .. } = out {
                assert_meta_consistent(meta);
                assert!(
                    meta.epoch >= last_epoch,
                    "epoch went backwards at turn {turn}: {} < {last_epoch}",
                    meta.epoch
                );
                last_epoch = meta.epoch;
                saw_unconverged |= !meta.converged;
                served += 1;
            }
        }
        if turn >= 40 && s.engine().is_converged() && s.read_queue_depth() == 0 {
            break;
        }
    }
    assert!(served > 0, "no reads were served");
    assert!(
        saw_unconverged,
        "the race never caught an unconverged frame"
    );
    assert_eq!(last_epoch, 10, "ten invalidations, one epoch each");
    s.drain(128).unwrap();
    assert!(s.engine().is_converged());
    assert_oracle(s.engine());
}

/// Chaos under load, in the one failure model: a durable server on storage
/// that fails fsyncs and renames and tears what a kill leaves pending is
/// killed twice mid-run under sustained mixed read/write traffic, and each
/// restart recovers from what the dead process left. Every served snapshot
/// must be consistent, epochs monotone within each process's life,
/// degraded responses bounded, and zero requests hang — every admitted read
/// resolves, or was still queued when its process died.
#[test]
fn chaos_under_load_soak() {
    let sim = SimStorage::with_faults(StorageFaultPlan::new(
        0xC4A05,
        StorageFaults::write_side(0.2),
    ));
    let durability = DurabilityConfig {
        checkpoint_every_turns: 5,
    };
    // A restart whose WAL cannot be opened (an injected rename failure)
    // tries again, as a supervisor restarting the process would.
    let start = || {
        let mut why = String::new();
        for _ in 0..16 {
            let engine = AnytimeEngine::new(
                generators::barabasi_albert(90, 2, 3, 47),
                EngineConfig {
                    num_procs: 5,
                    seed: 47,
                    ..Default::default()
                },
            );
            match Server::open_durable(
                Box::new(sim.clone()),
                engine,
                ServeConfig::default(),
                durability,
            ) {
                Ok((s, _)) => return s,
                Err(e) => why = e,
            }
        }
        panic!("sixteen restarts failed: {why}");
    };
    let mut s = start();
    let mut gen = LoadGen::new(WorkloadConfig {
        seed: 0xC4A05,
        offered_per_turn: 24,
        read_fraction: 0.75,
        top_k: 6,
        topk_read_mix: 0.5,
    });

    // Per process life: ticket ids restart with the process.
    let mut admitted: BTreeSet<u64> = BTreeSet::new();
    let mut resolved: BTreeSet<u64> = BTreeSet::new();
    let mut last_epoch = 0u64;
    let mut served = 0usize;
    let mut acked_after_restart = false;

    let note = |outcomes: &[ReadOutcome],
                resolved: &mut BTreeSet<u64>,
                last_epoch: &mut u64,
                served: &mut usize| {
        for out in outcomes {
            assert!(
                resolved.insert(out.id()),
                "read {} resolved twice",
                out.id()
            );
            if let ReadOutcome::Served { meta, degraded, .. } = out {
                assert_meta_consistent(meta);
                assert!(meta.epoch >= *last_epoch, "epoch regressed mid-life");
                *last_epoch = meta.epoch;
                if *degraded {
                    // Degraded service must still be bounded, never torn.
                    assert!(meta.max_overestimate_bound.is_finite());
                }
                *served += 1;
            }
        }
    };

    for turn in 0..60u64 {
        if turn == 20 || turn == 40 {
            // kill -9 mid-run, while traffic keeps coming: what was queued
            // dies with the process, nothing admitted is left unaccounted.
            let queued = s.read_queue_depth();
            assert_eq!(
                admitted.len(),
                resolved.len() + queued,
                "turn {turn}: a read hung"
            );
            sim.kill();
            s = start();
            admitted.clear();
            resolved.clear();
            last_epoch = 0;
        }
        for op in gen.turn_ops(s.engine()) {
            match op {
                ClientOp::Read(kind) => {
                    let t = s.submit_read(kind);
                    match t.admission {
                        Admission::Accepted | Admission::Throttled { .. } => {
                            admitted.insert(t.id);
                        }
                        Admission::Shed => {
                            // Resolved at admission: an explicit answer
                            // within the deadline, not a hang.
                        }
                    }
                }
                ClientOp::Write(op) => {
                    // Every write gets an explicit outcome too.
                    s.submit_write(op);
                }
            }
        }
        let rep = s.turn().unwrap();
        acked_after_restart |= turn > 40 && rep.durable_seq.is_some();
        note(&rep.served, &mut resolved, &mut last_epoch, &mut served);
    }
    let tail = s.drain(512).unwrap();
    note(&tail, &mut resolved, &mut last_epoch, &mut served);

    // Zero hangs: everything the last process admitted resolved exactly once.
    assert_eq!(admitted, resolved, "admitted reads left unresolved");
    assert!(served > 0, "no reads were served");
    assert!(
        acked_after_restart,
        "the restarted server never acked a write"
    );
    let stats = sim.stats();
    assert_eq!(stats.kills, 2);
    assert!(
        stats.fsync_failures + stats.rename_failures > 0,
        "the storage never failed: {stats:?}"
    );
    assert!(s.engine().is_converged());
    assert_oracle(s.engine());
}

/// Satellite 2: repeated reads of an unchanged engine reuse the same
/// published frame allocation (same `Arc`), asserted through both the
/// engine counter pair and the metrics registry.
#[test]
fn snapshot_publication_is_allocation_stable_across_reads() {
    let graph = generators::barabasi_albert(60, 2, 1, 7);
    let engine = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: 3,
            ..Default::default()
        },
    );
    let mut s = Server::new(engine, ServeConfig::default()).unwrap();
    s.drain(64).unwrap();

    let a = s.frame();
    for _ in 0..10 {
        s.submit_read(ReadKind::TopK(3));
        s.turn().unwrap();
    }
    let b = s.frame();
    assert!(
        Arc::ptr_eq(&a, &b),
        "ten read-only turns must not re-gather or re-allocate the frame"
    );
    let (fresh, reused) = s.engine().snapshot_publication_counts();
    assert!(fresh >= 1);
    assert!(reused >= 10, "expected >= 10 reuses, got {reused}");
    let r = s.metrics_registry();
    assert_eq!(
        r.counter_value("aa_snapshot_publications_total", &[("kind", "reused")]),
        reused
    );
    assert_eq!(
        r.counter_value("aa_snapshot_publications_total", &[("kind", "fresh")]),
        fresh
    );

    // A real mutation invalidates the cached frame.
    let ids: Vec<u32> = s.engine().graph().vertices().collect();
    s.engine_mut().add_edge(ids[0], ids[40], 3);
    let c = s.frame();
    assert!(!Arc::ptr_eq(&b, &c), "mutation must invalidate the frame");
}

/// Drives 24 turns of `offered` generated requests per turn into a fresh
/// default-config server over an R-MAT graph (n = 192, P = 4), drains it,
/// and checks that every submitted read was served or shed. Returns the
/// server's counters and its p99 read latency in virtual µs.
fn load_cell(offered: usize, read_fraction: f64, topk_read_mix: f64) -> (ServeStats, f64) {
    let seed = 0xC10_5EAE55;
    let engine = AnytimeEngine::new(
        rmat(8, 192 * 4, RmatParams::default(), 4, seed),
        EngineConfig {
            num_procs: 4,
            seed,
            ..Default::default()
        },
    );
    let mut server = Server::new(engine, ServeConfig::default()).unwrap();
    let mut gen = LoadGen::new(WorkloadConfig {
        seed: seed ^ 0x5e47e,
        offered_per_turn: offered,
        read_fraction,
        topk_read_mix,
        top_k: 10,
    });
    for _ in 0..24 {
        gen.offer(&mut server);
        server.turn().unwrap();
    }
    server.drain(16 * 4 + 256).unwrap();
    let stats = server.stats();
    assert_eq!(
        stats.reads_submitted,
        stats.reads_served + stats.reads_shed_capacity + stats.reads_shed_deadline,
        "unresolved reads: {stats:?}"
    );
    let (p50, p99) = server.latency_quantiles().unwrap_or((0.0, 0.0));
    assert!(p50 <= p99, "quantiles out of order: {p50} > {p99}");
    (stats, p99)
}

/// Read overload past the queue watermarks produces the full backpressure
/// ladder — Accepted below the high watermark, Throttled with a usable
/// retry hint above it, Shed at capacity — and every admitted read still
/// resolves. Under generated traffic at 16× a light load the default config
/// sheds or throttles, and p99 stays within the deadline instead of growing
/// with the offered load; every served top-k read carries one confidence.
#[test]
fn read_overload_walks_the_backpressure_ladder() {
    let graph = generators::barabasi_albert(60, 2, 1, 7);
    let engine = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: 3,
            ..Default::default()
        },
    );
    let mut s = Server::new(engine, ServeConfig::default()).unwrap();
    s.drain(64).unwrap();

    let mut accepted = 0;
    let mut throttled = 0;
    let mut shed = 0;
    let mut max_retry = 0u64;
    for _ in 0..READ_QUEUE_CAP + 16 {
        match s.submit_read(ReadKind::TopK(2)).admission {
            Admission::Accepted => accepted += 1,
            Admission::Throttled { retry_after } => {
                throttled += 1;
                max_retry = max_retry.max(retry_after);
            }
            Admission::Shed => shed += 1,
        }
    }
    assert_eq!(accepted, READ_QUEUE_HWM, "up to the hwm");
    assert_eq!(throttled, READ_QUEUE_CAP - READ_QUEUE_HWM, "hwm..cap");
    assert_eq!(shed, 16, "past cap");
    assert!(max_retry >= 1, "retry hint must tell the client how long");

    let out = s.drain(64).unwrap();
    assert_eq!(out.len(), READ_QUEUE_CAP, "all admitted reads resolve");
    assert!(out
        .iter()
        .all(|o| matches!(o, ReadOutcome::Served { .. } | ReadOutcome::Shed { .. })));

    let (light, _) = load_cell(16, 0.9, 0.7);
    let pushed_back =
        |st: &ServeStats| st.reads_shed_capacity + st.reads_shed_deadline + st.reads_throttled;
    assert_eq!(pushed_back(&light), 0, "{light:?}");
    let (heavy, p99) = load_cell(256, 0.9, 0.7);
    assert!(
        pushed_back(&heavy) > 0,
        "overload exercised no backpressure: {heavy:?}"
    );
    let deadline = ServeConfig::default().default_deadline_us;
    assert!(p99 <= deadline, "p99 {p99} exceeds deadline {deadline}");
    if !cfg!(debug_assertions) {
        assert!(
            heavy.read_shed_rate() > 0.0,
            "expected shedding at 16x load"
        );
    }

    let (vertex_reads, _) = load_cell(16, 0.8, 0.0);
    assert_eq!(vertex_reads.topk_exact + vertex_reads.topk_anytime, 0);
    let (topk_reads, _) = load_cell(16, 0.8, 1.0);
    assert!(topk_reads.reads_served > 0);
    assert_eq!(
        topk_reads.topk_exact + topk_reads.topk_anytime,
        topk_reads.reads_served,
        "{topk_reads:?}"
    );
}
