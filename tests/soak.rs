//! Soak test: a long deterministic stream of mixed operations — every dynamic
//! update type, strategy switches, rebalances and checkpoint round-trips —
//! with oracle verification at multiple points, and the durable server
//! through storage faults and repeated process deaths. This is the "leave
//! it running for a week" scenario compressed.

use aa_core::{AdditionStrategy, AnytimeEngine, Endpoint, EngineConfig, VertexBatch};
use aa_durable::{DurabilityConfig, SimStorage, StorageFaultPlan, StorageFaults};
use aa_graph::{algo, generators, VertexId};
use aa_ingest::UpdateOp;
use aa_serve::{ServeConfig, Server};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn assert_oracle(e: &AnytimeEngine) {
    let dense = e.distances_dense();
    let oracle = algo::apsp_dijkstra(e.graph());
    for v in e.graph().vertices() {
        assert_eq!(dense[v as usize], oracle[v as usize], "row {v}");
    }
}

fn random_live_pair(e: &AnytimeEngine, rng: &mut ChaCha8Rng) -> (VertexId, VertexId) {
    let ids: Vec<VertexId> = e.graph().vertices().collect();
    loop {
        let u = ids[rng.gen_range(0..ids.len())];
        let v = ids[rng.gen_range(0..ids.len())];
        if u != v {
            return (u, v);
        }
    }
}

#[test]
fn hundred_operation_soak() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x50AC);
    let graph = generators::barabasi_albert(90, 2, 3, 77);
    let mut e = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: 5,
            ..Default::default()
        },
    );
    e.initialize();
    e.run_to_convergence(96);

    let strategies = [
        AdditionStrategy::RoundRobinPs,
        AdditionStrategy::CutEdgePs,
        AdditionStrategy::RepartitionS,
    ];
    for op in 0..100u64 {
        match op % 10 {
            0 | 1 => {
                let (u, v) = random_live_pair(&e, &mut rng);
                e.add_edge(u, v, rng.gen_range(1..6));
            }
            2 => {
                let edges: Vec<_> = e.graph().edges().collect();
                let (u, v, _) = edges[rng.gen_range(0..edges.len())];
                e.delete_edge(u, v);
            }
            3 => {
                let batch_edges: Vec<_> = (0..3)
                    .map(|_| {
                        let (u, v) = random_live_pair(&e, &mut rng);
                        (u, v, rng.gen_range(1..4))
                    })
                    .collect();
                e.add_edges(&batch_edges);
            }
            4 => {
                let mut batch = VertexBatch::new(2);
                let ids: Vec<VertexId> = e.graph().vertices().collect();
                batch.connect(0, Endpoint::Existing(ids[rng.gen_range(0..ids.len())]), 1);
                batch.connect(1, Endpoint::New(0), 2);
                let strategy = strategies[(op as usize / 10) % strategies.len()];
                e.add_vertices(&batch, strategy);
            }
            5 => {
                let edges: Vec<_> = e.graph().edges().collect();
                let (u, v, w) = edges[rng.gen_range(0..edges.len())];
                let new_w = if rng.gen_bool(0.5) { w + 3 } else { 1 };
                e.change_edge_weight(u, v, new_w);
            }
            6 => {
                // Delete a random non-critical vertex (keep the graph big).
                if e.graph().vertex_count() > 60 {
                    let ids: Vec<VertexId> = e.graph().vertices().collect();
                    e.delete_vertex(ids[rng.gen_range(0..ids.len())]);
                }
            }
            7 => {
                e.rebalance_if_needed(1.3);
            }
            8 => {
                // The process dies and restarts from a whole-cluster
                // checkpoint, mid-run: the one failure model.
                let mut buf = Vec::new();
                e.save_checkpoint(&mut buf).unwrap();
                e = AnytimeEngine::restore_checkpoint(&mut buf.as_slice(), e.config().clone())
                    .expect("a mid-run checkpoint restores");
            }
            _ => {
                let victims: Vec<_> = e
                    .graph()
                    .edges()
                    .step_by(11)
                    .take(2)
                    .map(|(u, v, _)| (u, v))
                    .collect();
                e.delete_edges(&victims);
            }
        }
        e.rc_step();
        if op % 25 == 24 {
            e.run_to_convergence(128);
            assert!(e.is_converged(), "not converged at op {op}");
            assert_oracle(&e);
            e.check_invariants().unwrap();
        }
    }

    // Checkpoint round-trip at the end of the soak.
    e.run_to_convergence(128);
    let mut buf = Vec::new();
    e.save_checkpoint(&mut buf).unwrap();
    let restored = AnytimeEngine::restore_checkpoint(&mut buf.as_slice(), e.config().clone())
        .expect("soaked state must checkpoint cleanly");
    assert_eq!(restored.distances_dense(), e.distances_dense());
    assert_oracle(&e);
}

/// Every adversity of the one failure model at once: a durable server on
/// storage that fails fsyncs and renames and tears what a kill leaves
/// pending, under a churn of every update type, killed four times — each
/// restart recovering from storage that the previous restart wrote. After
/// every death the restarted process must hold exactly what the dead one
/// did (the ops whose group commit succeeded), and the end state must be
/// the oracle.
#[test]
fn combined_adversity_soak() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xADE5);
    let sim = SimStorage::with_faults(StorageFaultPlan::new(
        0xADE5,
        StorageFaults::write_side(0.25),
    ));
    let durability = DurabilityConfig {
        checkpoint_every_turns: 3,
    };
    // A restart whose WAL cannot be opened (an injected rename failure)
    // tries again, as a supervisor restarting the process would.
    let start = || {
        let mut why = String::new();
        for _ in 0..16 {
            let engine = AnytimeEngine::new(
                generators::barabasi_albert(70, 2, 2, 31),
                EngineConfig {
                    num_procs: 5,
                    seed: 31,
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

    let mut kills = 0;
    let mut acked = 0u64;
    for turn in 0..48u64 {
        for _ in 0..3 {
            let e = s.engine();
            let edges: Vec<_> = e.graph().edges().collect();
            let ids: Vec<VertexId> = e.graph().vertices().collect();
            let op = match rng.gen_range(0..8) {
                0..=2 => {
                    let (u, v) = random_live_pair(e, &mut rng);
                    UpdateOp::AddEdge(u, v, rng.gen_range(1..6))
                }
                3 | 4 => {
                    let (u, v, _) = edges[rng.gen_range(0..edges.len())];
                    UpdateOp::DeleteEdge(u, v)
                }
                5 => {
                    let (u, v) = random_live_pair(e, &mut rng);
                    UpdateOp::AddVertex {
                        anchors: vec![(u, 1), (v, 2)],
                    }
                }
                6 => {
                    let (u, v, w) = edges[rng.gen_range(0..edges.len())];
                    UpdateOp::Reweight(u, v, if rng.gen_bool(0.5) { w + 2 } else { 1 })
                }
                _ if ids.len() > 60 => UpdateOp::DeleteVertex(ids[rng.gen_range(0..ids.len())]),
                _ => continue,
            };
            s.submit_write(op);
        }
        if let Some(seq) = s.turn().unwrap().durable_seq {
            acked = acked.max(seq);
        }
        if turn % 12 == 11 {
            // kill -9 with a write logged but not yet committed: it must
            // not surface after the restart.
            let (u, v) = random_live_pair(s.engine(), &mut rng);
            s.submit_write(UpdateOp::AddEdge(u, v, 1));
            sim.kill();
            let mut next = start();
            s.engine_mut().run_to_convergence(100_000);
            next.engine_mut().run_to_convergence(100_000);
            assert_eq!(
                next.engine().distances_dense(),
                s.engine().distances_dense(),
                "restart after turn {turn} diverged from the process that died"
            );
            s = next;
            kills += 1;
        }
    }
    s.drain(512).unwrap();
    assert!(
        s.engine().is_converged(),
        "combined adversity must converge"
    );
    assert_oracle(s.engine());
    s.engine().check_invariants().unwrap();

    assert_eq!(kills, 4);
    assert!(acked >= 48, "only {acked} writes were ever acknowledged");
    let stats = sim.stats();
    assert!(
        stats.fsync_failures > 0 && stats.rename_failures > 0,
        "the storage never failed: {stats:?}"
    );
}

#[test]
fn rmat_workload_end_to_end() {
    use aa_graph::rmat::{rmat, RmatParams};
    let graph = rmat(7, 400, RmatParams::default(), 3, 5);
    let mut e = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: 4,
            ..Default::default()
        },
    );
    e.initialize();
    e.run_to_convergence(96);
    assert!(e.is_converged());
    assert_oracle(&e);
    // R-MAT graphs have many isolated slots (the recursion misses vertices);
    // dynamic updates on them must still work.
    let hub = e
        .graph()
        .vertices()
        .max_by_key(|&v| e.graph().degree(v))
        .unwrap();
    let isolated = e
        .graph()
        .vertices()
        .find(|&v| e.graph().degree(v) == 0)
        .expect("R-MAT leaves isolated vertices");
    e.add_edge(isolated, hub, 2);
    e.run_to_convergence(96);
    assert_oracle(&e);
}
