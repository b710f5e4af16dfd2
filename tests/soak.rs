//! Soak test: a long deterministic stream of mixed operations — every dynamic
//! update type, strategy switches, rebalances, processor failures and a
//! checkpoint round-trip — with oracle verification at multiple points. This
//! is the "leave it running for a week" scenario compressed.

use aa_core::{
    AdditionStrategy, AnytimeEngine, Endpoint, EngineConfig, FaultConfig, ProcFaultConfig,
    Refinement, SupervisorConfig, VertexBatch,
};
use aa_graph::{algo, generators, VertexId};
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
                e.recover_rank(rng.gen_range(0..5)).unwrap();
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

/// Combined-adversity soak: lossy links, scheduled fail-stop crashes, an
/// injected straggler and a stream of dynamic updates, all at once. The
/// supervisor must detect and recover every crash on its own (no manual
/// `recover_rank` anywhere) and the end state must still be
/// the exact oracle.
#[test]
fn combined_adversity_soak() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xADE5);
    let graph = generators::barabasi_albert(70, 2, 2, 31);
    let mut e = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: 5,
            seed: 31,
            fault: Some(FaultConfig {
                p_drop: 0.15,
                p_dup: 0.05,
                reorder: true,
                seed: 0xADE5,
            }),
            proc_fault: Some(ProcFaultConfig {
                crashes: vec![(8, 1), (45, 3)],
                stragglers: vec![(2, 200.0)],
            }),
            supervision: SupervisorConfig {
                checkpoint_interval: 4,
                detector_timeout: 4,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    e.initialize();

    for op in 0..40u64 {
        match op % 8 {
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
                let mut batch = VertexBatch::new(1);
                let ids: Vec<VertexId> = e.graph().vertices().collect();
                batch.connect(0, Endpoint::Existing(ids[rng.gen_range(0..ids.len())]), 2);
                e.add_vertices(&batch, AdditionStrategy::CutEdgePs);
            }
            4 => {
                let edges: Vec<_> = e.graph().edges().collect();
                let (u, v, w) = edges[rng.gen_range(0..edges.len())];
                let new_w = if rng.gen_bool(0.5) { w + 2 } else { 1 };
                e.change_edge_weight(u, v, new_w);
            }
            5 if op == 21 => {
                // One more crash scheduled on the fly, mid-churn.
                e.schedule_crash(e.rc_steps() as u64 + 3, 4);
            }
            _ => {}
        }
        e.rc_step();
    }

    e.run_to_convergence(6000);
    assert!(e.is_converged(), "combined adversity must still converge");
    assert_eq!(e.outstanding_rows(), 0);

    // Every scheduled crash was detected and recovered automatically.
    let recovered: Vec<usize> = e.recovery_log().iter().map(|ev| ev.report.rank).collect();
    assert!(recovered.contains(&1), "crash of rank 1 not recovered");
    assert!(recovered.contains(&3), "crash of rank 3 not recovered");
    assert!(recovered.contains(&4), "crash of rank 4 not recovered");
    let health = e.health_report();
    assert!(health.down_ranks.is_empty());
    assert_eq!(
        health.stragglers,
        vec![2],
        "straggler flag lost in the noise"
    );

    let totals = e.cluster().ledger().totals();
    assert!(totals.dropped_messages > 0, "chaos must actually drop");
    assert!(totals.heartbeat_messages > 0);

    assert_oracle(&e);
    e.check_invariants().unwrap();
}

#[test]
fn pivot_pass_refinement_survives_dynamic_updates() {
    let graph = generators::erdos_renyi_gnm(70, 180, 3, 88);
    let mut e = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: 4,
            refinement: Refinement::PivotPass,
            ..Default::default()
        },
    );
    e.initialize();
    e.run_to_convergence(200);
    assert!(e.is_converged());
    e.add_edge(0, 50, 1);
    e.rc_step();
    let (u, v, _) = e.graph().edges().nth(8).unwrap();
    e.delete_edge(u, v);
    let mut batch = VertexBatch::new(2);
    batch.connect(0, Endpoint::Existing(10), 1);
    batch.connect(1, Endpoint::New(0), 1);
    e.add_vertices(&batch, AdditionStrategy::CutEdgePs);
    e.run_to_convergence(300);
    assert!(
        e.is_converged(),
        "pivot-pass + dynamic updates must converge"
    );
    assert_oracle(&e);
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
