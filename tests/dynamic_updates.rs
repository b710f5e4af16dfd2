//! Integration tests for the "anywhere" half: long mixed sequences of
//! dynamic updates interleaved with recombination steps must always converge
//! to exactly the oracle APSP of the final graph.

use aa_core::{
    AdditionStrategy, AnytimeEngine, Endpoint, EngineConfig, RepartitionMode, SupervisorConfig,
    VertexBatch,
};
use aa_graph::{algo, generators, VertexId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn engine(n: usize, procs: usize, seed: u64) -> AnytimeEngine {
    let graph = generators::barabasi_albert(n, 2, 3, seed);
    let mut e = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: procs,
            seed,
            ..Default::default()
        },
    );
    e.initialize();
    e
}

fn assert_oracle(engine: &AnytimeEngine) {
    let dense = engine.distances_dense();
    let oracle = algo::apsp_dijkstra(engine.graph());
    for v in 0..engine.graph().capacity() {
        if engine.graph().is_alive(v as VertexId) {
            assert_eq!(dense[v], oracle[v], "row {v} differs from oracle");
        }
    }
}

fn random_batch(existing: &aa_graph::Graph, count: usize, seed: u64) -> VertexBatch {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ids: Vec<VertexId> = existing.vertices().collect();
    let mut batch = VertexBatch::new(count);
    for i in 0..count {
        if i > 0 && rng.gen_bool(0.5) {
            batch.connect(i, Endpoint::New(rng.gen_range(0..i)), rng.gen_range(1..4));
        }
        batch.connect(
            i,
            Endpoint::Existing(ids[rng.gen_range(0..ids.len())]),
            rng.gen_range(1..4),
        );
    }
    batch
}

#[test]
fn long_mixed_update_sequence_matches_oracle() {
    let mut e = engine(70, 4, 21);
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    e.run_to_convergence(64);
    for round in 0..12u64 {
        match round % 4 {
            0 => {
                // A couple of random new edges between live vertices.
                let ids: Vec<VertexId> = e.graph().vertices().collect();
                for _ in 0..2 {
                    let u = ids[rng.gen_range(0..ids.len())];
                    let v = ids[rng.gen_range(0..ids.len())];
                    if u != v {
                        e.add_edge(u, v, rng.gen_range(1..5));
                    }
                }
            }
            1 => {
                // Delete a random existing edge.
                let edges: Vec<_> = e.graph().edges().collect();
                let (u, v, _) = edges[rng.gen_range(0..edges.len())];
                assert!(e.delete_edge(u, v));
            }
            2 => {
                // A small vertex batch via alternating strategies.
                let strategy = if round % 8 == 2 {
                    AdditionStrategy::RoundRobinPs
                } else {
                    AdditionStrategy::CutEdgePs
                };
                let batch = random_batch(e.graph(), 3, 1000 + round);
                e.add_vertices(&batch, strategy);
            }
            _ => {
                // Change a random edge weight (up or down).
                let edges: Vec<_> = e.graph().edges().collect();
                let (u, v, w) = edges[rng.gen_range(0..edges.len())];
                let new_w = if rng.gen_bool(0.5) {
                    w + 2
                } else {
                    (w - 1).max(1)
                };
                e.change_edge_weight(u, v, new_w);
            }
        }
        e.rc_step(); // keep the analysis flowing between updates
    }
    e.run_to_convergence(128);
    assert!(e.is_converged());
    assert_oracle(&e);
    e.check_invariants().unwrap();
}

#[test]
fn vertex_deletions_interleaved_with_additions() {
    let mut e = engine(60, 4, 23);
    e.run_to_convergence(64);
    for round in 0..4u64 {
        let batch = random_batch(e.graph(), 4, 2000 + round);
        e.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
        e.rc_step();
        let victim = e
            .graph()
            .vertices()
            .nth((round as usize * 7) % e.graph().vertex_count())
            .unwrap();
        e.delete_vertex(victim);
        e.rc_step();
    }
    e.run_to_convergence(128);
    assert!(e.is_converged());
    assert_oracle(&e);
    e.check_invariants().unwrap();
}

#[test]
fn repartition_modes_all_converge_to_oracle() {
    for mode in [
        RepartitionMode::AdaptiveMultilevel,
        RepartitionMode::FullRemap,
        RepartitionMode::Adaptive,
    ] {
        let graph = generators::barabasi_albert(60, 2, 2, 25);
        let mut e = AnytimeEngine::new(
            graph,
            EngineConfig {
                num_procs: 4,
                repartition: mode,
                ..Default::default()
            },
        );
        e.initialize();
        e.run_to_convergence(64);
        let batch = random_batch(e.graph(), 10, 31);
        e.add_vertices(&batch, AdditionStrategy::RepartitionS);
        e.run_to_convergence(96);
        assert!(e.is_converged(), "{mode:?} did not converge");
        assert_oracle(&e);
        e.check_invariants().unwrap();
    }
}

#[test]
fn repeated_repartitions_stay_consistent() {
    let mut e = engine(50, 4, 27);
    e.run_to_convergence(64);
    for round in 0..5u64 {
        let batch = random_batch(e.graph(), 5, 3000 + round);
        e.add_vertices(&batch, AdditionStrategy::RepartitionS);
        e.rc_step();
    }
    e.run_to_convergence(128);
    assert_oracle(&e);
    e.check_invariants().unwrap();
    assert_eq!(e.graph().vertex_count(), 75);
}

#[test]
fn restart_and_incremental_agree_after_identical_updates() {
    let batch = random_batch(&generators::barabasi_albert(50, 2, 3, 29), 6, 41);
    let mut incremental = engine(50, 4, 29);
    incremental.run_to_convergence(64);
    incremental.add_vertices(&batch, AdditionStrategy::CutEdgePs);
    incremental.run_to_convergence(96);

    let mut restarted = engine(50, 4, 29);
    restarted.run_to_convergence(64);
    restarted.add_vertices(&batch, AdditionStrategy::BaselineRestart);
    restarted.run_to_convergence(96);

    assert_eq!(
        incremental.distances_dense(),
        restarted.distances_dense(),
        "incremental and restart must agree on the final distances"
    );
}

#[test]
fn update_rejections_leave_state_intact() {
    let mut e = engine(40, 3, 31);
    e.run_to_convergence(64);
    let before = e.distances_dense();
    // All of these are no-ops.
    let (u, v, w) = e.graph().edges().next().unwrap();
    assert!(!e.add_edge(u, v, 9), "duplicate edge");
    assert!(!e.delete_edge(0, 0), "self loop never exists");
    assert!(!e.change_edge_weight(u, v, w), "same weight");
    assert_eq!(e.distances_dense(), before);
    assert!(e.is_converged());
}

#[test]
fn dynamic_closeness_tracks_graph_evolution() {
    // Adding a shortcut edge to a peripheral vertex must raise its closeness.
    let mut e = engine(80, 4, 33);
    e.run_to_convergence(64);
    let snap_before = e.snapshot();
    let hub = snap_before.top_k(1)[0].0;
    // Most peripheral live vertex: lowest non-zero closeness.
    let periph = e
        .graph()
        .vertices()
        .filter(|&v| v != hub)
        .min_by(|&a, &b| {
            snap_before.closeness[a as usize]
                .partial_cmp(&snap_before.closeness[b as usize])
                .unwrap()
        })
        .unwrap();
    e.add_edge(periph, hub, 1);
    e.run_to_convergence(64);
    let snap_after = e.snapshot();
    assert!(
        snap_after.closeness[periph as usize] > snap_before.closeness[periph as usize],
        "a shortcut to the hub must raise closeness: {} -> {}",
        snap_before.closeness[periph as usize],
        snap_after.closeness[periph as usize]
    );
}

/// The three sequences below used to converge *above* the oracle: rows that
/// a migration, a repartition or a checkpoint restore installed were marked
/// as owing their local neighbours every column, and nothing ever relaxed
/// them. Each runs on `erdos_renyi_gnm(30, 60, 4, seed)` for P in {2, 3, 4};
/// the seed lists are ones on which at least one P went wrong.
fn mid_run_engine(seed: u64, procs: usize, supervision: SupervisorConfig) -> AnytimeEngine {
    let mut e = AnytimeEngine::new(
        generators::erdos_renyi_gnm(30, 60, 4, seed),
        EngineConfig {
            num_procs: procs,
            seed,
            supervision,
            ..Default::default()
        },
    );
    e.initialize();
    e
}

/// The first absent edge of the sequence `(k, 7k + 11) mod 30`, `k = seed, …`.
fn absent_edge(e: &AnytimeEngine, seed: u64) -> (VertexId, VertexId) {
    (seed..)
        .map(|k| ((k % 30) as VertexId, ((k * 7 + 11) % 30) as VertexId))
        .find(|&(u, v)| u != v && !e.graph().has_edge(u, v))
        .unwrap()
}

fn assert_converges_to_oracle(e: &mut AnytimeEngine, what: &str) {
    e.run_to_convergence(400);
    assert!(e.is_converged(), "{what}: did not converge");
    let dense = e.distances_dense();
    let oracle = algo::apsp_dijkstra(e.graph());
    for v in e.graph().vertices() {
        assert_eq!(dense[v as usize], oracle[v as usize], "{what}: row {v}");
    }
    e.check_invariants().unwrap();
}

#[test]
fn rebalance_mid_run_after_an_edge_addition_reaches_the_oracle() {
    for seed in [48, 129, 130] {
        for procs in 2..=4 {
            let mut e = mid_run_engine(seed, procs, SupervisorConfig::default());
            e.rc_step();
            let (u, v) = absent_edge(&e, seed);
            assert!(e.add_edge(u, v, 1));
            e.rebalance();
            assert_converges_to_oracle(&mut e, &format!("seed {seed} P={procs}"));
        }
    }
}

#[test]
fn repartition_s_mid_run_reaches_the_oracle() {
    for seed in [29, 51, 54, 125] {
        for procs in 2..=4 {
            let mut e = mid_run_engine(seed, procs, SupervisorConfig::default());
            e.rc_step();
            let mut batch = VertexBatch::new(2);
            batch.connect(0, Endpoint::Existing((seed % 30) as VertexId), 1);
            batch.connect(1, Endpoint::New(0), 2);
            batch.connect(1, Endpoint::Existing(((seed * 7 + 11) % 30) as VertexId), 1);
            e.add_vertices(&batch, AdditionStrategy::RepartitionS);
            assert_converges_to_oracle(&mut e, &format!("seed {seed} P={procs}"));
        }
    }
}

#[test]
fn recovery_from_a_checkpoint_older_than_a_migration_reaches_the_oracle() {
    let supervision = SupervisorConfig {
        checkpoint_interval: 2,
        detector_timeout: 2,
        ..Default::default()
    };
    for seed in [11, 32, 51, 129] {
        for procs in 2..=4 {
            let mut e = mid_run_engine(seed, procs, supervision);
            e.rc_step();
            e.rc_step(); // every rank checkpoints here
            let (u, v) = absent_edge(&e, seed);
            assert!(e.add_edge(u, v, 1));
            e.rebalance();
            e.schedule_crash(e.rc_steps() as u64 + 1, seed as usize % procs);
            assert_converges_to_oracle(&mut e, &format!("seed {seed} P={procs}"));
            assert!(!e.recovery_log().is_empty(), "seed {seed} P={procs}");
        }
    }
}
