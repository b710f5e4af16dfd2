//! End-to-end integration tests: the full distributed pipeline against the
//! sequential oracle across graph families, processor counts and
//! partitioners.

use aa_core::{AnytimeEngine, EngineConfig, PartitionerKind};
use aa_graph::{algo, generators, Graph, VertexId, INF};

fn assert_oracle(engine: &AnytimeEngine) {
    let dense = engine.distances_dense();
    let oracle = algo::apsp_dijkstra(engine.graph());
    for v in 0..engine.graph().capacity() {
        if engine.graph().is_alive(v as VertexId) {
            assert_eq!(dense[v], oracle[v], "row {v} differs from oracle");
        }
    }
}

fn run(graph: Graph, config: EngineConfig) -> AnytimeEngine {
    let mut engine = AnytimeEngine::new(graph, config);
    engine.initialize();
    let limit = 8 * engine.config().num_procs + 64;
    engine.run_to_convergence(limit);
    assert!(
        engine.is_converged(),
        "did not converge within {limit} steps"
    );
    engine
}

#[test]
fn every_graph_family_times_every_proc_count() {
    let families: Vec<(&str, Graph)> = vec![
        ("barabasi_albert", generators::barabasi_albert(120, 2, 3, 1)),
        ("erdos_renyi", generators::erdos_renyi_gnm(100, 300, 5, 2)),
        (
            "erdos_renyi_wide_weights",
            generators::erdos_renyi_gnm(100, 300, 1_000_000, 2),
        ),
        (
            "watts_strogatz",
            generators::watts_strogatz(100, 3, 0.2, 2, 3),
        ),
        (
            "planted_partition",
            generators::planted_partition(4, 25, 0.3, 0.02, 1, 4),
        ),
        ("path", generators::path(60)),
        ("star", generators::star(80)),
        ("grid", generators::grid(8, 10)),
    ];
    for (name, graph) in families {
        for procs in [1usize, 2, 5, 8] {
            let engine = run(
                graph.clone(),
                EngineConfig {
                    num_procs: procs,
                    ..Default::default()
                },
            );
            engine.check_invariants().unwrap();
            let dense = engine.distances_dense();
            let oracle = algo::apsp_dijkstra(engine.graph());
            assert_eq!(dense, oracle, "{name} with P={procs}");
        }
    }
}

#[test]
fn partitioner_choice_does_not_change_results() {
    let graph = generators::watts_strogatz(90, 3, 0.3, 4, 7);
    let mut reference: Option<Vec<Vec<u32>>> = None;
    for partitioner in [
        PartitionerKind::RoundRobin,
        PartitionerKind::Hash,
        PartitionerKind::BfsGrow,
        PartitionerKind::Multilevel,
    ] {
        let engine = run(
            graph.clone(),
            EngineConfig {
                num_procs: 6,
                partitioner,
                ..Default::default()
            },
        );
        let dense = engine.distances_dense();
        match &reference {
            None => reference = Some(dense),
            Some(r) => assert_eq!(&dense, r, "{partitioner:?} disagrees"),
        }
    }
}

#[test]
fn results_are_deterministic_across_runs() {
    let mk = || {
        let graph = generators::barabasi_albert(100, 2, 3, 11);
        let mut e = AnytimeEngine::new(
            graph,
            EngineConfig {
                num_procs: 5,
                seed: 77,
                ..Default::default()
            },
        );
        e.initialize();
        e.run_to_convergence(64);
        e
    };
    let (mut a, mut b) = (mk(), mk());
    assert_eq!(a.distances_dense(), b.distances_dense());
    assert_eq!(a.partition().assignment, b.partition().assignment);
    assert_eq!(a.snapshot().closeness, b.snapshot().closeness);
}

#[test]
fn anytime_snapshots_improve_monotonically() {
    // Distance estimates never increase, so the sum of finite distances per
    // vertex is non-increasing and the reachable set only grows.
    let graph = generators::erdos_renyi_gnm(90, 200, 3, 13);
    let mut engine = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: 6,
            ..Default::default()
        },
    );
    engine.initialize();
    let mut prev = engine.distances_dense();
    for _ in 0..64 {
        let done = engine.rc_step();
        let cur = engine.distances_dense();
        for (rp, rc) in prev.iter().zip(&cur) {
            for (&a, &b) in rp.iter().zip(rc) {
                assert!(b <= a, "estimate increased {a} -> {b}");
            }
        }
        prev = cur;
        if done {
            break;
        }
    }
    assert!(engine.is_converged());
}

#[test]
fn disconnected_components_stay_disconnected() {
    let mut graph = generators::barabasi_albert(40, 2, 1, 15);
    let island = generators::complete(10);
    // Append the island as vertices 40..50.
    let offset = graph.capacity() as VertexId;
    for _ in 0..10 {
        graph.add_vertex();
    }
    for (u, v, w) in island.edges() {
        graph.add_edge(u + offset, v + offset, w);
    }
    let engine = run(
        graph,
        EngineConfig {
            num_procs: 4,
            ..Default::default()
        },
    );
    assert_oracle(&engine);
    let dense = engine.distances_dense();
    assert_eq!(dense[0][offset as usize], INF);
    assert_eq!(dense[offset as usize][0], INF);
    assert_eq!(dense[offset as usize][offset as usize + 1], 1);
}

#[test]
fn closeness_ranking_matches_oracle_ranking() {
    let graph = generators::barabasi_albert(150, 3, 1, 17);
    let exact = algo::exact_closeness(&graph);
    let mut engine = run(
        graph,
        EngineConfig {
            num_procs: 8,
            ..Default::default()
        },
    );
    let snapshot = engine.snapshot();
    let mut exact_ranked: Vec<usize> = (0..exact.len()).collect();
    exact_ranked.sort_by(|&a, &b| exact[b].partial_cmp(&exact[a]).unwrap().then(a.cmp(&b)));
    let ours: Vec<u32> = snapshot.top_k(10).into_iter().map(|(v, _)| v).collect();
    let want: Vec<u32> = exact_ranked[..10].iter().map(|&v| v as u32).collect();
    assert_eq!(ours, want);
}
