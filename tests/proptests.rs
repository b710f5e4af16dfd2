//! Property-based tests (proptest) on the system's core invariants:
//!
//! * converged distributed distances equal the sequential oracle for random
//!   graphs, processor counts and random dynamic-update schedules;
//! * anytime estimates are monotone non-increasing under growth-only updates;
//! * every partitioner produces a valid cover; the multilevel partitioner
//!   respects its balance bound;
//! * the communication schedules are valid 1-factorizations / broadcasts;
//! * the distance-matrix migration and column-extension operations preserve
//!   content.

use aa_core::dv::DistanceMatrix;
use aa_core::{AdditionStrategy, AnytimeEngine, Endpoint, EngineConfig, VertexBatch};
use aa_graph::{algo, Graph, VertexId, INF};
use aa_logp::schedule;
use aa_partition::multilevel::EPSILON;
use aa_partition::{
    BfsGrowPartitioner, HashPartitioner, MultilevelKWay, Partitioner, RoundRobinPartitioner,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: a random connected-ish undirected graph with up to `max_n`
/// vertices given as an edge list.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..8), 1..(3 * n));
        edges.prop_map(move |edges| {
            let mut g = Graph::with_vertices(n);
            // A spine keeps most of the graph connected, so distances are
            // interesting rather than mostly INF.
            for v in 1..n as u32 {
                g.add_edge(v - 1, v, 1 + (v % 3));
            }
            for (u, v, w) in edges {
                if u != v {
                    g.add_edge(u, v, w);
                }
            }
            g
        })
    })
}

fn converge(graph: Graph, procs: usize, seed: u64) -> AnytimeEngine {
    let mut e = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: procs,
            seed,
            ..Default::default()
        },
    );
    e.initialize();
    e.run_to_convergence(16 * procs + 64);
    assert!(e.is_converged());
    e
}

fn oracle_rows(g: &Graph) -> Vec<Vec<u32>> {
    algo::apsp_dijkstra(g)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn distributed_apsp_equals_oracle(graph in arb_graph(36), procs in 1usize..6, seed in 0u64..1000) {
        let expected = oracle_rows(&graph);
        let engine = converge(graph, procs, seed);
        prop_assert_eq!(engine.distances_dense(), expected);
    }

    #[test]
    fn dynamic_schedule_equals_static_recompute(
        graph in arb_graph(28),
        procs in 2usize..5,
        ops in proptest::collection::vec((0u8..4, 0u32..28, 0u32..28, 1u32..6), 1..8)
    ) {
        let mut engine = converge(graph, procs, 7);
        for (kind, a, b, w) in ops {
            match kind {
                0 => {
                    let ids: Vec<VertexId> = engine.graph().vertices().collect();
                    let u = ids[a as usize % ids.len()];
                    let v = ids[b as usize % ids.len()];
                    if u != v {
                        engine.add_edge(u, v, w);
                    }
                }
                1 => {
                    let edges: Vec<_> = engine.graph().edges().collect();
                    if !edges.is_empty() {
                        let (u, v, _) = edges[a as usize % edges.len()];
                        engine.delete_edge(u, v);
                    }
                }
                2 => {
                    let edges: Vec<_> = engine.graph().edges().collect();
                    if !edges.is_empty() {
                        let (u, v, old) = edges[b as usize % edges.len()];
                        if old != w {
                            engine.change_edge_weight(u, v, w);
                        }
                    }
                }
                _ => {
                    let ids: Vec<VertexId> = engine.graph().vertices().collect();
                    let mut batch = VertexBatch::new(2);
                    batch.connect(0, Endpoint::New(1), w);
                    batch.connect(0, Endpoint::Existing(ids[a as usize % ids.len()]), w);
                    engine.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
                }
            }
            engine.rc_step();
        }
        engine.run_to_convergence(16 * procs + 96);
        prop_assert!(engine.is_converged());
        let expected = oracle_rows(engine.graph());
        let dense = engine.distances_dense();
        for v in engine.graph().vertices() {
            prop_assert_eq!(&dense[v as usize], &expected[v as usize], "row {}", v);
        }
        engine.check_invariants().unwrap();
    }

    #[test]
    fn growth_only_estimates_are_monotone(graph in arb_graph(24), procs in 2usize..5) {
        let mut engine = AnytimeEngine::new(
            graph,
            EngineConfig { num_procs: procs, ..Default::default() },
        );
        engine.initialize();
        let mut prev = engine.distances_dense();
        for step in 0..8u32 {
            if step == 3 {
                let ids: Vec<VertexId> = engine.graph().vertices().collect();
                let mut batch = VertexBatch::new(1);
                batch.connect(0, Endpoint::Existing(ids[0]), 2);
                engine.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
            }
            engine.rc_step();
            let cur = engine.distances_dense();
            for (rp, rc) in prev.iter().zip(&cur) {
                for (&a, &b) in rp.iter().zip(rc.iter()) {
                    prop_assert!(b <= a, "estimate increased {} -> {}", a, b);
                }
            }
            prev = cur;
        }
    }

    #[test]
    fn partitioners_produce_valid_covers(graph in arb_graph(40), k in 1usize..7) {
        for partitioner in [
            &RoundRobinPartitioner as &dyn Partitioner,
            &HashPartitioner,
            &BfsGrowPartitioner,
            &MultilevelKWay::default(),
        ] {
            let p = partitioner.partition(&graph, k);
            prop_assert!(p.validate(&graph).is_ok(), "{} invalid", partitioner.name());
        }
    }

    #[test]
    fn multilevel_respects_balance_bound(graph in arb_graph(60), k in 2usize..6) {
        let p = MultilevelKWay::default().partition(&graph, k);
        let sizes = p.part_sizes();
        let total: usize = sizes.iter().sum();
        let max_allowed = (((total as f64 / k as f64) * (1.0 + EPSILON)).ceil()) as usize;
        for (i, &s) in sizes.iter().enumerate() {
            prop_assert!(
                s <= max_allowed,
                "part {} holds {} > bound {}", i, s, max_allowed
            );
        }
    }

    #[test]
    fn serialized_schedule_covers_all_ordered_pairs(p in 1usize..24) {
        let sched = schedule::serialized_all_to_all(p);
        let set: HashSet<_> = sched.iter().copied().collect();
        prop_assert_eq!(set.len(), sched.len());
        prop_assert_eq!(sched.len(), p.saturating_sub(1) * p);
    }

    #[test]
    fn tree_broadcast_reaches_all(p in 1usize..33, root_pick in 0usize..33) {
        let root = root_pick % p;
        let rounds = schedule::tree_broadcast(p, root);
        let mut have = HashSet::from([root]);
        for round in rounds {
            let snapshot = have.clone();
            for (s, d) in round {
                prop_assert!(snapshot.contains(&s));
                prop_assert!(have.insert(d));
            }
        }
        prop_assert_eq!(have.len(), p);
    }

    #[test]
    fn checkpoint_roundtrips_any_state(
        graph in arb_graph(24),
        procs in 1usize..4,
        pre_steps in 0usize..4
    ) {
        let mut e = AnytimeEngine::new(
            graph,
            EngineConfig { num_procs: procs, ..Default::default() },
        );
        e.initialize();
        for _ in 0..pre_steps {
            e.rc_step();
        }
        let mut buf = Vec::new();
        e.save_checkpoint(&mut buf).unwrap();
        let mut restored =
            AnytimeEngine::restore_checkpoint(&mut buf.as_slice(), e.config().clone()).unwrap();
        prop_assert_eq!(restored.distances_dense(), e.distances_dense());
        restored.run_to_convergence(16 * procs + 64);
        prop_assert!(restored.is_converged());
        let dense = restored.distances_dense();
        let want = oracle_rows(restored.graph());
        for v in restored.graph().vertices() {
            prop_assert_eq!(&dense[v as usize], &want[v as usize]);
        }
    }

    #[test]
    fn rebalance_never_corrupts_results(graph in arb_graph(30), procs in 2usize..5) {
        let mut e = AnytimeEngine::new(
            graph,
            EngineConfig { num_procs: procs, ..Default::default() },
        );
        e.initialize();
        e.run_to_convergence(16 * procs + 64);
        e.rebalance();
        e.run_to_convergence(16 * procs + 64);
        prop_assert!(e.is_converged());
        e.check_invariants().unwrap();
        let dense = e.distances_dense();
        let want = oracle_rows(e.graph());
        for v in e.graph().vertices() {
            prop_assert_eq!(&dense[v as usize], &want[v as usize]);
        }
    }

    #[test]
    fn metis_roundtrip_any_graph(graph in arb_graph(40)) {
        let mut buf = Vec::new();
        aa_graph::io::write_metis(&graph, &mut buf).unwrap();
        let h = aa_graph::io::read_metis(std::io::Cursor::new(buf)).unwrap();
        let mut eg: Vec<_> = graph.edges().collect();
        let mut eh: Vec<_> = h.edges().collect();
        eg.sort_unstable();
        eh.sort_unstable();
        prop_assert_eq!(eg, eh);
    }

    #[test]
    fn distance_matrix_migration_roundtrip(
        cols in 2usize..32,
        values in proptest::collection::vec(0u32..1000, 2..32)
    ) {
        let cols = cols.max(values.len());
        let mut a = DistanceMatrix::new(cols);
        a.add_row(1);
        for (i, &v) in values.iter().enumerate() {
            a.set_entry(1, i, v);
        }
        let (taken, _unsent) = a.take_row(1);
        prop_assert!(!a.has_row(1));
        let mut b = DistanceMatrix::new(cols + 3);
        b.insert_row(1, taken);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(b.row(1).to_vec()[i], v);
        }
        for i in cols..cols + 3 {
            prop_assert_eq!(b.row(1).to_vec()[i], INF, "extension must pad with INF");
        }
    }
}
