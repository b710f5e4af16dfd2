//! Integration tests for the "anywhere" half: long mixed sequences of
//! dynamic updates interleaved with recombination steps must always converge
//! to exactly the oracle APSP of the final graph.

use aa_core::{
    AdditionStrategy, AnytimeEngine, Endpoint, EngineConfig, PartitionerKind, VertexBatch,
};
use aa_graph::{algo, generators, Graph, VertexId, Weight};
use aa_logp::Phase;
use aa_runtime::BackendKind;
use proptest::prelude::*;
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
fn repartition_s_batch_converges_to_oracle() {
    let graph = generators::barabasi_albert(60, 2, 2, 25);
    let mut e = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: 4,
            ..Default::default()
        },
    );
    e.initialize();
    e.run_to_convergence(64);
    let batch = random_batch(e.graph(), 10, 31);
    e.add_vertices(&batch, AdditionStrategy::RepartitionS);
    e.run_to_convergence(96);
    assert!(e.is_converged());
    assert_oracle(&e);
    e.check_invariants().unwrap();
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
fn mid_run_engine(seed: u64, procs: usize) -> AnytimeEngine {
    let mut e = AnytimeEngine::new(
        generators::erdos_renyi_gnm(30, 60, 4, seed),
        EngineConfig {
            num_procs: procs,
            seed,
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
            let mut e = mid_run_engine(seed, procs);
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
            let mut e = mid_run_engine(seed, procs);
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
fn a_checkpoint_restore_mid_run_after_a_migration_reaches_the_oracle() {
    for seed in [11, 32, 51, 129] {
        for procs in 2..=4 {
            let mut e = mid_run_engine(seed, procs);
            e.rc_step();
            e.rc_step();
            let (u, v) = absent_edge(&e, seed);
            assert!(e.add_edge(u, v, 1));
            e.rebalance();
            // The process dies here; its restart restores the checkpoint.
            let mut bytes = Vec::new();
            e.save_checkpoint(&mut bytes).unwrap();
            let mut e =
                AnytimeEngine::restore_checkpoint(&mut bytes.as_slice(), e.config().clone())
                    .expect("a mid-run checkpoint restores");
            assert_converges_to_oracle(&mut e, &format!("seed {seed} P={procs}"));
        }
    }
}

/// The checkpoint predates the migration: the process dies after the edge
/// and the rebalance, and its restart restores rows laid out for the old
/// partition, then replays both, migrating them again.
#[test]
fn recovery_from_a_checkpoint_older_than_a_migration_reaches_the_oracle() {
    let mut migrated = 0;
    for seed in [11, 32, 51, 129] {
        for procs in 2..=4 {
            let what = format!("seed {seed} P={procs}");
            let mut live = mid_run_engine(seed, procs);
            live.rc_step();
            live.rc_step();
            let mut bytes = Vec::new();
            live.save_checkpoint(&mut bytes).unwrap();
            let (u, v) = absent_edge(&live, seed);
            assert!(live.add_edge(u, v, 1));
            let moved = live.rebalance();
            migrated += moved;
            live.rc_step();

            let mut e =
                AnytimeEngine::restore_checkpoint(&mut bytes.as_slice(), live.config().clone())
                    .expect("a checkpoint from before the migration restores");
            assert!(e.add_edge(u, v, 1));
            assert_eq!(e.rebalance(), moved, "{what}");
            assert_eq!(
                e.partition().assignment,
                live.partition().assignment,
                "{what}"
            );
            assert_converges_to_oracle(&mut e, &what);
            assert_converges_to_oracle(&mut live, &what);
            assert_eq!(e.distances_dense(), live.distances_dense(), "{what}");
        }
    }
    assert!(migrated > 0, "no rebalance moved a row");
}

/// Round-robin over three ranks puts `b` = 0 with 3 and 6 on rank 0, `x` = 1
/// with 4 and 7 on rank `r` = 1, and 2, 5, 8 on rank 2. The one edge between
/// `b` and rank `r` is `b`–`x`; rank 2 borders `b` over `b`–2 throughout.
fn engine_with_one_cut_edge_to_b() -> AnytimeEngine {
    let mut g = Graph::with_vertices(9);
    for (u, v, w) in [
        (0, 1, 1),
        (0, 2, 1),
        (0, 3, 3),
        (3, 6, 1),
        (1, 4, 1),
        (4, 7, 1),
        (2, 5, 1),
        (5, 8, 1),
        (4, 5, 2),
        (7, 8, 1),
        (6, 7, 2),
        (3, 8, 4),
    ] {
        g.add_edge(u, v, w);
    }
    let mut e = AnytimeEngine::new(
        g,
        EngineConfig {
            num_procs: 3,
            partitioner: PartitionerKind::RoundRobin,
            ..Default::default()
        },
    );
    e.initialize();
    assert_eq!(e.partition().part_of(0), Some(0));
    assert_eq!(e.partition().part_of(1), Some(1));
    e
}

/// Full-row sends so far.
fn full_rows(e: &AnytimeEngine) -> u64 {
    let r = e.metrics_registry();
    r.counter_value("aa_rc_full_rows_sent_total", &[])
}

/// Updates so far that were exact at once: settled insertions and every
/// deletion.
fn settled_updates(e: &AnytimeEngine) -> u64 {
    let r = e.metrics_registry();
    r.counter_value("aa_dynamic_settled_updates_total", &[])
}

/// Two new vertices and no edge, placed by RoundRobin-PS: a vertex batch of
/// more than one is not exact at once, so the engine is left unsettled,
/// owing recombination the new rows — which border no rank, so nobody is
/// sent them.
fn unsettle(e: &mut AnytimeEngine) {
    let settled = settled_updates(e);
    assert_eq!(
        e.add_vertices(&VertexBatch::new(2), AdditionStrategy::RoundRobinPs)
            .len(),
        2
    );
    assert_eq!(settled_updates(e), settled);
    let dirty = e.metrics_registry().gauge_value("aa_dirty_rows", &[]);
    assert_eq!(dirty, Some(2.0), "the two new rows are owed");
}

/// The only cut edge from rank `r` to `b` goes and `b`'s row changes twice:
/// the engine that [`engine_with_one_cut_edge_to_b`] builds, with `r` out
/// of the ranks `b`'s owner sends deltas to. Each change lands on a settled
/// engine and is exact in its own call, so no step is run or owed.
/// `check_invariants` after every call: every listed rank borders the row.
fn b_evicted_from_r(what: &str) -> AnytimeEngine {
    let mut e = engine_with_one_cut_edge_to_b();
    assert_converges_to_oracle(&mut e, what);
    // b goes to r and to rank 2, x to rank 0 (over b–x) alone.
    assert_eq!((e.receivers(0), e.receivers(1)), (vec![1, 2], vec![0]));

    assert!(e.delete_edge(0, 1));
    e.check_invariants()
        .expect("every listed rank borders the row");
    // x bordered rank 0 over the same edge: rank 0 leaves x's list too.
    assert_eq!(
        (e.receivers(0), e.receivers(1)),
        (vec![2], vec![]),
        "{what}"
    );

    // An insertion lowers b's row (b-6 beats b-3-6), a deletion raises part
    // of it (b reached 5 over 2-5); rank 2 stays b's receiver.
    let rows = rows_sent(&e);
    assert!(e.add_edge(0, 6, 1));
    e.check_invariants().unwrap();
    assert!(e.delete_edge(2, 5));
    e.check_invariants().unwrap();
    assert!(rows_are_exact(&e), "{what}: not exact before a step");
    assert_eq!(rows_sent(&e), rows, "{what}: a row was sent");
    assert_eq!(e.receivers(0), [2], "{what}: nothing brought b back to r");
    assert_eq!(settled_updates(&e), 3, "{what}: all three changes");
    e
}

/// The evicted rank `r` must get the full row of `b` when its edge comes
/// back, rather than a delta onto neighbours never relaxed against the rest
/// of it. The edge lands on an engine that owes recombination, which
/// carries it.
#[test]
fn a_returning_cut_edge_brings_the_evicted_rank_a_full_row() {
    let what = "one cut edge to b, unsettled";
    let mut e = b_evicted_from_r(what);
    unsettle(&mut e);
    let full = full_rows(&e);
    assert!(e.add_edge(0, 1, 1));
    e.check_invariants().unwrap();
    assert_eq!(settled_updates(&e), 3, "{what}");
    assert_converges_to_oracle(&mut e, what);
    // b to r and x to rank 0, whole: neither rank had been relaxed against
    // them. Every other row that moved went as a delta to ranks that had.
    assert_eq!(
        full_rows(&e) - full,
        2,
        "{what}: full rows after the edge came back"
    );
    assert_eq!((e.receivers(0), e.receivers(1)), (vec![1, 2], vec![0]));
}

/// The settled twin: the edge comes back to an engine at its fixed point,
/// which the one-shot relaxation leaves exact and owing nothing, so no row
/// is sent and `r` stays off `b`'s list — its neighbour of `b` is exact
/// already. `b`'s next change that recombination carries brings `r` the
/// full row; a batch on the settled engine chains and sends none.
#[test]
fn a_cut_edge_returning_to_a_settled_engine_waits_for_b_to_change() {
    let what = "one cut edge to b, settled";
    let mut e = b_evicted_from_r(what);
    assert_converges_to_oracle(&mut e, what);
    let full = full_rows(&e);
    assert!(e.add_edge(0, 1, 1));
    e.check_invariants().unwrap();
    assert_eq!(settled_updates(&e), 4, "{what}");
    assert_converges_to_oracle(&mut e, what);
    assert_eq!(full_rows(&e), full, "{what}: rows sent after the return");
    assert_eq!((e.receivers(0), e.receivers(1)), (vec![2], vec![]));

    // Two insertions at once on an unsettled engine lower b's row and x's
    // (b-8 and b-7 beat b-6-7-8 and b-6-7): recombination sends b to r and
    // x to rank 0, whole.
    unsettle(&mut e);
    assert_eq!(e.add_edges(&[(0, 8, 1), (0, 7, 1)]), 2);
    e.check_invariants().unwrap();
    assert_eq!(settled_updates(&e), 4, "{what}: an unsettled batch of two");
    assert_converges_to_oracle(&mut e, what);
    assert_eq!(full_rows(&e) - full, 2, "{what}: full rows after b moved");
    assert_eq!((e.receivers(0), e.receivers(1)), (vec![1, 2], vec![0]));

    // Two more lower b's row again (b-4 beats b-x-4 and b-7-4, b-5 beats
    // b-8-5): on the settled engine they chain, exact at once, and no row
    // is sent.
    let rows = rows_sent(&e);
    assert_eq!(e.add_edges(&[(0, 4, 1), (0, 5, 1)]), 2);
    e.check_invariants().unwrap();
    assert!(rows_are_exact(&e), "{what}: a settled batch, before a step");
    assert_eq!(settled_updates(&e), 5, "{what}: a settled batch of two");
    assert_converges_to_oracle(&mut e, what);
    assert_eq!(rows_sent(&e), rows, "{what}: rows sent after the batch");
    assert_eq!((e.receivers(0), e.receivers(1)), (vec![1, 2], vec![0]));
}

/// The `(u, v, r)` of every vertex `u` that `after` moves onto a rank `r`
/// which, under `before`, already bordered a neighbour `v` of `u` that
/// `after` owns elsewhere: `r` gains a local neighbour of a row it may take
/// deltas of.
fn moves_onto_a_bordering_rank(
    g: &Graph,
    before: &aa_partition::Partition,
    after: &aa_partition::Partition,
) -> Vec<(VertexId, VertexId, usize)> {
    let borders = |r: usize, v: VertexId| {
        before.part_of(v) != Some(r)
            && g.neighbors(v)
                .iter()
                .any(|&(y, _)| before.part_of(y) == Some(r))
    };
    let mut moves = Vec::new();
    for u in g.vertices() {
        let Some(r) = after.part_of(u).filter(|&r| before.part_of(u) != Some(r)) else {
            continue;
        };
        for &(v, _) in g.neighbors(u) {
            if after.part_of(v) != Some(r) && borders(r, v) {
                moves.push((u, v, r));
            }
        }
    }
    moves
}

/// Steps to convergence, checking the invariants after every step, and
/// compares the rows with the oracle.
fn converge_checked(e: &mut AnytimeEngine, what: &str) {
    for _ in 0..400 {
        let done = e.rc_step();
        e.check_invariants()
            .unwrap_or_else(|err| panic!("{what}: {err}"));
        if done {
            break;
        }
    }
    assert_converges_to_oracle(e, what);
}

/// A migrated vertex lands on a rank that already takes deltas of one of its
/// remote neighbours' rows. Unless the rank it came from had been relaxed
/// against that row as last sent, the new rank leaves the row's receivers
/// and is sent it whole; otherwise the deltas complete the moved row too.
/// Both through Repartition-S and through `rebalance`, converged and
/// mid-run, from a round-robin decomposition the repartitioner reshapes.
#[test]
fn a_migration_onto_a_rank_bordering_the_moved_vertexs_neighbour_reaches_the_oracle() {
    let mut seen = [0usize; 2];
    for seed in 0..4u64 {
        for procs in [3, 4] {
            for (call, mid_run) in [(0, false), (0, true), (1, false), (1, true)] {
                let what = format!("seed {seed} P={procs} call {call} mid-run {mid_run}");
                let mut e = AnytimeEngine::new(
                    generators::barabasi_albert(48, 2, 3, seed),
                    EngineConfig {
                        num_procs: procs,
                        seed,
                        partitioner: PartitionerKind::RoundRobin,
                        ..Default::default()
                    },
                );
                e.initialize();
                e.check_invariants().unwrap();
                if mid_run {
                    e.rc_step();
                    e.check_invariants().unwrap();
                } else {
                    converge_checked(&mut e, &what);
                }
                let before = e.partition().clone();
                if call == 0 {
                    let batch = random_batch(e.graph(), 6, seed);
                    e.add_vertices(&batch, AdditionStrategy::RepartitionS);
                } else {
                    e.rebalance();
                }
                e.check_invariants().unwrap();
                seen[call] += moves_onto_a_bordering_rank(e.graph(), &before, e.partition()).len();
                converge_checked(&mut e, &what);
            }
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "no such move: {seen:?}");
}

/// Whether every live row equals the oracle's.
fn rows_are_exact(e: &AnytimeEngine) -> bool {
    let (dense, oracle) = (e.distances_dense(), algo::apsp_dijkstra(e.graph()));
    e.graph()
        .vertices()
        .all(|v| dense[v as usize] == oracle[v as usize])
}

/// Row sends so far, whole or delta.
fn rows_sent(e: &AnytimeEngine) -> u64 {
    let r = e.metrics_registry();
    let sent = |name| r.counter_value(name, &[]);
    sent("aa_rc_full_rows_sent_total") + sent("aa_rc_delta_rows_sent_total")
}

/// Steps to convergence; returns the steps and the messages and bytes they
/// added to the Recombination ledger.
fn converge_costing(e: &mut AnytimeEngine) -> (usize, (u64, u64)) {
    let ledger = |e: &AnytimeEngine| {
        let s = e.cluster().ledger().phase(Phase::Recombination);
        (s.messages, s.bytes)
    };
    let before = ledger(e);
    let steps = e.run_to_convergence(400);
    assert!(e.is_converged(), "did not converge");
    let after = ledger(e);
    (steps, (after.0 - before.0, after.1 - before.1))
}

/// One insertion of kind `kind`, which a settled engine takes exactly at
/// once: a new edge; a batch naming one new edge twice; a lighter edge; one
/// new vertex placed by RoundRobin-PS or by CutEdge-PS. `(a, b, w)` pick
/// the vertices and the weight. `None` if the pick changed nothing.
fn insert_one(e: &mut AnytimeEngine, kind: usize, (a, b, w): (u32, u32, Weight)) -> Option<String> {
    let ids: Vec<VertexId> = e.graph().vertices().collect();
    let (u, v) = (ids[a as usize % ids.len()], ids[b as usize % ids.len()]);
    let done = match kind {
        0 => u != v && e.add_edge(u, v, w),
        1 => u != v && e.add_edges(&[(u, v, w), (v, u, w)]) == 1,
        2 => {
            let heavy: Vec<_> = e.graph().edges().filter(|&(_, _, x)| x > 1).collect();
            let &(x, y, old) = heavy.get(a as usize % heavy.len().max(1))?;
            return e
                .change_edge_weight(x, y, 1 + w % (old - 1))
                .then(|| format!("kind 2: {x}-{y} from {old}"));
        }
        _ => {
            let strategy = [AdditionStrategy::RoundRobinPs, AdditionStrategy::CutEdgePs][kind % 2];
            let mut batch = VertexBatch::new(1);
            batch.connect(0, Endpoint::Existing(u), w);
            if u != v {
                batch.connect(0, Endpoint::Existing(v), 1);
            }
            e.add_vertices(&batch, strategy).len() == 1
        }
    };
    done.then(|| format!("kind {kind}: {u}-{v} w={w}"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A single insertion on a settled engine — one edge, one lighter edge,
    /// one vertex under RoundRobin-PS or CutEdge-PS — uses what is new at
    /// most once on any new shortest path, so its one-shot relaxation is
    /// the new APSP: the rows equal the oracle before any step, and the
    /// next convergence is one step that sends no row and costs what an
    /// empty step costs. R-MAT and BA graphs, P 1–8, sim and threads.
    #[test]
    fn a_single_insertion_on_a_settled_engine_is_exact_at_once(
        seed in 0u64..10_000,
        rmat in 0u8..2,
        procs in 1usize..9,
        threads in 0u8..2,
        picks in proptest::collection::vec((0u32..1000, 0u32..1000, 1u32..6), 5..6),
    ) {
        let graph = match rmat {
            1 => aa_graph::rmat::rmat(6, 192, Default::default(), 4, seed),
            _ => generators::barabasi_albert(64, 2, 4, seed),
        };
        let backend = [BackendKind::Sim, BackendKind::Threads][usize::from(threads)];
        let mut e = AnytimeEngine::new(
            graph,
            EngineConfig {
                num_procs: procs,
                seed,
                backend,
                threads: 2 * usize::from(threads),
                ..Default::default()
            },
        );
        e.initialize();
        converge_costing(&mut e);
        // A step on a converged engine sends nothing: what it costs is the
        // termination test alone.
        let empty = converge_costing(&mut e);
        prop_assert_eq!(empty.0, 1);
        for (kind, &pick) in picks.iter().enumerate() {
            let (settled, rows) = (settled_updates(&e), rows_sent(&e));
            let Some(what) = insert_one(&mut e, kind, pick) else {
                continue;
            };
            prop_assert_eq!(settled_updates(&e), settled + 1, "{}", what);
            prop_assert!(rows_are_exact(&e), "{}: not exact before a step", what);
            prop_assert!(!e.is_converged(), "{}", what);
            prop_assert_eq!(converge_costing(&mut e), empty, "{}", what);
            prop_assert_eq!(rows_sent(&e), rows, "{}", what);
            prop_assert!(e.check_invariants().is_ok(), "{}", what);
        }
    }
}

/// The path of 10 over `procs` round-robin ranks, converged: 4 and 9 on
/// different ranks, and 0 → 4 → 9 is the new shortest path from 0 to 9 once
/// `(0, 4)` and `(4, 9)` come.
fn converged_path_of_10(procs: usize, what: &str) -> AnytimeEngine {
    let mut e = AnytimeEngine::new(
        generators::path(10),
        EngineConfig {
            num_procs: procs,
            partitioner: PartitionerKind::RoundRobin,
            ..Default::default()
        },
    );
    e.initialize();
    assert_converges_to_oracle(&mut e, what);
    assert_ne!(e.partition().part_of(4), e.partition().part_of(9));
    e
}

/// Two new edges in series on one new shortest path, on an engine that
/// owes recombination: the batch's one-shot relaxation reads each endpoint
/// row as it stood before either edge, so the far end learns only one of
/// them, and with the middle vertex on another rank no local propagation
/// makes up for it. Recombination completes it.
#[test]
fn two_new_edges_in_series_are_not_exact_at_once() {
    for procs in 2..=4 {
        let what = format!("path of 10, unsettled, P={procs}");
        let mut e = converged_path_of_10(procs, &what);
        unsettle(&mut e);
        assert!(rows_are_exact(&e), "{what}");
        assert_eq!(e.add_edges(&[(0, 4, 1), (4, 9, 1)]), 2);
        assert!(!rows_are_exact(&e), "{what}: exact before any step");
        assert_eq!(settled_updates(&e), 0, "{what}");
        e.check_invariants().unwrap();
        assert_converges_to_oracle(&mut e, &what);
    }
}

/// The settled twin: on a settled engine the batch is a chain of single
/// insertions, each link relaxing through the rows the link before it left,
/// so the far end learns both edges. The rows are exact before any step,
/// and the next convergence is one step that sends no row.
#[test]
fn two_new_edges_in_series_chain_exactly_on_a_settled_engine() {
    for procs in 2..=4 {
        let what = format!("path of 10, settled, P={procs}");
        let mut e = converged_path_of_10(procs, &what);
        let (rows, empty) = (rows_sent(&e), converge_costing(&mut e));
        assert_eq!(e.add_edges(&[(0, 4, 1), (4, 9, 1)]), 2);
        assert!(rows_are_exact(&e), "{what}: not exact before a step");
        assert_eq!(e.distances_dense()[0][9], 2, "{what}");
        assert_eq!(settled_updates(&e), 1, "{what}");
        assert!(!e.is_converged(), "{what}");
        e.check_invariants().unwrap();
        assert_eq!(converge_costing(&mut e), empty, "{what}");
        assert_eq!(rows_sent(&e), rows, "{what}: a row was sent");
    }
}

/// One new vertex on a settled engine, placed by RoundRobin-PS or by
/// CutEdge-PS, with `anchors` as its edges; asserts the arrival was exact at
/// once — rows equal to the oracle before any step, one more settled
/// update, and a next convergence that is one empty step sending no row —
/// and returns the rows from before it beside the rows after it.
fn arrive_settled(
    e: &mut AnytimeEngine,
    strategy: AdditionStrategy,
    anchors: &[(VertexId, Weight)],
    what: &str,
) -> (Vec<Vec<Weight>>, Vec<Vec<Weight>>) {
    let (rows, empty) = (rows_sent(e), converge_costing(e));
    let (before, settled) = (e.distances_dense(), settled_updates(e));
    let mut batch = VertexBatch::new(1);
    for &(a, w) in anchors {
        batch.connect(0, Endpoint::Existing(a), w);
    }
    assert_eq!(e.add_vertices(&batch, strategy).len(), 1, "{what}");
    let after = e.distances_dense();
    assert!(rows_are_exact(e), "{what}: not exact before a step");
    assert_eq!(settled_updates(e), settled + 1, "{what}");
    e.check_invariants().unwrap();
    assert_eq!(converge_costing(e), empty, "{what}");
    assert_eq!(rows_sent(e), rows, "{what}: a row was sent");
    (before, after)
}

/// A leaf — one new vertex with one edge — arriving on a settled engine
/// lowers nothing but its own column: every shortest path through it ends
/// there. Every other row changes at column `v` only, to `d(x,a) + w`.
#[test]
fn a_settled_leaf_arrival_changes_other_rows_at_its_own_column_only() {
    for procs in 1..=4 {
        for strategy in [AdditionStrategy::RoundRobinPs, AdditionStrategy::CutEdgePs] {
            let what = format!("leaf, P={procs}, {strategy}");
            let mut e = engine(64, procs, 11);
            assert_converges_to_oracle(&mut e, &what);
            let (a, w) = (17, 3);
            let (before, after) = arrive_settled(&mut e, strategy, &[(a, w)], &what);
            let v = before.len();
            for (x, (old, new)) in before.iter().zip(&after).enumerate() {
                assert_eq!(old[..], new[..v], "{what}: row {x} outside column {v}");
                assert_eq!(new[v], old[a as usize] + w, "{what}: d({x},{v})");
            }
        }
    }
}

/// A vertex arriving on a settled engine with two far-apart anchors is a
/// shortcut: on the path of 10, a vertex joined to 0 and to 9 brings them
/// within 2 of each other, so rows change outside column `v`, and the
/// per-anchor candidate columns still leave the oracle's rows.
#[test]
fn a_settled_two_anchor_arrival_lowers_entries_beyond_its_own_column() {
    for procs in 2..=4 {
        for strategy in [AdditionStrategy::RoundRobinPs, AdditionStrategy::CutEdgePs] {
            let what = format!("two anchors on the path of 10, P={procs}, {strategy}");
            let mut e = converged_path_of_10(procs, &what);
            let (before, after) = arrive_settled(&mut e, strategy, &[(0, 1), (9, 1)], &what);
            assert_eq!((before[0][9], after[0][9]), (9, 2), "{what}");
            let lowered = (before.iter().zip(&after))
                .flat_map(|(old, new)| old.iter().zip(new).filter(|(o, n)| n < o))
                .count();
            assert!(lowered > 2, "{what}: {lowered} entries lowered");
        }
    }
}

/// An insertion on an engine still converging keeps every rank's logs:
/// rows it did not relax through the edge still owe their neighbours and
/// their receivers. Recombination completes it.
#[test]
fn an_insertion_mid_run_keeps_its_logs() {
    for procs in 2..=4 {
        let what = format!("mid-run, P={procs}");
        let mut e = mid_run_engine(5, procs);
        e.rc_step();
        assert!(!e.is_converged(), "{what}: converged in one step");
        let (u, v) = absent_edge(&e, 5);
        assert!(e.add_edge(u, v, 1));
        assert_eq!(settled_updates(&e), 0, "{what}");
        let dirty = e.metrics_registry().gauge_value("aa_dirty_rows", &[]);
        assert!(dirty > Some(0.0), "{what}: no row left to send");
        e.check_invariants().unwrap();
        assert_converges_to_oracle(&mut e, &what);
    }
}
