//! Change-log recombination against the row-granular reference.
//!
//! Every test here feeds two engines the same calls: one on the production
//! path, one inside [`reference::dense`], where each relaxation is the old
//! whole-row `relax_row`. Rows, frontiers, dirty sets, unsent logs and wire
//! traffic must be equal after every call — not just at convergence —
//! because the change logs are only allowed to skip work, never to reorder
//! or defer it.
//!
//! The send side is held to its own reference on the way: each `ProcState`
//! of a test build keeps the full-row baseline production used to keep
//! (`shadow`), and every delta walked off an unsent log — in either twin, on
//! every `rc_step` of every sequence here — is asserted equal to the
//! `diff_rows` against it (`ProcState::unsent_delta`).
//!
//! The second half does the same for deletions: the production path (row
//! filter, one decision per row, exact repair of the raised columns) beside
//! [`whole_row`], the scan-everything, local-Dijkstra invalidation it
//! replaced. Both must reset the same entries, in the same order, with the
//! same tallies; the production path must end every deleting call with rows
//! equal to the oracle and nothing owed, and the reference may only lie
//! above it. The reset sets are held to the oracle too: every entry a
//! deleting call lengthened was reset, and none that the unrefined support
//! test would keep.

use crate::config::{EngineConfig, PartitionerKind};
use crate::dv::reference;
use crate::dynamic::reference as whole_row;
use crate::dynamic::{Endpoint, VertexBatch};
use crate::obs::InvalidationTally;
use crate::proc_state::ProcState;
use crate::strategy::AdditionStrategy;
use crate::AnytimeEngine;
use aa_graph::{algo, generators, Graph, VertexId, Weight, INF};
use aa_logp::Phase;
use aa_partition::Partition;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The engine under test and its row-granular twin.
struct Pair {
    logged: AnytimeEngine,
    dense: AnytimeEngine,
}

impl Pair {
    fn new(graph: Graph, config: EngineConfig) -> Self {
        let mut pair = Pair {
            logged: AnytimeEngine::new(graph.clone(), config.clone()),
            dense: AnytimeEngine::new(graph, config),
        };
        pair.both("initialize", AnytimeEngine::initialize);
        pair
    }

    /// Applies `f` to both engines and checks that nothing tells them apart.
    fn both<R: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        f: impl Fn(&mut AnytimeEngine) -> R,
    ) -> R {
        let got = f(&mut self.logged);
        let want = reference::dense(|| f(&mut self.dense));
        assert_eq!(got, want, "{what}: results differ");
        self.assert_same(what);
        got
    }

    fn assert_same(&self, what: &str) {
        assert_eq!(self.logged.procs.len(), self.dense.procs.len(), "{what}");
        for (a, b) in self.logged.procs.iter().zip(&self.dense.procs) {
            let rank = a.rank;
            assert_eq!(a.dv.vertices(), b.dv.vertices(), "{what}: rank {rank} rows");
            for &v in a.dv.vertices() {
                assert_eq!(a.dv.row(v), b.dv.row(v), "{what}: rank {rank} row {v}");
            }
            assert!(
                a.dv.frontier().eq(b.dv.frontier()),
                "{what}: rank {rank} frontier"
            );
            assert_eq!(a.dirty, b.dirty, "{what}: rank {rank} dirty set");
            // The twin logs a lowered row all-columns for its neighbours and
            // exactly the lowered columns for the wire: same deltas, same
            // receivers, same baselines had they been kept.
            for &v in a.dv.vertices() {
                let (ours, twins) = (a.dv.unsent(v), b.dv.unsent(v));
                assert_eq!(ours, twins, "{what}: rank {rank} row {v} unsent log");
            }
            assert_eq!(a.sent_to, b.sent_to, "{what}: rank {rank} receivers");
            assert_eq!(a.shadow, b.shadow, "{what}: rank {rank} shadow baselines");
            check_shadow(a, what);
        }
        let (a, b) = (
            self.logged.cluster().ledger().totals(),
            self.dense.cluster().ledger().totals(),
        );
        assert_eq!(
            (a.messages, a.bytes),
            (b.messages, b.bytes),
            "{what}: wire traffic"
        );
        assert_eq!(self.logged.rc_steps(), self.dense.rc_steps(), "{what}");
        if let Err(broken) = self.logged.check_invariants() {
            panic!("{what}: {broken}");
        }
    }

    /// Steps both engines to convergence, comparing after every step.
    fn converge(&mut self) {
        for _ in 0..4000 {
            if self.both("rc_step to convergence", AnytimeEngine::rc_step) {
                return;
            }
        }
        panic!("did not converge");
    }

    /// [`Self::converge`], then checks the rows against the APSP oracle.
    fn converge_and_check_oracle(&mut self) {
        self.converge();
        let dense = self.logged.distances_dense();
        let oracle = algo::apsp_dijkstra(self.logged.graph());
        for v in self.logged.graph().vertices() {
            assert_eq!(dense[v as usize], oracle[v as usize], "row {v} vs oracle");
        }
    }

    /// Replaces both engines by what their own checkpoints restore to.
    fn checkpoint_roundtrip(&mut self) {
        let restore = |e: &AnytimeEngine| {
            let mut bytes = Vec::new();
            e.save_checkpoint(&mut bytes).expect("in-memory write");
            AnytimeEngine::restore_checkpoint(&mut &bytes[..], e.config().clone())
                .expect("own checkpoint restores")
        };
        self.logged = restore(&self.logged);
        self.dense = reference::dense(|| restore(&self.dense));
        self.assert_same("checkpoint restore");
    }
}

/// What the unsent log stands in for, row by row: a baseline exists exactly
/// for the rows somebody holds, it is an upper bound of its row, and — unless
/// raw access marked the log all-columns — the row sits below it on exactly
/// the unsent columns.
fn check_shadow(ps: &ProcState, what: &str) {
    let mut held: Vec<_> = ps.sent_to.keys().collect();
    let mut shadowed: Vec<_> = ps.shadow.keys().collect();
    held.sort_unstable();
    shadowed.sort_unstable();
    assert_eq!(held, shadowed, "{what}: rank {} baselines", ps.rank);
    for &v in shadowed {
        let shadow = &ps.shadow[&v];
        let row = ps.dv.row(v);
        assert_eq!(shadow.len(), row.len(), "{what}: baseline width of row {v}");
        let below = row.iter().zip(shadow).enumerate();
        for (c, (d, &s)) in below {
            assert!(d <= s, "{what}: row {v}[{c}] {d} above its baseline {s}");
            let unsent = ps.dv.unsent(v);
            assert!(
                unsent.contains(c) == (d < s) || ps.dv.unsent_entries(v).is_none(),
                "{what}: row {v}[{c}] = {d}, baseline {s}, unsent bit {}",
                unsent.contains(c)
            );
        }
    }
}

fn live(e: &AnytimeEngine, pick: u32) -> VertexId {
    let ids: Vec<VertexId> = e.graph().vertices().collect();
    ids[pick as usize % ids.len()]
}

/// One random call, applied to both engines. `kind` selects the event; `a`,
/// `b`, `w` parameterize it.
fn apply_op(pair: &mut Pair, kind: u8, a: u32, b: u32, w: Weight) {
    let (u, v) = (live(&pair.logged, a), live(&pair.logged, b));
    match kind {
        // Recombination: full rows on first contact, deltas afterwards.
        0..=3 => {
            pair.both("rc_step", AnytimeEngine::rc_step);
        }
        4 if u != v => {
            pair.both("add_edge", |e| e.add_edge(u, v, w));
        }
        5 => {
            let edges: Vec<_> = pair.logged.graph().edges().collect();
            if let Some(&(x, y, _)) = edges.get(a as usize % edges.len().max(1)) {
                pair.both("delete_edge", |e| e.delete_edge(x, y));
            }
        }
        6 => {
            let edges: Vec<_> = pair.logged.graph().edges().collect();
            if let Some(&(x, y, old)) = edges.get(b as usize % edges.len().max(1)) {
                // Both directions: a decrease relaxes, an increase invalidates.
                let new_w = if a.is_multiple_of(2) { old + w } else { 1 };
                pair.both("change_edge_weight", |e| e.change_edge_weight(x, y, new_w));
            }
        }
        7 => {
            let x = live(&pair.logged, a.wrapping_add(7));
            let batch = [(u, v, w), (v, x, 1), (u, x, w + 1)];
            let batch: Vec<_> = batch.into_iter().filter(|&(p, q, _)| p != q).collect();
            pair.both("add_edges", |e| e.add_edges(&batch));
        }
        8 => {
            let strategy = [
                AdditionStrategy::RoundRobinPs,
                AdditionStrategy::CutEdgePs,
                AdditionStrategy::RepartitionS,
            ][b as usize % 3];
            let mut batch = VertexBatch::new(2);
            batch.connect(0, Endpoint::Existing(u), w);
            batch.connect(1, Endpoint::Existing(v), 1);
            batch.connect(0, Endpoint::New(1), 2);
            pair.both("add_vertices", |e| e.add_vertices(&batch, strategy));
        }
        9 if pair.logged.graph().vertex_count() > 8 => {
            pair.both("delete_vertex", |e| e.delete_vertex(u));
        }
        // Migration: rows change owner, edges become local, mid-run or not.
        10 => {
            pair.both("rebalance", AnytimeEngine::rebalance);
        }
        11 => pair.checkpoint_roundtrip(),
        _ => {}
    }
}

/// The partitioner draw gives Repartition-S and the deletion sweep
/// different boundary shapes to start from.
fn arb_config() -> impl Strategy<Value = EngineConfig> {
    (2usize..5, 0usize..4, 0u64..1000).prop_map(|(procs, kind, seed)| EngineConfig {
        num_procs: procs,
        seed,
        partitioner: [
            PartitionerKind::RoundRobin,
            PartitionerKind::Hash,
            PartitionerKind::BfsGrow,
            PartitionerKind::Multilevel,
        ][kind],
        ..Default::default()
    })
}

/// 48 cases in the tier-1 run; the nightly workflow asks for 3,000 through
/// `PROPTEST_CASES`, which the vendored runner does not read by itself.
fn cases() -> u32 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn change_log_path_equals_dense_reference_after_every_call(
        n in 12usize..40,
        graph_seed in 0u64..1000,
        config in arb_config(),
        ops in proptest::collection::vec((0u8..12, 0u32..1000, 0u32..1000, 1u32..6), 4..24),
    ) {
        // A panic inside the body does not name its inputs: say which case
        // it was before passing it on.
        let case = format!("n={n} graph_seed={graph_seed} ops={ops:?} {config:?}");
        let run = std::panic::AssertUnwindSafe(|| {
            let graph = generators::erdos_renyi_gnm(n, 2 * n, 4, graph_seed);
            let mut pair = Pair::new(graph, config);
            for (kind, a, b, w) in ops {
                apply_op(&mut pair, kind, a, b, w);
            }
            pair.converge_and_check_oracle();
        });
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("failing case: {case}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// Round-robin over two ranks puts `x`=1 and `u`=3 on rank 1 and `b`=0,
/// `t`=2, `b2`=4 on rank 0. `x` reaches `t` fastest over its cut edge to
/// `b2`; `u` reaches everything through `b` and owes nothing to that edge.
fn relearn_fixture() -> Pair {
    let mut g = Graph::with_vertices(5);
    for (p, q, w) in [
        (1, 3, 1),
        (3, 0, 1),
        (0, 2, 2),
        (0, 4, 1),
        (1, 4, 2),
        (4, 2, 1),
    ] {
        g.add_edge(p, q, w);
    }
    let mut pair = Pair::new(
        g,
        EngineConfig {
            num_procs: 2,
            partitioner: PartitionerKind::RoundRobin,
            ..Default::default()
        },
    );
    assert_eq!(pair.logged.procs[1].dv.vertices(), &[1, 3]);
    pair.converge_and_check_oracle();
    pair
}

#[test]
fn invalidated_entries_are_relearnt_from_an_unaffected_neighbour() {
    let mut pair = relearn_fixture();
    assert_eq!(
        pair.logged.distances_dense()[1][2],
        3,
        "x reaches t over b2"
    );
    // At quiescence u has propagated everything: nothing in its log.
    assert!(pair.logged.procs[1].dv.log(3).is_empty());
    let before_u = pair.logged.procs[1].dv.row(3).to_vec();

    pair.both("delete x-b2", |e| e.delete_edge(1, 4));

    // Row u was not invalidated, and x has no cut edge left to relearn
    // through: only u's untouched row can give x its new distances, and it
    // does so inside the deletion itself, before any recombination step.
    assert_eq!(pair.logged.procs[1].dv.row(3), &before_u[..]);
    assert_eq!(pair.logged.procs[1].dv.row(1), &[2, 0, 4, 1, 3]);
    pair.converge_and_check_oracle();
}

#[test]
fn delta_after_a_broadcast_still_reaches_the_neighbours() {
    // Path 0-1 | 2-3; rank 0 has relaxed against row 2 and is at its fixed
    // point.
    let g = generators::path(4);
    let mut part = Partition::unassigned(4, 2);
    for (v, rank) in [(0, 0), (1, 0), (2, 1), (3, 1)] {
        part.assign(v, rank);
    }
    let mut p0 = crate::proc_state::ProcState::new(0, 4);
    p0.rebuild_view(&g, &part);
    p0.dv.add_row(0);
    p0.dv.add_row(1);
    p0.initial_approximation();
    use crate::proc_state::RowUpdate;
    let full = p0.dv.at_width(&[2, 1, 0, 5]);
    p0.apply_row_update(2, RowUpdate::Full(std::sync::Arc::new(full)));
    p0.propagate();
    assert_eq!(p0.dv.row(1), &[1, 0, 1, 6]);

    // The sender's d(2,3) drops to 1. A broadcast carries the new row
    // first, an edge addition's: the neighbours relax through it there and
    // then, and the delta that follows lowers nothing more and logs nothing.
    let row = p0.dv.at_width(&[2, 1, 0, 1]);
    p0.relax_through_external(2, row.as_row());
    assert_eq!(
        p0.dv.row(1).to_vec()[3],
        2,
        "a broadcast relaxes the neighbours"
    );
    assert!(p0.dv.frontier().eq([1]));
    p0.propagate();
    assert_eq!((p0.dv.row(1).to_vec()[3], p0.dv.row(0).to_vec()[3]), (2, 3));
    p0.apply_row_update(2, RowUpdate::delta(&[(3, 1)]));
    assert!(p0.dv.frontier().next().is_none());
}

/// Path 0-1 | 2-3, right after the initial approximation: nothing has been
/// sent, and rank 1's row of 2 knows d(2,3) = 1, which rank 0 has not heard.
/// An edge 0-2 is added: 2's broadcast row reaches its old neighbour 1 on
/// rank 0 there and then — through the edge 1-2, not the new one — as a
/// copy of it, marked all-columns, used to on the propagation that closes
/// the call.
#[test]
fn an_added_edge_relaxes_the_external_endpoints_neighbours_through_its_broadcast_row() {
    let mut pair = Pair::new(
        generators::path(4),
        EngineConfig {
            num_procs: 2,
            partitioner: PartitionerKind::BfsGrow,
            ..Default::default()
        },
    );
    assert_eq!(pair.logged.procs[0].dv.vertices(), &[0, 1], "split 2 | 2");
    assert_eq!(pair.logged.procs[0].dv.row(1).to_vec()[3], INF);
    assert!(pair.both("add 0-2", |e| e.add_edge(0, 2, 7)));
    let rank0 = &pair.logged.procs[0];
    assert_eq!(
        (rank0.dv.row(1).to_vec()[3], rank0.dv.row(0).to_vec()[3]),
        (2, 3)
    );
    assert!(rank0.dirty.contains(&1));
    pair.converge_and_check_oracle();
}

#[test]
fn rows_colocated_by_a_migration_relax_each_other_on_every_column() {
    let g = generators::erdos_renyi_gnm(40, 90, 4, 5);
    let mut pair = Pair::new(
        g,
        EngineConfig {
            num_procs: 3,
            ..Default::default()
        },
    );
    pair.converge();
    // Move every third vertex one rank on: old neighbours part, strangers
    // become local neighbours with rows that never relaxed each other.
    let mut part = pair.logged.partition().clone();
    for v in pair.logged.graph().vertices().step_by(3) {
        let rank = part.part_of(v).expect("assigned");
        part.assign(v, (rank + 1) % 3);
    }
    let moved = pair.both("migrate", |e| e.migrate_to_partition(part.clone()));
    assert!(moved > 0);
    for ps in &pair.logged.procs {
        for &v in ps.dv.vertices() {
            let log = ps.dv.log(v);
            assert!(
                log.contains(0) && log.contains(39),
                "row {v} not all-columns"
            );
        }
    }
    pair.converge_and_check_oracle();
}

#[test]
fn a_rank_that_owned_a_row_between_two_migrations_gets_the_full_row() {
    // Path 0-1 | 2-3 | 4-5 over three ranks; rank 0 borders vertex 2 and has
    // been relaxed against its row, so rank 1 lists it.
    let mut pair = Pair::new(
        generators::path(6),
        EngineConfig {
            num_procs: 3,
            partitioner: PartitionerKind::BfsGrow,
            ..Default::default()
        },
    );
    pair.converge_and_check_oracle();
    let home = pair.logged.partition().clone();
    let (there, back) = (home.part_of(1).expect("0"), home.part_of(2).expect("1"));
    assert_ne!(there, back, "the cut runs between 1 and 2");
    assert!(pair.logged.procs[back].sent_to[&2].contains(&there));
    // Vertex 2 moves in with 1 and straight back, no step in between. The
    // rank it visited is no receiver of its own row; once it is the owner no
    // more, its row 1 has not been relaxed against row 2 since the first
    // move marked it, so it is listed no more: one step brings it the
    // whole row again.
    let mut away = home.clone();
    away.assign(2, there);
    pair.both("migrate there", |e| e.migrate_to_partition(away.clone()));
    let visited = &pair.logged.procs[there];
    assert!(visited.dv.has_row(2) && visited.dv.owes(2));
    assert!(!visited.sent_to[&2].contains(&there));
    pair.both("migrate back", |e| e.migrate_to_partition(home.clone()));
    assert!(!pair.logged.procs[back].sent_to[&2].contains(&there));
    let full = |e: &AnytimeEngine| e.obs.full_rows_sent;
    let before = full(&pair.logged);
    pair.both("rc_step", AnytimeEngine::rc_step);
    assert!(full(&pair.logged) > before);
    assert!(pair.logged.procs[back].sent_to[&2].contains(&there));
    pair.converge_and_check_oracle();
}

#[test]
fn column_growth_leaves_every_log_as_it_was() {
    let g = generators::erdos_renyi_gnm(30, 70, 3, 9);
    let config = EngineConfig {
        num_procs: 3,
        ..Default::default()
    };
    // Right after the initial approximation every log is empty. A new column
    // is INF in every row, which no edge can improve on: growing the column
    // space puts nothing on the frontier, and a marked row stays marked.
    let mut probe = AnytimeEngine::new(g.clone(), config.clone());
    probe.initialize();
    let ps = &mut probe.procs[1];
    let rows = ps.dv.vertices().to_vec();
    assert_eq!(ps.dv.frontier().count(), 0);
    ps.dv.mark_all_columns(rows[0]);
    ps.extend_capacity(70);
    assert!(ps.dv.frontier().eq([rows[0]]));
    assert!(ps.dv.log(rows[0]).contains(69));
    for &v in &rows {
        assert_eq!(ps.dv.row(v).to_vec()[30..], [INF; 40]);
    }

    // And vertices added mid-run leave the same rows as the dense path.
    let mut pair = Pair::new(g, config);
    pair.both("rc_step", AnytimeEngine::rc_step);
    let mut batch = VertexBatch::new(2);
    batch.connect(0, Endpoint::Existing(0), 1);
    batch.connect(1, Endpoint::New(0), 2);
    batch.connect(1, Endpoint::Existing(17), 1);
    pair.both("add_vertices", |e| {
        e.add_vertices(&batch, AdditionStrategy::RoundRobinPs)
    });
    pair.converge_and_check_oracle();
}

/// The engine under test and a twin whose deletions invalidate the old way.
struct DeletionPair {
    bounded: AnytimeEngine,
    whole: AnytimeEngine,
}

impl DeletionPair {
    fn new(graph: Graph, config: EngineConfig) -> Self {
        let mut pair = DeletionPair {
            bounded: AnytimeEngine::new(graph.clone(), config.clone()),
            whole: AnytimeEngine::new(graph, config),
        };
        pair.both("initialize", AnytimeEngine::initialize);
        pair
    }

    /// Applies `f` to both engines; they must answer alike.
    fn both<R: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        f: impl Fn(&mut AnytimeEngine) -> R,
    ) -> R {
        let got = f(&mut self.bounded);
        let want = whole_row::whole_row(|| f(&mut self.whole));
        assert_eq!(got, want, "{what}: results differ");
        got
    }

    /// Applies a deleting call to both engines and holds the production path
    /// to the reference: equal results, reset sets and tallies, and no entry
    /// below the oracle; and to the graphs before and after: every entry the
    /// call lengthened was reset, and nothing the unrefined support test
    /// would have kept. Returns what the call returned and what it reset.
    fn delete<R: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        f: impl Fn(&mut AnytimeEngine) -> R,
    ) -> (R, Vec<whole_row::Reset>) {
        let before = self.bounded.graph().clone();
        let (got, resets) = whole_row::recording(|| f(&mut self.bounded));
        self.assert_sound(what, &before, &resets);
        let (want, reference) =
            whole_row::recording(|| whole_row::whole_row(|| f(&mut self.whole)));
        assert_eq!(got, want, "{what}: results differ");
        assert_eq!(
            resets, reference,
            "{what}: reset sets, in the order visited"
        );
        // Rank by rank, each in row order.
        let visited = self
            .bounded
            .procs
            .iter()
            .flat_map(|ps| ps.dv.vertices().iter().map(|&v| (ps.rank, v)));
        let mut visited = visited.peekable();
        for (rank, v, _) in &resets {
            let reset = (*rank, *v);
            while visited.next_if(|&row| row != reset).is_some() {}
            assert_eq!(
                visited.next(),
                Some(reset),
                "{what}: reset out of row order"
            );
        }
        // Equal resets; the reference asks every row, production only the
        // row-side members of the deleted edges.
        let (ours, theirs) = (self.bounded.obs.invalidation, self.whole.obs.invalidation);
        let raised = |t: InvalidationTally| (t.reset, t.entries);
        assert_eq!(raised(ours), raised(theirs), "{what}: tallies");
        assert!(ours.examined <= theirs.examined, "{what}: rows examined");
        if let Err(broken) = self.bounded.check_invariants() {
            panic!("{what}: {broken}");
        }
        let oracle = algo::apsp_dijkstra(self.bounded.graph());
        for ps in &self.bounded.procs {
            for &v in ps.dv.vertices() {
                let row = ps.dv.row(v).iter().zip(&oracle[v as usize]);
                for (t, (new, &exact)) in row.enumerate() {
                    assert!(
                        new >= exact,
                        "{what}: row {v}[{t}] {new} below oracle {exact}"
                    );
                }
            }
        }
        (got, resets)
    }

    /// Soundness of the sole-support test for one deleting call, from the
    /// graph `before` it: every live pair whose exact distance is longer
    /// than it was before was reset, and the reset pairs lie inside what the
    /// unrefined rule — every pair a shortest path runs over a deleted edge
    /// — resets, by brute force on the pre-deletion oracle. The deleted
    /// edges are those of `before` that are gone or heavier now, at their
    /// old weights.
    fn assert_sound(&self, what: &str, before: &Graph, resets: &[whole_row::Reset]) {
        let (pre, post) = (
            algo::apsp_dijkstra(before),
            algo::apsp_dijkstra(self.bounded.graph()),
        );
        let after = self.bounded.graph();
        let gone = before
            .edges()
            .filter(|&(u, v, w)| after.edge_weight(u, v).is_none_or(|now| now > w));
        let gone: Vec<_> = gone.collect();
        let unrefined = whole_row::unrefined_resets(&pre, &gone);
        let reset: BTreeSet<(VertexId, usize)> = (resets.iter())
            .flat_map(|(_, x, cols)| cols.iter().map(move |&t| (*x, t)))
            .collect();
        let outside: Vec<_> = reset.difference(&unrefined).collect();
        assert!(
            outside.is_empty(),
            "{what}: reset outside the unrefined rule: {outside:?}"
        );
        for x in after.vertices() {
            for (t, (&now, &was)) in post[x as usize].iter().zip(&pre[x as usize]).enumerate() {
                assert!(
                    now <= was || reset.contains(&(x, t)),
                    "{what}: d({x},{t}) rose {was} → {now} and was not reset"
                );
            }
        }
    }

    /// [`Self::delete`] for a call that only deletes or makes edges
    /// heavier, which ends exact: the production path's rows equal the
    /// oracle, no rank of either twin has a row on its frontier or in its
    /// dirty set, no production row has an unsent column, and the
    /// reference's rows lie no lower — unless the call widened the rows,
    /// which leaves what it withheld to recombination.
    fn delete_only<R: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        f: impl Fn(&mut AnytimeEngine) -> R,
    ) -> (R, Vec<whole_row::Reset>) {
        let widenings = |e: &AnytimeEngine| e.obs.widenings;
        let before = widenings(&self.bounded);
        let (got, resets) = self.delete(what, f);
        if widenings(&self.bounded) > before {
            return (got, resets);
        }
        let oracle = algo::apsp_dijkstra(self.bounded.graph());
        for (a, b) in self.bounded.procs.iter().zip(&self.whole.procs) {
            let rank = a.rank;
            assert_eq!(a.dv.vertices(), b.dv.vertices(), "{what}: rank {rank} rows");
            for &v in a.dv.vertices() {
                assert_eq!(a.dv.row(v).to_vec(), oracle[v as usize], "{what}: row {v}");
                let rows = a.dv.row(v).iter().zip(b.dv.row(v).iter());
                for (t, (new, old)) in rows.enumerate() {
                    assert!(
                        new <= old,
                        "{what}: row {v}[{t}] {new} above reference {old}"
                    );
                }
                assert!(a.dv.unsent(v).is_empty(), "{what}: row {v} owes a send");
            }
            // Every baseline is its row again.
            check_shadow(a, what);
            let drained = a.dv.frontier().chain(b.dv.frontier()).next();
            assert_eq!(drained, None, "{what}: rank {rank} frontier");
            assert!(a.dirty.is_empty(), "{what}: rank {rank} dirty set");
            assert_eq!(a.dirty, b.dirty, "{what}: rank {rank} dirty set");
        }
        (got, resets)
    }

    /// Converges each twin and checks both against the APSP oracle.
    fn converge_and_check_oracle(&mut self) {
        let oracle = algo::apsp_dijkstra(self.bounded.graph());
        for e in [&mut self.bounded, &mut self.whole] {
            e.run_to_convergence(4000);
            assert!(e.is_converged(), "did not converge");
            let dense = e.distances_dense();
            for v in e.graph().vertices() {
                assert_eq!(dense[v as usize], oracle[v as usize], "row {v} vs oracle");
            }
        }
    }
}

/// An edge on the shortest path between its endpoints, the `pick`-th such.
fn tight_edge(e: &AnytimeEngine, pick: u32) -> Option<(VertexId, VertexId, Weight)> {
    let oracle = algo::apsp_dijkstra(e.graph());
    let tight: Vec<_> = e
        .graph()
        .edges()
        .filter(|&(u, v, w)| oracle[u as usize][v as usize] == w)
        .collect();
    tight.get(pick as usize % tight.len().max(1)).copied()
}

/// Up to three edges at the vertex of highest degree, the second one named
/// in both orientations, plus a pair that is no edge.
fn batch_sharing_an_endpoint(e: &AnytimeEngine) -> Vec<(VertexId, VertexId)> {
    let g = e.graph();
    let hub = g
        .vertices()
        .max_by_key(|&v| g.degree(v))
        .expect("non-empty");
    let mut batch: Vec<_> = g
        .neighbors(hub)
        .iter()
        .take(3)
        .map(|&(y, _)| (hub, y))
        .collect();
    batch.extend(batch.get(1).map(|&(u, v)| (v, u)));
    batch.push((hub, hub));
    batch
}

/// Tight edges spread over the edge list, about three, from the `pick`-th
/// on: a batch whose edges need not share an endpoint, so that two of them
/// can lie in series on a shortest path.
fn scattered_batch(e: &AnytimeEngine, pick: u32) -> Vec<(VertexId, VertexId)> {
    let oracle = algo::apsp_dijkstra(e.graph());
    let tight = e.graph().edges();
    let tight: Vec<_> = tight
        .filter(|&(u, v, w)| oracle[u as usize][v as usize] == w)
        .collect();
    let every = (tight.len() / 3).max(1);
    let spread = tight.iter().skip(pick as usize % every).step_by(every);
    spread.map(|&(u, v, _)| (u, v)).collect()
}

/// Every deleting call once, each held to the reference and followed by a
/// convergence to the oracle: a single edge (`first`, or a tight one), a
/// batch sharing an endpoint, a scattered batch, a weight increase, a
/// vertex.
fn every_deletion_kind(graph: Graph, procs: usize, first: Option<(VertexId, VertexId)>) {
    let config = EngineConfig {
        num_procs: procs,
        ..Default::default()
    };
    let mut pair = DeletionPair::new(graph, config);
    pair.converge_and_check_oracle();

    let (u, v) = first.unwrap_or_else(|| {
        let (u, v, _) = tight_edge(&pair.bounded, 0).expect("has edges");
        (u, v)
    });
    let (deleted, resets) = pair.delete_only("delete_edge", |e| e.delete_edge(u, v));
    assert!(
        deleted && !resets.is_empty(),
        "a tight edge supports something"
    );
    pair.converge_and_check_oracle();

    let batch = batch_sharing_an_endpoint(&pair.bounded);
    let distinct = batch.len() - 2;
    let (removed, _) = pair.delete_only("delete_edges", |e| e.delete_edges(&batch));
    assert_eq!(
        removed, distinct,
        "the repeat and the non-edge count for nothing"
    );
    pair.converge_and_check_oracle();

    let batch = scattered_batch(&pair.bounded, 0);
    pair.delete_only("delete_edges", |e| e.delete_edges(&batch));
    pair.converge_and_check_oracle();

    if let Some((u, v, w)) = tight_edge(&pair.bounded, 1) {
        pair.delete_only("weight increase", |e| e.change_edge_weight(u, v, w + 3));
        pair.converge_and_check_oracle();
    }

    let g = pair.bounded.graph();
    let hub = g
        .vertices()
        .max_by_key(|&v| g.degree(v))
        .expect("non-empty");
    pair.delete_only("delete_vertex", |e| e.delete_vertex(hub));
    pair.converge_and_check_oracle();
    pair.bounded.check_invariants().expect("invariants");
}

#[test]
fn bounded_deletions_stay_between_the_oracle_and_the_whole_row_reference() {
    // Two rings joined by one bridge, which goes first; and a ring beside a
    // path that nothing connects, so every row has `INF` columns.
    let mut barbell = Graph::with_vertices(12);
    let mut islands = Graph::with_vertices(14);
    for i in 0..6 {
        barbell.add_edge(i, (i + 1) % 6, 1);
        barbell.add_edge(6 + i, 6 + (i + 1) % 6, 2);
        islands.add_edge(i, (i + 1) % 6, 1);
    }
    barbell.add_edge(2, 9, 3);
    for i in 6..13 {
        islands.add_edge(i, i + 1, 1 + i % 2);
    }
    let fixtures = [
        // Unit weights: every other pair has several shortest paths.
        ("grid", generators::grid(5, 6), None),
        (
            "unit-weight G(n,m)",
            generators::erdos_renyi_gnm(36, 80, 1, 3),
            None,
        ),
        (
            "weighted G(n,m)",
            generators::erdos_renyi_gnm(40, 90, 4, 5),
            None,
        ),
        ("scale-free", generators::barabasi_albert(45, 2, 3, 7), None),
        ("bridge", barbell, Some((2, 9))),
        ("disconnected", islands, None),
    ];
    for (name, graph, first) in fixtures {
        for procs in 1..=4 {
            eprintln!("{name}, P = {procs}");
            every_deletion_kind(graph.clone(), procs, first);
        }
    }
}

#[test]
fn deleting_an_edge_on_no_shortest_path_examines_no_row_and_resets_none() {
    // A unit-weight path on six vertices and a chord of weight 9 across it:
    // no pair is closer through the chord.
    let mut g = generators::path(6);
    g.add_edge(0, 5, 9);
    let config = EngineConfig {
        num_procs: 2,
        ..Default::default()
    };
    let mut pair = DeletionPair::new(g, config);
    pair.converge_and_check_oracle();
    let before = pair.bounded.distances_dense();
    let updates = |e: &AnytimeEngine| e.cluster().ledger().phase(Phase::DynamicUpdate).bytes;
    let updated = updates(&pair.bounded);

    let (deleted, resets) = pair.delete_only("delete chord", |e| e.delete_edge(0, 5));
    assert!(deleted && resets.is_empty());
    assert_eq!(pair.bounded.distances_dense(), before);
    assert!(pair.bounded.procs.iter().all(|ps| ps.is_quiescent()));
    let r = pair.bounded.metrics_registry();
    let count = |name: &str| r.counter_value(name, &[("rows", "owned")]);
    // No row lies on the chord's far side: none is asked.
    assert_eq!(count("aa_invalidation_rows_examined_total"), 0);
    assert_eq!(count("aa_invalidation_rows_reset_total"), 0);
    assert_eq!(count("aa_invalidation_entries_reset_total"), 0);
    // No candidate column to decide, nothing raised, nothing to fetch: the
    // two endpoint rows' broadcast, each with its one surviving edge and one
    // transfer between two ranks, is all the update moved.
    assert_eq!(updates(&pair.bounded) - updated, 2 * (4 + 4 * 6 + 8));
    pair.converge_and_check_oracle();
}

/// A 4-cycle `0-1-2-3-0` split 2 | 2. First the local edge 0-1 goes, and
/// row 0 loses `d(0,1)` alone — `d(0,2)`'s two shortest paths are tied at
/// 2, and the one over 3 keeps it. It comes back inside the call, through
/// remote neighbour 3's side of the ring: row 0's kept `d(0,2) = 2` and
/// 1's edge to 2, both on rank 0, so nothing is fetched. Then, on a fresh
/// ring, the cut edge 1-2 goes: the raised columns are remote, and each
/// rank fetches their edges from the other.
#[test]
fn a_distance_lost_to_a_local_deletion_comes_back_through_a_remote_neighbour() {
    let mut g = Graph::with_vertices(4);
    for v in 0..4 {
        g.add_edge(v, (v + 1) % 4, 1);
    }
    let config = EngineConfig {
        num_procs: 2,
        partitioner: PartitionerKind::BfsGrow,
        ..Default::default()
    };
    let build = || {
        let mut e = AnytimeEngine::new(g.clone(), config.clone());
        e.initialize();
        e.run_to_convergence(16);
        e
    };
    let updates = |e: &AnytimeEngine| e.cluster().ledger().phase(Phase::DynamicUpdate).bytes;
    // Each endpoint row is broadcast with its one surviving edge, and each
    // rank all-gathers its decisions on the two candidates it owns as a
    // one-byte bitset.
    let (broadcasts, gather) = (2 * (4 + 4 * 4 + 8), 2);
    let exact = |e: &AnytimeEngine| {
        assert_eq!(e.distances_dense(), algo::apsp_dijkstra(e.graph()));
        for ps in &e.procs {
            assert!(ps.is_quiescent(), "rank {} owes something", ps.rank);
            for &v in ps.dv.vertices() {
                assert!(ps.dv.unsent(v).is_empty(), "row {v} owes a send");
            }
        }
        e.check_invariants().expect("invariants");
    };

    let mut e = build();
    assert_eq!(e.procs[0].dv.vertices(), &[0, 1], "split 2 | 2");
    let updated = updates(&e);
    assert!(e.delete_edge(0, 1));
    // The edge is tight, so B_01 = {1, 2} and B_10 = {0, 3}; the detours
    // 0-3-2 and 1-2-3 leave S_01 = {1} and S_10 = {0}. Rows 0, 1 | 2, 3
    // raised {1}, {0} | -, -: columns rank 0 owns, so no ask and no answer.
    assert_eq!(updates(&e) - updated, broadcasts + gather);
    assert_eq!(e.distances_dense()[0], [0, 3, 2, 1]);
    exact(&e);

    let mut e = build();
    let updated = updates(&e);
    assert!(e.delete_edge(1, 2));
    // B_12 = {2, 3} and B_21 = {1, 0}; the detours 1-0-3 and 2-3-0 leave
    // S_12 = {2} and S_21 = {1}. Row 1 lies in S_21 and row 2 in S_12, row 0
    // in neither: rows 0, 1 | 2, 3 raised -, {2} | {1}, -. Rank 0 asks rank
    // 1 for the edges of 2 as a one-byte bitset, and is answered a 4 B
    // degree and 2's one surviving edge, 8 B; rank 1 asks for 1's alike.
    let fetch = 2 * (1 + 4 + 8);
    assert_eq!(updates(&e) - updated, broadcasts + gather + fetch);
    assert_eq!(e.distances_dense()[1], [1, 0, 3, 2]);
    exact(&e);
}

/// One random call of the deletion property. Additions and steps keep the
/// twins busy between deletions; every deletion starts from the barrier,
/// where they agree again.
fn apply_deletion_op(pair: &mut DeletionPair, kind: u8, a: u32, b: u32, w: Weight) {
    let (u, v) = (live(&pair.bounded, a), live(&pair.bounded, b));
    match kind {
        0..=2 => {
            pair.bounded.rc_step();
            whole_row::whole_row(|| pair.whole.rc_step());
        }
        3 if u != v => {
            pair.both("add_edge", |e| e.add_edge(u, v, w));
        }
        4 => {
            let x = live(&pair.bounded, a.wrapping_add(7));
            let batch = [(u, v, w), (v, x, 1), (u, x, w + 1)];
            let batch: Vec<_> = batch.into_iter().filter(|&(p, q, _)| p != q).collect();
            pair.both("add_edges", |e| e.add_edges(&batch));
        }
        5 => {
            if let Some((x, y, _)) = tight_edge(&pair.bounded, a) {
                pair.delete_only("delete_edge", |e| e.delete_edge(x, y));
            }
        }
        6 => {
            let edges: Vec<_> = pair.bounded.graph().edges().collect();
            if let Some(&(x, y, _)) = edges.get(a as usize % edges.len().max(1)) {
                pair.delete_only("delete_edge", |e| e.delete_edge(x, y));
            }
        }
        7 => {
            let batch = batch_sharing_an_endpoint(&pair.bounded);
            pair.delete_only("delete_edges", |e| e.delete_edges(&batch));
        }
        8 => {
            if let Some((x, y, old)) = tight_edge(&pair.bounded, b) {
                pair.delete_only("weight increase", |e| e.change_edge_weight(x, y, old + w));
            }
        }
        9 if pair.bounded.graph().vertex_count() > 8 => {
            pair.delete_only("delete_vertex", |e| e.delete_vertex(u));
        }
        10 => {
            let batch = scattered_batch(&pair.bounded, a);
            pair.delete_only("delete_edges", |e| e.delete_edges(&batch));
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn bounded_deletion_path_stays_within_whole_row_reference_after_every_call(
        n in 12usize..40,
        graph_seed in 0u64..1000,
        max_weight in prop_oneof![1u32..5, Just(1_000_000)],
        procs in 1usize..5,
        ops in proptest::collection::vec((0u8..11, 0u32..1000, 0u32..1000, 1u32..6), 4..20),
    ) {
        let case = format!(
            "n={n} graph_seed={graph_seed} max_weight={max_weight} procs={procs} ops={ops:?}"
        );
        let run = std::panic::AssertUnwindSafe(|| {
            // Weight 1 everywhere is the tie-heavy end, weights up to 10^6
            // reach the search queue's upper buckets; m = 3n/2 leaves some
            // graphs in pieces, so rows carry `INF` columns.
            let graph = generators::erdos_renyi_gnm(n, 3 * n / 2, max_weight, graph_seed);
            let config = EngineConfig { num_procs: procs, seed: graph_seed, ..Default::default() };
            let mut pair = DeletionPair::new(graph, config);
            for (kind, a, b, w) in ops {
                apply_deletion_op(&mut pair, kind, a, b, w);
            }
            pair.converge_and_check_oracle();
        });
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("failing case: {case}");
            std::panic::resume_unwind(panic);
        }
    }
}
