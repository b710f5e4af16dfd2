//! Lossy-link chaos tests: the engine must converge to the *exact* oracle
//! distances even when the simulated network drops, duplicates and reorders
//! recombination transfers — and must never report convergence while rows are
//! still in flight.
//!
//! The correctness argument being exercised: distance rows are monotone upper
//! bounds and min-merge is idempotent, so at-least-once delivery suffices
//! (duplicates are harmless). The ack-based retransmission layer turns the
//! lossy network into at-least-once delivery, and `is_converged()` stays
//! false while any row is unacknowledged.
//!
//! Every scenario runs on both execution backends (`mod on_sim`,
//! `mod on_threads`): the deterministic simulator is the oracle, and the
//! threaded backend must survive the identical chaos with the identical
//! outcome — per-link fault streams are keyed by (seed, link, count), so the
//! schedule is the same no matter which backend judges it.

use aa_core::{
    AdditionStrategy, AnytimeEngine, Endpoint, EngineConfig, FaultConfig, ProcFaultConfig,
    SupervisorConfig, VertexBatch,
};
use aa_graph::{algo, generators, Graph};
use aa_runtime::BackendKind;
use proptest::prelude::*;

/// Worker cap used for the threaded backend in these tests: fewer workers
/// than ranks, so lane multiplexing is exercised too.
fn threads_for(backend: BackendKind) -> usize {
    match backend {
        BackendKind::Sim => 0,
        BackendKind::Threads => 3,
    }
}

fn faulty_engine(
    g: Graph,
    procs: usize,
    seed: u64,
    p_drop: f64,
    p_dup: f64,
    backend: BackendKind,
) -> AnytimeEngine {
    let mut e = AnytimeEngine::new(
        g,
        EngineConfig {
            num_procs: procs,
            seed,
            fault: Some(FaultConfig {
                p_drop,
                p_dup,
                reorder: true,
                seed: seed ^ 0xC4A05,
            }),
            backend,
            threads: threads_for(backend),
            ..Default::default()
        },
    );
    e.initialize();
    e
}

fn assert_oracle(e: &AnytimeEngine) {
    let dense = e.distances_dense();
    let oracle = algo::apsp_dijkstra(e.graph());
    for v in e.graph().vertices() {
        assert_eq!(dense[v as usize], oracle[v as usize], "row {v}");
    }
}

/// Steps to convergence by hand, checking at every step that the engine never
/// claims convergence while retransmissions are outstanding. Returns the step
/// count.
fn converge_checked(e: &mut AnytimeEngine, cap: usize) -> usize {
    for step in 1..=cap {
        e.rc_step();
        if e.is_converged() {
            assert_eq!(
                e.outstanding_rows(),
                0,
                "is_converged() must imply nothing is in flight"
            );
            return step;
        }
    }
    panic!(
        "no convergence within {cap} steps ({} rows still outstanding)",
        e.outstanding_rows()
    );
}

fn fixed_drop_rates_reach_the_oracle_exactly(backend: BackendKind) {
    // The acceptance table from the issue: drop rates up to 0.5, with
    // duplication and reordering on, all converge to the exact oracle.
    for &(p_drop, p_dup) in &[(0.1, 0.05), (0.3, 0.1), (0.5, 0.2)] {
        let g = generators::barabasi_albert(60, 2, 2, 11);
        let mut e = faulty_engine(g, 4, 11, p_drop, p_dup, backend);
        converge_checked(&mut e, 4000);
        assert_oracle(&e);
        e.check_invariants().unwrap();
        let totals = e.cluster().ledger().totals();
        assert!(
            totals.dropped_messages > 0,
            "p_drop {p_drop} should actually drop transfers"
        );
        assert!(
            totals.dup_messages > 0,
            "p_dup {p_dup} should actually duplicate transfers"
        );
        assert!(totals.dropped_bytes <= totals.bytes);
    }
}

fn chaos_is_deterministic_per_seed(backend: BackendKind) {
    // compute_ms is measured wall time, so compare only the deterministic
    // traffic counters.
    let run = || {
        let g = generators::barabasi_albert(50, 2, 1, 3);
        let mut e = faulty_engine(g, 3, 3, 0.3, 0.1, backend);
        e.run_to_convergence(4000);
        assert!(e.is_converged());
        let t = e.cluster().ledger().totals();
        (
            (
                t.messages,
                t.bytes,
                t.dropped_messages,
                t.dropped_bytes,
                t.dup_messages,
                t.dup_bytes,
            ),
            e.distances_dense(),
        )
    };
    let (t1, d1) = run();
    let (t2, d2) = run();
    assert_eq!(t1, t2, "same seeds must replay the same faults");
    assert_eq!(d1, d2);
}

fn zero_rate_fault_plan_changes_nothing(backend: BackendKind) {
    // A configured-but-silent fault plan must be byte-for-byte identical to no
    // plan at all: same ledger totals, same distances, zero fault counters.
    let mk = |fault: Option<FaultConfig>| {
        let g = generators::barabasi_albert(50, 2, 2, 9);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 4,
                seed: 9,
                fault,
                backend,
                threads: threads_for(backend),
                ..Default::default()
            },
        );
        e.initialize();
        e.run_to_convergence(256);
        assert!(e.is_converged());
        e
    };
    let plain = mk(None);
    let silent = mk(Some(FaultConfig {
        p_drop: 0.0,
        p_dup: 0.0,
        ..Default::default()
    }));
    let (tp, ts) = (
        plain.cluster().ledger().totals(),
        silent.cluster().ledger().totals(),
    );
    // compute_ms is measured wall time; everything else must match exactly.
    assert_eq!(
        tp.messages, ts.messages,
        "zero-fault path must be unchanged"
    );
    assert_eq!(tp.bytes, ts.bytes, "zero-fault path must be unchanged");
    assert_eq!(ts.dropped_messages, 0);
    assert_eq!(ts.dropped_bytes, 0);
    assert_eq!(ts.dup_messages, 0);
    assert_eq!(ts.dup_bytes, 0);
    assert_eq!(plain.distances_dense(), silent.distances_dense());
}

fn dynamic_updates_survive_lossy_links(backend: BackendKind) {
    let g = generators::barabasi_albert(50, 2, 1, 17);
    let mut e = faulty_engine(g, 4, 17, 0.3, 0.1, backend);
    converge_checked(&mut e, 4000);

    e.add_edge(0, 40, 1);
    converge_checked(&mut e, 4000);
    assert_oracle(&e);

    let mut batch = VertexBatch::new(2);
    batch.connect(0, Endpoint::Existing(5), 1);
    batch.connect(1, Endpoint::New(0), 2);
    e.add_vertices(&batch, AdditionStrategy::CutEdgePs);
    converge_checked(&mut e, 4000);
    assert_oracle(&e);

    // The deletion barrier quiesces the lossy network (draining every
    // outstanding retransmit) before the invalidation runs.
    e.delete_edge(0, 40);
    converge_checked(&mut e, 4000);
    assert_oracle(&e);
    e.check_invariants().unwrap();
}

fn crash_recovery_composes_with_lossy_links(backend: BackendKind) {
    let g = generators::barabasi_albert(50, 2, 2, 23);
    let mut e = faulty_engine(g, 4, 23, 0.2, 0.1, backend);
    converge_checked(&mut e, 4000);
    e.recover_rank(1).unwrap();
    converge_checked(&mut e, 4000);
    assert_oracle(&e);
    e.check_invariants().unwrap();
}

/// Every chaos scenario on the deterministic simulator (the oracle).
mod on_sim {
    use super::*;

    #[test]
    fn fixed_drop_rates_reach_the_oracle_exactly() {
        super::fixed_drop_rates_reach_the_oracle_exactly(BackendKind::Sim);
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        super::chaos_is_deterministic_per_seed(BackendKind::Sim);
    }

    #[test]
    fn zero_rate_fault_plan_changes_nothing() {
        super::zero_rate_fault_plan_changes_nothing(BackendKind::Sim);
    }

    #[test]
    fn dynamic_updates_survive_lossy_links() {
        super::dynamic_updates_survive_lossy_links(BackendKind::Sim);
    }

    #[test]
    fn crash_recovery_composes_with_lossy_links() {
        super::crash_recovery_composes_with_lossy_links(BackendKind::Sim);
    }
}

/// The identical scenarios on real OS threads: same seeds, same chaos, same
/// exact outcome required.
mod on_threads {
    use super::*;

    #[test]
    fn fixed_drop_rates_reach_the_oracle_exactly() {
        super::fixed_drop_rates_reach_the_oracle_exactly(BackendKind::Threads);
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        super::chaos_is_deterministic_per_seed(BackendKind::Threads);
    }

    #[test]
    fn zero_rate_fault_plan_changes_nothing() {
        super::zero_rate_fault_plan_changes_nothing(BackendKind::Threads);
    }

    #[test]
    fn dynamic_updates_survive_lossy_links() {
        super::dynamic_updates_survive_lossy_links(BackendKind::Threads);
    }

    #[test]
    fn crash_recovery_composes_with_lossy_links() {
        super::crash_recovery_composes_with_lossy_links(BackendKind::Threads);
    }
}

/// The determinism regression the threaded backend is held to (ISSUE 9): the
/// same seed at 8 worker threads under drop 0.2 plus one scheduled crash must
/// reproduce bit-identical snapshots and an identical metrics ledger across
/// runs — thread scheduling may reorder *execution*, never *results*.
/// Measured wall time (`compute_us`, makespan) is the one sanctioned
/// exception and is excluded from the comparison.
#[test]
fn threaded_backend_is_deterministic_across_runs() {
    let run = || {
        let g = generators::barabasi_albert(60, 2, 2, 47);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 8,
                seed: 47,
                backend: BackendKind::Threads,
                threads: 8,
                fault: Some(FaultConfig {
                    p_drop: 0.2,
                    p_dup: 0.05,
                    reorder: true,
                    seed: 47 ^ 0xC4A05,
                }),
                proc_fault: Some(ProcFaultConfig {
                    crashes: vec![(3, 1)],
                    stragglers: vec![],
                }),
                supervision: SupervisorConfig {
                    checkpoint_interval: 1,
                    detector_timeout: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        e.initialize();
        e.run_to_convergence(4000);
        assert!(e.is_converged());
        let t = e.cluster().ledger().totals();
        let snap = e.snapshot();
        let recoveries: Vec<(u64, usize, String, usize)> = e
            .recovery_log()
            .iter()
            .map(|ev| {
                (
                    ev.step,
                    ev.report.rank,
                    ev.report.method.to_string(),
                    ev.report.restored_rows,
                )
            })
            .collect();
        (
            (
                t.messages,
                t.bytes,
                t.dropped_messages,
                t.dropped_bytes,
                t.dup_messages,
                t.dup_bytes,
                t.heartbeat_messages,
            ),
            recoveries,
            snap.closeness,
            snap.stale,
            e.distances_dense(),
        )
    };
    let (t1, r1, c1, s1, d1) = run();
    let (t2, r2, c2, s2, d2) = run();
    assert_eq!(t1, t2, "ledger counters must replay identically");
    assert_eq!(r1, r2, "recovery log must replay identically");
    assert_eq!(c1, c2, "closeness snapshot must be bit-identical");
    assert_eq!(s1, s2, "stale flags must be identical");
    assert_eq!(d1, d2, "distance rows must be identical");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random graphs, processor counts, seeds and fault rates up to the
    /// issue's 0.5 ceiling: convergence is always exact, and convergence is
    /// never declared with data in flight.
    #[test]
    fn lossy_links_never_break_exactness(
        n in 8usize..40,
        procs in 2usize..5,
        seed in 0u64..1000,
        p_drop in 0.05f64..0.5,
        p_dup in 0.0f64..0.3,
    ) {
        let g = generators::barabasi_albert(n, 2, 1, seed);
        let mut e = faulty_engine(g, procs, seed, p_drop, p_dup, BackendKind::Sim);
        for step in 1..=6000usize {
            e.rc_step();
            if e.is_converged() {
                prop_assert_eq!(e.outstanding_rows(), 0);
                break;
            }
            prop_assert!(step < 6000, "no convergence within 6000 steps");
        }
        prop_assert!(e.is_converged());
        let dense = e.distances_dense();
        let oracle = algo::apsp_dijkstra(e.graph());
        for v in e.graph().vertices() {
            prop_assert_eq!(dense[v as usize], oracle[v as usize], "row {}", v);
        }
        e.check_invariants().unwrap();
    }
}
