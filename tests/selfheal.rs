//! Self-healing runtime tests: scheduled fail-stop crashes are *detected* by
//! the heartbeat failure detector (no manual trigger anywhere), recovered
//! through the three-rung ladder — checkpoint restore, SSSP reseed, baseline
//! restart — and the engine reconverges to the exact oracle every time.
//!
//! The cost claim being exercised: each rung of the ladder moves strictly
//! fewer recombination bytes than the next. A checkpoint hands the
//! replacement rank exact rows (one re-flood, no correction rounds); an SSSP
//! reseed hands it local upper bounds that keep improving as boundary rows
//! arrive (re-flood plus correction deltas); a baseline restart re-floods
//! every boundary row of every rank.
//!
//! Every scenario runs on both execution backends (`mod on_sim`,
//! `mod on_threads`): crash suspicion is silence-based and straggler
//! flagging is advisory, so detection, the ladder, and the recovery log must
//! behave identically whether ranks run sequentially in the simulator or on
//! real OS threads.

use aa_core::{
    AdditionStrategy, AnytimeEngine, EngineConfig, FaultConfig, ProcFaultConfig, RankHealth,
    RecoveryMethod, SupervisorConfig, VertexBatch,
};
use aa_graph::{algo, generators};
use aa_logp::Phase;
use aa_runtime::BackendKind;

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

fn supervised_config(
    procs: usize,
    seed: u64,
    supervision: SupervisorConfig,
    backend: BackendKind,
) -> EngineConfig {
    EngineConfig {
        num_procs: procs,
        seed,
        supervision,
        backend,
        threads: threads_for(backend),
        ..Default::default()
    }
}

/// The issue's headline acceptance: a crash scheduled in the fault plan — no
/// manual `recover_rank` call anywhere — fires mid-run, is
/// detected by heartbeat timeout, is recovered from the last valid periodic
/// checkpoint, and the engine converges to the exact oracle.
fn scheduled_crash_detected_and_recovered_via_checkpoint(backend: BackendKind) {
    let g = generators::barabasi_albert(60, 2, 2, 41);
    let mut e = AnytimeEngine::new(
        g,
        EngineConfig {
            num_procs: 4,
            seed: 41,
            proc_fault: Some(ProcFaultConfig {
                crashes: vec![(3, 1)],
                stragglers: vec![],
            }),
            supervision: SupervisorConfig {
                checkpoint_interval: 1,
                detector_timeout: 2,
                ..Default::default()
            },
            backend,
            threads: threads_for(backend),
            ..Default::default()
        },
    );
    e.initialize();
    let steps = e.run_to_convergence(256);
    assert!(e.is_converged(), "no convergence within 256 steps");
    assert!(steps > 3, "the crash must fire mid-run");

    // The supervisor did everything on its own.
    let log = e.recovery_log();
    assert_eq!(log.len(), 1, "exactly one recovery expected");
    assert_eq!(log[0].report.rank, 1);
    assert_eq!(log[0].report.method, RecoveryMethod::CheckpointRestore);
    assert!(log[0].report.restored_rows > 0);
    // Detection needs silence > timeout: crash at 3, last heard at 2,
    // suspicion strictly after step 4.
    assert!(log[0].step > 4, "recovery before the timeout could elapse");

    let health = e.health_report();
    assert!(health.down_ranks.is_empty());
    assert_eq!(health.recoveries, 1);
    assert!(health.statuses.iter().all(|s| *s == RankHealth::Healthy));

    // Recovery work is visible in the ledger under its own phase.
    let recovery = e.cluster().ledger().phase(Phase::Recovery);
    assert!(
        recovery.compute_us > 0.0,
        "recovery compute must be charged"
    );
    let totals = e.cluster().ledger().totals();
    assert!(
        totals.heartbeat_messages > 0,
        "heartbeats must actually flow"
    );

    assert_oracle(&e);
    e.check_invariants().unwrap();
}

/// Runs converge → scheduled crash of rank 1 → recover, and returns the
/// recombination bytes moved from the crash onward. `checkpoint_interval`
/// selects the ladder rung; `restart` instead measures the baseline
/// (detect the crash, then rebuild the whole computation from scratch).
fn crash_recovery_bytes(checkpoint_interval: usize, restart: bool, backend: BackendKind) -> u64 {
    let g = generators::barabasi_albert(60, 2, 2, 77);
    let mut e = AnytimeEngine::new(
        g,
        supervised_config(
            4,
            77,
            SupervisorConfig {
                checkpoint_interval,
                detector_timeout: 2,
                auto_recover: !restart,
                ..Default::default()
            },
            backend,
        ),
    );
    e.initialize();
    e.run_to_convergence(256);
    assert!(e.is_converged());

    let crash_step = e.rc_steps() as u64 + 1;
    e.schedule_crash(crash_step, 1);
    let before = e.cluster().ledger().phase(Phase::Recombination).bytes;

    if restart {
        // Let the detector confirm the crash, then rebuild everything —
        // the papers' baseline strategy, with repaired hardware.
        for _ in 0..16 {
            e.rc_step();
            if e.health_report().statuses[1] == RankHealth::Down {
                break;
            }
        }
        assert_eq!(e.health_report().statuses[1], RankHealth::Down);
        e.cluster_mut().mark_up(1);
        e.add_vertices(&VertexBatch::new(0), AdditionStrategy::BaselineRestart);
    }

    e.run_to_convergence(512);
    assert!(e.is_converged());
    if !restart {
        let log = e.recovery_log();
        assert_eq!(log.len(), 1);
        let expected = if checkpoint_interval > 0 {
            RecoveryMethod::CheckpointRestore
        } else {
            RecoveryMethod::SsspReseed
        };
        assert_eq!(log[0].report.method, expected);
    }
    assert_oracle(&e);
    e.check_invariants().unwrap();
    e.cluster().ledger().phase(Phase::Recombination).bytes - before
}

/// The issue's cost acceptance: checkpoint-assisted recovery moves strictly
/// fewer recombination bytes than SSSP-reseed recovery, which moves strictly
/// fewer than a baseline restart.
fn recovery_ladder_byte_ordering(backend: BackendKind) {
    let checkpoint = crash_recovery_bytes(1, false, backend);
    let reseed = crash_recovery_bytes(0, false, backend);
    let restart = crash_recovery_bytes(0, true, backend);
    assert!(
        checkpoint < reseed,
        "checkpoint restore ({checkpoint} B) must move fewer recombination \
         bytes than SSSP reseed ({reseed} B)"
    );
    assert!(
        reseed < restart,
        "SSSP reseed ({reseed} B) must move fewer recombination bytes than \
         baseline restart ({restart} B)"
    );
}

/// Converges with periodic checkpoints, corrupts rank 1's stored checkpoint
/// with `mutate`, crashes rank 1 — recovery must detect the damage (CRC or
/// framing) and fall back to the SSSP reseed, still reaching the oracle.
fn corrupt_and_recover(backend: BackendKind, mutate: impl FnOnce(&mut Vec<u8>)) {
    let g = generators::barabasi_albert(50, 2, 1, 53);
    let mut e = AnytimeEngine::new(
        g,
        supervised_config(
            4,
            53,
            SupervisorConfig {
                checkpoint_interval: 1,
                detector_timeout: 2,
                ..Default::default()
            },
            backend,
        ),
    );
    e.initialize();
    e.run_to_convergence(256);
    assert!(e.is_converged());
    assert!(e.has_rank_checkpoint(1));

    mutate(e.rank_checkpoint_mut(1).expect("checkpoint present"));
    let crash_step = e.rc_steps() as u64 + 1;
    e.schedule_crash(crash_step, 1);
    e.run_to_convergence(512);
    assert!(e.is_converged());

    let log = e.recovery_log();
    assert_eq!(log.len(), 1);
    assert_eq!(
        log[0].report.method,
        RecoveryMethod::SsspReseed,
        "a damaged checkpoint must not be trusted"
    );
    assert_eq!(log[0].report.restored_rows, 0);
    assert!(log[0].report.reseeded_rows > 0);
    assert_oracle(&e);
    e.check_invariants().unwrap();
}

fn bit_flipped_checkpoint_falls_back_to_reseed(backend: BackendKind) {
    // Flip one payload bit: the CRC32 footer must reject the blob.
    corrupt_and_recover(backend, |blob| {
        let mid = blob.len() / 2;
        blob[mid] ^= 0x10;
    });
}

fn truncated_checkpoint_falls_back_to_reseed(backend: BackendKind) {
    // Cut the blob short: framing must reject it before any row is read.
    corrupt_and_recover(backend, |blob| {
        let half = blob.len() / 2;
        blob.truncate(half);
    });
}

/// A checkpoint taken before a deletion describes distances the deletion may
/// have invalidated (rows are only guaranteed upper bounds for the graph
/// they were computed on). Recovery must notice the epoch mismatch and
/// reseed instead of restoring.
fn stale_epoch_checkpoint_falls_back_to_reseed(backend: BackendKind) {
    let g = generators::barabasi_albert(50, 2, 1, 67);
    let mut e = AnytimeEngine::new(
        g,
        supervised_config(
            4,
            67,
            SupervisorConfig {
                checkpoint_interval: 1,
                detector_timeout: 2,
                ..Default::default()
            },
            backend,
        ),
    );
    e.initialize();
    e.run_to_convergence(256);
    assert!(e.is_converged());
    assert_eq!(e.invalidation_epoch(), 0);

    // The deletion bumps the invalidation epoch; every stored checkpoint is
    // now from a previous epoch.
    let (u, v) = {
        let g = e.graph();
        let u = g.vertices().next().unwrap();
        let v = g.neighbors(u).first().unwrap().0;
        (u, v)
    };
    e.delete_edge(u, v);
    assert_eq!(e.invalidation_epoch(), 1);

    let crash_step = e.rc_steps() as u64 + 1;
    e.schedule_crash(crash_step, 1);
    e.run_to_convergence(512);
    assert!(e.is_converged());

    let log = e.recovery_log();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].report.method, RecoveryMethod::SsspReseed);
    assert_oracle(&e);
    e.check_invariants().unwrap();
}

/// With automatic recovery off, a detected crash degrades gracefully: the
/// engine keeps answering closeness queries, flagging exactly the down
/// rank's vertices as stale, until a manual recovery is requested.
fn down_rank_degrades_gracefully_with_stale_flags(backend: BackendKind) {
    let g = generators::barabasi_albert(50, 2, 1, 29);
    let mut e = AnytimeEngine::new(
        g,
        supervised_config(
            4,
            29,
            SupervisorConfig {
                detector_timeout: 2,
                auto_recover: false,
                ..Default::default()
            },
            backend,
        ),
    );
    e.initialize();
    e.run_to_convergence(256);
    assert!(e.is_converged());

    let crash_step = e.rc_steps() as u64 + 1;
    e.schedule_crash(crash_step, 1);
    for _ in 0..16 {
        e.rc_step();
        if e.health_report().statuses[1] == RankHealth::Down {
            break;
        }
    }
    let health = e.health_report();
    assert_eq!(health.statuses[1], RankHealth::Down);
    assert_eq!(health.down_ranks, vec![1]);
    assert_eq!(health.recoveries, 0, "auto_recover off must not recover");

    // Queries still work; exactly rank 1's vertices are flagged stale.
    let owned: Vec<u32> = e.partition().members()[1].clone();
    assert!(!owned.is_empty());
    let snap = e.snapshot();
    assert!(snap.any_stale());
    for v in e.graph().vertices() {
        let expected = owned.contains(&v);
        assert_eq!(
            snap.stale[v as usize], expected,
            "stale flag wrong for vertex {v}"
        );
    }
    // Surviving ranks' scores are still the pre-crash exact values.
    let oracle = algo::exact_closeness(e.graph());
    for v in e.graph().vertices() {
        if !snap.stale[v as usize] {
            assert!((snap.closeness[v as usize] - oracle[v as usize]).abs() < 1e-12);
        }
    }

    // Manual recovery (the `auto_recover: false` workflow) heals the cluster.
    let report = e.recover_rank(1).unwrap();
    assert_eq!(report.method, RecoveryMethod::SsspReseed);
    e.run_to_convergence(256);
    assert!(e.is_converged());
    assert!(!e.snapshot().any_stale());
    assert_oracle(&e);
    e.check_invariants().unwrap();
}

/// An injected straggler slows down but never corrupts: the detector flags
/// it in the health report while the answer stays oracle-exact.
fn straggler_is_flagged_but_harmless(backend: BackendKind) {
    let g = generators::barabasi_albert(80, 2, 2, 59);
    let mut e = AnytimeEngine::new(
        g,
        EngineConfig {
            num_procs: 4,
            seed: 59,
            proc_fault: Some(ProcFaultConfig {
                crashes: vec![],
                stragglers: vec![(2, 10_000.0)],
            }),
            backend,
            threads: threads_for(backend),
            ..Default::default()
        },
    );
    e.initialize();
    // Step past the patience window; rc_step keeps running (and keeps
    // feeding the detector) even after convergence.
    for _ in 0..12 {
        e.rc_step();
    }
    let health = e.health_report();
    assert_eq!(health.statuses[2], RankHealth::Straggling);
    assert_eq!(health.stragglers, vec![2]);
    assert!(health.down_ranks.is_empty());

    assert!(e.is_converged());
    assert_oracle(&e);

    // Clearing the fault heals the flag after the streak resets.
    e.set_straggler(2, 1.0);
    for _ in 0..4 {
        e.rc_step();
    }
    assert_eq!(e.health_report().statuses[2], RankHealth::Healthy);
    e.check_invariants().unwrap();
}

/// Crash detection and checkpoint recovery compose with lossy links: the
/// heartbeats ride the same faulty network, yet a real crash is still told
/// apart from dropped heartbeats and the engine reconverges exactly.
fn scheduled_crash_composes_with_chaos_links(backend: BackendKind) {
    let g = generators::barabasi_albert(50, 2, 2, 83);
    let mut e = AnytimeEngine::new(
        g,
        EngineConfig {
            num_procs: 4,
            seed: 83,
            fault: Some(FaultConfig {
                p_drop: 0.2,
                p_dup: 0.1,
                reorder: true,
                seed: 83 ^ 0xC4A05,
            }),
            proc_fault: Some(ProcFaultConfig {
                crashes: vec![(4, 2)],
                stragglers: vec![],
            }),
            supervision: SupervisorConfig {
                checkpoint_interval: 2,
                ..Default::default()
            },
            backend,
            threads: threads_for(backend),
            ..Default::default()
        },
    );
    e.initialize();
    e.run_to_convergence(4000);
    assert!(e.is_converged());
    assert_eq!(e.outstanding_rows(), 0);

    let log = e.recovery_log();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].report.rank, 2);
    assert!(e.cluster().ledger().totals().dropped_messages > 0);
    assert_oracle(&e);
    e.check_invariants().unwrap();
}

/// Processor faults are seeded and replayable: two runs with the same
/// schedule produce identical traffic counters, recovery logs and distances.
fn self_healing_is_deterministic(backend: BackendKind) {
    let run = || {
        let g = generators::barabasi_albert(50, 2, 1, 31);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 4,
                seed: 31,
                proc_fault: Some(ProcFaultConfig {
                    crashes: vec![(3, 1)],
                    stragglers: vec![],
                }),
                supervision: SupervisorConfig {
                    checkpoint_interval: 1,
                    detector_timeout: 2,
                    ..Default::default()
                },
                backend,
                threads: threads_for(backend),
                ..Default::default()
            },
        );
        e.initialize();
        e.run_to_convergence(256);
        assert!(e.is_converged());
        let t = e.cluster().ledger().totals();
        let log: Vec<(u64, usize)> = e
            .recovery_log()
            .iter()
            .map(|ev| (ev.step, ev.report.rank))
            .collect();
        (
            (t.messages, t.bytes, t.heartbeat_messages),
            log,
            e.distances_dense(),
        )
    };
    let (t1, l1, d1) = run();
    let (t2, l2, d2) = run();
    assert_eq!(t1, t2, "same schedule must replay the same traffic");
    assert_eq!(l1, l2, "same schedule must replay the same recoveries");
    assert_eq!(d1, d2);
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
        fn down_rank_degrades_gracefully_with_stale_flags() {
            super::down_rank_degrades_gracefully_with_stale_flags($backend);
        }

        #[test]
        fn straggler_is_flagged_but_harmless() {
            super::straggler_is_flagged_but_harmless($backend);
        }

        #[test]
        fn scheduled_crash_composes_with_chaos_links() {
            super::scheduled_crash_composes_with_chaos_links($backend);
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

/// The identical scenarios on real OS threads: silence-based detection and
/// the recovery ladder must behave exactly as they do on the simulator.
mod on_threads {
    backend_tests!(aa_runtime::BackendKind::Threads);
}
