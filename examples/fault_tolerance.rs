//! Fault tolerance in the cloud — the papers' named future work, demonstrated:
//! processors crash mid-analysis and are replaced; the anytime recovery
//! protocol reuses every surviving partial result instead of restarting; a
//! periodic checkpoint bounds the damage of a whole-cluster loss; and lossy
//! links (dropped, duplicated, reordered transfers) are absorbed by ack-based
//! retransmission without giving up exactness.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use aa_core::{AnytimeEngine, EngineConfig};
use aa_graph::{algo, generators};

fn main() {
    let graph = generators::barabasi_albert(600, 2, 1, 99);
    let exact = algo::exact_closeness(&graph);
    let mut engine = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: 8,
            ..Default::default()
        },
    );
    engine.initialize();
    engine.run_to_convergence(64);
    println!(
        "static analysis converged: {} vertices, cluster time {:.1} ms",
        engine.graph().vertex_count(),
        engine.makespan_us() / 1000.0
    );

    // Periodic checkpoint (whole-cluster insurance).
    let mut checkpoint = Vec::new();
    engine.save_checkpoint(&mut checkpoint).unwrap();
    println!("checkpoint taken: {} KiB", checkpoint.len() / 1024);

    // A node dies. Recovery reuses all surviving distance vectors.
    let before = engine.cluster().ledger().totals().bytes;
    let report = engine.recover_rank(3).unwrap();
    let steps = engine.run_to_convergence(64);
    let recovery_bytes = engine.cluster().ledger().totals().bytes - before;
    println!(
        "processor 3 crashed: {} rows reseeded locally, {} boundary rows re-flooded, \
         exact again after {steps} RC steps ({} KiB moved)",
        report.reseeded_rows,
        report.resent_rows,
        recovery_bytes / 1024
    );

    // Verify exactness post-recovery.
    let snap = engine.snapshot();
    assert!(snap.mean_abs_error(&exact) < 1e-15);
    println!("post-recovery closeness matches the oracle exactly ✓");

    // Cascading failures while updates keep arriving.
    engine.add_edge(0, 500, 1);
    engine.recover_rank(0).unwrap();
    engine.rc_step();
    engine.recover_rank(7).unwrap();
    engine.run_to_convergence(96);
    let snap = engine.snapshot();
    let exact_now = algo::exact_closeness(engine.graph());
    assert!(snap.mean_abs_error(&exact_now) < 1e-15);
    println!("two more crashes interleaved with an edge addition: still exact ✓");

    // Whole-cluster loss: restore the checkpoint and replay what followed.
    let mut restored =
        AnytimeEngine::restore_checkpoint(&mut checkpoint.as_slice(), engine.config().clone())
            .unwrap();
    restored.add_edge(0, 500, 1); // replay the post-checkpoint update
    restored.run_to_convergence(96);
    assert_eq!(restored.distances_dense(), engine.distances_dense());
    println!("whole-cluster restore + replay reproduces the live state bit-for-bit ✓");

    // Lossy links: every third transfer dropped, one in ten duplicated, all
    // inboxes reordered — composed with yet another crash for good measure.
    engine.set_chaos(0.3, 0.1);
    engine.add_edge(1, 400, 2);
    engine.recover_rank(5).unwrap();
    let steps = engine.run_to_convergence(4000);
    assert_eq!(engine.outstanding_rows(), 0);
    let totals = engine.cluster().ledger().totals();
    let exact_now = algo::exact_closeness(engine.graph());
    assert!(engine.snapshot().mean_abs_error(&exact_now) < 1e-15);
    println!(
        "lossy links (p_drop 0.3, p_dup 0.1) + one more crash: {} transfers dropped, \
         {} duplicated, reconverged exactly in {steps} RC steps ✓",
        totals.dropped_messages, totals.dup_messages
    );
    engine.set_chaos(0.0, 0.0);
    println!(
        "\ntotal cluster time {:.1} ms across {} RC steps, ledger:\n{}",
        engine.makespan_us() / 1000.0,
        engine.rc_steps(),
        engine.cluster().ledger().report()
    );
}
