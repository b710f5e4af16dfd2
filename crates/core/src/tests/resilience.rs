//! Restart after process death — the engine's one failure model.
//!
//! The process holding the cluster dies, and all that survives is the last
//! whole-engine checkpoint (`checkpoint.rs`). The replacement process
//! restores it and re-applies the updates logged since (in a deployment,
//! `aa-durable`'s WAL replay does this). Restore marks every row dirty and
//! sends full rows on the first exchange, so ordinary recombination steps
//! reconverge from the restored rows; nothing is recomputed from scratch.
//!
//! Each test crashes at one of the points where a failure is hardest to
//! absorb — mid-analysis, between a dynamic update and its reconvergence,
//! over and over — and holds the restart to the oracle and to the process
//! that never died. The format itself (round trips, framing, corruption,
//! another processor count) is `checkpoint.rs`'s to test.

mod tests {
    use crate::config::EngineConfig;
    use crate::dynamic::{Endpoint, VertexBatch};
    use crate::strategy::AdditionStrategy;
    use crate::AnytimeEngine;
    use aa_graph::{algo, generators, VertexId};
    use std::io;

    fn engine(n: usize, p: usize, seed: u64) -> AnytimeEngine {
        let g = generators::barabasi_albert(n, 2, 2, seed);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: p,
                seed,
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

    fn checkpoint(e: &AnytimeEngine) -> Vec<u8> {
        let mut bytes = Vec::new();
        e.save_checkpoint(&mut bytes).unwrap();
        bytes
    }

    /// The replacement process: everything it knows comes from `bytes`.
    fn restart(bytes: &[u8], config: &EngineConfig) -> io::Result<AnytimeEngine> {
        AnytimeEngine::restore_checkpoint(&mut &bytes[..], config.clone())
    }

    /// The first pair of distinct live vertices after `from` with no edge
    /// between them.
    fn absent_pair(e: &AnytimeEngine, from: usize) -> (VertexId, VertexId) {
        let ids: Vec<VertexId> = e.graph().vertices().collect();
        for i in from..from + ids.len() {
            let u = ids[i % ids.len()];
            for &v in &ids {
                if u != v && e.graph().edge_weight(u, v).is_none() {
                    return (u, v);
                }
            }
        }
        panic!("complete graph")
    }

    #[test]
    fn recovery_restores_exactness() {
        let mut live = engine(80, 4, 3);
        live.run_to_convergence(64);
        let bytes = checkpoint(&live);
        let at_checkpoint = live.distances_dense();

        // Work done after the checkpoint dies with the process.
        let (u, v) = absent_pair(&live, 5);
        let (a, b, _) = live.graph().edges().nth(17).unwrap();
        assert!(live.add_edge(u, v, 1));
        assert!(live.delete_edge(a, b));
        live.rc_step();

        let mut e = restart(&bytes, live.config()).unwrap();
        assert_eq!(e.distances_dense(), at_checkpoint, "restore is exact");
        assert!(e.add_edge(u, v, 1));
        assert!(e.delete_edge(a, b));
        assert!(!e.is_converged());
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
        e.check_invariants().unwrap();

        live.run_to_convergence(64);
        assert_eq!(e.distances_dense(), live.distances_dense());
    }

    #[test]
    fn recovery_mid_run_still_converges() {
        // Crash before the static analysis finished, at every step of it.
        for steps in 0..4 {
            let mut e = engine(70, 4, 5);
            for _ in 0..steps {
                e.rc_step();
            }
            let mut r = restart(&checkpoint(&e), e.config()).unwrap();
            assert_eq!(r.is_converged(), e.is_converged(), "after {steps} steps");
            assert_eq!(r.rc_steps(), e.rc_steps());
            r.run_to_convergence(64);
            assert!(r.is_converged(), "after {steps} steps");
            assert_oracle(&r);
        }
    }

    #[test]
    fn cascading_failures_survive() {
        let mut e = engine(60, 4, 7);
        e.run_to_convergence(64);
        // Five deaths in a row, each before the previous update settled:
        // every restart starts from a restart's rows.
        for round in 0..5 {
            let (u, v) = absent_pair(&e, 3 * round);
            assert!(e.add_edge(u, v, 1 + round as u32));
            e.rc_step();
            let bytes = checkpoint(&e);
            let before = e.distances_dense();
            e = restart(&bytes, e.config()).unwrap();
            assert_eq!(e.distances_dense(), before, "round {round}");
            e.rc_step();
        }
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
        e.check_invariants().unwrap();
    }

    #[test]
    fn failure_interleaved_with_dynamic_updates() {
        let mut live = engine(60, 4, 9);
        live.run_to_convergence(64);
        let bytes = checkpoint(&live);

        let mut batch = VertexBatch::new(3);
        batch.connect(0, Endpoint::Existing(5), 1);
        batch.connect(1, Endpoint::New(0), 1);
        batch.connect(2, Endpoint::Existing(10), 2);
        let ids = live.add_vertices(&batch, AdditionStrategy::CutEdgePs);
        live.rc_step();

        // The process dies between the vertex batch and its reconvergence;
        // the restart replays the batch, which gets the same ids.
        let mut e = restart(&bytes, live.config()).unwrap();
        assert_eq!(e.add_vertices(&batch, AdditionStrategy::CutEdgePs), ids);
        e.rc_step();
        assert!(e.add_edge(0, 40, 1));
        e.run_to_convergence(96);
        assert!(e.is_converged());
        assert_oracle(&e);
        e.check_invariants().unwrap();

        assert!(live.add_edge(0, 40, 1));
        live.run_to_convergence(96);
        assert_eq!(e.distances_dense(), live.distances_dense());
    }

    #[test]
    fn recovery_is_cheaper_than_restart() {
        // After a death, restoring the checkpoint re-sends each boundary row
        // once and then corrects only what the replayed update changed; a
        // restart from the graph re-runs the whole analysis.
        let mut live = engine(100, 4, 11);
        live.run_to_convergence(64);
        let bytes = checkpoint(&live);
        let (u, v) = absent_pair(&live, 20);

        let mut recovered = restart(&bytes, live.config()).unwrap();
        assert!(recovered.add_edge(u, v, 1));
        recovered.run_to_convergence(64);
        assert!(recovered.is_converged());
        assert_oracle(&recovered);
        let recovery_bytes = recovered.cluster().ledger().totals().bytes;

        let mut restarted = AnytimeEngine::new(recovered.graph().clone(), live.config().clone());
        restarted.initialize();
        restarted.run_to_convergence(64);
        assert!(restarted.is_converged());
        let restart_bytes = restarted.cluster().ledger().totals().bytes;

        assert!(recovery_bytes > 0, "the restored rows must be re-sent");
        assert!(
            recovery_bytes < restart_bytes,
            "recovery ({recovery_bytes} B) must move fewer bytes than a restart ({restart_bytes} B)"
        );
        assert_eq!(recovered.distances_dense(), restarted.distances_dense());
    }

    #[test]
    fn invalid_rank_rejected() {
        // A checkpoint whose partition names a rank the cluster does not
        // have, or the wrong one for a row it holds, is refused on restart.
        // The body is re-framed so that only the rank, not the checksum, is
        // wrong. (Another processor count: `garbage_and_mismatches_rejected`.)
        let mut e = engine(20, 2, 13);
        e.run_to_convergence(64);
        let bytes = checkpoint(&e);
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let body = crate::checkpoint::read_framed(&bytes, b"AACP", version).unwrap();
        let cap = e.graph().capacity();
        let assignment_at = 8 + 4 + 4 + 8 + 8 + cap + 8 + 12 * e.graph().edge_count();
        let v = e.graph().vertices().next().unwrap();
        let slot = assignment_at + 4 * v as usize;
        let owner = e.partition().part_of(v).unwrap() as u32;
        assert_eq!(body[slot..slot + 4], owner.to_le_bytes());
        for (rank, why) in [(5u32, "invalid part 5"), (1 - owner, "wrong processor")] {
            let mut bad = body.to_vec();
            bad[slot..slot + 4].copy_from_slice(&rank.to_le_bytes());
            let reframed = crate::checkpoint::write_framed(b"AACP", version, &bad);
            let err = restart(&reframed, e.config()).map(|_| ()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "rank {rank}: {err}");
            assert!(err.to_string().contains(why), "rank {rank}: {err}");
        }
    }

    #[test]
    fn uninitialized_engine_rejected() {
        let g = generators::barabasi_albert(20, 2, 2, 13);
        let e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 2,
                ..Default::default()
            },
        );
        // There is no analysis state to survive a death yet: the checkpoint
        // is refused before a byte is written.
        let mut bytes = Vec::new();
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.save_checkpoint(&mut bytes)
        }));
        assert!(refused.is_err(), "an uninitialized engine was checkpointed");
        assert!(
            bytes.is_empty(),
            "{} bytes written before the refusal",
            bytes.len()
        );
    }
}
