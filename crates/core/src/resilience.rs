//! Processor-failure injection and anytime recovery — the papers' second
//! named future-work item ("investigate anytime anywhere methodologies to
//! handle issues such as fault tolerance in the cloud").
//!
//! The failure model is a cloud-style node replacement: one virtual
//! processor loses its entire state (distance vectors, caches, delta
//! baselines) and is replaced by a blank node with the same rank and the same
//! sub-graph assignment. Recovery leans on the anytime property instead of a
//! global restart:
//!
//! 1. the replacement rebuilds its sub-graph view and its rows, from its
//!    last checkpoint or from local SSSP (the initial-approximation step, but
//!    only for one rank);
//! 2. every *surviving* processor forgets the failed rank in its delta
//!    baselines (the replacement's caches are gone, so deltas would
//!    under-inform it) and marks its rows that border the failed rank dirty,
//!    forcing full boundary rows to flow back in;
//! 3. ordinary recombination steps reconverge — surviving partial results are
//!    reused untouched.

use crate::engine::AnytimeEngine;
use aa_graph::{VertexId, Weight, INF};
use aa_logp::Phase;
use aa_obs::Stopwatch;

/// Why a recovery request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// The engine has not been initialized yet — call `initialize()` first.
    NotInitialized,
    /// The rank does not exist on this cluster.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// How many processors the cluster actually has.
        num_procs: usize,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NotInitialized => {
                f.write_str("engine not initialized: call initialize() first")
            }
            RecoveryError::InvalidRank { rank, num_procs } => {
                write!(
                    f,
                    "rank {rank} out of range (cluster has {num_procs} processors)"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// How a crashed rank's rows were rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMethod {
    /// Rows restored from the rank's last valid periodic checkpoint; only
    /// rows the checkpoint misses (assigned since) are reseeded.
    CheckpointRestore,
    /// All rows reseeded from local SSSP (no usable checkpoint).
    SsspReseed,
}

impl std::fmt::Display for RecoveryMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryMethod::CheckpointRestore => "checkpoint-restore",
            RecoveryMethod::SsspReseed => "sssp-reseed",
        })
    }
}

/// What a failure+recovery cost, for comparisons against a full restart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// The recovered rank.
    pub rank: usize,
    /// How the replacement's rows were rebuilt.
    pub method: RecoveryMethod,
    /// Rows restored from the checkpoint (0 on the reseed path).
    pub restored_rows: usize,
    /// Rows the replacement node reseeded from local SSSP.
    pub reseeded_rows: usize,
    /// Surviving boundary rows re-marked dirty for full resend.
    pub resent_rows: usize,
}

impl AnytimeEngine {
    /// The crash-and-replace protocol behind the recovery ladder
    /// (`crate::supervisor`): discards `rank`'s state, rebuilds it from
    /// `checkpoint_rows` when given (padding each restored row to the
    /// current capacity and reseeding rows the checkpoint misses) or from a
    /// full local SSSP reseed otherwise, then has every survivor downgrade
    /// the rank to full-row sends and re-dirty what it borders. All costs
    /// are charged to [`Phase::Recovery`].
    pub(crate) fn replace_rank(
        &mut self,
        rank: usize,
        checkpoint_rows: Option<Vec<(VertexId, Vec<Weight>)>>,
    ) -> RecoveryReport {
        // --- the crash: all of `rank`'s state is lost ---------------------
        let owned: Vec<_> = self.partition.members()[rank].clone();
        let cap = self.world.capacity();
        let mut fresh = crate::proc_state::ProcState::new(rank, cap);
        fresh.rebuild_view(&self.world, &self.partition);
        if checkpoint_rows.is_none() {
            // The reseed path starts from blank rows; the checkpoint path
            // inserts restored rows directly.
            for &v in &owned {
                fresh.dv.add_row(v);
            }
        }
        self.procs[rank] = fresh;

        // --- replacement node: restore checkpointed rows, reseed the rest -
        let method = if checkpoint_rows.is_some() {
            RecoveryMethod::CheckpointRestore
        } else {
            RecoveryMethod::SsspReseed
        };
        let mut restored = 0usize;
        let mut reseeded = 0usize;
        let t = Stopwatch::start();
        match checkpoint_rows {
            Some(rows) => {
                let mut have: std::collections::HashSet<VertexId> =
                    std::collections::HashSet::new();
                for (v, mut row) in rows {
                    row.resize(cap, INF); // vertices added since the checkpoint
                    self.procs[rank].dv.insert_row(v, row);
                    have.insert(v);
                    restored += 1;
                }
                for &v in &owned {
                    if !have.contains(&v) {
                        let row = self.procs[rank].local_sssp(v, self.config.ia);
                        self.procs[rank].dv.insert_row(v, row);
                        reseeded += 1;
                    }
                }
                // Everything restored is marked dirty: any pre-crash send
                // the rank had not yet delivered is covered by a full
                // re-flood, which the anytime min-merge absorbs for free.
                for &v in &owned {
                    self.procs[rank].dirty.insert(v);
                }
            }
            None => {
                self.procs[rank].initial_approximation(self.config.ia);
                reseeded = owned.len();
            }
        }
        self.cluster
            .compute_measured(rank, Phase::Recovery, t.elapsed());

        // --- survivors: downgrade the failed rank to full-row sends and
        //     re-dirty everything it borders -------------------------------
        let mut resent = 0usize;
        for survivor in 0..self.config.num_procs {
            if survivor == rank {
                continue;
            }
            let t = Stopwatch::start();
            let ps = &mut self.procs[survivor];
            for u in ps.dv.vertices().to_vec() {
                let borders_failed = ps.adj[u as usize]
                    .iter()
                    .any(|&(v, _)| self.partition.part_of(v) == Some(rank));
                if borders_failed {
                    ps.dirty.insert(u);
                    resent += 1;
                }
                if let Some(s) = ps.sent_to.get_mut(&u) {
                    s.remove(&rank);
                }
            }
            // Retransmits addressed to the crashed processor are moot: its
            // replacement state is rebuilt from scratch, and every bordering
            // row was re-marked dirty above, so it receives full rows again.
            ps.outstanding.retain(|&(_, dst), _| dst != rank);
            // Cached rows owned by the failed rank are stale only in the
            // harmless direction (they reflect pre-crash values, which were
            // valid upper bounds of an unchanged graph) — they stay.
            self.cluster
                .compute_measured(survivor, Phase::Recovery, t.elapsed());
        }
        self.cluster.barrier();
        self.converged = false;
        RecoveryReport {
            rank,
            method,
            restored_rows: restored,
            reseeded_rows: reseeded,
            resent_rows: resent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::dynamic::{Endpoint, VertexBatch};
    use crate::strategy::AdditionStrategy;
    use aa_graph::{algo, generators};

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

    #[test]
    fn recovery_restores_exactness() {
        let mut e = engine(80, 4, 3);
        e.run_to_convergence(64);
        let report = e.recover_rank(2).unwrap();
        assert_eq!(report.rank, 2);
        assert_eq!(report.method, RecoveryMethod::SsspReseed);
        assert_eq!(report.restored_rows, 0);
        assert!(report.reseeded_rows > 0);
        assert!(!e.is_converged());
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
        e.check_invariants().unwrap();
    }

    #[test]
    fn recovery_mid_run_still_converges() {
        let mut e = engine(70, 4, 5);
        e.rc_step(); // crash before the static analysis finished
        e.recover_rank(0).unwrap();
        e.run_to_convergence(64);
        assert_oracle(&e);
    }

    #[test]
    fn cascading_failures_survive() {
        let mut e = engine(60, 4, 7);
        e.run_to_convergence(64);
        for rank in [0usize, 1, 2, 3, 1] {
            e.recover_rank(rank).unwrap();
            e.rc_step();
        }
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_oracle(&e);
    }

    #[test]
    fn failure_interleaved_with_dynamic_updates() {
        let mut e = engine(60, 4, 9);
        e.run_to_convergence(64);
        let mut batch = VertexBatch::new(3);
        batch.connect(0, Endpoint::Existing(5), 1);
        batch.connect(1, Endpoint::New(0), 1);
        batch.connect(2, Endpoint::Existing(10), 2);
        e.add_vertices(&batch, AdditionStrategy::CutEdgePs);
        e.rc_step();
        e.recover_rank(3).unwrap();
        e.rc_step();
        e.add_edge(0, 40, 1);
        e.run_to_convergence(96);
        assert!(e.is_converged());
        assert_oracle(&e);
        e.check_invariants().unwrap();
    }

    #[test]
    fn recovery_is_cheaper_than_restart() {
        // Compare recombination bytes after a crash: anytime recovery only
        // re-floods the failed neighbourhood; a restart re-floods everything.
        let mut recovered = engine(100, 4, 11);
        recovered.run_to_convergence(64);
        let before = recovered.cluster().ledger().totals().bytes;
        recovered.recover_rank(1).unwrap();
        recovered.run_to_convergence(64);
        let recovery_bytes = recovered.cluster().ledger().totals().bytes - before;

        let mut restarted = engine(100, 4, 11);
        restarted.run_to_convergence(64);
        let before = restarted.cluster().ledger().totals().bytes;
        restarted.add_vertices(&VertexBatch::new(0), AdditionStrategy::BaselineRestart);
        restarted.run_to_convergence(64);
        let restart_bytes = restarted.cluster().ledger().totals().bytes - before;

        assert!(
            recovery_bytes < restart_bytes,
            "recovery ({recovery_bytes} B) must move fewer bytes than a restart ({restart_bytes} B)"
        );
    }

    #[test]
    fn invalid_rank_rejected() {
        let mut e = engine(20, 2, 13);
        let err = e.recover_rank(5).unwrap_err();
        assert_eq!(
            err,
            RecoveryError::InvalidRank {
                rank: 5,
                num_procs: 2
            }
        );
        assert!(err.to_string().contains("out of range"), "{err}");
        // The failed call must not have disturbed the engine.
        e.run_to_convergence(64);
        assert_oracle(&e);
    }

    #[test]
    fn uninitialized_engine_rejected() {
        let g = generators::barabasi_albert(20, 2, 2, 13);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 2,
                ..Default::default()
            },
        );
        assert_eq!(
            e.recover_rank(0).unwrap_err(),
            RecoveryError::NotInitialized
        );
    }
}
