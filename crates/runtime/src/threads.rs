//! The threaded execution backend: real OS threads over the simulator core.
//!
//! [`ThreadCluster`] wraps a [`SimCluster`] and executes the genuinely
//! parallel stage of every superstep — the per-rank compute closures — on
//! real `std::thread` workers talking to the coordinator over bounded
//! channels. Everything with global effects (virtual clocks, the cost
//! ledger, the exchange's inbox assembly, trace) stays on the coordinator
//! thread and funnels through the exact same `SimCluster` code, which is
//! what makes the threaded backend oracle-exact against the simulator by
//! construction.
//!
//! Determinism contract (see DESIGN.md §16):
//! - worker results are merged into rank-indexed slots and consumed in rank
//!   order 0..P — the merge order at rank boundaries is fixed regardless of
//!   completion order;
//! - measured wall-clock compute feeds only the virtual clocks, never
//!   control flow or data (the same contract the
//!   simulator's `Stopwatch` usage already obeys).

use crate::cluster::SimCluster;
use aa_logp::{LogPParams, Phase};
use aa_obs::Stopwatch;
use std::sync::mpsc;
use std::time::Duration;

/// Whether this host can actually spawn OS threads. The simulator is
/// single-threaded, so backend selection must probe the real `std::thread`
/// machinery and fail loudly instead of quietly running sequentially
/// (ISSUE 9 satellite: no silent downgrade).
pub fn threads_available() -> bool {
    std::thread::Builder::new()
        .name("aa-thread-probe".into())
        .spawn(|| {})
        .map(|handle| handle.join().is_ok())
        .unwrap_or(false)
}

/// A cluster of `P` virtual processors whose per-rank work runs on real OS
/// threads. API-compatible with [`SimCluster`] (it owns one internally);
/// construction fails with a clear error when the host cannot spawn
/// threads.
#[derive(Debug)]
pub struct ThreadCluster {
    sim: SimCluster,
    threads: usize,
}

impl ThreadCluster {
    /// Creates a threaded cluster of `p` processors. `threads` caps the
    /// worker pool per parallel stage (`0` means one worker per rank).
    /// Returns an error when the host cannot spawn OS threads — callers must
    /// surface it rather than fall back to sequential execution silently.
    pub fn new(p: usize, params: LogPParams, threads: usize) -> Result<Self, String> {
        if !threads_available() {
            return Err(
                "threads backend unavailable: this host cannot spawn OS threads \
                 (std::thread probe failed); use the sim backend instead"
                    .to_string(),
            );
        }
        Ok(ThreadCluster {
            sim: SimCluster::new(p, params),
            threads,
        })
    }

    /// The simulator core carrying all clocks and the ledger.
    pub fn sim(&self) -> &SimCluster {
        &self.sim
    }

    /// Mutable access to the simulator core.
    pub fn sim_mut(&mut self) -> &mut SimCluster {
        &mut self.sim
    }

    /// Configured worker cap (`0` = one worker per rank).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers to use for a `p`-rank stage.
    fn workers_for(&self, p: usize) -> usize {
        let cap = if self.threads == 0 { p } else { self.threads };
        cap.clamp(1, p.max(1))
    }

    /// Runs `f` once per rank on the worker pool, with exclusive access to
    /// that rank's state slot, charging each rank's measured wall time to
    /// the virtual clocks afterwards in rank order. Semantics match the
    /// simulator's sequential loop.
    pub(crate) fn run_on_ranks<S, I, R, F>(
        &mut self,
        phase: Phase,
        states: &mut [S],
        inputs: Vec<I>,
        f: F,
    ) -> Vec<R>
    where
        S: Send,
        I: Send,
        R: Send,
        F: Fn(usize, &mut S, I) -> R + Sync,
    {
        let p = states.len();
        assert_eq!(inputs.len(), p, "one input per rank");
        let workers = self.workers_for(p);
        let mut lanes: Vec<Vec<(usize, &mut S, I)>> = (0..workers).map(|_| Vec::new()).collect();
        for (rank, (state, input)) in states.iter_mut().zip(inputs).enumerate() {
            lanes[rank % workers].push((rank, state, input));
        }
        let mut slots: Vec<Option<(R, Duration)>> = (0..p).map(|_| None).collect();
        let f = &f;
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel(workers);
            for lane in lanes {
                let tx = tx.clone();
                scope.spawn(move || {
                    for (rank, state, input) in lane {
                        let t = Stopwatch::start();
                        let r = f(rank, state, input);
                        #[expect(
                            clippy::expect_used,
                            reason = "the coordinator drains the channel until every worker hangs up; a dead receiver is a panic already in flight"
                        )]
                        tx.send((rank, (r, t.elapsed())))
                            .expect("rank-stage receiver alive until workers finish");
                    }
                });
            }
            drop(tx);
            for (rank, out) in rx {
                slots[rank] = Some(out);
            }
        });
        // Charge and emit in rank order so clock/ledger accumulation is
        // independent of worker completion order.
        slots
            .into_iter()
            .enumerate()
            .map(|(rank, slot)| {
                #[expect(
                    clippy::expect_used,
                    reason = "every rank 0..p was assigned to exactly one lane above, so every slot is filled once the scope joins"
                )]
                let (r, elapsed) = slot.expect("every rank ran exactly once");
                self.sim.compute_measured(rank, phase, elapsed);
                r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threaded(p: usize, threads: usize) -> ThreadCluster {
        ThreadCluster::new(p, LogPParams::ethernet_1gbe(), threads)
            .expect("test host spawns threads")
    }

    #[test]
    fn probe_reports_threads_on_test_host() {
        assert!(threads_available());
    }

    #[test]
    fn run_on_ranks_runs_every_rank_with_exclusive_state() {
        let mut t = threaded(8, 3);
        let mut states: Vec<u64> = vec![0; 8];
        let inputs: Vec<u64> = (0..8).collect();
        let out = t.run_on_ranks(
            Phase::Recombination,
            &mut states,
            inputs,
            |rank, state, input| {
                *state = input * 10;
                rank as u64 + input
            },
        );
        assert_eq!(states, (0..8).map(|r| r * 10).collect::<Vec<_>>());
        assert_eq!(out, (0..8).map(|r| 2 * r).collect::<Vec<_>>());
        assert!(t.sim().makespan_us() > 0.0, "measured compute was charged");
    }
}
