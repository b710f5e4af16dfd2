//! The threaded execution backend: real OS threads over the simulator core.
//!
//! [`ThreadCluster`] wraps a [`SimCluster`] and executes the two genuinely
//! parallel stages of every superstep — per-rank compute closures and the
//! per-sender judging of an exchange — on real `std::thread` workers talking
//! to the coordinator over bounded channels. Everything with global effects
//! (virtual clocks, the cost ledger, inbox assembly, trace, reshuffle) stays
//! on the coordinator thread and funnels through the exact same
//! `SimCluster` accounting code, which is what makes the threaded backend
//! oracle-exact against the simulator by construction.
//!
//! Determinism contract (see DESIGN.md §16):
//! - each directed link's fault-decision stream is advanced only by its own
//!   sender, in that sender's submission order, so verdicts are independent
//!   of how sender threads interleave;
//! - worker results are merged into rank-indexed slots and consumed in rank
//!   order 0..P — the merge order at rank boundaries is fixed regardless of
//!   completion order;
//! - measured wall-clock compute feeds only the virtual clocks / straggler
//!   advisories, never control flow or data (the same contract the
//!   simulator's `Stopwatch` usage already obeys).

use crate::cluster::{judge_transfer, ExchangeReceipts, SimCluster, TransferOut, Verdict};
use crate::ExchangeMode;
use aa_logp::{LogPParams, Phase};
use aa_obs::Stopwatch;
use std::sync::mpsc;
use std::sync::Mutex;
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
    pub fn new(
        p: usize,
        params: LogPParams,
        mode: ExchangeMode,
        threads: usize,
    ) -> Result<Self, String> {
        if !threads_available() {
            return Err(
                "threads backend unavailable: this host cannot spawn OS threads \
                 (std::thread probe failed); use the sim backend instead"
                    .to_string(),
            );
        }
        Ok(ThreadCluster {
            sim: SimCluster::new(p, params, mode),
            threads,
        })
    }

    /// The simulator core carrying all clocks, ledger and fault state.
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

    /// Like [`SimCluster::exchange_with_receipts`], but judging per sender
    /// on worker threads. Each worker owns a disjoint set of source ranks
    /// and judges that rank's transfers in submission order; since a
    /// directed link's decision stream is only ever advanced by its own
    /// sender (under a mutex for memory safety), the verdicts — and the
    /// per-link replay counters left behind — are identical to the
    /// sequential judge no matter how threads interleave. Results flow back
    /// over a bounded channel into rank-indexed slots, and settlement
    /// (charging, inboxes, receipts, reshuffle) runs on the coordinator via
    /// the shared [`SimCluster`] path.
    // aa-lint: allow(AA07, slots is sized to proc_count and every src comes from enumerate over the p-slot outbox)
    pub fn exchange_with_receipts<T: Clone + Send>(
        &mut self,
        phase: Phase,
        outbox: Vec<Vec<TransferOut<T>>>,
    ) -> ExchangeReceipts<T> {
        let p = self.sim.proc_count();
        assert_eq!(outbox.len(), p, "outbox must have one slot per processor");
        let workers = self.workers_for(p);
        type JudgedLane<T> = (Vec<TransferOut<T>>, Vec<Verdict>);
        let judged: Vec<JudgedLane<T>> = {
            let (plan, down) = self.sim.fault_and_down();
            let plan = Mutex::new(plan);
            let mut lanes: Vec<Vec<(usize, Vec<TransferOut<T>>)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (src, transfers) in outbox.into_iter().enumerate() {
                lanes[src % workers].push((src, transfers));
            }
            let mut slots: Vec<Option<JudgedLane<T>>> = (0..p).map(|_| None).collect();
            std::thread::scope(|scope| {
                let (tx, rx) = mpsc::sync_channel(workers);
                for lane in lanes {
                    let tx = tx.clone();
                    let plan = &plan;
                    scope.spawn(move || {
                        for (src, transfers) in lane {
                            let verdicts: Vec<Verdict> = transfers
                                .iter()
                                .map(|t| {
                                    assert!(t.dst < p, "destination {} out of range", t.dst);
                                    assert_ne!(t.dst, src, "self-send from processor {src}");
                                    let mut guard = plan
                                        .lock()
                                        // aa-lint: allow(AA01, a poisoned judge mutex means a sibling sender already panicked; propagating is the only sound option)
                                        .expect("judge mutex poisoned by a sender panic");
                                    judge_transfer(down, guard.as_deref_mut(), src, t.dst)
                                })
                                .collect();
                            tx.send((src, transfers, verdicts))
                                // aa-lint: allow(AA01, the coordinator drains the channel until every worker hangs up; a dead receiver is a panic already in flight)
                                .expect("judge receiver alive until workers finish");
                        }
                    });
                }
                drop(tx);
                for (src, transfers, verdicts) in rx {
                    slots[src] = Some((transfers, verdicts));
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    // aa-lint: allow(AA01, every src 0..p was assigned to exactly one lane above, so every slot is filled once the scope joins)
                    slot.expect("every sender judged exactly once")
                })
                .collect()
        };
        self.sim.settle_exchange(phase, judged)
    }

    /// Runs `f` once per rank on the worker pool, with exclusive access to
    /// that rank's state slot, charging each rank's measured wall time to
    /// the virtual clocks afterwards in rank order. Semantics match the
    /// simulator's sequential loop: a skipped rank contributes
    /// `R::default()` and no compute charge.
    // aa-lint: allow(AA07, per-rank vectors are sized to states.len() and every rank comes from enumerate over them)
    pub(crate) fn run_on_ranks<S, I, R, F>(
        &mut self,
        phase: Phase,
        states: &mut [S],
        inputs: Vec<I>,
        skip: &[bool],
        f: F,
    ) -> Vec<R>
    where
        S: Send,
        I: Send,
        R: Default + Send,
        F: Fn(usize, &mut S, I) -> R + Sync,
    {
        let p = states.len();
        assert_eq!(inputs.len(), p, "one input per rank");
        assert_eq!(skip.len(), p, "one skip flag per rank");
        let workers = self.workers_for(p);
        let mut lanes: Vec<Vec<(usize, &mut S, I)>> = (0..workers).map(|_| Vec::new()).collect();
        for (rank, (state, input)) in states.iter_mut().zip(inputs).enumerate() {
            lanes[rank % workers].push((rank, state, input));
        }
        let mut slots: Vec<Option<(R, Option<Duration>)>> = (0..p).map(|_| None).collect();
        let f = &f;
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel(workers);
            for lane in lanes {
                let tx = tx.clone();
                scope.spawn(move || {
                    for (rank, state, input) in lane {
                        let out = if skip[rank] {
                            (R::default(), None)
                        } else {
                            let t = Stopwatch::start();
                            let r = f(rank, state, input);
                            (r, Some(t.elapsed()))
                        };
                        tx.send((rank, out))
                            // aa-lint: allow(AA01, the coordinator drains the channel until every worker hangs up; a dead receiver is a panic already in flight)
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
                // aa-lint: allow(AA01, every rank 0..p was assigned to exactly one lane above, so every slot is filled once the scope joins)
                let (r, elapsed) = slot.expect("every rank ran exactly once");
                if let Some(elapsed) = elapsed {
                    self.sim.compute_measured(rank, phase, elapsed);
                }
                r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;

    fn sim(p: usize) -> SimCluster {
        SimCluster::new(p, LogPParams::ethernet_1gbe(), ExchangeMode::Serialized)
    }

    fn threaded(p: usize, threads: usize) -> ThreadCluster {
        ThreadCluster::new(
            p,
            LogPParams::ethernet_1gbe(),
            ExchangeMode::Serialized,
            threads,
        )
        .expect("test host spawns threads")
    }

    fn dense_outbox(p: usize, step: u32) -> Vec<Vec<TransferOut<u32>>> {
        (0..p)
            .map(|src| {
                (0..p)
                    .filter(|&d| d != src)
                    .map(|dst| TransferOut {
                        dst,
                        bytes: 8,
                        payload: step * 100 + src as u32,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn probe_reports_threads_on_test_host() {
        assert!(threads_available());
    }

    #[test]
    fn threaded_exchange_matches_sim_under_faults() {
        for threads in [1, 2, 8, 0] {
            let mut s = sim(6);
            s.set_fault_plan(Some(FaultPlan::new(99, 0.4, 0.2)));
            let mut t = threaded(6, threads);
            t.sim_mut()
                .set_fault_plan(Some(FaultPlan::new(99, 0.4, 0.2)));
            for step in 0..12u32 {
                let want = s.exchange_with_receipts(Phase::Recombination, dense_outbox(6, step));
                let got = t.exchange_with_receipts(Phase::Recombination, dense_outbox(6, step));
                assert_eq!(want, got, "threads={threads} step={step}");
            }
            assert_eq!(s.ledger(), t.sim().ledger(), "threads={threads}");
            assert_eq!(s.makespan_us(), t.sim().makespan_us());
        }
    }

    #[test]
    fn threaded_exchange_respects_down_ranks() {
        let mut s = sim(4);
        s.set_fault_plan(Some(FaultPlan::new(7, 0.3, 0.0)));
        s.mark_down(2);
        let mut t = threaded(4, 3);
        t.sim_mut()
            .set_fault_plan(Some(FaultPlan::new(7, 0.3, 0.0)));
        t.sim_mut().mark_down(2);
        for step in 0..8u32 {
            let want = s.exchange_with_receipts(Phase::Recombination, dense_outbox(4, step));
            let got = t.exchange_with_receipts(Phase::Recombination, dense_outbox(4, step));
            assert_eq!(want, got, "step={step}");
        }
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
            &[false; 8],
            |rank, state, input| {
                *state = input * 10;
                rank as u64 + input
            },
        );
        assert_eq!(states, (0..8).map(|r| r * 10).collect::<Vec<_>>());
        assert_eq!(out, (0..8).map(|r| 2 * r).collect::<Vec<_>>());
        assert!(t.sim().makespan_us() > 0.0, "measured compute was charged");
    }

    #[test]
    fn run_on_ranks_skips_without_charging() {
        let mut t = threaded(4, 2);
        let mut states = vec![0u32; 4];
        let out = t.run_on_ranks(
            Phase::Recombination,
            &mut states,
            vec![(); 4],
            &[false, true, false, true],
            |rank, state, ()| {
                *state = 1;
                rank as u32 + 1
            },
        );
        assert_eq!(states, vec![1, 0, 1, 0], "skipped ranks left untouched");
        assert_eq!(out, vec![1, 0, 3, 0], "skipped ranks yield R::default()");
        let charged = t.sim().compute_us_by_rank();
        assert_eq!(charged[1], 0.0);
        assert_eq!(charged[3], 0.0);
    }
}
