//! The [`Cluster`]: byte-accounted collectives over LogP virtual clocks,
//! with per-rank stages run inline or on a scoped worker pool.

#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::backend::BackendKind;
use aa_logp::{schedule, CostLedger, LogPParams, Phase, VirtualClocks};
use aa_obs::Stopwatch;
use std::sync::mpsc;
use std::time::Duration;

/// One outgoing transfer: destination processor, payload, and its size in
/// bytes (the algorithm layer knows its own serialization; the cluster only
/// needs the byte count for charging).
#[derive(Debug, Clone)]
pub struct TransferOut<T> {
    pub dst: usize,
    pub bytes: usize,
    pub payload: T,
}

/// One recorded communication event (tracing enabled via
/// [`Cluster::enable_trace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: usize,
    /// Phase the transfer was charged to.
    pub phase: Phase,
    /// Cluster makespan (µs) right after the transfer was charged.
    pub makespan_us: f64,
}

/// A simulated cluster of `P` virtual processors.
///
/// All methods are collectives or per-processor charges; the algorithm layer
/// owns the per-processor state and calls these to move data/time. Only
/// [`Cluster::run_on_ranks`] looks at the worker count: every collective,
/// clock and ledger entry is the simulator's on every backend.
///
/// ```
/// use aa_runtime::{Cluster, TransferOut};
/// use aa_logp::{LogPParams, Phase};
///
/// let mut cluster = Cluster::new(2, LogPParams::ethernet_1gbe());
/// let inbox = cluster.exchange(
///     Phase::Recombination,
///     vec![vec![TransferOut { dst: 1, bytes: 64, payload: "hello" }], vec![]],
/// );
/// assert_eq!(inbox[1], vec![(0, "hello")]);
/// assert!(cluster.makespan_us() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    params: LogPParams,
    clocks: VirtualClocks,
    ledger: CostLedger,
    trace: Option<Vec<TraceEvent>>,
    compute_scale: f64,
    /// Worker lanes per rank stage, in `1..=P`; 1 runs the ranks inline.
    workers: usize,
}

impl Cluster {
    /// Creates a sequential cluster of `p` processors with the given LogP
    /// parameters.
    pub fn new(p: usize, params: LogPParams) -> Self {
        assert!(p >= 1, "cluster needs at least one processor");
        Cluster {
            params,
            clocks: VirtualClocks::new(p),
            ledger: CostLedger::new(),
            trace: None,
            compute_scale: 1.0,
            workers: 1,
        }
    }

    /// Creates a cluster of the given backend kind after
    /// [`BackendKind::check`]. `threads` caps the threads backend's worker
    /// lanes (`0` = one per rank; more than `p` is clamped to `p`).
    pub fn build(
        kind: BackendKind,
        p: usize,
        params: LogPParams,
        threads: usize,
    ) -> Result<Self, String> {
        kind.check(threads)?;
        let mut cluster = Cluster::new(p, params);
        if kind == BackendKind::Threads {
            cluster.workers = if threads == 0 { p } else { threads.min(p) };
        }
        Ok(cluster)
    }

    /// Runs `f` once per rank with exclusive access to that rank's state
    /// slot, charging each rank's measured wall time to its virtual clock.
    /// With one worker the ranks run inline, in rank order; with more they
    /// run on scoped worker lanes (rank `r` on lane `r % workers`). Either
    /// way results and charges merge back in rank order 0..P, so downstream
    /// state never observes completion order.
    #[expect(
        clippy::indexing_slicing,
        reason = "lanes has `workers` entries and is indexed modulo it; slots has one entry per rank and every rank sent is below p"
    )]
    pub fn run_on_ranks<S, I, R, F>(
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
        let workers = self.workers.min(p);
        if workers <= 1 {
            return states
                .iter_mut()
                .zip(inputs)
                .enumerate()
                .map(|(rank, (state, input))| {
                    let t = Stopwatch::start();
                    let r = f(rank, state, input);
                    self.compute_measured(rank, phase, t.elapsed());
                    r
                })
                .collect();
        }
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
        slots
            .into_iter()
            .enumerate()
            .map(|(rank, slot)| {
                #[expect(
                    clippy::expect_used,
                    reason = "every rank 0..p was assigned to exactly one lane above, so every slot is filled once the scope joins"
                )]
                let (r, elapsed) = slot.expect("every rank ran exactly once");
                self.compute_measured(rank, phase, elapsed);
                r
            })
            .collect()
    }

    /// Sets the compute calibration factor: measured wall microseconds are
    /// multiplied by this before being charged to the virtual clocks. Use it
    /// to model slower (era-appropriate) processors than the host — e.g. ~10
    /// for a 2012 cluster node vs a modern laptop core. Default 1.0.
    pub fn set_compute_scale(&mut self, scale: f64) {
        assert!(scale > 0.0, "compute scale must be positive");
        self.compute_scale = scale;
    }

    /// Starts recording every transfer into an event trace (clears any
    /// previous trace). Intended for debugging and timeline visualization.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops tracing and returns the recorded events (empty if tracing was
    /// never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// Number of virtual processors.
    pub fn proc_count(&self) -> usize {
        self.clocks.proc_count()
    }

    /// LogP parameters in force.
    pub fn params(&self) -> &LogPParams {
        &self.params
    }

    /// Charges `elapsed` of measured local computation on processor `p`
    /// (wall microseconds × the compute-scale calibration factor).
    pub fn compute_measured(&mut self, p: usize, phase: Phase, elapsed: Duration) {
        let us = elapsed.as_secs_f64() * 1e6 * self.compute_scale;
        self.clocks.compute(p, us);
        self.ledger.record_compute(phase, us);
    }

    /// Charges `us` microseconds of modeled computation on processor `p`.
    pub fn compute_modeled(&mut self, p: usize, phase: Phase, us: f64) {
        self.clocks.compute(p, us);
        self.ledger.record_compute(phase, us);
    }

    /// Personalized all-to-all: every processor sends zero or more transfers;
    /// returns each processor's inbox as `(src, payload)` pairs, in a
    /// deterministic order. Transfers are charged along the papers'
    /// serialized schedule (one message on the network at a time, Θ(P²)
    /// sequential transfers). `outbox.len()` must equal the processor count, and
    /// self-sends are forbidden (local data never touches the network).
    #[expect(
        clippy::indexing_slicing,
        reason = "every dst is asserted below proc_count before the p*p pair table sized from proc_count is touched"
    )]
    pub fn exchange<T>(
        &mut self,
        phase: Phase,
        outbox: Vec<Vec<TransferOut<T>>>,
    ) -> Vec<Vec<(usize, T)>> {
        let p = self.proc_count();
        assert_eq!(outbox.len(), p, "outbox must have one slot per processor");
        // Group payloads per ordered (src, dst) pair; one aggregated model
        // transfer per pair (the papers batch all boundary DVs for a
        // neighbour into size-M messages).
        let mut per_pair_bytes = vec![0usize; p * p];
        let mut inbox: Vec<Vec<(usize, T)>> = (0..p).map(|_| Vec::new()).collect();
        for (src, transfers) in outbox.into_iter().enumerate() {
            for t in transfers {
                assert!(t.dst < p, "destination {} out of range", t.dst);
                assert_ne!(t.dst, src, "self-send from processor {src}");
                per_pair_bytes[src * p + t.dst] += t.bytes;
                inbox[t.dst].push((src, t.payload));
            }
        }
        self.charge_pairs(phase, &per_pair_bytes);
        inbox
    }

    /// Charges aggregated per-(src, dst) byte counts to the clocks and
    /// ledger along the serialized schedule, tracing each model transfer.
    #[expect(
        clippy::indexing_slicing,
        reason = "the schedule enumerates src and dst below p and per_pair_bytes is p*p by construction in exchange"
    )]
    fn charge_pairs(&mut self, phase: Phase, per_pair_bytes: &[usize]) {
        let p = self.proc_count();
        for (src, dst) in schedule::serialized_all_to_all(p) {
            let bytes = per_pair_bytes[src * p + dst];
            if bytes > 0 {
                self.clocks
                    .transfer_serialized(src, dst, bytes, &self.params);
                self.record(phase, bytes);
                self.trace_transfer(src, dst, bytes, phase);
            }
        }
    }

    /// Binomial-tree broadcast of a `bytes`-byte payload from `root`.
    /// Only the *cost* is simulated; the caller clones the payload itself.
    /// As in the papers' serialized schedule, every tree edge contends for
    /// the single shared network.
    pub fn broadcast_cost(&mut self, phase: Phase, root: usize, bytes: usize) {
        let p = self.proc_count();
        assert!(root < p);
        for round in schedule::tree_broadcast(p, root) {
            for (src, dst) in round {
                self.clocks
                    .transfer_serialized(src, dst, bytes, &self.params);
                self.record(phase, bytes);
                self.trace_transfer(src, dst, bytes, phase);
            }
        }
    }

    /// Barrier: synchronizes all virtual clocks (cost only).
    pub fn barrier(&mut self) {
        self.clocks.barrier();
    }

    /// Logical-or all-reduce of per-processor flags (the papers' "no more
    /// updates in any processor" termination test). Charges a tree gather +
    /// broadcast of one-byte flags and synchronizes clocks.
    pub fn all_reduce_or(&mut self, phase: Phase, flags: &[bool]) -> bool {
        assert_eq!(flags.len(), self.proc_count());
        // Gather up the tree then broadcast down: 2·(P−1) one-byte messages.
        for round in schedule::tree_broadcast(self.proc_count(), 0) {
            for (src, dst) in round {
                self.clocks.transfer_concurrent(src, dst, 1, &self.params);
                self.clocks.transfer_concurrent(dst, src, 1, &self.params);
                self.record(phase, 2);
            }
        }
        self.clocks.barrier();
        flags.iter().any(|&f| f)
    }

    fn record(&mut self, phase: Phase, bytes: usize) {
        self.ledger
            .record_transfer(phase, self.params.message_count(bytes) as u64, bytes as u64);
    }

    fn trace_transfer(&mut self, src: usize, dst: usize, bytes: usize, phase: Phase) {
        if let Some(trace) = &mut self.trace {
            let makespan_us = self.clocks.makespan_us();
            trace.push(TraceEvent {
                src,
                dst,
                bytes,
                phase,
                makespan_us,
            });
        }
    }

    /// Cluster makespan so far (µs of virtual time).
    pub fn makespan_us(&self) -> f64 {
        self.clocks.makespan_us()
    }

    /// The cost ledger (messages / bytes / compute per phase).
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Resets clocks and ledger (used by the baseline-restart strategy).
    pub fn reset_accounting(&mut self) {
        self.clocks = VirtualClocks::new(self.proc_count());
        self.ledger = CostLedger::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(p: usize) -> Cluster {
        Cluster::new(p, LogPParams::ethernet_1gbe())
    }

    #[test]
    fn run_on_ranks_runs_every_rank_with_exclusive_state() {
        let mut t = Cluster::build(BackendKind::Threads, 8, LogPParams::ethernet_1gbe(), 3)
            .expect("test host spawns threads");
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
        assert!(t.makespan_us() > 0.0, "measured compute was charged");
    }

    /// Inline (1 worker), lanes multiplexed (2 < P), one lane per rank
    /// (P) and a cap past P (clamped): the same outputs, states, rank
    /// coverage and exchange accounting at every worker count.
    #[test]
    fn run_on_ranks_agrees_at_every_worker_count() {
        const P: usize = 5;
        let caller = std::thread::current().id();
        let mut runs = Vec::new();
        for workers in [1, 2, 5, 8] {
            let mut c = Cluster::build(
                BackendKind::Threads,
                P,
                LogPParams::ethernet_1gbe(),
                workers,
            )
            .expect("test host spawns threads");
            assert_eq!(c.proc_count(), P);
            assert_eq!(c.makespan_us(), 0.0);
            let mut states: Vec<Vec<usize>> = vec![Vec::new(); P];
            let out = c.run_on_ranks(
                Phase::InitialApproximation,
                &mut states,
                (0..P).map(|r| r * 3).collect(),
                |rank, state, input| {
                    state.push(rank);
                    (rank + input, std::thread::current().id())
                },
            );
            let (values, lanes): (Vec<usize>, Vec<_>) = out.into_iter().unzip();
            if workers == 1 {
                assert!(
                    lanes.iter().all(|&id| id == caller),
                    "one worker runs inline"
                );
            } else {
                assert!(
                    lanes.iter().all(|&id| id != caller),
                    "{workers} workers run on lanes"
                );
                let distinct = (0..P).filter(|&r| !lanes[..r].contains(&lanes[r])).count();
                assert_eq!(
                    distinct,
                    workers.min(P),
                    "lanes in use at {workers} workers"
                );
            }
            let outbox = (0..P)
                .map(|src| {
                    vec![TransferOut {
                        dst: (src + 1) % P,
                        bytes: 100 * (src + 1),
                        payload: values[src],
                    }]
                })
                .collect();
            let inbox = c.exchange(Phase::Recombination, outbox);
            let ledger = c.ledger().phase(Phase::Recombination);
            runs.push((values, states, inbox, ledger.messages, ledger.bytes));
        }
        assert_eq!(
            runs[0].1,
            (0..P).map(|r| vec![r]).collect::<Vec<_>>(),
            "each rank once"
        );
        for run in &runs[1..] {
            assert_eq!(*run, runs[0]);
        }
    }

    #[test]
    fn exchange_delivers_payloads() {
        let mut c = cluster(3);
        let outbox = vec![
            vec![TransferOut {
                dst: 1,
                bytes: 10,
                payload: "a",
            }],
            vec![TransferOut {
                dst: 2,
                bytes: 20,
                payload: "b",
            }],
            vec![
                TransferOut {
                    dst: 0,
                    bytes: 30,
                    payload: "c",
                },
                TransferOut {
                    dst: 1,
                    bytes: 5,
                    payload: "d",
                },
            ],
        ];
        let inbox = c.exchange(Phase::Recombination, outbox);
        assert_eq!(inbox[0], vec![(2, "c")]);
        assert_eq!(inbox[1], vec![(0, "a"), (2, "d")]);
        assert_eq!(inbox[2], vec![(1, "b")]);
        let s = c.ledger().phase(Phase::Recombination);
        assert_eq!(s.bytes, 65);
        assert!(c.makespan_us() > 0.0);
    }

    #[test]
    fn exchange_delivers_two_senders_to_one_inbox() {
        let mut c = cluster(4);
        let outbox = vec![
            vec![TransferOut {
                dst: 3,
                bytes: 8,
                payload: 1u32,
            }],
            vec![],
            vec![TransferOut {
                dst: 3,
                bytes: 8,
                payload: 2u32,
            }],
            vec![],
        ];
        let inbox = c.exchange(Phase::Recombination, outbox);
        let mut got = inbox[3].clone();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1u32), (2, 2u32)]);
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_rejected() {
        let mut c = cluster(2);
        c.exchange(
            Phase::Recombination,
            vec![
                vec![TransferOut {
                    dst: 0,
                    bytes: 1,
                    payload: (),
                }],
                vec![],
            ],
        );
    }

    /// The same traffic on a faster network delivers the same payloads
    /// and finishes sooner: the LogP parameters move time, never results.
    #[test]
    fn a_faster_network_gives_a_smaller_makespan() {
        let fast = LogPParams {
            latency_us: 2.0,
            overhead_us: 0.5,
            gap_us: 1.0,
            gap_per_byte_us: 0.0001,
            max_msg_bytes: 1024 * 1024,
        };
        let run = |params| {
            let mut c = Cluster::new(4, params);
            let outbox = (0..4)
                .map(|src| {
                    vec![TransferOut {
                        dst: (src + 1) % 4,
                        bytes: 8 * 1024,
                        payload: src,
                    }]
                })
                .collect();
            let inbox = c.exchange(Phase::Recombination, outbox);
            c.broadcast_cost(Phase::DynamicUpdate, 0, 4096);
            (inbox, c.makespan_us())
        };
        let (slow_inbox, slow) = run(LogPParams::ethernet_1gbe());
        let (fast_inbox, fast) = run(fast);
        assert_eq!(slow_inbox, fast_inbox);
        assert!(
            fast < slow,
            "a faster network must produce a smaller makespan: {fast} vs {slow}"
        );
    }

    #[test]
    fn broadcast_cost_charges_p_minus_1_messages() {
        let mut c = cluster(8);
        c.broadcast_cost(Phase::DynamicUpdate, 3, 500);
        let s = c.ledger().phase(Phase::DynamicUpdate);
        assert_eq!(s.messages, 7);
        assert_eq!(s.bytes, 7 * 500);
    }

    #[test]
    fn all_reduce_or_semantics() {
        let mut c = cluster(5);
        assert!(!c.all_reduce_or(Phase::Recombination, &[false; 5]));
        assert!(c.all_reduce_or(Phase::Recombination, &[false, false, true, false, false]));
    }

    #[test]
    fn compute_charges_clock_and_ledger() {
        let mut c = cluster(2);
        c.compute_modeled(1, Phase::InitialApproximation, 250.0);
        assert_eq!(c.makespan_us(), 250.0);
        assert_eq!(
            c.ledger().phase(Phase::InitialApproximation).compute_us,
            250.0
        );
        c.compute_measured(0, Phase::InitialApproximation, Duration::from_micros(100));
        assert!((c.ledger().phase(Phase::InitialApproximation).compute_us - 350.0).abs() < 1e-6);
    }

    #[test]
    fn reset_accounting_zeroes_state() {
        let mut c = cluster(2);
        c.compute_modeled(0, Phase::Recombination, 10.0);
        c.reset_accounting();
        assert_eq!(c.makespan_us(), 0.0);
        assert_eq!(c.ledger().totals().compute_us, 0.0);
    }

    #[test]
    fn trace_records_transfers_in_time_order() {
        let mut c = cluster(3);
        c.enable_trace();
        c.exchange(
            Phase::Recombination,
            vec![
                vec![TransferOut {
                    dst: 1,
                    bytes: 100,
                    payload: (),
                }],
                vec![TransferOut {
                    dst: 2,
                    bytes: 200,
                    payload: (),
                }],
                vec![],
            ],
        );
        c.broadcast_cost(Phase::DynamicUpdate, 0, 50);
        let trace = c.take_trace();
        assert_eq!(
            trace.len(),
            2 + 2,
            "two exchange transfers + two tree edges"
        );
        for pair in trace.windows(2) {
            assert!(pair[1].makespan_us >= pair[0].makespan_us);
        }
        assert!(trace.iter().any(|e| e.phase == Phase::DynamicUpdate));
        // Taking the trace disables recording.
        c.broadcast_cost(Phase::DynamicUpdate, 0, 50);
        assert!(c.take_trace().is_empty());
    }

    #[test]
    fn single_proc_cluster_is_degenerate_but_valid() {
        let mut c = cluster(1);
        let inbox = c.exchange::<()>(Phase::Recombination, vec![vec![]]);
        assert_eq!(inbox.len(), 1);
        assert!(inbox[0].is_empty());
        assert!(!c.all_reduce_or(Phase::Recombination, &[false]));
    }
}
