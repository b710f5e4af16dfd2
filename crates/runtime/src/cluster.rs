//! The [`SimCluster`]: byte-accounted collectives over LogP virtual clocks.

#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use aa_logp::{schedule, CostLedger, LogPParams, Phase, VirtualClocks};
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
/// [`SimCluster::enable_trace`]).
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
/// owns the per-processor state and calls these to move data/time.
///
/// ```
/// use aa_runtime::{SimCluster, TransferOut};
/// use aa_logp::{LogPParams, Phase};
///
/// let mut cluster = SimCluster::new(2, LogPParams::ethernet_1gbe());
/// let inbox = cluster.exchange(
///     Phase::Recombination,
///     vec![vec![TransferOut { dst: 1, bytes: 64, payload: "hello" }], vec![]],
/// );
/// assert_eq!(inbox[1], vec![(0, "hello")]);
/// assert!(cluster.makespan_us() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimCluster {
    params: LogPParams,
    clocks: VirtualClocks,
    ledger: CostLedger,
    trace: Option<Vec<TraceEvent>>,
    compute_scale: f64,
}

impl SimCluster {
    /// Creates a cluster of `p` processors with the given LogP parameters.
    pub fn new(p: usize, params: LogPParams) -> Self {
        assert!(p >= 1, "cluster needs at least one processor");
        SimCluster {
            params,
            clocks: VirtualClocks::new(p),
            ledger: CostLedger::new(),
            trace: None,
            compute_scale: 1.0,
        }
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

    fn cluster(p: usize) -> SimCluster {
        SimCluster::new(p, LogPParams::ethernet_1gbe())
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
            let mut c = SimCluster::new(4, params);
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
