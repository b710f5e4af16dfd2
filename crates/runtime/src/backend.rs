//! Execution-backend selection: the deterministic simulator vs real threads.
//!
//! [`Cluster`] is the handle `aa-core`'s engine drives. It dispatches every
//! collective and charge to either the in-process
//! [`SimCluster`] oracle or the [`ThreadCluster`] (real OS threads + bounded
//! channels) without the engine knowing which one it has. Both backends
//! funnel all accounting through the same `SimCluster` core, so a run is
//! bit-identical across backends given the same seed — the property the
//! cross-backend differential suite in `tests/differential.rs` locks down.
//!
//! [`ExecutionBackend`] is the non-generic control surface shared by both
//! implementations (the generic exchanges can't be trait methods because
//! payload types are chosen by the algorithm layer).

use crate::cluster::{SimCluster, TraceEvent, TransferOut};
use crate::threads::ThreadCluster;
use aa_logp::{CostLedger, LogPParams, Phase};
use aa_obs::Stopwatch;
use std::time::Duration;

/// Which execution backend runs the per-rank work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Deterministic superstep simulator (the correctness oracle; default).
    Sim,
    /// Real OS threads + bounded channels over the simulator's accounting.
    Threads,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Sim => "sim",
            BackendKind::Threads => "threads",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(BackendKind::Sim),
            "threads" => Ok(BackendKind::Threads),
            other => Err(format!("unknown backend '{other}' (expected sim|threads)")),
        }
    }
}

/// The non-generic control surface every execution backend exposes; the
/// generic data-plane calls (exchanges, reductions, per-rank stages) live on
/// [`Cluster`] itself because their payload types are the algorithm layer's.
pub trait ExecutionBackend {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;
    /// Number of virtual processors.
    fn proc_count(&self) -> usize;
    /// Synchronizes all virtual clocks.
    fn barrier(&mut self);
    /// Cluster makespan so far (µs of virtual time).
    fn makespan_us(&self) -> f64;
}

impl ExecutionBackend for SimCluster {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }
    fn proc_count(&self) -> usize {
        SimCluster::proc_count(self)
    }
    fn barrier(&mut self) {
        SimCluster::barrier(self)
    }
    fn makespan_us(&self) -> f64 {
        SimCluster::makespan_us(self)
    }
}

impl ExecutionBackend for ThreadCluster {
    fn kind(&self) -> BackendKind {
        BackendKind::Threads
    }
    fn proc_count(&self) -> usize {
        self.sim().proc_count()
    }
    fn barrier(&mut self) {
        self.sim_mut().barrier()
    }
    fn makespan_us(&self) -> f64 {
        self.sim().makespan_us()
    }
}

/// The execution backend handle the engine drives. Mirrors the full
/// [`SimCluster`] API; only the per-rank compute stages differ between
/// variants — exchanges and all accounting go through the shared simulator
/// core either way.
#[derive(Debug)]
pub enum Cluster {
    /// Deterministic superstep simulator.
    Sim(SimCluster),
    /// Real OS threads + bounded channels.
    Threads(ThreadCluster),
}

impl Cluster {
    /// Builds a backend of the given kind. `threads` is the worker cap for
    /// the threaded backend (`0` = one worker per rank) and must be 0 or 1
    /// for the simulator, which executes strictly sequentially — asking the
    /// sim for parallelism is a configuration error that must fail loudly,
    /// not silently run on one core.
    pub fn build(
        kind: BackendKind,
        p: usize,
        params: LogPParams,
        threads: usize,
    ) -> Result<Self, String> {
        match kind {
            BackendKind::Sim => {
                if threads > 1 {
                    return Err(format!(
                        "backend 'sim' is single-threaded: --threads {threads} would silently \
                         run sequentially; use --backend threads for real parallelism"
                    ));
                }
                Ok(Cluster::Sim(SimCluster::new(p, params)))
            }
            BackendKind::Threads => ThreadCluster::new(p, params, threads).map(Cluster::Threads),
        }
    }

    /// Which backend this is.
    pub fn kind(&self) -> BackendKind {
        match self {
            Cluster::Sim(_) => BackendKind::Sim,
            Cluster::Threads(_) => BackendKind::Threads,
        }
    }

    /// The simulator core carrying clocks and ledger.
    pub fn sim(&self) -> &SimCluster {
        match self {
            Cluster::Sim(c) => c,
            Cluster::Threads(t) => t.sim(),
        }
    }

    /// Mutable access to the simulator core.
    pub fn sim_mut(&mut self) -> &mut SimCluster {
        match self {
            Cluster::Sim(c) => c,
            Cluster::Threads(t) => t.sim_mut(),
        }
    }

    /// Runs `f` once per rank with exclusive access to that rank's state
    /// slot, charging each rank's measured wall time to its virtual clock.
    /// The simulator runs ranks sequentially in order; the threaded backend
    /// fans out to its worker pool and merges results (and charges) back in
    /// rank order, so downstream state never observes completion order.
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
        match self {
            Cluster::Sim(c) => {
                assert_eq!(inputs.len(), states.len(), "one input per rank");
                states
                    .iter_mut()
                    .zip(inputs)
                    .enumerate()
                    .map(|(rank, (state, input))| {
                        let t = Stopwatch::start();
                        let r = f(rank, state, input);
                        c.compute_measured(rank, phase, t.elapsed());
                        r
                    })
                    .collect()
            }
            Cluster::Threads(t) => t.run_on_ranks(phase, states, inputs, f),
        }
    }

    // ----- delegated SimCluster surface ---------------------------------

    /// See [`SimCluster::set_compute_scale`].
    pub fn set_compute_scale(&mut self, scale: f64) {
        self.sim_mut().set_compute_scale(scale)
    }

    /// See [`SimCluster::enable_trace`].
    pub fn enable_trace(&mut self) {
        self.sim_mut().enable_trace()
    }

    /// See [`SimCluster::take_trace`].
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.sim_mut().take_trace()
    }

    /// See [`SimCluster::proc_count`].
    pub fn proc_count(&self) -> usize {
        self.sim().proc_count()
    }

    /// See [`SimCluster::params`].
    pub fn params(&self) -> &LogPParams {
        self.sim().params()
    }

    /// See [`SimCluster::compute_measured`].
    pub fn compute_measured(&mut self, p: usize, phase: Phase, elapsed: Duration) {
        self.sim_mut().compute_measured(p, phase, elapsed)
    }

    /// See [`SimCluster::compute_modeled`].
    pub fn compute_modeled(&mut self, p: usize, phase: Phase, us: f64) {
        self.sim_mut().compute_modeled(p, phase, us)
    }

    /// See [`SimCluster::exchange`]. Cost-only collective: both backends run
    /// it on the coordinator (there is no per-rank work to parallelize).
    pub fn exchange<T>(
        &mut self,
        phase: Phase,
        outbox: Vec<Vec<TransferOut<T>>>,
    ) -> Vec<Vec<(usize, T)>> {
        self.sim_mut().exchange(phase, outbox)
    }

    /// See [`SimCluster::broadcast_cost`].
    pub fn broadcast_cost(&mut self, phase: Phase, root: usize, bytes: usize) {
        self.sim_mut().broadcast_cost(phase, root, bytes)
    }

    /// See [`SimCluster::barrier`].
    pub fn barrier(&mut self) {
        self.sim_mut().barrier()
    }

    /// See [`SimCluster::all_reduce_or`].
    pub fn all_reduce_or(&mut self, phase: Phase, flags: &[bool]) -> bool {
        self.sim_mut().all_reduce_or(phase, flags)
    }

    /// See [`SimCluster::makespan_us`].
    pub fn makespan_us(&self) -> f64 {
        self.sim().makespan_us()
    }

    /// See [`SimCluster::ledger`].
    pub fn ledger(&self) -> &CostLedger {
        self.sim().ledger()
    }

    /// See [`SimCluster::reset_accounting`].
    pub fn reset_accounting(&mut self) {
        self.sim_mut().reset_accounting()
    }
}

impl ExecutionBackend for Cluster {
    fn kind(&self) -> BackendKind {
        Cluster::kind(self)
    }
    fn proc_count(&self) -> usize {
        Cluster::proc_count(self)
    }
    fn barrier(&mut self) {
        Cluster::barrier(self)
    }
    fn makespan_us(&self) -> f64 {
        Cluster::makespan_us(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_round_trips_through_strings() {
        for kind in [BackendKind::Sim, BackendKind::Threads] {
            assert_eq!(kind.to_string().parse::<BackendKind>(), Ok(kind));
        }
        assert!("fibers".parse::<BackendKind>().is_err());
    }

    #[test]
    fn sim_backend_rejects_parallelism_loudly() {
        let err = Cluster::build(BackendKind::Sim, 4, LogPParams::ethernet_1gbe(), 8).unwrap_err();
        assert!(err.contains("single-threaded"), "unhelpful error: {err}");
        // threads <= 1 is the sequential contract the sim satisfies.
        for threads in [0, 1] {
            assert!(
                Cluster::build(BackendKind::Sim, 4, LogPParams::ethernet_1gbe(), threads).is_ok()
            );
        }
    }

    #[test]
    fn both_backends_expose_the_trait_surface() {
        let mut backends = vec![
            Cluster::build(BackendKind::Sim, 3, LogPParams::ethernet_1gbe(), 0).unwrap(),
            Cluster::build(BackendKind::Threads, 3, LogPParams::ethernet_1gbe(), 2).unwrap(),
        ];
        for cluster in &mut backends {
            let b: &mut dyn ExecutionBackend = cluster;
            assert_eq!(b.proc_count(), 3);
            b.barrier();
            assert_eq!(b.makespan_us(), 0.0);
        }
        assert_eq!(backends[0].kind(), BackendKind::Sim);
        assert_eq!(backends[1].kind(), BackendKind::Threads);
    }
}
