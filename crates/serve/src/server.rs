//! The resident server: one process owning the engine, serving reads from
//! published snapshot frames while the ingest pipeline folds writes in.
//!
//! # Turn loop
//!
//! The server advances in deterministic *turns* ([`Server::turn`]); a turn
//!
//! 1. refills the per-turn write budget,
//! 2. lets the ingest pipeline drain if its policy is due,
//! 3. runs up to [`STEPS_PER_TURN`] recombination steps while unconverged
//!    (a deletion ends exact in its own call, so a turn that deleted
//!    converges in its one step — unless the repair widened the rows),
//! 4. publishes a snapshot frame (allocation-stable when nothing changed)
//!    and folds it into the resident [`TopKTracker`], keeping sound anytime
//!    top-k bounds current across supersteps,
//! 5. serves every queued read from the published frame;
//!    [`ReadKind::TopK`] reads are answered by the tracker with an explicit
//!    exact/anytime confidence.
//!
//! A read is queued at submission unless the queue already holds
//! [`READ_QUEUE_CAP`] reads, in which case it is shed there. Every queued
//! read is served at the next turn boundary, so nothing ever hangs, and
//! every served response carries the frame's
//! [`SnapshotMeta`](aa_core::SnapshotMeta) stamp (epoch, convergence,
//! quiescent-row fraction, finite max-overestimate bound). Writes pass a
//! per-turn token budget before the ingest pipeline's own admission.

//! # Durability
//!
//! With a WAL attached ([`Server::open_durable`], or
//! [`Server::attach_durability`] after the caller's own recovery) the server
//! is crash-consistent: `submit_write` resolves every enqueued op to
//! [`WriteOutcome::Logged`], and each turn's apply is one group commit (one
//! fsync) followed by a barrier flush, so the applied set never runs ahead
//! of the durable set and a failed commit aborts exactly the un-acked ops.
//! The ordering itself lives in [`Session`]. Checkpoints are taken every
//! `checkpoint_every_turns` turns and on [`Server::shutdown`].

use crate::admission::{ServeConfig, TokenBucket};
use crate::request::{ReadKind, ReadOutcome, ReadTicket, ReadValue, WriteOutcome};
use crate::session::{Recovery, Session};
use aa_core::{AnytimeEngine, SnapshotFrame};
use aa_durable::{DurabilityConfig, DurableLog, Storage};
use aa_ingest::{Admission, FlushReport, IngestStats, UpdateOp};
use aa_obs::MetricsRegistry;
use aa_query::{Confidence, TopKAnswer, TopKConfig, TopKTracker};
use std::collections::VecDeque;
use std::sync::Arc;

/// Hard capacity of the read queue; reads submitted beyond it are shed.
pub const READ_QUEUE_CAP: usize = 1024;
/// Write tokens added per turn.
pub(crate) const WRITE_TOKENS_PER_TURN: u32 = 64;
/// Write token burst cap; the bucket starts full.
pub(crate) const WRITE_BURST: u32 = 128;
/// RC steps a turn attempts while unconverged.
pub(crate) const STEPS_PER_TURN: usize = 1;

/// Lifetime counters, one per admission/resolution outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Turns executed.
    pub turns: u64,
    /// Always 0: the server has no degraded mode. Kept because the
    /// benchmark harness reports it.
    pub degraded_turns: u64,
    /// Reads submitted.
    pub reads_submitted: u64,
    /// Reads served from a published frame.
    pub reads_served: u64,
    /// Served top-k reads whose answer was exact.
    pub topk_exact: u64,
    /// Served top-k reads answered with an anytime confidence.
    pub topk_anytime: u64,
    /// Reads shed at read-queue hard capacity.
    pub reads_shed_capacity: u64,
    /// Always 0: reads carry no deadline. Kept because the benchmark
    /// harness reads it.
    pub reads_shed_deadline: u64,
    /// Writes submitted.
    pub writes_submitted: u64,
    /// Writes accepted below the ingest high watermark.
    pub writes_accepted: u64,
    /// Writes admitted above the ingest high watermark.
    pub writes_throttled: u64,
    /// Writes shed at ingest hard capacity.
    pub writes_shed_queue: u64,
    /// Writes shed by the per-turn token budget.
    pub writes_shed_budget: u64,
    /// Writes rejected as invalid.
    pub writes_rejected: u64,
    /// Writes recorded in the WAL (durable server only).
    pub writes_logged: u64,
    /// Logged writes aborted by a failed WAL commit (never applied).
    pub writes_aborted: u64,
    /// WAL group commits that failed.
    pub wal_commit_errors: u64,
    /// Durable checkpoints taken by the turn loop or shutdown.
    pub checkpoints_taken: u64,
}

impl ServeStats {
    /// Fraction of submitted reads shed at the read queue's capacity.
    pub fn read_shed_rate(&self) -> f64 {
        if self.reads_submitted == 0 {
            0.0
        } else {
            self.reads_shed_capacity as f64 / self.reads_submitted as f64
        }
    }
}

/// What one turn did.
#[derive(Debug, Clone)]
pub struct TurnReport {
    /// Every read queued before the turn, served in submission order.
    pub served: Vec<ReadOutcome>,
    /// The ingest flush this turn performed, if its policy was due.
    pub flushed: Option<FlushReport>,
    /// Recombination steps run this turn, settling steps included.
    pub rc_steps: usize,
    /// Highest WAL sequence made durable by this turn's group commit
    /// (durable server only). Every [`WriteOutcome::Logged`] op with
    /// `seq <= durable_seq` is now crash-safe.
    pub durable_seq: Option<u64>,
    /// Set when this turn's WAL commit failed: the uncommitted ops were
    /// aborted (never applied) and the writer rotated to a fresh segment.
    pub commit_error: Option<String>,
    /// Covered sequence of the checkpoint this turn took, if its cadence
    /// was due.
    pub checkpointed: Option<u64>,
}

/// Served-read latencies kept for [`Server::latency_quantiles`]: the
/// quantiles describe the most recent 65,536 served reads (every read, for
/// a run shorter than that), so a resident server's memory and the cost of
/// a metrics scrape stay bounded.
const LATENCY_WINDOW: usize = 1 << 16;

/// A queued (admitted, not yet served) read.
#[derive(Debug, Clone, Copy)]
struct QueuedRead {
    id: u64,
    kind: ReadKind,
    submitted_us: f64,
}

/// The resident query/update server. See the module docs.
pub struct Server {
    session: Session,
    config: ServeConfig,
    read_q: VecDeque<QueuedRead>,
    write_tokens: TokenBucket,
    next_id: u64,
    /// Latency of the most recent `LATENCY_WINDOW` served reads.
    latencies: VecDeque<f64>,
    stats: ServeStats,
    metrics: MetricsRegistry,
    turns_since_checkpoint: usize,
}

impl Server {
    /// Builds a server around an engine, initializing it if the caller has
    /// not.
    pub fn new(engine: AnytimeEngine, config: ServeConfig) -> Result<Self, String> {
        let session = Session::new(engine, config.ingest, Some(TopKConfig::default()))?;
        Ok(Server::over(session, config))
    }

    /// Builds a crash-consistent server over `storage`: recovers what a
    /// previous run left there (`base`, passed uninitialized, is used only
    /// when no checkpoint decodes), reopens the WAL at the recovered
    /// sequence and serves from the recovered engine.
    pub fn open_durable(
        storage: Box<dyn Storage>,
        base: AnytimeEngine,
        config: ServeConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, Recovery), String> {
        let topk = Some(TopKConfig::default());
        let (session, recovery) =
            Session::open_durable(storage, base, config.ingest, topk, durability)?;
        Ok((Server::over(session, config), recovery))
    }

    fn over(mut session: Session, config: ServeConfig) -> Self {
        // Seed the top-k tracker from the initial frame so every TopK read
        // — even one served before the first turn's observation — has sound
        // bounds behind it.
        session.publish();
        let mut metrics = MetricsRegistry::new();
        metrics.declare_histogram(
            "aa_serve_read_latency_us",
            &[10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8],
        );
        Server {
            write_tokens: TokenBucket::new(WRITE_BURST),
            session,
            config,
            read_q: VecDeque::new(),
            next_id: 0,
            latencies: VecDeque::new(),
            stats: ServeStats::default(),
            metrics,
            turns_since_checkpoint: 0,
        }
    }

    /// Attaches a write-ahead log and its storage, making the server
    /// crash-consistent from this point on: enqueued writes resolve to
    /// [`WriteOutcome::Logged`] and become durable at the next turn's group
    /// commit. The caller runs recovery first and opens the log at the
    /// recovered sequence ([`Server::open_durable`] does both).
    pub fn attach_durability(&mut self, storage: Box<dyn Storage>, log: DurableLog) {
        self.session.attach_durability(storage, log);
        self.turns_since_checkpoint = 0;
    }

    /// True when a WAL is attached.
    pub fn is_durable(&self) -> bool {
        self.session.durable_log().is_some()
    }

    /// Highest WAL sequence known durable (`None` without a WAL).
    pub fn durable_committed_seq(&self) -> Option<u64> {
        self.session.durable_log().map(DurableLog::committed_seq)
    }

    /// Submits a read. It is queued and served at the next turn, unless
    /// the queue already holds [`READ_QUEUE_CAP`] reads: then it is shed
    /// here and never produces a [`ReadOutcome`].
    pub fn submit_read(&mut self, kind: ReadKind) -> ReadTicket {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.reads_submitted += 1;
        if self.read_q.len() >= READ_QUEUE_CAP {
            self.stats.reads_shed_capacity += 1;
            self.count_reads("shed-capacity", 1);
            return ReadTicket {
                id,
                admission: Admission::Shed,
            };
        }
        self.read_q.push_back(QueuedRead {
            id,
            kind,
            submitted_us: self.session.engine().makespan_us(),
        });
        self.metrics
            .set_gauge("aa_serve_read_queue_depth", &[], self.read_q.len() as f64);
        self.count_reads("accepted", 1);
        ReadTicket {
            id,
            admission: Admission::Accepted,
        }
    }

    /// Submits a write. The op first passes the per-turn write token budget
    /// (shed on exhaustion), then the ingest pipeline's own admission
    /// queue. On a durable server every enqueued op is also recorded in the
    /// WAL and resolves to
    /// [`WriteOutcome::Logged`]; it is crash-safe once a later turn reports
    /// `durable_seq >= seq`.
    pub fn submit_write(&mut self, op: UpdateOp) -> WriteOutcome {
        self.stats.writes_submitted += 1;
        if !self.write_tokens.take() {
            self.stats.writes_shed_budget += 1;
            self.count_write("shed-budget");
            return WriteOutcome::Shed;
        }
        match self.session.push(op) {
            Ok((outcome, seq)) => {
                match outcome.admission {
                    Admission::Accepted => {
                        self.stats.writes_accepted += 1;
                        self.count_write("accepted");
                    }
                    Admission::Throttled { .. } => {
                        self.stats.writes_throttled += 1;
                        self.count_write("throttled");
                    }
                    Admission::Shed => {
                        self.stats.writes_shed_queue += 1;
                        self.count_write("shed-queue");
                    }
                }
                match seq {
                    Some(seq) => {
                        self.stats.writes_logged += 1;
                        self.count_write("logged");
                        WriteOutcome::Logged {
                            seq,
                            admission: outcome.admission,
                        }
                    }
                    None => WriteOutcome::Ingest(outcome.admission),
                }
            }
            Err(e) => {
                self.stats.writes_rejected += 1;
                self.count_write("rejected");
                WriteOutcome::Rejected(e)
            }
        }
    }

    /// Runs one turn; see the module docs for the sequence.
    pub fn turn(&mut self) -> Result<TurnReport, String> {
        self.stats.turns += 1;
        self.write_tokens.refill(WRITE_TOKENS_PER_TURN);

        let applied = self.session.apply_due()?;
        let rc_steps = self.session.step(STEPS_PER_TURN);

        let frame = self.session.publish();
        let served = self.serve_reads(&frame);

        // Checkpoint cadence: the engine holds exactly the committed prefix
        // after the apply above, even when this turn's commit failed.
        let mut checkpointed = None;
        let cadence = self
            .session
            .durable_log()
            .map(|log| log.config().checkpoint_every_turns);
        if let Some(every) = cadence {
            self.turns_since_checkpoint += 1;
            if every > 0 && self.turns_since_checkpoint >= every {
                // Reset either way: a failed write is already counted in the
                // log's metrics, and backing off to the next full cadence
                // beats hammering a sick disk every turn.
                self.turns_since_checkpoint = 0;
                if let Ok(Some(seq)) = self.session.checkpoint() {
                    self.stats.checkpoints_taken += 1;
                    checkpointed = Some(seq);
                }
            }
        }

        self.metrics
            .set_gauge("aa_serve_read_queue_depth", &[], self.read_q.len() as f64);
        Ok(TurnReport {
            served,
            flushed: applied.flushed,
            rc_steps,
            durable_seq: applied.durable_seq,
            commit_error: applied.commit_error,
            checkpointed,
        })
    }

    /// Runs turns until the read queue and ingest buffer are empty and the
    /// engine has converged, or `max_turns` is hit. Pending writes are
    /// barrier-flushed so they cannot stall behind an un-triggered drain
    /// policy. Returns every read outcome resolved along the way.
    pub fn drain(&mut self, max_turns: usize) -> Result<Vec<ReadOutcome>, String> {
        let mut out = Vec::new();
        for _ in 0..max_turns {
            if self.read_q.is_empty()
                && self.session.pending_ops() == 0
                && self.session.engine().is_converged()
            {
                break;
            }
            // A durable turn's apply is already a barrier.
            if !self.is_durable() && self.session.pending_ops() > 0 {
                self.session.apply_all()?;
            }
            out.extend(self.turn()?.served);
        }
        Ok(out)
    }

    /// Graceful shutdown: drains reads and pending writes (committing and
    /// applying them turn by turn), then closes the session — stragglers
    /// committed and applied, a final checkpoint taken so restart needs no
    /// WAL replay. Returns the drained read outcomes and the final
    /// checkpoint's covered sequence (`None` without a WAL). A failed close
    /// is an error — the WAL still holds everything, so nothing acknowledged
    /// is lost, but the caller should surface it.
    pub fn shutdown(
        &mut self,
        max_turns: usize,
    ) -> Result<(Vec<ReadOutcome>, Option<u64>), String> {
        let served = self.drain(max_turns)?;
        let seq = self.session.close()?;
        if seq.is_some() {
            self.stats.checkpoints_taken += 1;
        }
        Ok((served, seq))
    }

    /// Publishes (or reuses) the current snapshot frame.
    pub fn frame(&mut self) -> Arc<SnapshotFrame> {
        self.session.publish()
    }

    /// Lifetime serve counters. Aborts are counted where they happen: the
    /// pipeline counts the ops a failed commit dropped, the session the
    /// failed commits.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            writes_aborted: self.session.ingest_stats().aborted,
            wal_commit_errors: self.session.commit_failures(),
            ..self.stats
        }
    }

    /// Lifetime ingest counters.
    pub fn ingest_stats(&self) -> IngestStats {
        self.session.ingest_stats()
    }

    /// Admitted reads awaiting service.
    pub fn read_queue_depth(&self) -> usize {
        self.read_q.len()
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The owned engine.
    pub fn engine(&self) -> &AnytimeEngine {
        self.session.engine()
    }

    /// The resident top-k tracker (read-only; the turn loop keeps it
    /// observed). Every server carries one.
    pub fn topk_tracker(&self) -> Option<&TopKTracker> {
        self.session.tracker()
    }

    /// Mutable engine access (direct mutations in tests and the CLI; the
    /// server re-observes engine state at the next turn boundary).
    pub fn engine_mut(&mut self) -> &mut AnytimeEngine {
        self.session.engine_mut()
    }

    /// Served-read latency quantiles `(p50, p99)` in virtual µs over the
    /// most recent 65,536 served reads (`LATENCY_WINDOW`), when at least
    /// one read has been served.
    pub fn latency_quantiles(&self) -> Option<(f64, f64)> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.latencies.iter().copied().collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Some((quantile(&sorted, 0.50), quantile(&sorted, 0.99)))
    }

    /// Merged metrics: engine + ingest + durability + serve registries,
    /// with the read latency quantile gauges computed over the latency
    /// window.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut r = self.session.metrics_registry();
        let mut s = self.metrics.clone();
        if let Some((p50, p99)) = self.latency_quantiles() {
            s.set_gauge("aa_serve_read_latency_p50_us", &[], p50);
            s.set_gauge("aa_serve_read_latency_p99_us", &[], p99);
        }
        r.merge(&s);
        r
    }

    /// Serves every queued read from the one published frame.
    fn serve_reads(&mut self, frame: &SnapshotFrame) -> Vec<ReadOutcome> {
        let now = self.session.engine().makespan_us();
        let mut out = Vec::with_capacity(self.read_q.len());
        while let Some(req) = self.read_q.pop_front() {
            let latency_us = (now - req.submitted_us).max(0.0);
            self.metrics
                .observe("aa_serve_read_latency_us", &[], latency_us);
            if self.latencies.len() == LATENCY_WINDOW {
                self.latencies.pop_front();
            }
            self.latencies.push_back(latency_us);
            let value = answer(frame, &mut self.session, req.kind);
            if let ReadValue::TopK(ans) = &value {
                if ans.is_exact() {
                    self.stats.topk_exact += 1;
                } else {
                    self.stats.topk_anytime += 1;
                }
            }
            out.push(ReadOutcome::Served {
                id: req.id,
                latency_us,
                meta: frame.meta,
                value,
            });
        }
        let served = out.len() as u64;
        self.stats.reads_served += served;
        self.count_reads("served", served);
        out
    }

    /// Counts `by` reads resolved the same way (a turn's worth at once).
    fn count_reads(&mut self, outcome: &str, by: u64) {
        if by > 0 {
            self.metrics.inc_counter(
                "aa_serve_requests_total",
                &[("class", "read"), ("outcome", outcome)],
                by,
            );
        }
    }

    fn count_write(&mut self, outcome: &str) {
        self.metrics.inc_counter(
            "aa_serve_requests_total",
            &[("class", "write"), ("outcome", outcome)],
            1,
        );
    }
}

/// Computes a read's value from a published frame. Top-k reads go through
/// the tracker's bound state; the snapshot fallback only fires if the
/// tracker has never observed a frame (it is seeded at construction, so in
/// practice every answer carries real bounds).
fn answer(frame: &SnapshotFrame, session: &mut Session, kind: ReadKind) -> ReadValue {
    let snap = &frame.snapshot;
    match kind {
        ReadKind::TopK(k) => ReadValue::TopK(Box::new(session.top_k(k).unwrap_or_else(|| {
            let members = snap.top_k(k);
            let unresolved = snap
                .closeness
                .iter()
                .filter(|&&c| c > 0.0)
                .count()
                .saturating_sub(members.len());
            let confidence = if frame.meta.converged {
                Confidence::Exact
            } else {
                // Claim nothing: every other candidate is unresolved and
                // the gap is the widest possible closeness.
                Confidence::Anytime {
                    kth_bound_gap: 1.0,
                    unresolved_candidates: unresolved,
                }
            };
            TopKAnswer {
                k,
                members,
                confidence,
                meta: frame.meta,
            }
        }))),
        ReadKind::Vertex(v) => {
            let slot = v as usize;
            ReadValue::Vertex {
                closeness: snap.closeness.get(slot).copied().unwrap_or(0.0),
            }
        }
    }
}

/// Nearest-rank quantile over an ascending-sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_core::EngineConfig;
    use aa_durable::{recover, SimStorage, StorageFaultPlan, StorageFaults};
    use aa_graph::{algo, generators, VertexId};

    fn sim_engine(n: usize, procs: usize) -> AnytimeEngine {
        let g = generators::barabasi_albert(n, 2, 1, 7);
        AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: procs,
                ..Default::default()
            },
        )
    }

    fn server(n: usize, procs: usize) -> Server {
        Server::new(sim_engine(n, procs), ServeConfig::default()).unwrap()
    }

    /// A server with a WAL over `sim`, checkpointing every 4 turns.
    fn durable_server(n: usize, procs: usize, sim: &SimStorage) -> Server {
        durable_server_over(sim_engine(n, procs), sim)
    }

    fn durable_server_over(engine: AnytimeEngine, sim: &SimStorage) -> Server {
        let durability = DurabilityConfig {
            checkpoint_every_turns: 4,
        };
        let (s, recovery) = Server::open_durable(
            Box::new(sim.clone()),
            engine,
            ServeConfig::default(),
            durability,
        )
        .unwrap();
        assert_eq!(recovery.next_seq, 1, "empty storage starts the log at 1");
        s
    }

    #[test]
    fn reads_resolve_within_a_drain_and_match_engine_state() {
        let mut s = server(60, 3);
        s.drain(64).unwrap(); // converge first so the frame is fresh
        let t = s.submit_read(ReadKind::TopK(5));
        assert_eq!(t.admission, Admission::Accepted);
        let out = s.drain(64).unwrap();
        assert_eq!(out.len(), 1);
        match &out[0] {
            ReadOutcome::Served { meta, value, .. } => {
                assert!(meta.converged);
                match value {
                    ReadValue::TopK(ans) => {
                        assert!(ans.is_exact(), "fresh frame must yield an exact answer");
                        assert_eq!(ans.members.len(), 5);
                        assert_eq!(ans.members, s.frame().snapshot.top_k(5));
                    }
                    other => panic!("wrong value: {other:?}"),
                }
            }
            other => panic!("read was not served: {other:?}"),
        }
        assert_eq!(s.stats().reads_served, 1);
    }

    /// New edges chaining `len + 1` of the highest-numbered vertices, none
    /// of which an edge joins yet: a batch of insertions in series, which
    /// recombination owes on an unsettled engine, and which a settled one
    /// takes exactly as a chain of single insertions.
    fn edges_in_series(g: &aa_graph::Graph, len: usize) -> Vec<(VertexId, VertexId, u32)> {
        let mut chain: Vec<VertexId> = g.vertices().collect();
        chain.drain(..chain.len() - (len + 1));
        let edges: Vec<_> = chain.windows(2).map(|p| (p[0], p[1], 1)).collect();
        assert!(edges.iter().all(|&(a, b, _)| !g.has_edge(a, b)));
        edges
    }

    #[test]
    fn topk_reads_carry_anytime_confidence_under_churn_and_settle_exact() {
        let mut s = server(120, 4);
        // A batch of new edges in series on an engine still converging
        // (one turn's step past the initial approximation): the next frame
        // is stale (one rc_step cannot carry the chain's far ends to each
        // other), and the tracker must answer with an honest anytime
        // confidence. k is chosen above the tracker's pivot budget so the
        // member scores cannot all be structurally exact — exactness can
        // then only come from a fresh frame or fully reconverged rows.
        s.turn().unwrap();
        assert!(!s.engine().is_converged());
        let k = s.topk_tracker().unwrap().config().max_pivots + 4;
        let batch = edges_in_series(s.engine().graph(), 4);
        assert_eq!(s.engine_mut().add_edges(&batch), batch.len());
        s.submit_read(ReadKind::TopK(k));
        let rep = s.turn().unwrap();
        let served: Vec<_> = rep
            .served
            .iter()
            .filter_map(|o| match o {
                ReadOutcome::Served { meta, value, .. } => Some((meta, value)),
                _ => None,
            })
            .collect();
        assert_eq!(served.len(), 1);
        let (meta, value) = &served[0];
        assert!(
            !meta.converged,
            "frame right after a batch in series cannot be converged"
        );
        match value {
            ReadValue::TopK(ans) => {
                assert_eq!(ans.k, k);
                assert!(
                    !ans.is_exact(),
                    "stale frame with k beyond the pivot budget must not \
                     claim an exact ranking"
                );
                assert_eq!(ans.meta.epoch, meta.epoch);
            }
            other => panic!("wrong value: {other:?}"),
        }
        // Once the server re-converges the same read settles to exact.
        s.drain(200).unwrap();
        s.submit_read(ReadKind::TopK(k));
        let out = s.drain(64).unwrap();
        match &out[0] {
            ReadOutcome::Served { value, meta, .. } => {
                assert!(meta.converged);
                match value {
                    ReadValue::TopK(ans) => assert!(ans.is_exact()),
                    other => panic!("wrong value: {other:?}"),
                }
            }
            other => panic!("read was not served: {other:?}"),
        }
        let r = s.metrics_registry();
        assert!(r.counter_value("aa_topk_observes_total", &[]) > 0);
        assert!(r.counter_value("aa_topk_rebuilds_total", &[]) >= 2);
    }

    #[test]
    fn a_turn_that_deletes_settles_before_it_answers() {
        let sim = SimStorage::new();
        let mut s = durable_server(60, 3, &sim);
        let count = |s: &Server, name: &str| s.metrics_registry().counter_value(name, &[]);
        let barrier = |s: &Server| count(s, "aa_deletion_barrier_steps_total");

        // Additions alone keep the anytime pace from the unconverged start:
        // `STEPS_PER_TURN` steps, still unconverged.
        let g = s.engine().graph();
        let (a, b) = (0, g.vertices().last().unwrap());
        assert_eq!(g.edge_weight(a, b), None);
        assert!(s.submit_write(UpdateOp::AddEdge(a, b, 1)).is_admitted());
        let rep = s.turn().unwrap();
        assert_eq!(rep.rc_steps, STEPS_PER_TURN);
        assert!(!s.engine().is_converged());

        // A deletion: its barrier first finishes what the addition left,
        // and the deletion ends exact, so the turn's one step converges and
        // the turn answers from a fresh frame.
        let k = 5;
        let (u, v, _) = s.engine().graph().edges().nth(3).unwrap();
        assert!(s.submit_write(UpdateOp::DeleteEdge(u, v)).is_admitted());
        s.submit_read(ReadKind::TopK(k));
        let rep = s.turn().unwrap();
        assert_eq!(rep.flushed.as_ref().map(|f| f.edge_deletes), Some(1));
        assert!(barrier(&s) > 0, "the barrier had the addition to finish");
        assert!(s.engine().is_converged());
        assert_eq!(rep.rc_steps, STEPS_PER_TURN, "the one step converges");
        assert_exact_top_k(&s, &rep, k);

        // The next deletion's barrier finds the engine quiescent.
        let before = barrier(&s);
        let (u, v, _) = s.engine().graph().edges().nth(7).unwrap();
        assert!(s.submit_write(UpdateOp::DeleteEdge(u, v)).is_admitted());
        let rep = s.turn().unwrap();
        assert_eq!(rep.flushed.as_ref().map(|f| f.edge_deletes), Some(1));
        assert_eq!(barrier(&s), before, "the barrier took no step");
        assert!(s.engine().is_converged());

        // A deletion and, in the same flush, a batch of insertions in
        // series after it: the deletion leaves the engine settled, so the
        // batch chains, exact in its own call too. The turn's one step runs
        // empty and converges, and the answer is exact.
        let exact = |s: &Server| count(s, "aa_dynamic_settled_updates_total");
        let (u, v, _) = s.engine().graph().edges().nth(11).unwrap();
        let batch = edges_in_series(s.engine().graph(), 4);
        assert!(s.submit_write(UpdateOp::DeleteEdge(u, v)).is_admitted());
        for &(a, b, w) in &batch {
            assert!(s.submit_write(UpdateOp::AddEdge(a, b, w)).is_admitted());
        }
        s.submit_read(ReadKind::TopK(k));
        let settled_updates = exact(&s);
        let rep = s.turn().unwrap();
        let flushed = rep.flushed.as_ref().map(|f| (f.edge_deletes, f.edge_adds));
        assert_eq!(flushed, Some((1, batch.len())));
        assert_eq!(exact(&s), settled_updates + 2, "the deletion, the batch");
        assert_eq!(barrier(&s), before, "the barrier took no step");
        assert!(s.engine().is_converged());
        assert_eq!(rep.rc_steps, STEPS_PER_TURN, "the one step converges");
        assert_exact_top_k(&s, &rep, k);
    }

    /// A deletion whose repair passes 254 widens the rows and leaves the
    /// engine unsettled: the turn's one step does not converge, the turn
    /// answers a sound anytime top-k, and draining ends exact.
    #[test]
    fn a_deletion_that_widens_answers_anytime_and_drains_exact() {
        let sim = SimStorage::new();
        let config = EngineConfig {
            num_procs: 3,
            ..Default::default()
        };
        let engine = AnytimeEngine::new(generators::cycle(300), config);
        let mut s = durable_server_over(engine, &sim);
        s.drain(4096).unwrap();
        assert!(s.engine().is_converged());

        let k = 5;
        assert!(s.submit_write(UpdateOp::DeleteEdge(0, 299)).is_admitted());
        s.submit_read(ReadKind::TopK(k));
        let rep = s.turn().unwrap();
        assert_eq!(rep.flushed.as_ref().map(|f| f.edge_deletes), Some(1));
        assert_eq!(rep.rc_steps, STEPS_PER_TURN);
        assert!(!s.engine().is_converged(), "the widened rows owe steps");
        let truth = oracle_top_k(s.engine().graph(), k);
        let exact = algo::exact_closeness(s.engine().graph());
        match &rep.served[..] {
            [ReadOutcome::Served {
                meta,
                value: ReadValue::TopK(ans),
                ..
            }] => {
                assert!(!meta.converged);
                assert!(!ans.is_exact(), "{:?}", ans.confidence);
                for &(v, score) in &ans.members {
                    assert!(score <= exact[v as usize], "{v}: {score} above exact");
                }
            }
            other => panic!("expected one served top-k read, got {other:?}"),
        }
        let tracker = s.topk_tracker().unwrap();
        let (members, unresolved, _) = tracker.partition(k).unwrap();
        for (v, _) in &truth {
            assert!(members.contains(v) || unresolved.contains(v), "{v} pruned");
        }

        s.drain(4096).unwrap();
        assert!(s.engine().is_converged());
        let oracle = algo::apsp_dijkstra(s.engine().graph());
        assert_eq!(s.engine().distances_dense(), oracle);
        s.submit_read(ReadKind::TopK(k));
        let rep = s.turn().unwrap();
        assert_exact_top_k(&s, &rep, k);
    }

    /// The oracle's top-k of `g`: score descending, ties by id.
    fn oracle_top_k(g: &aa_graph::Graph, k: usize) -> Vec<(VertexId, f64)> {
        let exact = algo::exact_closeness(g);
        let mut oracle: Vec<(VertexId, f64)> = (exact.iter().enumerate())
            .filter(|&(_, &c)| c > 0.0)
            .map(|(v, &c)| (v as VertexId, c))
            .collect();
        oracle.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        oracle.truncate(k);
        oracle
    }

    /// The turn served one top-k read from a converged frame, exact and bit
    /// for bit the oracle's.
    fn assert_exact_top_k(s: &Server, rep: &TurnReport, k: usize) {
        let oracle = oracle_top_k(s.engine().graph(), k);
        match &rep.served[..] {
            [ReadOutcome::Served {
                meta,
                value: ReadValue::TopK(ans),
                ..
            }] => {
                assert!(
                    meta.converged,
                    "a turn that deleted answers from a converged frame"
                );
                assert!(ans.is_exact());
                assert_eq!(ans.members, oracle, "bit for bit the oracle's top-{k}");
            }
            other => panic!("expected one served top-k read, got {other:?}"),
        }
    }

    #[test]
    fn read_queue_capacity_sheds_at_submission() {
        let mut s = server(60, 3);
        let admissions: Vec<Admission> = (0..READ_QUEUE_CAP + 2)
            .map(|_| s.submit_read(ReadKind::TopK(1)).admission)
            .collect();
        let (accepted, shed) = admissions.split_at(READ_QUEUE_CAP);
        assert!(accepted.iter().all(|&a| a == Admission::Accepted));
        assert_eq!(shed, [Admission::Shed; 2]);
        assert_eq!(s.stats().reads_shed_capacity, 2);
        // Every queued read resolves.
        let out = s.drain(64).unwrap();
        assert_eq!(out.len(), READ_QUEUE_CAP);
    }

    #[test]
    fn write_budget_sheds_when_exhausted() {
        let mut s = server(60, 3);
        let ids: Vec<u32> = s.engine().graph().vertices().collect();
        // Submits `count` writes and returns how many the budget shed.
        let shed_of = |s: &mut Server, count: u32| {
            (0..count as usize)
                .filter(|i| {
                    let op = UpdateOp::AddEdge(ids[i % 30], ids[30 + i % 30], 1);
                    matches!(s.submit_write(op), WriteOutcome::Shed)
                })
                .count()
        };
        assert_eq!(
            shed_of(&mut s, WRITE_BURST + 2),
            2,
            "a full bucket, two over"
        );
        s.turn().unwrap();
        // The turn refills the per-turn budget, and no more.
        assert_eq!(shed_of(&mut s, WRITE_TOKENS_PER_TURN + 2), 2);
    }

    #[test]
    fn metrics_merge_engine_ingest_and_serve_families() {
        let mut s = server(60, 3);
        s.submit_read(ReadKind::TopK(3));
        let ids: Vec<u32> = s.engine().graph().vertices().collect();
        s.submit_write(UpdateOp::AddEdge(ids[0], ids[30], 2));
        s.drain(64).unwrap();
        let r = s.metrics_registry();
        assert!(r.counter_value("aa_rc_steps_total", &[]) > 0);
        assert!(
            r.counter_value(
                "aa_serve_requests_total",
                &[("class", "read"), ("outcome", "served")]
            ) >= 1
        );
        assert!(r.counter_value("aa_snapshot_publications_total", &[("kind", "fresh")]) >= 1);
        assert!(r.gauge_value("aa_serve_read_latency_p50_us", &[]).is_some());
    }

    #[test]
    fn durable_writes_ack_at_commit_and_survive_kill() {
        let sim = SimStorage::new();
        let mut s = durable_server(60, 3, &sim);
        let ids: Vec<u32> = s.engine().graph().vertices().collect();
        let mut seqs = Vec::new();
        for i in 0..3usize {
            match s.submit_write(UpdateOp::AddEdge(ids[i], ids[i + 25], 1)) {
                WriteOutcome::Logged { seq, admission } => {
                    assert!(admission.is_admitted());
                    seqs.push(seq);
                }
                other => panic!("expected Logged, got {other:?}"),
            }
        }
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(
            s.durable_committed_seq(),
            Some(0),
            "nothing durable before the turn's group commit"
        );
        let rep = s.turn().unwrap();
        assert_eq!(rep.durable_seq, Some(3));
        assert!(rep.commit_error.is_none());
        assert_eq!(s.stats().writes_logged, 3);

        // Converge, kill -9, recover into a fresh engine: every acked op
        // survives and the recovered ranking matches exactly.
        s.drain(200).unwrap();
        sim.kill();
        let mut st = sim.clone();
        let rec = recover(&mut st, sim_engine(60, 3), s.config().ingest).unwrap();
        assert_eq!(rec.next_seq, 4);
        let mut recovered = rec.engine;
        recovered.run_to_convergence(100_000);
        let want = s.engine_mut().snapshot().closeness.clone();
        let got = recovered.snapshot().closeness.clone();
        assert_eq!(want.len(), got.len());
        for (i, (a, b)) in want.iter().zip(got.iter()).enumerate() {
            assert!((a - b).abs() < 1e-12, "vertex {i}: {a} vs {b}");
        }
    }

    #[test]
    fn durable_commit_failure_aborts_unacked_ops_and_service_continues() {
        let plan = StorageFaultPlan::new(
            5,
            StorageFaults {
                p_fail_fsync: 1.0,
                ..StorageFaults::none()
            },
        );
        let sim = SimStorage::with_faults(plan);
        let mut s = durable_server(60, 3, &sim);
        let ids: Vec<u32> = s.engine().graph().vertices().collect();
        // Existing edges resolve as never-enqueued noops; keep going until
        // two ops are actually logged.
        let mut i = 0;
        let mut logged = 0;
        while logged < 2 {
            let op = UpdateOp::AddEdge(ids[i], ids[i + 29], 1);
            if matches!(s.submit_write(op), WriteOutcome::Logged { .. }) {
                logged += 1;
            }
            i += 1;
        }
        let rep = s.turn().unwrap();
        assert!(rep.commit_error.is_some(), "fsync always fails");
        assert_eq!(rep.durable_seq, None);
        assert_eq!(s.stats().writes_aborted, 2);
        assert_eq!(s.stats().wal_commit_errors, 1);
        assert_eq!(s.durable_committed_seq(), Some(0));
        assert_eq!(s.ingest_stats().aborted, 2);
        assert_eq!(
            s.ingest_stats().raw_in,
            0,
            "aborted ops must never reach the engine"
        );
        // Burned sequence numbers; reads still serve.
        loop {
            let op = UpdateOp::AddEdge(ids[i], ids[i + 29], 1);
            i += 1;
            match s.submit_write(op) {
                WriteOutcome::Logged { seq, .. } => {
                    assert_eq!(seq, 3, "failed commit burns its sequence numbers");
                    break;
                }
                WriteOutcome::Ingest(_) => continue, // noop, try the next pair
                other => panic!("expected Logged, got {other:?}"),
            }
        }
        let t = s.submit_read(ReadKind::TopK(3));
        assert!(t.admission.is_admitted());
        let out = s.turn().unwrap();
        assert!(out
            .served
            .iter()
            .any(|o| matches!(o, ReadOutcome::Served { .. })));
    }

    #[test]
    fn shutdown_takes_final_checkpoint_so_recovery_skips_replay() {
        let sim = SimStorage::new();
        let mut s = durable_server(60, 3, &sim);
        let ids: Vec<u32> = s.engine().graph().vertices().collect();
        let mut i = 0;
        let mut logged = 0;
        while logged < 5 {
            let op = UpdateOp::AddEdge(ids[i], ids[i + 20], 1);
            if matches!(s.submit_write(op), WriteOutcome::Logged { .. }) {
                logged += 1;
            }
            i += 1;
        }
        let (_, ckpt) = s.shutdown(200).unwrap();
        assert_eq!(ckpt, Some(5), "final checkpoint covers every acked op");
        assert!(s.stats().checkpoints_taken >= 1);
        sim.kill();
        let mut st = sim.clone();
        let rec = recover(&mut st, sim_engine(60, 3), s.config().ingest).unwrap();
        assert_eq!(rec.report.checkpoint_seq, 5);
        assert_eq!(rec.report.records_replayed, 0, "checkpoint covers the WAL");
        assert_eq!(rec.next_seq, 6);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.99), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
