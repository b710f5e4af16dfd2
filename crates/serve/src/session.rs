//! One driver for the paper's pipeline: a [`Session`] owns the engine, the
//! ingest pipeline and — when asked for — the top-k tracker and the
//! write-ahead log, and is the only place that knows in which order they
//! are called. `aa analyze`, `aa stream`, `aa serve`, the [`Server`] turn
//! loop and the ingest/top-k benches are front-ends over it.
//!
//! # The four ordering rules
//!
//! 1. **Durable before applied.** A pushed op is appended to the WAL iff the
//!    pipeline enqueued it, and the WAL is group-committed *before* the
//!    flush that applies it. A durable session always barrier-flushes after
//!    the commit, so the pipeline buffer equals the uncommitted tail and a
//!    failed commit can abort exactly the ops nobody was promised
//!    ([`IngestPipeline::abort_pending`]).
//! 2. **Feed before tracker.** The engine's bound-delta feed is switched on
//!    where the tracker is created, so no row movement can precede the
//!    tracker's first observation unrecorded.
//! 3. **Publish, drain, observe.** After any mutation or RC step the tracker
//!    is refreshed from the published frame *and* the deltas drained since
//!    the last refresh, in that order: bounds are only ever tightened or
//!    voided against the state they describe (the update-then-refresh
//!    ordering Bisenius et al.'s top-k bounds need under churn).
//! 4. **No tracker, no publication.** `snapshot()` charges a gather, so
//!    [`Session::observe`] and [`Session::converge`] publish nothing when no
//!    tracker is attached.
//!
//! Recovery replay (`aa_durable::recover`) stays outside: it has neither a
//! tracker nor a WAL writer, and aa-durable cannot depend on this crate.
//!
//! [`Server`]: crate::Server

use aa_core::{AnytimeEngine, SnapshotFrame};
use aa_durable::{recover, DurabilityConfig, DurableLog, RecoveryReport, Storage};
use aa_ingest::{FlushReport, IngestConfig, IngestPipeline, IngestStats, PushOutcome, UpdateOp};
use aa_obs::MetricsRegistry;
use aa_query::{TopKAnswer, TopKConfig, TopKTracker};
use std::sync::Arc;

/// What one [`Session::apply_due`] / [`Session::apply_all`] did.
#[derive(Debug, Clone)]
pub struct Applied {
    /// The flush performed, if anything was due (or buffered, for a barrier).
    pub flushed: Option<FlushReport>,
    /// Highest WAL sequence the group commit made durable (durable session,
    /// successful commit).
    pub durable_seq: Option<u64>,
    /// Set when the group commit failed: the uncommitted ops were dropped
    /// unapplied and the WAL writer rotates to a fresh segment.
    pub commit_error: Option<String>,
}

/// What [`Session::open_durable`] found on storage.
pub struct Recovery {
    /// What recovery did.
    pub report: RecoveryReport,
    /// First sequence number the reopened WAL hands out.
    pub next_seq: u64,
    /// `aa_recovery_*` / quarantine metrics.
    pub metrics: MetricsRegistry,
}

/// Engine + ingest pipeline (+ top-k tracker) (+ WAL). See the module docs.
pub struct Session {
    engine: AnytimeEngine,
    pipeline: IngestPipeline,
    tracker: Option<TopKTracker>,
    durable: Option<(Box<dyn Storage>, DurableLog)>,
    commit_failures: u64,
}

impl Session {
    /// Assembles a session around `engine`, initializing it if the caller
    /// has not. With `topk` set, a tracker is attached and the bound feed
    /// enabled; its first observation happens at the first
    /// [`publish`](Session::publish) / [`observe`](Session::observe).
    pub fn new(
        mut engine: AnytimeEngine,
        ingest: IngestConfig,
        topk: Option<TopKConfig>,
    ) -> Result<Self, String> {
        let pipeline = IngestPipeline::new(ingest)?;
        if !engine.is_initialized() {
            engine.initialize();
        }
        let tracker = topk.map(|config| {
            engine.enable_bound_feed();
            TopKTracker::new(config)
        });
        Ok(Session {
            engine,
            pipeline,
            tracker,
            durable: None,
            commit_failures: 0,
        })
    }

    /// Recovers whatever a previous (possibly killed) run left on `storage`,
    /// reopens the WAL at the recovered sequence and attaches both. `base`
    /// is the engine over the graph file, used only when no checkpoint
    /// decodes — pass it uninitialized, so a restart from a checkpoint pays
    /// for neither domain decomposition nor initial approximation.
    pub fn open_durable(
        mut storage: Box<dyn Storage>,
        base: AnytimeEngine,
        ingest: IngestConfig,
        topk: Option<TopKConfig>,
        durability: DurabilityConfig,
    ) -> Result<(Self, Recovery), String> {
        let recovered = recover(storage.as_mut(), base, ingest)?;
        let log = DurableLog::open(storage.as_mut(), recovered.next_seq, durability)
            .map_err(|e| format!("cannot open WAL: {e}"))?;
        let mut session = Session::new(recovered.engine, ingest, topk)?;
        session.attach_durability(storage, log);
        let recovery = Recovery {
            report: recovered.report,
            next_seq: recovered.next_seq,
            metrics: recovered.metrics,
        };
        Ok((session, recovery))
    }

    /// Attaches a write-ahead log and its storage: from here on enqueued ops
    /// are logged and every apply commits first. The caller has run recovery
    /// and opened `log` at the recovered sequence
    /// ([`open_durable`](Session::open_durable) does both).
    pub fn attach_durability(&mut self, storage: Box<dyn Storage>, log: DurableLog) {
        self.durable = Some((storage, log));
    }

    /// Pushes one update through admission and coalescing. On a durable
    /// session an enqueued op is also appended to the WAL; its sequence
    /// number is returned and becomes crash-safe at the next successful
    /// apply. Invalid ops are an `Err` and buffer nothing.
    pub fn push(&mut self, op: UpdateOp) -> Result<(PushOutcome, Option<u64>), String> {
        let to_log = self.durable.is_some().then(|| op.clone());
        let outcome = self.pipeline.push(&self.engine, op)?;
        let seq = match (&mut self.durable, to_log) {
            (Some((_, log)), Some(op)) if outcome.enqueued => Some(log.append(&op)),
            _ => None,
        };
        Ok((outcome, seq))
    }

    /// Applies buffered ops if the drain policy says so. A durable session
    /// treats every apply as a group-commit boundary instead: commit, then
    /// barrier flush (rule 1).
    pub fn apply_due(&mut self) -> Result<Applied, String> {
        self.apply(false)
    }

    /// Applies every buffered op now (commit first when durable).
    pub fn apply_all(&mut self) -> Result<Applied, String> {
        self.apply(true)
    }

    fn apply(&mut self, barrier: bool) -> Result<Applied, String> {
        let mut durable_seq = None;
        let mut commit_error = None;
        if let Some((storage, log)) = &mut self.durable {
            match log.commit(storage.as_mut()) {
                Ok(seq) => durable_seq = Some(seq),
                Err(e) => {
                    let dropped = self.pipeline.abort_pending();
                    self.commit_failures += 1;
                    commit_error =
                        Some(format!("wal commit failed ({dropped} op(s) aborted): {e}"));
                }
            }
        }
        let flushed = if barrier || self.durable.is_some() {
            self.pipeline.flush(&mut self.engine)?
        } else {
            self.pipeline.maybe_flush(&mut self.engine)?
        };
        Ok(Applied {
            flushed,
            durable_seq,
            commit_error,
        })
    }

    /// Runs up to `max` recombination steps while unconverged; returns the
    /// steps taken. Publishes nothing.
    pub fn step(&mut self, max: usize) -> usize {
        let mut steps = 0;
        while steps < max && !self.engine.is_converged() {
            self.engine.rc_step();
            steps += 1;
        }
        steps
    }

    /// Publishes (or reuses) the current snapshot frame and refreshes the
    /// tracker from it and the deltas drained since the last refresh.
    pub fn publish(&mut self) -> Arc<SnapshotFrame> {
        let frame = self.engine.publish_snapshot();
        if let Some(tracker) = &mut self.tracker {
            let deltas = self.engine.drain_bound_deltas();
            tracker.observe(&frame, self.engine.graph(), &deltas);
        }
        frame
    }

    /// Refreshes the tracker after a mutation or step; does nothing — and
    /// charges no gather — without one (rule 4).
    pub fn observe(&mut self) {
        if self.tracker.is_some() {
            self.publish();
        }
    }

    /// Recombination to convergence or `budget` steps; returns the steps
    /// taken. With a tracker every superstep is observed, so its pruning
    /// statistics cover the whole run; without one this is
    /// `run_to_convergence`.
    pub fn converge(&mut self, budget: usize) -> usize {
        if self.tracker.is_none() {
            return self.engine.run_to_convergence(budget);
        }
        self.publish();
        let mut steps = 0;
        while steps < budget && self.step(1) == 1 {
            steps += 1;
            self.publish();
        }
        steps
    }

    /// Writes a checkpoint covering every committed op; `None` without a
    /// WAL. The engine must hold exactly the committed prefix, which is what
    /// rule 1 leaves behind after any apply.
    pub fn checkpoint(&mut self) -> Result<Option<u64>, String> {
        let Some((storage, log)) = &mut self.durable else {
            return Ok(None);
        };
        log.checkpoint(storage.as_mut(), &self.engine)
            .map(Some)
            .map_err(|e| e.to_string())
    }

    /// Ends a durable session cleanly: commits and applies ops logged since
    /// the last apply, then takes a final checkpoint so the next start needs
    /// no replay. Returns its covered sequence (`None` without a WAL). A
    /// failure loses nothing acknowledged — the WAL stays authoritative.
    pub fn close(&mut self) -> Result<Option<u64>, String> {
        if self
            .durable_log()
            .is_some_and(|log| log.pending_records() > 0)
        {
            if let Some(e) = self.apply_all()?.commit_error {
                return Err(format!("shutdown: {e}"));
            }
        }
        self.checkpoint()
            .map_err(|e| format!("final checkpoint failed (WAL remains authoritative): {e}"))
    }

    /// The owned engine.
    pub fn engine(&self) -> &AnytimeEngine {
        &self.engine
    }

    /// Mutable engine access for what is not an ingest op: control commands
    /// and probes. Follow a mutation with
    /// [`observe`](Session::observe).
    pub fn engine_mut(&mut self) -> &mut AnytimeEngine {
        &mut self.engine
    }

    /// The attached tracker, current as of the last publication.
    pub fn tracker(&self) -> Option<&TopKTracker> {
        self.tracker.as_ref()
    }

    /// The tracker's answer for `k` as of the last publication; `None`
    /// without a tracker or before its first observation. Answering is what
    /// tells the tracker which k to keep resolved, hence `&mut`.
    pub fn top_k(&mut self, k: usize) -> Option<TopKAnswer> {
        self.tracker.as_mut()?.answer(k)
    }

    /// The attached WAL/checkpoint log.
    pub fn durable_log(&self) -> Option<&DurableLog> {
        self.durable.as_ref().map(|(_, log)| log)
    }

    /// The ingest pipeline's configuration.
    pub fn ingest_config(&self) -> &IngestConfig {
        self.pipeline.config()
    }

    /// Raw ops buffered and not yet applied.
    pub fn pending_ops(&self) -> usize {
        self.pipeline.pending_ops()
    }

    /// Lifetime ingest counters; `aborted` counts the ops failed commits
    /// dropped.
    pub fn ingest_stats(&self) -> IngestStats {
        self.pipeline.stats()
    }

    /// WAL group commits that failed.
    pub fn commit_failures(&self) -> u64 {
        self.commit_failures
    }

    /// Engine, ingest, top-k and durability registries merged.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut r = self.engine.metrics_registry();
        r.merge(&self.pipeline.metrics_registry());
        if let Some(tracker) = &self.tracker {
            r.merge(&tracker.metrics_registry());
        }
        if let Some(log) = self.durable_log() {
            r.merge(log.metrics_registry());
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_core::EngineConfig;
    use aa_durable::SimStorage;
    use aa_graph::generators;

    /// An engine over the test graph, left uninitialized.
    fn base() -> AnytimeEngine {
        let config = EngineConfig {
            num_procs: 3,
            ..Default::default()
        };
        AnytimeEngine::new(generators::barabasi_albert(60, 2, 1, 7), config)
    }

    fn durable(sim: &SimStorage) -> (Session, Recovery) {
        let storage = Box::new(sim.clone());
        let topk = Some(TopKConfig::default());
        Session::open_durable(
            storage,
            base(),
            IngestConfig::default(),
            topk,
            Default::default(),
        )
        .unwrap()
    }

    fn has_span(session: &Session, name: &str) -> bool {
        session.engine().spans().iter().any(|s| s.name == name)
    }

    #[test]
    fn restart_from_a_checkpoint_skips_decomposition_and_initial_approximation() {
        let sim = SimStorage::new();
        let (mut first, recovery) = durable(&sim);
        assert!(!recovery.report.used_checkpoint, "cold start");
        assert!(has_span(&first, "domain-decomposition"));
        assert!(has_span(&first, "initial-approximation"));
        let ids: Vec<u32> = first.engine().graph().vertices().collect();
        let mut logged = 0;
        for i in 0..8 {
            let (_, seq) = first
                .push(UpdateOp::AddEdge(ids[i], ids[i + 30], 2))
                .unwrap();
            logged = seq.unwrap_or(logged);
        }
        assert!(logged >= 4, "most of the pairs are new edges");
        first.apply_all().unwrap();
        first.converge(1000);
        assert_eq!(first.close().unwrap(), Some(logged));
        let served = first.publish().snapshot.top_k(10);
        sim.kill();

        let (mut second, recovery) = durable(&sim);
        assert!(recovery.report.used_checkpoint);
        assert_eq!(recovery.report.records_replayed, 0);
        assert_eq!(recovery.next_seq, logged + 1);
        assert!(!has_span(&second, "domain-decomposition"));
        assert!(!has_span(&second, "initial-approximation"));
        second.converge(1000);
        assert_eq!(second.publish().snapshot.top_k(10), served);
    }

    #[test]
    fn only_enqueued_ops_are_logged_and_close_commits_the_stragglers() {
        let sim = SimStorage::new();
        let (mut s, _) = durable(&sim);
        let (u, v, w) = s.engine().graph().edges().next().unwrap();
        let (outcome, seq) = s.push(UpdateOp::AddEdge(u, v, w)).unwrap();
        assert!(!outcome.enqueued && seq.is_none(), "a no-op is not logged");
        assert!(s.push(UpdateOp::AddEdge(u, u, 1)).is_err());
        let ids: Vec<u32> = s.engine().graph().vertices().collect();
        let (_, seq) = s.push(UpdateOp::AddEdge(ids[0], ids[40], 3)).unwrap();
        assert_eq!(seq, Some(1));
        assert_eq!(s.durable_log().map(DurableLog::committed_seq), Some(0));
        assert_eq!(s.engine().graph().edge_weight(ids[0], ids[40]), None);
        // Logged, never applied by the caller: close commits, applies and
        // checkpoints it.
        assert_eq!(s.close().unwrap(), Some(1));
        assert_eq!(s.engine().graph().edge_weight(ids[0], ids[40]), Some(3));
        assert_eq!(s.pending_ops(), 0);
    }

    #[test]
    fn without_a_tracker_nothing_is_published() {
        let mut s = Session::new(base(), IngestConfig::default(), None).unwrap();
        assert!(!s.engine().bound_feed_enabled());
        s.converge(1000);
        s.observe();
        assert!(s.engine().is_converged());
        assert_eq!(s.engine().snapshot_publication_counts(), (0, 0));

        let mut t =
            Session::new(base(), IngestConfig::default(), Some(TopKConfig::default())).unwrap();
        assert!(t.engine().bound_feed_enabled());
        assert!(t.top_k(3).is_none());
        let steps = t.converge(1000);
        let (fresh, _) = t.engine().snapshot_publication_counts();
        assert_eq!(fresh as usize, steps + 1, "one frame per superstep");
        assert!(t.tracker().is_some_and(TopKTracker::is_exact));
        assert_eq!(steps, s.engine().rc_steps());
    }
}
