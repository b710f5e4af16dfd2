//! The ingestion pipeline: admission → coalescing → scheduled batch flush.
//!
//! [`IngestPipeline`] sits between update producers and an
//! [`AnytimeEngine`]. Producers call [`IngestPipeline::push`] with
//! [`UpdateOp`]s and receive an [`Admission`] decision plus any warnings;
//! the driver calls [`IngestPipeline::maybe_flush`] at its serving cadence
//! (and [`IngestPipeline::flush`] at barriers such as `converge` or end of
//! stream). A flush drains the coalescing buffer through the engine's
//! *batched* kernels — one `add_vertices`, one `increase_edge_weights`
//! (deletions and heavier edges), one `add_edges`, then per-edge relaxing
//! reweights and per-vertex deletions —
//! so a burst of updates pays one IA/RC disturbance per batch instead of
//! per change.
//!
//! Exactness contract: as long as no op is [`Admission::Shed`], flushing any
//! prefix schedule and converging yields exactly the distances of the same
//! ops applied one at a time (see `tests/ingest_differential.rs` at the
//! workspace root).

use crate::coalesce::Coalescer;
use crate::op::UpdateOp;
use crate::policy::DrainPolicy;
use crate::queue::{Admission, IngestQueue};
use aa_core::{AdditionStrategy, AnytimeEngine, Endpoint, VertexBatch};
use aa_graph::{VertexId, Weight, INF};
use aa_obs::MetricsRegistry;

/// Configuration for an [`IngestPipeline`].
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Hard queue capacity; ops beyond it are shed.
    pub queue_cap: usize,
    /// Throttling threshold; pushes above it are admitted but `Throttled`.
    pub high_watermark: usize,
    /// When the scheduler drains the buffer.
    pub policy: DrainPolicy,
    /// Processor-assignment strategy for flushed vertex additions.
    pub strategy: AdditionStrategy,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queue_cap: 4096,
            high_watermark: 3072,
            policy: DrainPolicy::SizeTriggered(64),
            strategy: AdditionStrategy::CutEdgePs,
        }
    }
}

/// Result of one accepted (or shed) push.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushOutcome {
    /// Backpressure decision. No-ops (duplicate adds, deletes of missing
    /// edges) are reported `Accepted` without consuming queue space.
    pub admission: Admission,
    /// Human-readable warnings, phrased exactly like the unbatched stream
    /// path so both share output expectations.
    pub warnings: Vec<String>,
    /// Predicted id for an admitted [`UpdateOp::AddVertex`]; later ops in
    /// the same batch may reference it.
    pub new_vertex: Option<VertexId>,
    /// Whether the op actually entered the buffer. False for no-ops (they
    /// change nothing and need no durability) and for shed ops; the durable
    /// serve path only write-ahead-logs ops with `enqueued == true`.
    pub enqueued: bool,
}

/// Counters accumulated over the pipeline's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Ops admitted below the high watermark.
    pub accepted: u64,
    /// Ops admitted above the high watermark.
    pub throttled: u64,
    /// Ops dropped at hard capacity.
    pub shed: u64,
    /// Ops that were valid but had no effect (never enqueued).
    pub noops: u64,
    /// Ops rejected with an error.
    pub rejected: u64,
    /// Buffered ops discarded by [`IngestPipeline::abort_pending`] after a
    /// failed durability commit.
    pub aborted: u64,
    /// Batch flushes performed.
    pub flushes: u64,
    /// Raw ops drained by flushes.
    pub raw_in: u64,
    /// Materialized engine actions produced by flushes.
    pub actions_out: u64,
}

impl IngestStats {
    /// Fraction of drained raw ops absorbed by coalescing — 0 when nothing
    /// has been flushed, and never negative because each raw op materializes
    /// at most one coalesced action.
    pub fn coalesce_ratio(&self) -> f64 {
        if self.raw_in == 0 {
            0.0
        } else {
            1.0 - self.actions_out as f64 / self.raw_in as f64
        }
    }
}

/// What one flush did, in both op counts and cluster time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlushReport {
    /// Which policy (or barrier) triggered the flush.
    pub trigger: &'static str,
    /// Raw ops drained from the queue.
    pub raw_ops: usize,
    /// Vertices created (one batched `add_vertices` call).
    pub vertex_adds: usize,
    /// Edges inserted.
    pub edge_adds: usize,
    /// Edges removed.
    pub edge_deletes: usize,
    /// Edges made heavier, in the deletions' call.
    pub edge_increases: usize,
    /// Pure relaxing weight decreases.
    pub reweights: usize,
    /// Vertices deleted.
    pub vertex_deletes: usize,
    /// Coalesced actions materialized (each edge key and vertex op once).
    pub actions: usize,
    /// LogP cluster time the flush consumed, in virtual microseconds.
    pub makespan_us: f64,
}

/// Streaming ingestion pipeline; see the module docs.
#[derive(Debug, Clone)]
pub struct IngestPipeline {
    config: IngestConfig,
    queue: IngestQueue,
    coalescer: Coalescer,
    stats: IngestStats,
    metrics: MetricsRegistry,
    /// RC-step counter at the last flush; `None` until the pipeline first
    /// observes the engine (the step cadence arms itself then, so a
    /// long-running engine doesn't trigger an immediate flush).
    last_flush_rc_step: Option<usize>,
}

impl IngestPipeline {
    /// Builds a pipeline, validating queue and policy parameters.
    pub fn new(config: IngestConfig) -> Result<Self, String> {
        config.policy.validate()?;
        let queue = IngestQueue::new(config.queue_cap, config.high_watermark)?;
        let mut metrics = MetricsRegistry::new();
        metrics.declare_histogram(
            "aa_ingest_batch_size",
            &[
                1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
            ],
        );
        metrics.declare_histogram(
            "aa_ingest_apply_latency_us",
            &[10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8],
        );
        Ok(IngestPipeline {
            config,
            queue,
            coalescer: Coalescer::new(),
            stats: IngestStats::default(),
            metrics,
            last_flush_rc_step: None,
        })
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// Raw ops buffered since the last flush.
    pub fn pending_ops(&self) -> usize {
        self.queue.depth()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Snapshot of the pipeline's metrics (counters, gauges, histograms),
    /// ready to `merge` with the engine's `metrics_registry()`.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        self.metrics.clone()
    }

    /// Pushes one update. Invalid ops (dead endpoints, self-loops, zero
    /// weights) return `Err` and buffer nothing; valid no-ops return
    /// warnings without consuming queue space; everything else is subject
    /// to admission control and, if admitted, folded into the coalescing
    /// buffer.
    pub fn push(&mut self, engine: &AnytimeEngine, op: UpdateOp) -> Result<PushOutcome, String> {
        let res = self.push_inner(engine, op);
        if res.is_err() {
            self.stats.rejected += 1;
            self.metrics
                .inc_counter("aa_ingest_ops_total", &[("outcome", "rejected")], 1);
        }
        res
    }

    fn push_inner(&mut self, engine: &AnytimeEngine, op: UpdateOp) -> Result<PushOutcome, String> {
        match op {
            UpdateOp::AddEdge(u, v, w) => {
                self.check_vertex(engine, u)?;
                self.check_vertex(engine, v)?;
                if u == v {
                    return Err(format!("self-loop ({u},{u}) is not a valid edge"));
                }
                check_weight(w, || format!("edge ({u},{v}) weight"))?;
                if self.projected_weight(engine, u, v).is_some() {
                    return Ok(self.noop(vec![format!("warning: edge ({u},{v}) already present")]));
                }
                Ok(self.admit_fold(engine, |c| c.add_edge(u, v, w)))
            }
            UpdateOp::DeleteEdge(u, v) => {
                self.check_vertex(engine, u)?;
                self.check_vertex(engine, v)?;
                if self.projected_weight(engine, u, v).is_none() {
                    return Ok(self.noop(vec![format!("warning: edge ({u},{v}) not found")]));
                }
                Ok(self.admit_fold(engine, |c| c.delete_edge(u, v)))
            }
            UpdateOp::Reweight(u, v, w) => {
                self.check_vertex(engine, u)?;
                self.check_vertex(engine, v)?;
                check_weight(w, || format!("edge ({u},{v}) weight"))?;
                match self.projected_weight(engine, u, v) {
                    Some(w0) if w0 != w => Ok(self.admit_fold(engine, |c| c.reweight(u, v, w))),
                    _ => Ok(self.noop(vec![format!(
                        "warning: weight change on ({u},{v}) was a no-op"
                    )])),
                }
            }
            UpdateOp::DeleteVertex(v) => {
                if !self.projected_alive(engine, v) {
                    return Ok(self.noop(vec![format!("warning: vertex {v} not alive")]));
                }
                Ok(self.admit_fold(engine, |c| c.delete_vertex(v)))
            }
            UpdateOp::AddVertex { anchors } => {
                let mut kept: Vec<(VertexId, Weight)> = Vec::new();
                let mut dropped: Vec<VertexId> = Vec::new();
                for (a, w) in anchors {
                    check_weight(w, || format!("anchor edge to {a} weight"))?;
                    if !self.projected_alive(engine, a) {
                        dropped.push(a);
                    } else if !kept.iter().any(|&(k, _)| k == a) {
                        kept.push((a, w));
                    }
                }
                let id = (engine.graph().capacity() + self.coalescer.pending_vertices().len())
                    as VertexId;
                let mut outcome = self.admit_fold(engine, |c| c.add_vertex(id, kept));
                if outcome.admission.is_admitted() {
                    outcome.new_vertex = Some(id);
                }
                if !dropped.is_empty() {
                    outcome
                        .warnings
                        .push(format!("warning: dead anchors skipped: {dropped:?}"));
                }
                Ok(outcome)
            }
        }
    }

    /// Flushes now if the drain policy asks for it.
    pub fn maybe_flush(
        &mut self,
        engine: &mut AnytimeEngine,
    ) -> Result<Option<FlushReport>, String> {
        let base = *self.last_flush_rc_step.get_or_insert(engine.rc_steps());
        let steps_since = engine.rc_steps().saturating_sub(base);
        if self
            .config
            .policy
            .should_flush(self.queue.depth(), steps_since)
        {
            let trigger = self.config.policy.trigger_label();
            Ok(Some(self.flush_inner(engine, trigger)?))
        } else {
            Ok(None)
        }
    }

    /// Unconditionally drains the buffer (a barrier flush). Returns `None`
    /// when nothing was buffered.
    pub fn flush(&mut self, engine: &mut AnytimeEngine) -> Result<Option<FlushReport>, String> {
        if self.queue.depth() == 0 && self.coalescer.is_empty() {
            return Ok(None);
        }
        Ok(Some(self.flush_inner(engine, "barrier")?))
    }

    fn flush_inner(
        &mut self,
        engine: &mut AnytimeEngine,
        trigger: &'static str,
    ) -> Result<FlushReport, String> {
        let t0 = engine.makespan_us();
        let base_cap = engine.graph().capacity();

        // Phase 1: vertex additions, one batched call, ids verified against
        // the predictions handed out at push time.
        let pending = self.coalescer.pending_vertices();
        let vertex_adds = pending.len();
        if vertex_adds > 0 {
            let mut batch = VertexBatch::new(vertex_adds);
            for (i, p) in pending.iter().enumerate() {
                if p.id as usize != base_cap + i {
                    return Err(format!(
                        "stale predicted vertex id {} (engine capacity is {base_cap}): \
                         the engine was mutated outside the ingest pipeline",
                        p.id
                    ));
                }
                for &(a, w) in &p.anchors {
                    let ep = if (a as usize) < base_cap {
                        Endpoint::Existing(a)
                    } else {
                        Endpoint::New(a as usize - base_cap)
                    };
                    batch.connect(i, ep, w);
                }
            }
            batch.validate(base_cap)?;
            let ids = engine.add_vertices(&batch, self.config.strategy);
            for (i, &id) in ids.iter().enumerate() {
                if id as usize != base_cap + i {
                    return Err(format!(
                        "engine assigned vertex id {id} where {} was predicted",
                        base_cap + i
                    ));
                }
            }
        }

        // Phase 2: edge nets resolved against the post-addition graph, then
        // applied through the batched kernels: deletes and weight increases
        // first (one combined invalidation sweep), inserts second, relaxing
        // decreases last.
        let resolved = self.coalescer.resolve(engine.graph());
        let heavier = resolved.heavier();
        if !heavier.is_empty() {
            engine.increase_edge_weights(&heavier);
        }
        if !resolved.adds.is_empty() {
            engine.add_edges(&resolved.adds);
        }
        for &(u, v, w) in &resolved.decreases {
            engine.change_edge_weight(u, v, w);
        }

        // Phase 3: vertex deletions (each one quiesces, invalidates, and
        // reseeds; incident edge work was subsumed at push time).
        let vertex_deletes: Vec<VertexId> = self.coalescer.pending_deletes().collect();
        for &v in &vertex_deletes {
            engine.delete_vertex(v);
        }

        // Bookkeeping: drain timestamps, update counters and gauges.
        let drained = self.queue.drain();
        let raw_ops = drained.len();
        let actions = resolved.actions + vertex_adds + vertex_deletes.len();
        let t1 = engine.makespan_us();
        self.coalescer.clear();
        self.last_flush_rc_step = Some(engine.rc_steps());

        self.stats.flushes += 1;
        self.stats.raw_in += raw_ops as u64;
        self.stats.actions_out += actions as u64;
        self.metrics
            .inc_counter("aa_ingest_flushes_total", &[("trigger", trigger)], 1);
        self.metrics
            .observe("aa_ingest_batch_size", &[], raw_ops as f64);
        for ts in drained {
            self.metrics
                .observe("aa_ingest_apply_latency_us", &[], (t1 - ts).max(0.0));
        }
        let kinds: [(&str, usize); 6] = [
            ("vertex-add", vertex_adds),
            ("edge-delete", resolved.deletes.len()),
            ("weight-increase", resolved.increases.len()),
            ("edge-add", resolved.adds.len()),
            ("reweight", resolved.decreases.len()),
            ("vertex-delete", vertex_deletes.len()),
        ];
        for (kind, n) in kinds {
            if n > 0 {
                self.metrics
                    .inc_counter("aa_ingest_applied_total", &[("kind", kind)], n as u64);
            }
        }
        self.metrics.set_gauge("aa_ingest_queue_depth", &[], 0.0);
        self.metrics
            .set_gauge("aa_ingest_coalesce_ratio", &[], self.stats.coalesce_ratio());

        Ok(FlushReport {
            trigger,
            raw_ops,
            vertex_adds,
            edge_adds: resolved.adds.len(),
            edge_deletes: resolved.deletes.len(),
            edge_increases: resolved.increases.len(),
            reweights: resolved.decreases.len(),
            vertex_deletes: vertex_deletes.len(),
            actions,
            makespan_us: t1 - t0,
        })
    }

    /// Projected-state liveness: alive in the engine and not
    /// pending-deleted, or a buffered addition's predicted id.
    fn projected_alive(&self, engine: &AnytimeEngine, v: VertexId) -> bool {
        if self.coalescer.is_pending_delete(v) {
            return false;
        }
        if (v as usize) < engine.graph().capacity() {
            engine.graph().is_alive(v)
        } else {
            self.coalescer.is_pending_vertex(v)
        }
    }

    fn check_vertex(&self, engine: &AnytimeEngine, v: VertexId) -> Result<(), String> {
        if self.projected_alive(engine, v) {
            Ok(())
        } else {
            Err(format!("vertex {v} is out of range or not alive"))
        }
    }

    fn projected_weight(&self, engine: &AnytimeEngine, u: VertexId, v: VertexId) -> Option<Weight> {
        self.coalescer.projected_weight(engine.graph(), u, v)
    }

    /// Records a valid-but-effectless op: warnings only, no queue traffic.
    fn noop(&mut self, warnings: Vec<String>) -> PushOutcome {
        self.stats.noops += 1;
        self.metrics
            .inc_counter("aa_ingest_ops_total", &[("outcome", "noop")], 1);
        PushOutcome {
            admission: Admission::Accepted,
            warnings,
            new_vertex: None,
            enqueued: false,
        }
    }

    /// Runs admission control and, if admitted, folds the op into the
    /// coalescing buffer via `fold`.
    fn admit_fold<F: FnOnce(&mut Coalescer)>(
        &mut self,
        engine: &AnytimeEngine,
        fold: F,
    ) -> PushOutcome {
        let admission = self.queue.admit(engine.makespan_us());
        let outcome_label = match admission {
            Admission::Accepted => {
                self.stats.accepted += 1;
                "accepted"
            }
            Admission::Throttled { .. } => {
                self.stats.throttled += 1;
                "throttled"
            }
            Admission::Shed => {
                self.stats.shed += 1;
                "shed"
            }
        };
        self.metrics
            .inc_counter("aa_ingest_ops_total", &[("outcome", outcome_label)], 1);
        if admission.is_admitted() {
            fold(&mut self.coalescer);
        }
        self.metrics
            .set_gauge("aa_ingest_queue_depth", &[], self.queue.depth() as f64);
        PushOutcome {
            enqueued: admission.is_admitted(),
            admission,
            warnings: Vec::new(),
            new_vertex: None,
        }
    }

    /// Discards every buffered (not yet flushed) op: queue entries and the
    /// coalesced nets they folded into. The durable serve path calls this
    /// when a WAL group commit fails — the buffered ops were never
    /// acknowledged, so dropping them keeps the engine consistent with what
    /// clients were promised. Returns the number of raw ops discarded.
    pub fn abort_pending(&mut self) -> usize {
        let dropped = self.queue.drain().len();
        self.coalescer.clear();
        self.stats.aborted += dropped as u64;
        self.metrics
            .inc_counter("aa_ingest_aborted_total", &[], dropped as u64);
        self.metrics.set_gauge("aa_ingest_queue_depth", &[], 0.0);
        dropped
    }
}

/// Rejects the weights no edge may carry: 0, and `INF`, which means "no
/// path" and which the graph refuses to store.
fn check_weight(w: Weight, what: impl FnOnce() -> String) -> Result<(), String> {
    match w {
        0 => Err(format!("{} must be at least 1", what())),
        INF => Err(format!("{} must be below {INF}", what())),
        _ => Ok(()),
    }
}
