//! `aa-ingest` — deterministic streaming update ingestion for the anytime
//! engine.
//!
//! The paper's "anywhere" property folds dynamic changes into the running
//! computation; this crate makes that affordable under sustained update
//! traffic by sitting between producers and [`aa_core::AnytimeEngine`]:
//!
//! 1. a **bounded admission queue** with an explicit backpressure contract
//!    ([`Admission::Accepted`] / [`Admission::Throttled`] /
//!    [`Admission::Shed`]);
//! 2. a **coalescing buffer** ([`Coalescer`]) that folds each run of
//!    updates into its net effect per edge key — add-then-delete cancels,
//!    repeated reweights are last-wins, vertex-adds are ordered before
//!    their incident edge-adds, and delete-vertex subsumes buffered
//!    incident edge ops;
//! 3. a **batch scheduler** with pluggable [`DrainPolicy`]s (size-triggered
//!    or RC-step-interleaved) that flushes coalesced batches through the
//!    engine's batched kernels.
//!
//! Everything is deterministic: ordered containers, virtual LogP time for
//! latency accounting, no wall clocks and no randomness.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod coalesce;
mod op;
mod pipeline;
mod policy;
mod queue;

pub use coalesce::{Coalescer, EdgeNet, PendingVertex, PresentNet, ResolvedBatch};
pub use op::{EdgeKey, UpdateOp};
pub use pipeline::{FlushReport, IngestConfig, IngestPipeline, IngestStats, PushOutcome};
pub use policy::DrainPolicy;
pub use queue::{Admission, IngestQueue};

#[cfg(test)]
mod tests {
    use super::*;
    use aa_core::{AnytimeEngine, EngineConfig};
    use aa_graph::generators;

    fn engine(n: usize, procs: usize) -> AnytimeEngine {
        let g = generators::barabasi_albert(n, 2, 1, 7);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: procs,
                ..Default::default()
            },
        );
        e.initialize();
        e.run_to_convergence(16 * procs + 64);
        e
    }

    /// First `k` vertex pairs with no edge between them, in id order.
    fn absent_pairs(e: &AnytimeEngine, k: usize) -> Vec<(u32, u32)> {
        let n = e.graph().capacity() as u32;
        let mut out = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if e.graph().edge_weight(u, v).is_none() {
                    out.push((u, v));
                    if out.len() == k {
                        return out;
                    }
                }
            }
        }
        out
    }

    fn pipeline_with(policy: DrainPolicy, cap: usize, hwm: usize) -> IngestPipeline {
        IngestPipeline::new(IngestConfig {
            queue_cap: cap,
            high_watermark: hwm,
            policy,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn add_then_delete_cancels_to_nothing() {
        let mut e = engine(30, 3);
        let mut p = pipeline_with(DrainPolicy::SizeTriggered(64), 128, 96);
        let (u, v) = absent_pairs(&e, 1)[0];
        let before_edges = e.graph().edge_count();
        let before_us = e.makespan_us();
        assert_eq!(
            p.push(&e, UpdateOp::AddEdge(u, v, 3)).unwrap().admission,
            Admission::Accepted
        );
        p.push(&e, UpdateOp::DeleteEdge(u, v)).unwrap();
        let report = p.flush(&mut e).unwrap().unwrap();
        assert_eq!(report.raw_ops, 2);
        assert_eq!(report.actions, 0, "net effect is empty: {report:?}");
        assert_eq!(e.graph().edge_count(), before_edges);
        // A fully-cancelled batch costs no IA/RC disturbance.
        assert!(e.makespan_us() - before_us < 1.0);
        assert!(p.stats().coalesce_ratio() > 0.99);
    }

    #[test]
    fn reweights_are_last_wins() {
        let mut e = engine(30, 3);
        let (u, v, w0) = e.graph().edges().next().unwrap();
        let target = if w0 == 9 { 8 } else { 9 };
        let mut p = pipeline_with(DrainPolicy::SizeTriggered(64), 128, 96);
        p.push(&e, UpdateOp::Reweight(u, v, w0 + 1)).unwrap();
        p.push(&e, UpdateOp::Reweight(u, v, w0 + 4)).unwrap();
        p.push(&e, UpdateOp::Reweight(u, v, target)).unwrap();
        let report = p.flush(&mut e).unwrap().unwrap();
        assert_eq!(report.actions, 1);
        assert_eq!(e.graph().edge_weight(u, v), Some(target));
    }

    #[test]
    fn delete_vertex_subsumes_pending_edge_ops() {
        let mut e = engine(30, 3);
        let mut p = pipeline_with(DrainPolicy::SizeTriggered(64), 128, 96);
        p.push(&e, UpdateOp::AddEdge(5, 20, 2)).unwrap();
        p.push(&e, UpdateOp::DeleteVertex(5)).unwrap();
        // Edge ops on the pending-deleted vertex are now rejected.
        let err = p.push(&e, UpdateOp::AddEdge(5, 6, 1)).unwrap_err();
        assert!(err.contains("not alive"), "{err}");
        let report = p.flush(&mut e).unwrap().unwrap();
        assert_eq!(report.edge_adds, 0, "subsumed: {report:?}");
        assert_eq!(report.vertex_deletes, 1);
        assert!(!e.graph().is_alive(5));
        e.run_to_convergence(256);
        e.check_invariants().unwrap();
    }

    #[test]
    fn pending_vertex_ids_are_predicted_and_usable() {
        let mut e = engine(30, 3);
        let cap = e.graph().capacity() as u32;
        let mut p = pipeline_with(DrainPolicy::SizeTriggered(64), 128, 96);
        let got = p
            .push(
                &e,
                UpdateOp::AddVertex {
                    anchors: vec![(0, 1)],
                },
            )
            .unwrap();
        assert_eq!(got.new_vertex, Some(cap));
        // The predicted id is immediately addressable, including by a
        // second pending vertex anchoring onto it.
        let got2 = p
            .push(
                &e,
                UpdateOp::AddVertex {
                    anchors: vec![(cap, 2)],
                },
            )
            .unwrap();
        assert_eq!(got2.new_vertex, Some(cap + 1));
        p.push(&e, UpdateOp::AddEdge(cap + 1, 3, 5)).unwrap();
        let report = p.flush(&mut e).unwrap().unwrap();
        assert_eq!(report.vertex_adds, 2);
        assert_eq!(e.graph().edge_weight(cap, cap + 1), Some(2));
        assert_eq!(e.graph().edge_weight(cap + 1, 3), Some(5));
        e.run_to_convergence(256);
        e.check_invariants().unwrap();
    }

    #[test]
    fn backpressure_contract_transitions() {
        let e = engine(30, 3);
        let mut p = pipeline_with(DrainPolicy::SizeTriggered(1024), 4, 2);
        let pairs = absent_pairs(&e, 5);
        let mk = |i: usize| UpdateOp::AddEdge(pairs[i].0, pairs[i].1, 1);
        assert_eq!(p.push(&e, mk(0)).unwrap().admission, Admission::Accepted);
        assert_eq!(p.push(&e, mk(1)).unwrap().admission, Admission::Accepted);
        assert_eq!(
            p.push(&e, mk(2)).unwrap().admission,
            Admission::Throttled { retry_after: 1 }
        );
        assert_eq!(
            p.push(&e, mk(3)).unwrap().admission,
            Admission::Throttled { retry_after: 2 }
        );
        // Hard cap: shed, not buffered.
        assert_eq!(p.push(&e, mk(4)).unwrap().admission, Admission::Shed);
        assert_eq!(p.pending_ops(), 4);
        let s = p.stats();
        assert_eq!((s.accepted, s.throttled, s.shed), (2, 2, 1));
    }

    #[test]
    fn noops_and_errors_consume_no_queue_space() {
        let e = engine(30, 3);
        let (u, v, w) = e.graph().edges().next().unwrap();
        let mut p = pipeline_with(DrainPolicy::SizeTriggered(64), 8, 8);
        let out = p.push(&e, UpdateOp::AddEdge(u, v, w)).unwrap();
        assert!(out.warnings[0].contains("already present"));
        let out = p.push(&e, UpdateOp::DeleteEdge(0, 29)).unwrap();
        assert!(out.warnings.is_empty() || out.warnings[0].contains("not found"));
        assert!(p.push(&e, UpdateOp::AddEdge(0, 0, 1)).is_err());
        assert!(p.push(&e, UpdateOp::AddEdge(0, 4000, 1)).is_err());
        assert!(p.push(&e, UpdateOp::Reweight(u, v, 0)).is_err());
        assert!(p.pending_ops() <= 1);
        assert!(p.stats().rejected == 3);
    }

    #[test]
    fn drain_policies_trigger_as_documented() {
        let mut e = engine(30, 3);
        let pairs = absent_pairs(&e, 3);
        // Size-triggered.
        let mut p = pipeline_with(DrainPolicy::SizeTriggered(2), 64, 48);
        p.push(&e, UpdateOp::AddEdge(pairs[0].0, pairs[0].1, 1))
            .unwrap();
        assert!(p.maybe_flush(&mut e).unwrap().is_none());
        p.push(&e, UpdateOp::AddEdge(pairs[1].0, pairs[1].1, 1))
            .unwrap();
        let r = p.maybe_flush(&mut e).unwrap().unwrap();
        assert_eq!((r.trigger, r.raw_ops), ("size", 2));
        // RC-step-interleaved.
        let mut p = pipeline_with(DrainPolicy::RcStepInterleaved(2), 64, 48);
        p.push(&e, UpdateOp::AddEdge(pairs[2].0, pairs[2].1, 1))
            .unwrap();
        assert!(p.maybe_flush(&mut e).unwrap().is_none());
        e.rc_step();
        e.rc_step();
        assert_eq!(p.maybe_flush(&mut e).unwrap().unwrap().trigger, "steps");
    }

    #[test]
    fn metrics_registry_reports_ingest_series() {
        let mut e = engine(30, 3);
        let mut p = pipeline_with(DrainPolicy::SizeTriggered(64), 128, 96);
        let pairs = absent_pairs(&e, 2);
        p.push(&e, UpdateOp::AddEdge(pairs[0].0, pairs[0].1, 2))
            .unwrap();
        p.push(&e, UpdateOp::DeleteEdge(pairs[0].0, pairs[0].1))
            .unwrap();
        p.push(&e, UpdateOp::AddEdge(pairs[1].0, pairs[1].1, 2))
            .unwrap();
        p.flush(&mut e).unwrap().unwrap();
        let m = p.metrics_registry();
        assert_eq!(
            m.counter_value("aa_ingest_ops_total", &[("outcome", "accepted")]),
            3
        );
        assert_eq!(
            m.counter_value("aa_ingest_flushes_total", &[("trigger", "barrier")]),
            1
        );
        assert_eq!(
            m.counter_value("aa_ingest_applied_total", &[("kind", "edge-add")]),
            1
        );
        assert_eq!(m.gauge_value("aa_ingest_queue_depth", &[]), Some(0.0));
        // Ingest series merge cleanly into the engine's registry.
        let mut all = e.metrics_registry();
        all.merge(&m);
        let json = all.to_json();
        assert!(json.contains("aa_ingest_apply_latency_us"));
        assert!(json.contains("aa_rc_steps_total"));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(IngestPipeline::new(IngestConfig {
            queue_cap: 0,
            ..Default::default()
        })
        .is_err());
        assert!(IngestPipeline::new(IngestConfig {
            queue_cap: 8,
            high_watermark: 9,
            ..Default::default()
        })
        .is_err());
        assert!(IngestPipeline::new(IngestConfig {
            policy: DrainPolicy::SizeTriggered(0),
            ..Default::default()
        })
        .is_err());
    }
}
