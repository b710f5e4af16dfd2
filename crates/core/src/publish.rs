//! Double-buffered snapshot publication for resident (serving) processes.
//!
//! A batch CLI takes a [`Snapshot`] when it wants one; a resident server
//! takes one *per read*, and most reads arrive between state changes. This
//! module gives the engine a publication cache: [`AnytimeEngine::
//! publish_snapshot`] returns an [`Arc`]-shared [`SnapshotFrame`] — the
//! snapshot plus a [`SnapshotMeta`] stamp (invalidation epoch, convergence,
//! quiescent-row fraction, max-overestimate bound) — and rebuilds it only
//! when the engine's observable state has actually moved. Re-published
//! frames are allocation-stable: the same `Arc` is handed out, no per-read
//! deep copy of the estimate vectors, and no cluster gather is re-charged.
//!
//! The cache key covers every input a snapshot is derived from: the RC-step
//! counter, the invalidation epoch (deletions / weight increases), the
//! mutation state version maintained by [`EngineObs`], and the convergence
//! flag. A reader can
//! therefore never observe a torn frame: either the key matched and the
//! frame is byte-identical to the previous publication, or the whole frame
//! was rebuilt from quiesced engine state in one place.

use crate::closeness::Snapshot;
use crate::engine::AnytimeEngine;
use std::sync::Arc;

/// Everything that can change what a snapshot would contain. Two equal keys
/// guarantee the published frame is still exact for the current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PublishKey {
    rc_step: usize,
    epoch: u64,
    state_version: u64,
    converged: bool,
}

/// The cached publication: the key it was built under plus the shared frame.
#[derive(Debug, Clone)]
pub(crate) struct PublishedFrame {
    pub(crate) key: PublishKey,
    pub(crate) frame: Arc<SnapshotFrame>,
}

/// Consistency stamp published with every served snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotMeta {
    /// Invalidation epoch the frame was built under. Deletions and weight
    /// increases bump it; a reader comparing two frames with equal epochs
    /// may treat their estimates as upper bounds on the *same* graph.
    pub epoch: u64,
    /// Recombination step at publication.
    pub rc_step: usize,
    /// Monotone mutation version at publication (bumped by every graph
    /// mutation). Two frames with equal
    /// `(epoch, state_version)` were built over the identical world graph —
    /// the stamp a consumer keys *structural* caches (pivot rows, component
    /// membership) on, where the epoch alone misses additions.
    pub state_version: u64,
    /// Virtual cluster time at publication (µs).
    pub published_at_us: f64,
    /// Whether the engine had declared convergence: the frame is exact.
    pub converged: bool,
    /// Fraction of owned rows with no scheduled refinement work — the
    /// engine's cheap converged-row proxy (exact row convergence needs the
    /// oracle probe).
    pub quiescent_row_fraction: f64,
    /// Upper bound on how far any finite distance estimate in the frame can
    /// sit above the true distance. Zero when converged; otherwise the
    /// structural bound `(live vertices − 1) · w_max − 1` (a finite estimate
    /// is the length of a real path, and a true distance is at least 1).
    /// Always finite: degraded service stays bounded.
    pub max_overestimate_bound: f64,
}

/// A published snapshot with its consistency stamp. Shared by `Arc`; cloning
/// the `Arc` never copies the estimate vectors.
#[derive(Debug, Clone)]
pub struct SnapshotFrame {
    /// Consistency stamp.
    pub meta: SnapshotMeta,
    /// The anytime snapshot itself.
    pub snapshot: Snapshot,
}

impl AnytimeEngine {
    /// Publishes the current anytime state as a shared [`SnapshotFrame`],
    /// reusing the previous publication (same `Arc`, no gather charge, no
    /// allocation) when nothing observable has changed since it was built.
    ///
    /// Counted in the metrics registry as
    /// `aa_snapshot_publications_total{kind="fresh"|"reused"}`.
    pub fn publish_snapshot(&mut self) -> Arc<SnapshotFrame> {
        let key = PublishKey {
            rc_step: self.rc_steps_done,
            epoch: self.invalidation_epoch,
            state_version: self.obs.state_version,
            converged: self.converged,
        };
        if let Some(published) = &self.obs.published {
            if published.key == key {
                self.obs.publish_reused += 1;
                return Arc::clone(&published.frame);
            }
        }
        let epoch = self.invalidation_epoch;
        let quiescent = self.quiescent_row_fraction();
        let bound = self.overestimate_bound(key.converged);
        let snapshot = self.snapshot();
        let meta = SnapshotMeta {
            epoch,
            rc_step: snapshot.rc_step,
            state_version: key.state_version,
            published_at_us: snapshot.makespan_us,
            converged: key.converged,
            quiescent_row_fraction: quiescent,
            max_overestimate_bound: bound,
        };
        let frame = Arc::new(SnapshotFrame { meta, snapshot });
        self.obs.publish_fresh += 1;
        self.obs.published = Some(PublishedFrame {
            key,
            frame: Arc::clone(&frame),
        });
        frame
    }

    /// Publications so far as `(fresh, reused)` — the allocation-stability
    /// ledger surfaced to tests and the metrics registry.
    pub fn snapshot_publication_counts(&self) -> (u64, u64) {
        (self.obs.publish_fresh, self.obs.publish_reused)
    }

    /// Fraction of owned rows with no dirty refinement work.
    fn quiescent_row_fraction(&self) -> f64 {
        let rows: usize = self.procs.iter().map(|ps| ps.dv.row_count()).sum();
        let busy: usize = self.procs.iter().map(|ps| ps.dirty.len()).sum();
        if rows == 0 {
            1.0
        } else {
            let quiescent = rows.saturating_sub(busy.min(rows));
            quiescent as f64 / rows as f64
        }
    }

    /// Structural max-overestimate bound for the current graph; zero when
    /// converged.
    fn overestimate_bound(&self, converged: bool) -> f64 {
        if converged {
            return 0.0;
        }
        let n = self.world.vertex_count();
        if n < 2 {
            return 0.0;
        }
        let w_max = self
            .world
            .edges()
            .map(|(_, _, w)| u64::from(w))
            .max()
            .unwrap_or(1);
        (((n as u64 - 1) * w_max).saturating_sub(1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use aa_graph::generators;

    fn engine(p: usize, seed: u64) -> AnytimeEngine {
        let g = generators::barabasi_albert(60, 2, 1, seed);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: p,
                ..Default::default()
            },
        );
        e.initialize();
        e
    }

    #[test]
    fn republish_without_change_reuses_the_same_arc() {
        let mut e = engine(4, 7);
        e.run_to_convergence(64);
        let a = e.publish_snapshot();
        let makespan_after_first = e.makespan_us();
        let b = e.publish_snapshot();
        let c = e.publish_snapshot();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&b, &c));
        assert_eq!(e.snapshot_publication_counts(), (1, 2));
        // Reuse never re-charges the result gather.
        assert_eq!(e.makespan_us(), makespan_after_first);
    }

    #[test]
    fn mutation_and_steps_invalidate_the_publication() {
        let mut e = engine(4, 9);
        e.run_to_convergence(64);
        let a = e.publish_snapshot();
        assert!(a.meta.converged);
        assert_eq!(a.meta.max_overestimate_bound, 0.0);
        assert_eq!(a.meta.quiescent_row_fraction, 1.0);
        e.add_edge(0, 40, 1);
        let b = e.publish_snapshot();
        assert!(!Arc::ptr_eq(&a, &b), "mutation must force a fresh frame");
        assert!(!b.meta.converged, "post-mutation frame cannot be converged");
        assert!(b.meta.max_overestimate_bound.is_finite());
        assert!(b.meta.max_overestimate_bound > 0.0);
        e.run_to_convergence(64);
        let c = e.publish_snapshot();
        assert!(c.meta.converged);
        assert_eq!(e.snapshot_publication_counts(), (3, 0));
    }

    #[test]
    fn epoch_stamp_tracks_invalidations() {
        let mut e = engine(3, 11);
        e.run_to_convergence(64);
        let before = e.publish_snapshot().meta.epoch;
        let (u, v, _) = e.graph().edges().next().unwrap();
        e.delete_edge(u, v);
        e.run_to_convergence(64);
        let after = e.publish_snapshot().meta.epoch;
        assert!(after > before, "deletion must advance the published epoch");
    }

    /// A row whose updates are still in flight is dirty: no frame may claim
    /// to be fresh (converged) while one exists.
    #[test]
    fn frames_never_claim_fresh_with_rows_in_flight() {
        let mut e = engine(4, 23);
        for _ in 0..6 {
            let converged = e.rc_step();
            let f = e.publish_snapshot();
            assert_eq!(f.meta.converged, converged);
            if !converged {
                assert!(f.meta.max_overestimate_bound > 0.0);
            }
            let quiescent = f.snapshot.row_quiescent.iter().filter(|&&q| q).count();
            if quiescent < e.graph().vertex_count() {
                assert!(!f.meta.converged, "a dirty row forbids convergence");
                assert!(f.meta.quiescent_row_fraction < 1.0);
            }
        }
        e.run_to_convergence(512);
        let f = e.publish_snapshot();
        assert!(f.meta.converged);
        assert_eq!(f.meta.quiescent_row_fraction, 1.0);
    }
}
