//! Bound-delta feed: which rows moved, step by step.
//!
//! A terminal snapshot tells a consumer *where the estimates are*; an
//! incremental consumer (the top-k tracker in `aa-query`) also needs to know
//! *which rows changed since it last looked* so it can retighten bounds for
//! those rows only. The feed is an opt-in ring the engine appends one
//! [`BoundDelta`] to at the end of every recombination step and every dynamic
//! graph operation, listing the vertex rows whose distance entries were
//! touched.
//!
//! Direction matters. Within an invalidation epoch the anytime property makes
//! every row movement a *tightening* (entries only decrease), so a delta with
//! `widened == false` can only improve a consumer's bounds. Deletions and
//! weight increases reset affected entries upward; those ops emit a delta
//! with `widened == true` and a bumped `epoch`, telling the consumer the
//! listed rows' previous bounds are void, without voiding everyone else's.
//!
//! The changed-row list is derived from the per-processor dirty sets, which
//! every row-mutation path already feeds (worklist propagation marks even
//! interior rows dirty). That makes the list a sound over-approximation: a
//! row that changed is always listed; a listed row may turn out not to have
//! changed. Consumers must treat entries as "recheck this", never "this got
//! better".
//!
//! The feed is capped: when more than [`FEED_CAP`] deltas accumulate without
//! a drain, the backlog coalesces into a single conservative delta with
//! `full == true` (recheck everything). A slow consumer loses granularity,
//! never soundness — and an absent consumer costs the engine one Vec that
//! stops growing at the cap.

use crate::engine::AnytimeEngine;
use aa_graph::VertexId;

/// Pending deltas beyond this coalesce into one `full: true` entry.
pub const FEED_CAP: usize = 64;

/// One batch of row-bound movement, emitted at the end of a recombination
/// step or a dynamic graph operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundDelta {
    /// Recombination step counter when the delta was captured.
    pub rc_step: usize,
    /// Invalidation epoch after the event. A higher epoch than the previous
    /// delta means deletions voided some upper-bound structure.
    pub epoch: u64,
    /// Vertex rows whose entries were touched, sorted ascending, deduped.
    /// Empty when `full` is set.
    pub changed: Vec<VertexId>,
    /// The event may have moved entries *upward* (deletion, weight
    /// increase): previous per-row bounds for `changed` are void. When
    /// false, the event only tightened (anytime monotonicity holds).
    pub widened: bool,
    /// Set when the feed overflowed and granularity was lost: treat every
    /// row as changed (and as widened, if `widened` is also set).
    pub full: bool,
}

impl AnytimeEngine {
    /// Turns the bound-delta feed on. Subsequent recombination steps and
    /// dynamic operations append deltas until they are drained. Restored
    /// engines (checkpoint recovery) come back with the feed disabled —
    /// the consumer re-enables it and rebuilds from a snapshot.
    pub fn enable_bound_feed(&mut self) {
        self.obs.feed_enabled = true;
    }

    /// Whether the feed is recording.
    pub fn bound_feed_enabled(&self) -> bool {
        self.obs.feed_enabled
    }

    /// Takes all pending deltas, oldest first, leaving the feed empty.
    pub fn drain_bound_deltas(&mut self) -> Vec<BoundDelta> {
        std::mem::take(&mut self.obs.feed)
    }

    /// Appends one delta covering the rows currently dirty across all
    /// processors. Called at the end of every recombination step
    /// (`widened = false`: anytime tightening) and at the end of every
    /// dynamic operation (`widened = true` for deletions and weight
    /// increases). No-op while the feed is disabled.
    pub(crate) fn feed_capture(&mut self, widened: bool) {
        if !self.obs.feed_enabled {
            return;
        }
        let mut changed: Vec<VertexId> = Vec::new();
        for ps in &self.procs {
            changed.extend(ps.dirty.iter().copied());
        }
        changed.sort_unstable();
        changed.dedup();
        if changed.is_empty() && !widened {
            return;
        }
        let delta = BoundDelta {
            rc_step: self.rc_steps_done,
            epoch: self.invalidation_epoch,
            changed,
            widened,
            full: false,
        };
        self.obs.feed.push(delta);
        if self.obs.feed.len() > FEED_CAP {
            let widened_any = self.obs.feed.iter().any(|d| d.widened);
            let last = match self.obs.feed.last() {
                Some(d) => d,
                None => return, // unreachable: just pushed
            };
            let coalesced = BoundDelta {
                rc_step: last.rc_step,
                epoch: last.epoch,
                changed: Vec::new(),
                widened: widened_any,
                full: true,
            };
            self.obs.feed.clear();
            self.obs.feed.push(coalesced);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::dynamic::{Endpoint, VertexBatch};
    use crate::strategy::AdditionStrategy;
    use aa_graph::generators;
    use std::collections::BTreeSet;

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
    fn feed_disabled_by_default_and_records_once_enabled() {
        let mut e = engine(4, 7);
        e.rc_step();
        assert!(!e.bound_feed_enabled());
        assert!(e.drain_bound_deltas().is_empty());
        e.enable_bound_feed();
        e.rc_step();
        let deltas = e.drain_bound_deltas();
        assert!(!deltas.is_empty(), "an active step must emit a delta");
        for d in &deltas {
            assert!(!d.widened, "fault-free steps only tighten");
            assert!(!d.full);
            assert!(d.changed.windows(2).all(|w| w[0] < w[1]), "sorted+deduped");
        }
    }

    #[test]
    fn drain_empties_the_feed_and_quiescent_steps_stay_silent() {
        let mut e = engine(3, 9);
        e.enable_bound_feed();
        e.run_to_convergence(64);
        assert!(!e.drain_bound_deltas().is_empty());
        assert!(e.drain_bound_deltas().is_empty());
        // Converged engine: stepping moves nothing, feed stays empty.
        e.rc_step();
        assert!(e.drain_bound_deltas().is_empty());
    }

    #[test]
    fn deletion_emits_widened_delta_with_bumped_epoch() {
        let mut e = engine(4, 11);
        e.enable_bound_feed();
        e.run_to_convergence(64);
        e.drain_bound_deltas();
        let (u, v, _) = e.graph().edges().next().unwrap();
        assert!(e.delete_edge(u, v));
        let deltas = e.drain_bound_deltas();
        let widened: Vec<&BoundDelta> = deltas.iter().filter(|d| d.widened).collect();
        assert!(!widened.is_empty(), "deletion must emit a widened delta");
        for d in widened {
            assert_eq!(d.epoch, 1, "deletion bumps the epoch in the delta");
        }
    }

    #[test]
    fn addition_emits_tightening_delta_listing_endpoints() {
        let mut e = engine(4, 13);
        e.enable_bound_feed();
        e.run_to_convergence(64);
        e.drain_bound_deltas();
        e.add_edge(0, 40, 1);
        let deltas = e.drain_bound_deltas();
        assert!(!deltas.is_empty());
        for d in &deltas {
            assert!(!d.widened, "additions only tighten");
        }
        let all: Vec<VertexId> = deltas.iter().flat_map(|d| d.changed.clone()).collect();
        assert!(all.contains(&0) && all.contains(&40));
    }

    /// A vertex arrival whose anchors lie 10 apart shortens the paths
    /// between their sides: every row that moves, by the arrival or by the
    /// recombination after it, is listed in some delta — under every
    /// strategy, exact at once or not.
    #[test]
    fn a_vertex_arrival_lists_every_row_it_moves() {
        for strategy in [
            AdditionStrategy::RoundRobinPs,
            AdditionStrategy::CutEdgePs,
            AdditionStrategy::RepartitionS,
            AdditionStrategy::BaselineRestart,
        ] {
            let g = aa_graph::rmat::rmat(7, 4 << 7, Default::default(), 4, 3);
            let config = EngineConfig {
                num_procs: 4,
                ..Default::default()
            };
            let mut e = AnytimeEngine::new(g, config);
            e.initialize();
            e.enable_bound_feed();
            e.run_to_convergence(256);
            e.drain_bound_deltas();
            let before = e.distances_dense();
            let ten_apart = |a: usize| (a + 1..before.len()).map(move |b| (a, b));
            let (a, b) = (0..before.len())
                .flat_map(ten_apart)
                .find(|&(a, b)| before[a][b] == 10)
                .expect("a pair 10 apart");
            let mut batch = VertexBatch::new(1);
            batch.connect(0, Endpoint::Existing(a as VertexId), 1);
            batch.connect(0, Endpoint::Existing(b as VertexId), 1);
            let arrival = e.add_vertices(&batch, strategy)[0];
            e.run_to_convergence(256);
            let after = e.distances_dense();
            let deltas = e.drain_bound_deltas();
            let listed: BTreeSet<VertexId> =
                deltas.iter().flat_map(|d| d.changed.clone()).collect();
            let moved = (0..before.len()).filter(|&v| before[v][..] != after[v][..before.len()]);
            let moved: Vec<VertexId> = moved.map(|v| v as VertexId).collect();
            assert!(moved.len() > 50, "{strategy}: {} rows moved", moved.len());
            let unlisted: Vec<&VertexId> = moved.iter().filter(|v| !listed.contains(v)).collect();
            assert!(
                unlisted.is_empty(),
                "{strategy}: moved, never listed: {unlisted:?}"
            );
            assert!(
                listed.contains(&arrival),
                "{strategy}: the arrival's own row"
            );
        }
    }

    #[test]
    fn overflow_coalesces_into_full_delta() {
        let mut e = engine(2, 17);
        e.enable_bound_feed();
        for i in 0..(FEED_CAP as u32 + 8) {
            e.add_edge(i % 50, (i + 3) % 50, 1);
            e.rc_step();
        }
        let deltas = e.drain_bound_deltas();
        assert!(
            deltas.len() <= FEED_CAP,
            "feed must stay capped, got {}",
            deltas.len()
        );
        if deltas.len() == 1 {
            assert!(deltas[0].full);
        }
    }
}
