//! Engine-side observability: span capture, the anytime progress probe, and
//! the metrics export, all backed by the dependency-free `aa-obs` layer.
//!
//! The engine computes every number here from state it already owns — the
//! LogP virtual clock, the cost ledger, the distance vectors — and feeds
//! plain data into `aa-obs` types. Nothing reads a wall clock: the modeled
//! cost of a span is the virtual-makespan delta across it, and the
//! "measured" cost is the ledger's `compute_us` delta (which the cluster
//! charged from measured execution at record time).
//!
//! The progress probe is opt-in ([`AnytimeEngine::enable_progress_probe`])
//! because each sample compares the full distance state against an exact
//! APSP oracle — O(V·E log V) to (re)build after a mutation, O(V²) per
//! sample. The oracle is cached and only invalidated when the world graph
//! changes.

use crate::engine::AnytimeEngine;
use aa_graph::{algo, VertexId, Weight, INF};
use aa_logp::PhaseStats;
use aa_obs::{kendall_tau, MetricsRegistry, ProgressSample, SpanLog, SpanRecord};

/// Bucket bounds for the per-step recombination payload histogram (bytes).
const RC_BYTES_BOUNDS: [f64; 7] = [256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0];
/// Bucket bounds for the per-step modeled span duration histogram (µs).
const RC_SPAN_US_BOUNDS: [f64; 6] = [10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0];

/// Everything a span needs to remember from its opening instant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanStart {
    start_us: f64,
    totals: PhaseStats,
}

/// Exact-APSP oracle cached between probe samples.
#[derive(Debug, Clone)]
struct Oracle {
    dist: Vec<Vec<Weight>>,
    closeness: Vec<f64>,
}

/// Deletion invalidation's work so far, summed over updates and ranks: the
/// owned rows it examined, and what it raised in them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct InvalidationTally {
    /// Rows asked whether the update can have changed them.
    pub(crate) examined: u64,
    /// Rows with at least one entry reset to `INF`.
    pub(crate) reset: u64,
    /// Entries reset to `INF`.
    pub(crate) entries: u64,
}

impl InvalidationTally {
    /// One more row examined, `targets` of its entries reset.
    pub(crate) fn note(&mut self, targets: usize) {
        self.examined += 1;
        self.reset += u64::from(targets > 0);
        self.entries += targets as u64;
    }
}

/// Observability state carried by the engine.
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineObs {
    /// Whether the (expensive) progress probe samples each RC step.
    probe_enabled: bool,
    pub(crate) spans: SpanLog,
    pub(crate) samples: Vec<ProgressSample>,
    /// Row sends that carried the whole row (first contact).
    pub(crate) full_rows_sent: u64,
    /// Row sends that carried only the row's unsent entries.
    pub(crate) delta_rows_sent: u64,
    /// `(column, value)` pairs carried by those delta sends.
    pub(crate) delta_entries_sent: u64,
    /// The most delta buffer bytes one recombination step held, a buffer
    /// its row's destinations share counted once.
    pub(crate) delta_buffer_bytes_max: usize,
    /// Rows examined and raised by deletion invalidation.
    pub(crate) invalidation: InvalidationTally,
    /// Candidate-column entries edge deletions tested in the rows a deleted
    /// edge was tight for — what the sweep read instead of those rows whole.
    pub(crate) candidate_columns: u64,
    /// Recombination steps the deletion barrier ran to reach a fixed point.
    pub(crate) barrier_steps: u64,
    /// Insertions that landed on a settled engine and were exact at once.
    pub(crate) settled_updates: u64,
    /// Calls after which every rank widened its rows one step.
    pub(crate) widenings: u64,
    oracle: Option<Oracle>,
    /// Dense estimate matrix at the previous sample, for regression counts.
    prev_dense: Option<Vec<Vec<Weight>>>,
    /// Monotone version bumped on every mutation; part of the
    /// snapshot publication cache key (the invalidation epoch alone misses
    /// relaxing changes, and the RC-step counter misses between-step ops).
    pub(crate) state_version: u64,
    /// Cached snapshot publication (see `publish.rs`).
    pub(crate) published: Option<crate::publish::PublishedFrame>,
    /// Publications that rebuilt the frame.
    pub(crate) publish_fresh: u64,
    /// Publications served from the cached frame (allocation-stable).
    pub(crate) publish_reused: u64,
}

impl EngineObs {
    /// The world graph changed: the oracle is stale, and estimate
    /// comparisons across the mutation are meaningless (deletions reset
    /// entries upward by design).
    pub(crate) fn note_mutation(&mut self) {
        self.oracle = None;
        self.prev_dense = None;
        self.state_version += 1;
    }
}

impl AnytimeEngine {
    /// Turns on the anytime progress probe: every subsequent
    /// [`AnytimeEngine::rc_step`] appends one [`ProgressSample`] comparing
    /// the live distance state against a cached exact oracle. Expensive —
    /// see the module docs — and intended for analysis/test runs, not
    /// production-size graphs.
    pub fn enable_progress_probe(&mut self) {
        self.obs.probe_enabled = true;
    }

    /// Whether the progress probe is sampling.
    pub fn progress_probe_enabled(&self) -> bool {
        self.obs.probe_enabled
    }

    /// The probe's samples so far, one per RC step since it was enabled.
    pub fn progress_samples(&self) -> &[ProgressSample] {
        &self.obs.samples
    }

    /// The span log: one record per engine activity, in completion order.
    pub fn spans(&self) -> &SpanLog {
        &self.obs.spans
    }

    /// Opens a span: remembers the virtual clock and ledger totals.
    pub(crate) fn span_open(&self) -> SpanStart {
        SpanStart {
            start_us: self.cluster.makespan_us(),
            totals: self.cluster.ledger().totals(),
        }
    }

    /// Closes a span, recording the virtual-clock and ledger deltas since
    /// [`AnytimeEngine::span_open`].
    pub(crate) fn span_close(&mut self, start: SpanStart, name: &str, detail: String) {
        let t = self.cluster.ledger().totals();
        let b = start.totals;
        self.obs.spans.push(SpanRecord {
            name: name.to_string(),
            detail,
            rc_step: self.rc_steps_done as u64,
            start_us: start.start_us,
            end_us: self.cluster.makespan_us(),
            compute_us: (t.compute_us - b.compute_us).max(0.0),
            bytes: t.bytes.saturating_sub(b.bytes),
            messages: t.messages.saturating_sub(b.messages),
        });
    }

    /// Closeness estimates from the current distance vectors, by vertex id,
    /// with the same formula as [`AnytimeEngine::snapshot`] but free of
    /// cluster charges (probe arithmetic is not part of the modeled run).
    fn closeness_estimates(&self) -> Vec<f64> {
        let mut closeness = vec![0.0f64; self.world.capacity()];
        for ps in &self.procs {
            for &v in ps.dv.vertices() {
                let (sum, _) = ps.dv.row(v).reach(v as usize);
                closeness[v as usize] = if sum == 0 { 0.0 } else { 1.0 / sum as f64 };
            }
        }
        closeness
    }

    /// (Re)builds the exact oracle if a mutation invalidated it.
    fn ensure_oracle(&mut self) {
        if self.obs.oracle.is_some() {
            return;
        }
        let dist = algo::apsp_dijkstra(&self.world);
        let mut closeness = vec![0.0f64; self.world.capacity()];
        for v in self.world.vertices() {
            closeness[v as usize] = algo::closeness_from_distances(&dist[v as usize], v);
        }
        self.obs.oracle = Some(Oracle { dist, closeness });
    }

    /// Takes one progress sample (called at the end of each RC step while
    /// the probe is enabled; also callable directly to sample between steps,
    /// e.g. right after `initialize`). No-op while the probe is disabled.
    pub fn record_progress_sample(&mut self) {
        if !self.obs.probe_enabled {
            return;
        }
        self.ensure_oracle();
        let dense = self.distances_dense();
        let live: Vec<VertexId> = self.world.vertices().collect();

        let mut max_over = 0.0f64;
        let mut sum_over = 0.0f64;
        let mut finite_pairs = 0u64;
        let mut unreached = 0u64;
        let mut converged_rows = 0u64;
        let mut regressions = 0u64;
        let same_shape = self
            .obs
            .prev_dense
            .as_ref()
            .is_some_and(|p| p.len() == dense.len());
        {
            let oracle = match self.obs.oracle.as_ref() {
                Some(o) => o,
                None => return, // unreachable: ensure_oracle just ran
            };
            for &u in &live {
                let est_row = &dense[u as usize];
                let exact_row = &oracle.dist[u as usize];
                let mut row_equal = true;
                for &t in &live {
                    let est = est_row[t as usize];
                    let exact = exact_row[t as usize];
                    if est != exact {
                        row_equal = false;
                    }
                    match (est == INF, exact == INF) {
                        (false, false) => {
                            let over = f64::from(est) - f64::from(exact);
                            if over > max_over {
                                max_over = over;
                            }
                            sum_over += over;
                            finite_pairs += 1;
                        }
                        (true, true) => {}
                        _ => unreached += 1,
                    }
                }
                if row_equal {
                    converged_rows += 1;
                }
                if same_shape {
                    if let Some(prev) = self.obs.prev_dense.as_ref() {
                        let prev_row = &prev[u as usize];
                        for &t in &live {
                            if est_row[t as usize] > prev_row[t as usize] {
                                regressions += 1;
                            }
                        }
                    }
                }
            }
        }
        let estimates = self.closeness_estimates();
        let oracle_closeness: Vec<f64> = match self.obs.oracle.as_ref() {
            Some(o) => live.iter().map(|&v| o.closeness[v as usize]).collect(),
            None => return, // unreachable: ensure_oracle just ran
        };
        let est_closeness: Vec<f64> = live.iter().map(|&v| estimates[v as usize]).collect();

        let dirty_rows: usize = self.procs.iter().map(|ps| ps.dirty.len()).sum();
        let sample = ProgressSample {
            rc_step: self.rc_steps_done as u64,
            makespan_us: self.cluster.makespan_us(),
            max_overestimate: max_over,
            mean_overestimate: if finite_pairs == 0 {
                0.0
            } else {
                sum_over / finite_pairs as f64
            },
            kendall_tau: kendall_tau(&est_closeness, &oracle_closeness),
            converged_row_fraction: if live.is_empty() {
                1.0
            } else {
                converged_rows as f64 / live.len() as f64
            },
            unreached_pairs: unreached,
            dirty_rows: dirty_rows as u64,
            estimate_regressions: regressions,
        };
        self.obs.samples.push(sample);
        self.obs.prev_dense = Some(dense);
    }

    /// Exports the engine's current state as a metrics registry: phase
    /// counters from the cost ledger, protocol counters from the
    /// recombination sends and deletion invalidation, state gauges, and
    /// per-RC-step histograms derived from the span log.
    ///
    /// The registry is rebuilt on each call (cheap: one pass over ledger and
    /// spans), so it always reflects the state at the call.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();

        let ledger = self.cluster.ledger();
        for phase in aa_logp::Phase::ALL {
            let s = ledger.phase(phase);
            let name = phase.to_string();
            let labels = [("phase", name.as_str())];
            r.inc_counter("aa_phase_messages_total", &labels, s.messages);
            r.inc_counter("aa_phase_bytes_total", &labels, s.bytes);
            r.set_gauge("aa_phase_compute_us", &labels, s.compute_us);
        }
        r.inc_counter("aa_rc_steps_total", &[], self.rc_steps_done as u64);
        r.inc_counter(
            "aa_deletion_barrier_steps_total",
            &[],
            self.obs.barrier_steps,
        );
        r.inc_counter(
            "aa_dynamic_settled_updates_total",
            &[],
            self.obs.settled_updates,
        );
        r.inc_counter("aa_dv_widenings_total", &[], self.obs.widenings);
        let bits = self.procs.iter().map(|ps| ps.dv.bits()).max().unwrap_or(8);
        r.set_gauge("aa_dv_row_bits", &[], f64::from(bits));
        r.inc_counter(
            "aa_snapshot_publications_total",
            &[("kind", "fresh")],
            self.obs.publish_fresh,
        );
        r.inc_counter(
            "aa_snapshot_publications_total",
            &[("kind", "reused")],
            self.obs.publish_reused,
        );
        let sent = [
            ("aa_rc_full_rows_sent_total", self.obs.full_rows_sent),
            ("aa_rc_delta_rows_sent_total", self.obs.delta_rows_sent),
            (
                "aa_rc_delta_entries_sent_total",
                self.obs.delta_entries_sent,
            ),
        ];
        for (name, count) in sent {
            r.inc_counter(name, &[], count);
        }
        let staged = self.obs.delta_buffer_bytes_max as f64;
        r.set_gauge("aa_rc_delta_buffer_bytes_max", &[], staged);

        let t = self.obs.invalidation;
        let labels = [("rows", "owned")];
        r.inc_counter("aa_invalidation_rows_examined_total", &labels, t.examined);
        r.inc_counter("aa_invalidation_rows_reset_total", &labels, t.reset);
        r.inc_counter("aa_invalidation_entries_reset_total", &labels, t.entries);

        r.inc_counter(
            "aa_invalidation_candidate_columns_total",
            &[],
            self.obs.candidate_columns,
        );

        r.set_gauge("aa_makespan_us", &[], self.cluster.makespan_us());
        let dirty_rows: usize = self.procs.iter().map(|ps| ps.dirty.len()).sum();
        r.set_gauge("aa_dirty_rows", &[], dirty_rows as f64);
        r.set_gauge("aa_converged", &[], if self.converged { 1.0 } else { 0.0 });
        r.set_gauge("aa_graph_vertices", &[], self.world.vertex_count() as f64);
        r.set_gauge("aa_graph_edges", &[], self.world.edge_count() as f64);

        r.declare_histogram("aa_rc_step_bytes", &RC_BYTES_BOUNDS);
        r.declare_histogram("aa_rc_step_span_us", &RC_SPAN_US_BOUNDS);
        for span in self.obs.spans.iter() {
            if span.name == "recombination" {
                r.observe("aa_rc_step_bytes", &[], span.bytes as f64);
                r.observe("aa_rc_step_span_us", &[], span.modeled_us());
            }
        }
        r
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
    fn probe_samples_one_per_step_and_converges_to_exact() {
        let mut e = engine(4, 7);
        e.enable_progress_probe();
        let steps = e.run_to_convergence(32);
        let samples = e.progress_samples();
        assert_eq!(samples.len(), steps);
        let last = samples.last().unwrap();
        assert_eq!(last.max_overestimate, 0.0);
        assert_eq!(last.converged_row_fraction, 1.0);
        assert_eq!(last.unreached_pairs, 0);
        assert!(
            last.kendall_tau > 0.999,
            "tau at exactness: {}",
            last.kendall_tau
        );
    }

    #[test]
    fn probe_is_monotone_fault_free() {
        let mut e = engine(5, 13);
        e.enable_progress_probe();
        e.run_to_convergence(32);
        for s in e.progress_samples() {
            assert_eq!(s.estimate_regressions, 0, "step {}", s.rc_step);
        }
        for w in e.progress_samples().windows(2) {
            assert!(
                w[1].converged_row_fraction >= w[0].converged_row_fraction,
                "converged fraction regressed at step {}",
                w[1].rc_step
            );
            assert!(w[1].max_overestimate <= w[0].max_overestimate);
        }
    }

    #[test]
    fn probe_disabled_by_default() {
        let mut e = engine(3, 5);
        e.run_to_convergence(16);
        assert!(!e.progress_probe_enabled());
        assert!(e.progress_samples().is_empty());
    }

    #[test]
    fn spans_cover_init_and_steps() {
        let mut e = engine(4, 9);
        let steps = e.run_to_convergence(32);
        let names: Vec<&str> = e.spans().iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"domain-decomposition"));
        assert!(names.contains(&"initial-approximation"));
        let rc_spans = names.iter().filter(|n| **n == "recombination").count();
        assert_eq!(rc_spans, steps);
        for s in e.spans().iter() {
            assert!(s.end_us >= s.start_us, "span {} runs backwards", s.name);
        }
        let bytes: u64 = e
            .spans()
            .iter()
            .filter(|s| s.name == "recombination")
            .map(|s| s.bytes)
            .sum();
        assert!(
            bytes > 0,
            "recombination spans must carry the exchange bytes"
        );
    }

    #[test]
    fn metrics_registry_reflects_run_state() {
        let mut e = engine(4, 11);
        let steps = e.run_to_convergence(32);
        let r = e.metrics_registry();
        assert_eq!(r.counter_value("aa_rc_steps_total", &[]), steps as u64);
        assert!(r.counter_value("aa_phase_bytes_total", &[("phase", "recombination")]) > 0);
        assert_eq!(r.gauge_value("aa_converged", &[]), Some(1.0));
        assert_eq!(r.gauge_value("aa_dirty_rows", &[]), Some(0.0));
        let Some(aa_obs::MetricValue::Histogram(h)) = r.get("aa_rc_step_bytes", &[]) else {
            panic!("aa_rc_step_bytes histogram missing");
        };
        assert!(h.count > 0);
    }

    #[test]
    fn mutation_invalidates_oracle_and_probe_recovers() {
        let mut e = engine(4, 17);
        e.enable_progress_probe();
        e.run_to_convergence(32);
        assert_eq!(e.progress_samples().last().unwrap().max_overestimate, 0.0);
        let (u, v, _) = e.graph().edges().nth(2).unwrap();
        assert!(e.delete_edge(u, v));
        e.run_to_convergence(64);
        let last = e.progress_samples().last().unwrap();
        assert_eq!(
            last.max_overestimate, 0.0,
            "probe must track the post-deletion oracle"
        );
        assert_eq!(last.converged_row_fraction, 1.0);
    }
}
