//! The four workloads, their sizes, and how one run is put together.
//!
//! The benchmark contract makes every run report every end-to-end metric,
//! so the end-to-end metrics are the four every workload measures about its
//! own operation (a graph converged, an update folded in, a read answered):
//! set-up time, operations per second, median latency, peak memory. An
//! untraced run is the workload's **primary** phase and nothing else. The
//! traced pass, which must report every layer, adds the layer probes and two
//! small fixed **reference** phases (scale 8) for the layers the primary
//! leaves idle; the table prints which phase supplied each value.

use crate::gen::ServeMix;
use crate::phases::{self, ChurnPlan, Metric, Metrics, PhaseOut, ServePlan, StaticPlan};
use crate::trace::{self, Trace};
use aa_runtime::BackendKind;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StaticSim,
    ChurnSingle,
    ServeDurable,
    ServeReads,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StaticSim,
        Workload::ChurnSingle,
        Workload::ServeDurable,
        Workload::ServeReads,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticSim => "static_sim",
            Workload::ChurnSingle => "churn_single",
            Workload::ServeDurable => "serve_durable",
            Workload::ServeReads => "serve_reads",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics in reporting order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics in reporting order: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("graph.gen_s", "s"),
    ("partition.dd_s", "s"),
    ("partition.cut_edges", "count"),
    ("partition.imbalance", "ratio"),
    ("core.first_frame_s", "s"),
    ("core.converge_s", "s"),
    ("core.initialize_s", "s"),
    ("core.ia_compute_s", "s"),
    ("core.rc_total_s", "s"),
    ("core.rc_steps", "count"),
    ("core.rc_step_max_s", "s"),
    ("core.rc_compute_s", "s"),
    ("core.snapshot_s", "s"),
    ("core.publish_s", "s"),
    ("core.relax_ns_per_entry", "ns"),
    ("core.relax_gbps", "GB/s"),
    ("core.apply_s", "s"),
    ("core.reconverge_s", "s"),
    ("core.reconverge_steps", "count"),
    ("core.update_ms_p95", "ms"),
    ("runtime.rc_messages", "count"),
    ("runtime.rc_bytes", "B"),
    ("runtime.worker_threads", "count"),
    ("runtime.threads_speedup", "ratio"),
    ("logp.makespan_s", "s"),
    ("ingest.push_us_p50", "us"),
    ("ingest.flush_s", "s"),
    ("ingest.flushes", "count"),
    ("ingest.coalesce_ratio", "ratio"),
    ("ingest.shed", "count"),
    ("durable.sync_s", "s"),
    ("durable.syncs", "count"),
    ("durable.append_bytes", "B"),
    ("durable.checkpoint_s", "s"),
    ("durable.checkpoint_bytes", "B"),
    ("durable.share_of_turn", "ratio"),
    ("durable.recover_s", "s"),
    ("durable.recover_replayed", "count"),
    ("query.observe_s", "s"),
    ("query.answer_us_p50", "us"),
    ("query.pruned_frac", "ratio"),
    ("query.steps_to_exact", "count"),
    ("serve.turn_ms_p50", "ms"),
    ("serve.turn_ms_p90", "ms"),
    ("serve.read_ms_p90", "ms"),
    ("serve.submit_read_us_p50", "us"),
    ("serve.submit_write_us_p50", "us"),
    ("serve.queue_depth_max", "count"),
    ("serve.reads_shed", "count"),
    ("serve.writes_shed", "count"),
    ("serve.degraded_turns", "count"),
    ("serve.topk_exact_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.generator_s", "s"),
    ("bench.span_coverage_frac", "ratio"),
    ("bench.ops_failed_frac", "ratio"),
];

/// Counters that must be equal, not merely within a bound, between two
/// runs of one commit with one seed.
pub const EXACT_REPEAT: [&str; 5] = [
    "core.rc_steps",
    "runtime.rc_messages",
    "runtime.rc_bytes",
    "ingest.flushes",
    "durable.syncs",
];

/// The run length the sizes below are for; `BENCHMARK.json` names the same.
pub const RUN_SECONDS: f64 = 20.0;

/// Sizes at `--seconds 20`, measured on the 2-core build host (release).
/// Other run lengths scale the work linearly, so a seed's counters repeat
/// exactly at a given length; the floors keep p90 at ≥ 10 samples beyond.
mod size {
    /// n = 2,048: ≈ 0.5 s per graph. Many graphs of this size, not a few of
    /// n = 4,096: R-MAT graphs of one scale need 5 or 6 RC steps depending
    /// on the seed (a 12 % step in the converge time), and only a median
    /// over many graphs is steady from seed to seed.
    pub const STATIC_SCALE: u32 = 11;
    pub const STATIC_GRAPHS: f64 = 28.0;
    /// n = 2,048: ≈ 28 ms per update applied alone. One update in ten (a
    /// delete or a weight increase on a hub pair) costs ≈ 100 ms and takes a
    /// third of the time, so the run's throughput follows how many of them
    /// its schedule drew: 512 updates spread it by 7–10 % from seed to seed.
    pub const CHURN_SCALE: u32 = 11;
    pub const CHURN_UPDATES: f64 = 768.0;
    /// Fresh graphs a churn schedule is spread over (see `ChurnPlan`).
    pub const CHURN_SESSIONS: usize = 8;
    /// n = 512 for the durable server: every turn commits, barrier-flushes
    /// ≈ 13 writes and steps, ≈ 45 ms a turn (0.12 s at n = 1,024).
    pub const DURABLE_SCALE: u32 = 9;
    pub const DURABLE_TURNS: f64 = 416.0;
    /// n = 2,048, ≈ 1.1 ms per all-read turn.
    pub const READS_SCALE: u32 = 11;
    pub const READS_TURNS: f64 = 12000.0;
    pub const PER_TURN: usize = 64;
    /// Floors: p95 of updates and p90 of turns keep ≥ 10 samples beyond.
    pub const MIN_UPDATES: usize = 200;
    pub const MIN_TURNS: usize = 110;
    /// The traced pass's reference session: n = 256, ≈ 0.5 ms per single
    /// update and ≈ 15 ms per durable turn, ≈ 2.7 s in all.
    pub const REF_SCALE: u32 = 8;
    pub const REF_UPDATES: usize = 512;
    pub const REF_TURNS: usize = 160;
    /// Its inputs are fixed, not drawn from `--seed`: it only fills in the
    /// layers the workload leaves idle.
    pub const REF_SEED: u64 = 0x5EF;
}

/// `turns` rounded up to half-way between two checkpoints (the benchmark's
/// durable servers checkpoint every [`phases::CHECKPOINT_EVERY`] turns).
/// The drain before the crash adds 2 to 8 turns, so recovery always loads
/// a checkpoint and replays 34 to 40 turns of WAL; at the default cadence
/// of 16 the same drain would swing the replay between 0 and 15 turns and
/// the recovery time with it.
fn crash_turns(turns: usize) -> usize {
    let every = phases::CHECKPOINT_EVERY;
    let past = (turns + every / 2) % every;
    if past == 0 {
        turns
    } else {
        turns + every - past
    }
}

fn scaled(base: f64, factor: f64, floor: usize) -> usize {
    ((base * factor).round() as usize).max(floor)
}

/// How a run is sized: `seconds` as given, halved in the traced pass (whose
/// layer probes need the other half), and optionally at a smaller graph
/// scale for the unit tests.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Caps every graph scale (tests run at scale 7).
    pub max_scale: Option<u32>,
    /// Test hook: corrupt one expected closeness value.
    pub corrupt_oracle: bool,
}

impl RunSpec {
    /// `scale`, unless the tests asked for smaller graphs.
    fn cap(&self, scale: u32) -> u32 {
        self.max_scale.map_or(scale, |m| scale.min(m))
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans: Vec<trace::Span>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    fn absorb(&mut self, phase: PhaseOut) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.errors.extend(phase.errors);
        for (name, mut metric) in phase.metrics {
            metric.src = phase.label;
            self.metrics.entry(name).or_insert(metric);
        }
    }
}

enum Primary {
    Static(StaticPlan),
    Churn(ChurnPlan),
    Serve(ServePlan),
}

fn primary_plan(spec: &RunSpec) -> Primary {
    let cap = |scale| spec.cap(scale);
    // The traced pass spends half its time on the layer probes.
    let f = spec.seconds / RUN_SECONDS * if spec.traced { 0.5 } else { 1.0 };
    let setup_reps = if spec.traced { 1 } else { 5 };
    // A 30 ms set-up needs more repeats than a 0.5 s one for a steady median.
    let small_setup_reps = 3 * setup_reps;
    let serve = |scale, turns, read_pct, durable, setup_reps| {
        Primary::Serve(ServePlan {
            scale: cap(scale),
            mix: ServeMix {
                turns: if durable {
                    crash_turns(scaled(turns, f, size::MIN_TURNS))
                } else {
                    scaled(turns, f, size::MIN_TURNS)
                },
                per_turn: size::PER_TURN,
                read_pct,
            },
            durable,
            setup_reps,
        })
    };
    match spec.workload {
        Workload::StaticSim => Primary::Static(StaticPlan {
            scale: cap(size::STATIC_SCALE),
            graphs: scaled(size::STATIC_GRAPHS, f, 1),
            corrupt_oracle: spec.corrupt_oracle,
        }),
        Workload::ChurnSingle => Primary::Churn(ChurnPlan {
            scale: cap(size::CHURN_SCALE),
            updates: scaled(size::CHURN_UPDATES, f, size::MIN_UPDATES),
            sessions: if spec.traced { 2 } else { size::CHURN_SESSIONS },
        }),
        Workload::ServeDurable => serve(
            size::DURABLE_SCALE,
            size::DURABLE_TURNS,
            80,
            true,
            small_setup_reps,
        ),
        Workload::ServeReads => serve(size::READS_SCALE, size::READS_TURNS, 100, false, setup_reps),
    }
}

fn run_primary(trace: &Trace, spec: &RunSpec, plan: &Primary, wal: &Path) -> PhaseOut {
    let label = "primary";
    match plan {
        Primary::Static(p) => phases::run_static(trace, label, spec.seed, *p),
        Primary::Churn(p) => phases::run_churn(trace, label, spec.seed, *p),
        Primary::Serve(p) => phases::run_serve(trace, label, spec.seed, *p, wal),
    }
}

/// Runs one workload once. `scratch` is a directory the run may fill (WAL
/// segments and checkpoints); the caller removes it.
pub fn run(spec: &RunSpec, scratch: &Path) -> RunResult {
    let mut result = RunResult::default();
    let trace = if spec.traced {
        Trace::on()
    } else {
        Trace::off()
    };
    let plan = primary_plan(spec);
    let cap = |scale| spec.cap(scale);

    let primary = run_primary(&trace, spec, &plan, &scratch.join("wal-primary"));
    let (timed_s, covered_s, timed_spans) =
        (primary.timed_s, primary.covered_s, primary.timed_spans);
    result.absorb(primary);

    // Reference phases: the traced pass reports every layer, these fill in
    // the ones the primary leaves idle.
    let ref_seed = size::REF_SEED;
    let lacks = |r: &RunResult, name: &str| !r.metrics.contains_key(name);
    if spec.traced && lacks(&result, "core.update_ms_p95") {
        let plan = ChurnPlan {
            scale: cap(size::REF_SCALE),
            updates: size::REF_UPDATES,
            sessions: 1,
        };
        result.absorb(phases::run_churn(&trace, "reference.churn", ref_seed, plan));
    }
    if spec.traced && lacks(&result, "durable.recover_s") {
        let plan = ServePlan {
            scale: cap(size::REF_SCALE),
            mix: ServeMix {
                turns: crash_turns(size::REF_TURNS),
                per_turn: size::PER_TURN,
                read_pct: 80,
            },
            durable: true,
            setup_reps: 1,
        };
        let wal = scratch.join("wal-reference");
        result.absorb(phases::run_serve(
            &trace,
            "reference.serve",
            ref_seed,
            plan,
            &wal,
        ));
    }

    if spec.traced {
        traced_probes(&trace, spec, &plan, &mut result);
        let m = &mut result.metrics;
        let share = |part: f64| if timed_s > 0.0 { part / timed_s } else { 0.0 };
        let overhead = share(timed_spans as f64 * trace::span_cost_s());
        m.insert("bench.trace_overhead_frac", metric(overhead, "ratio"));
        // Share of the primary's timed region spent inside a layer span; the
        // rest is the harness itself (loop control, clocks, tallies).
        m.insert(
            "bench.span_coverage_frac",
            metric(share(covered_s), "ratio"),
        );
    }
    let failed_frac = result.failed as f64 / result.attempted.max(1) as f64;
    result
        .metrics
        .insert("bench.ops_failed_frac", metric(failed_frac, "ratio"));
    result
        .metrics
        .insert("peak_rss_mb", metric(peak_rss_mb(), "MB"));
    result.spans = trace.since(0);
    result
}

fn metric(value: f64, unit: &'static str) -> Metric {
    Metric {
        value,
        unit,
        n: 1,
        src: "run",
    }
}

/// Layer probes that only the traced pass runs, all on the workload's first
/// graph: the partitioner standalone, the threads backend for the speed-up
/// ratio, a top-k tracker over one convergence, and the `relax_row` stream.
fn traced_probes(trace: &Trace, spec: &RunSpec, plan: &Primary, result: &mut RunResult) {
    let scale = match plan {
        Primary::Static(p) => p.scale,
        Primary::Churn(p) => p.scale,
        Primary::Serve(p) => p.scale,
    };
    let graph = crate::gen::base_graph(scale, spec.seed);
    let mut m = Metrics::new();
    phases::partition_probe(trace, &mut m, &graph, spec.seed);
    phases::relax_probe(trace, &mut m, 1 << scale, spec.seed);
    if let Err(e) = phases::query_probe(trace, &mut m, graph.clone(), spec.seed) {
        result.errors.push(format!("query probe: {e}"));
    }

    // Sim ÷ threads converge time: the primary (or its set-up) converged
    // this graph on the simulator, this does it on worker threads. Both must
    // equal the oracle bit for bit, hence each other.
    trace.set_phase("probe.backend");
    let sim_s = result
        .metrics
        .get("core.converge_s")
        .map_or(0.0, |c| c.value);
    // Twice, keeping the faster: the first convergence after a change of
    // backend pays ≈ 0.9 s of page faults at scale 12 (memory freed by the
    // caller's allocator arena is not reused by the workers', nor the
    // reverse), which would otherwise be booked as a backend difference.
    let mut threads_s = f64::INFINITY;
    for _ in 0..2 {
        let config = phases::engine_config(spec.seed, BackendKind::Threads);
        match phases::static_run(trace, graph.clone(), config) {
            Ok(run) => {
                if let Err(e) = phases::check_closeness(&run.snapshot.closeness, &graph, false) {
                    result.errors.push(format!("threads backend: {e}"));
                }
                threads_s = threads_s.min(run.converge_s);
            }
            Err(e) => result.errors.push(format!("backend probe: {e}")),
        }
    }
    m.insert(
        "runtime.threads_speedup",
        metric(sim_s / threads_s, "ratio"),
    );
    for (name, mut value) in m {
        value.src = "probe";
        result.metrics.entry(name).or_insert(value);
    }
}

/// VmHWM of this process in MB: the peak resident set of the whole run.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(workload: Workload, traced: bool) -> RunSpec {
        RunSpec {
            workload,
            seed: 42,
            seconds: 1.0,
            traced,
            max_scale: Some(7),
            corrupt_oracle: false,
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = crate::scratch_root().join(format!("test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn static_sim_smoke_passes_its_oracle_and_reports_every_metric() {
        let dir = scratch("static");
        let r = run(&spec(Workload::StaticSim, false), &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(r.correct(), "{:?}", r.errors);
        assert_eq!(r.failed, 0);
        for (name, _) in END_TO_END {
            let m = r
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(m.value > 0.0, "{name} = {}", m.value);
        }
    }

    #[test]
    fn a_corrupted_expected_closeness_fails_the_run() {
        let dir = scratch("corrupt");
        let bad = RunSpec {
            corrupt_oracle: true,
            ..spec(Workload::StaticSim, false)
        };
        let r = run(&bad, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!r.correct());
        assert!(r.failed > 0);
        assert!(r.errors[0].contains("oracle says"), "{:?}", r.errors);
    }

    #[test]
    fn every_workload_is_correct_traced_and_reports_every_layer() {
        for w in Workload::ALL {
            let dir = scratch(w.name());
            let r = run(&spec(w, true), &dir);
            let _ = std::fs::remove_dir_all(&dir);
            assert!(r.correct(), "{}: {:?}", w.name(), r.errors);
            assert_eq!(r.failed, 0, "{}", w.name());
            for (name, _) in PER_LAYER {
                assert!(r.metrics.contains_key(name), "{}: {name} missing", w.name());
            }
            // Every span's parent exists and precedes it.
            for s in &r.spans {
                assert!(
                    s.parent < s.id,
                    "{}: span {} parent {}",
                    w.name(),
                    s.id,
                    s.parent
                );
                assert!(s.end_ns >= s.start_ns);
            }
            let turn_children = r
                .spans
                .iter()
                .filter(|s| s.name == "durable.sync")
                .filter(|s| r.spans[s.parent as usize - 1].name == "serve.turn")
                .count();
            assert!(turn_children > 0, "{}: no fsync under a turn", w.name());
        }
    }

    #[test]
    fn counters_repeat_exactly_for_a_seed() {
        let dir = scratch("repeat");
        let a = run(&spec(Workload::ChurnSingle, true), &dir);
        let b = run(&spec(Workload::ChurnSingle, true), &dir);
        let _ = std::fs::remove_dir_all(&dir);
        for name in EXACT_REPEAT {
            assert_eq!(a.metrics[name].value, b.metrics[name].value, "{name}");
        }
    }

    #[test]
    fn durable_runs_crash_half_way_between_checkpoints() {
        for turns in [1, 32, 33, 110, 160, 224, 225] {
            let t = crash_turns(turns);
            assert_eq!(t % 64, 32, "{turns} -> {t}");
            assert!((turns..turns + 64).contains(&t));
        }
        assert_eq!(crash_turns(224), 224);
    }

    #[test]
    fn benchmark_json_names_what_the_harness_runs_and_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let b = crate::json::parse(&text).unwrap();
        let field = |v: &crate::json::Value, key: &str| {
            v.get(key).and_then(|x| x.as_str()).unwrap().to_string()
        };
        let listed = |key: &str| -> Vec<(String, String)> {
            let entries = b.get(key).unwrap().as_arr();
            entries
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = b
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        let seconds = b.get("run_seconds").and_then(|s| s.as_f64());
        assert_eq!(seconds, Some(RUN_SECONDS));
    }

    #[test]
    fn names_are_unique_and_workloads_parse() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
