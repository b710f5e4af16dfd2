//! The three kinds of timed region — converge a static graph, push a churn
//! schedule, serve request turns — each built from public calls into the
//! layer crates, timed from outside with `Instant`, and checked against an
//! oracle before any number is reported.

use crate::gen::{self, ServeMix};
use crate::stats::{mean, median, percentile, weighted_percentile};
use crate::storage::{StorageStats, TimedStorage};
use crate::trace::{self, Span, Trace};
use aa_core::{AnytimeEngine, EngineConfig, Snapshot};
use aa_durable::{DiskStorage, DurabilityConfig, DurableLog, Storage};
use aa_graph::algo::exact_closeness;
use aa_graph::{Graph, VertexId, Weight};
use aa_ingest::{DrainPolicy, IngestConfig, IngestPipeline};
use aa_logp::Phase;
use aa_runtime::BackendKind;
use aa_serve::{ClientOp, ReadOutcome, ReadValue, ServeConfig, Server};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Virtual processors of every engine the benchmark builds.
pub const PROCS: usize = 8;
/// Turns between checkpoints of the benchmark's durable servers (the
/// default is 16; see `crash_turns` for why the benchmark widens it).
pub const CHECKPOINT_EVERY: usize = 64;
/// Recombination-step cap: far above the 5–7 steps R-MAT graphs need, so
/// hitting it means the engine failed to converge.
const STEP_LIMIT: usize = 16 * PROCS + 256;

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub n: usize,
    /// The phase that measured it: `primary`, or in the traced pass a probe
    /// or a `reference.*` phase, for a layer the workload leaves idle.
    pub src: &'static str,
}

pub type Metrics = BTreeMap<&'static str, Metric>;

/// Records a metric; `src` is stamped when the run absorbs the phase.
fn put(m: &mut Metrics, name: &'static str, value: f64, unit: &'static str, n: usize) {
    let src = "";
    m.insert(
        name,
        Metric {
            value,
            unit,
            n,
            src,
        },
    );
}

/// The two end-to-end numbers every workload reports about its own
/// operation — a graph converged, an update folded in, a read answered:
/// operations per second of timed wall time, and the median latency of one.
fn put_ops(m: &mut Metrics, ops: usize, wall_s: f64, p50_ms: f64, samples: usize) {
    put(m, "ops_per_s", ops as f64 / wall_s, "1/s", ops);
    put(m, "op_ms_p50", p50_ms, "ms", samples);
}

/// Set-up, first-frame and converge times of the engines a phase built,
/// reported as medians.
#[derive(Debug, Default)]
struct BuildTimes {
    setup_s: Vec<f64>,
    first_frame_s: Vec<f64>,
    converge_s: Vec<f64>,
}

impl BuildTimes {
    fn push(&mut self, setup_s: f64, run: &StaticRun) {
        self.setup_s.push(setup_s);
        self.first_frame_s.push(run.first_frame_s);
        self.converge_s.push(run.converge_s);
    }

    fn emit(&self, m: &mut Metrics) {
        put(m, "setup_s", median(&self.setup_s), "s", self.setup_s.len());
        let n = self.converge_s.len();
        put(m, "core.first_frame_s", median(&self.first_frame_s), "s", n);
        put(m, "core.converge_s", median(&self.converge_s), "s", n);
    }
}

/// What one phase measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// `primary`, `reference.churn`, …: stamped on the metrics it supplies.
    pub label: &'static str,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed correctness check.
    pub errors: Vec<String>,
    /// Wall time of the timed region.
    pub timed_s: f64,
    /// Traced pass: the part of `timed_s` spent inside layer spans, and how
    /// many spans the timed region recorded.
    pub covered_s: f64,
    pub timed_spans: usize,
}

impl PhaseOut {
    /// A failed check counts every operation of the phase as failed: a
    /// wrong answer served fast is not a served answer.
    fn fail(&mut self, msg: String) {
        self.errors.push(msg);
        self.failed = self.attempted;
    }

    /// Closes a timed region that started at `t0` with `mark` spans recorded.
    fn timed(&mut self, trace: &Trace, t0: Instant, mark: usize) {
        self.timed_s += t0.elapsed().as_secs_f64();
        let (covered_s, spans) = trace.coverage_since(mark);
        self.covered_s += covered_s;
        self.timed_spans += spans;
    }
}

/// Worker threads the threads backend gets: both cores of this host, one on
/// a single-core machine.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

pub fn engine_config(seed: u64, backend: BackendKind) -> EngineConfig {
    EngineConfig {
        num_procs: PROCS,
        seed,
        backend,
        threads: match backend {
            BackendKind::Sim => 0,
            BackendKind::Threads => worker_threads(),
        },
        ..Default::default()
    }
}

/// A converged engine and the times it took to get there.
pub struct StaticRun {
    pub engine: AnytimeEngine,
    pub snapshot: Snapshot,
    /// `AnytimeEngine::new` → first frame published after `initialize()`.
    pub first_frame_s: f64,
    /// `AnytimeEngine::new` → converged `snapshot()` returned.
    pub converge_s: f64,
}

/// The static pipeline: new → initialize (DD + IA) → publish → RC steps
/// until converged → snapshot.
pub fn static_run(trace: &Trace, graph: Graph, config: EngineConfig) -> Result<StaticRun, String> {
    let t0 = Instant::now();
    let mut engine = trace.span("engine.new", || AnytimeEngine::new(graph, config));
    trace.span("core.initialize", || engine.initialize());
    drop(trace.span("core.publish", || engine.publish_snapshot()));
    let first_frame_s = t0.elapsed().as_secs_f64();
    let mut steps = 0;
    loop {
        steps += 1;
        if trace.span("core.rc_step", || engine.rc_step()) {
            break;
        }
        if steps >= STEP_LIMIT {
            return Err(format!("no convergence within {STEP_LIMIT} RC steps"));
        }
    }
    let snapshot = trace.span("core.snapshot", || engine.snapshot());
    let converge_s = t0.elapsed().as_secs_f64();
    Ok(StaticRun {
        engine,
        snapshot,
        first_frame_s,
        converge_s,
    })
}

/// Exactness oracle: the engine's closeness must equal brute-force APSP
/// closeness of `graph` bit for bit (both sum the same integer distances).
pub fn check_closeness(got: &[f64], graph: &Graph, corrupt: bool) -> Result<(), String> {
    let mut want = exact_closeness(graph);
    if corrupt {
        // Test hook: proves a wrong expected value fails the run.
        if let Some(x) = want.iter_mut().find(|x| **x > 0.0) {
            *x *= 1.5;
        }
    }
    if got.len() != want.len() {
        return Err(format!(
            "closeness has {} slots, oracle has {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(&want).position(|(a, b)| a != b) {
        Some(v) => Err(format!(
            "closeness of vertex {v} is {:e}, oracle says {:e}",
            got[v], want[v]
        )),
        None => Ok(()),
    }
}

fn sorted_edges(g: &Graph) -> Vec<(VertexId, VertexId, Weight)> {
    let mut e: Vec<_> = g.edges().collect();
    e.sort_unstable();
    e
}

/// Ledger counts of the recombination and IA phases, which repeat exactly
/// for a seed, and the virtual makespan — the paper's clock, reported
/// beside the wall clock and never as latency. Summed engine by engine so
/// no engine has to outlive its graph (peak RSS is a metric).
#[derive(Debug, Default)]
struct LedgerSum {
    engines: usize,
    messages: u64,
    bytes: u64,
    rc_us: f64,
    ia_us: f64,
    makespan_us: f64,
    /// OS threads the engines computed on: 1 on the sim backend.
    threads: usize,
}

impl LedgerSum {
    fn add(&mut self, engine: &AnytimeEngine) {
        let ledger = engine.cluster().ledger();
        let rc = ledger.phase(Phase::Recombination);
        self.engines += 1;
        self.messages += rc.messages;
        self.bytes += rc.bytes;
        self.rc_us += rc.compute_us;
        self.ia_us += ledger.phase(Phase::InitialApproximation).compute_us;
        self.makespan_us += engine.makespan_us();
        self.threads = self.threads.max(engine.config().threads.max(1));
    }

    fn emit(&self, m: &mut Metrics) {
        let (count, n) = (self.engines, self.engines.max(1) as f64);
        put(m, "runtime.rc_messages", self.messages as f64, "count", 1);
        put(m, "runtime.rc_bytes", self.bytes as f64, "B", 1);
        put(m, "core.rc_compute_s", self.rc_us / 1e6 / n, "s", count);
        put(m, "core.ia_compute_s", self.ia_us / 1e6 / n, "s", count);
        put(m, "logp.makespan_s", self.makespan_us / 1e6 / n, "s", count);
        put(m, "runtime.worker_threads", self.threads as f64, "count", 1);
    }
}

/// Per-layer times of the static pipeline, from the spans of `engines`
/// engine builds: means per engine, so they sit beside `core.converge_s`.
fn static_span_metrics(m: &mut Metrics, spans: &[Span]) {
    let names = trace::by_name(spans);
    let engines = names.get("engine.new").map_or(0, |s| s.count) as usize;
    if engines == 0 {
        return;
    }
    for (metric, span) in [
        ("core.initialize_s", "core.initialize"),
        ("core.publish_s", "core.publish"),
        ("core.snapshot_s", "core.snapshot"),
        ("core.rc_total_s", "core.rc_step"),
    ] {
        let self_s = names.get(span).map_or(0.0, |s| s.self_s);
        put(m, metric, self_s / engines as f64, "s", engines);
    }
    let rc = names.get("core.rc_step").copied().unwrap_or_default();
    put(m, "core.rc_steps", rc.count as f64, "count", 1);
    put(m, "core.rc_step_max_s", rc.max_s, "s", rc.count as usize);
    for (metric, span) in [
        ("graph.gen_s", "graph.gen"),
        ("bench.generator_s", "bench.generator"),
    ] {
        if let Some(g) = names.get(span) {
            put(m, metric, g.total_s / g.count as f64, "s", g.count as usize);
        }
    }
}

/// What a static workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct StaticPlan {
    pub scale: u32,
    pub graphs: usize,
    pub corrupt_oracle: bool,
}

/// `static_sim`: converge `graphs` fresh R-MAT graphs.
/// One graph is one operation; the reported times are medians over them.
pub fn run_static(trace: &Trace, label: &'static str, seed: u64, plan: StaticPlan) -> PhaseOut {
    let mut out = PhaseOut {
        label,
        ..Default::default()
    };
    trace.set_phase(label);
    let mark = trace.mark();
    let mut times = BuildTimes::default();
    let mut ledger = LedgerSum::default();
    for i in 0..plan.graphs {
        trace.set_index(i);
        out.attempted += 1;
        let gseed = seed.wrapping_add(1000 * i as u64);
        let t = Instant::now();
        let graph = trace.span("graph.gen", || gen::base_graph(plan.scale, gseed));
        let input = graph.clone();
        let setup_s = t.elapsed().as_secs_f64();
        let (t, timed_mark) = (Instant::now(), trace.mark());
        let run = match static_run(trace, input, engine_config(gseed, BackendKind::Sim)) {
            Ok(run) => run,
            Err(e) => {
                out.errors.push(format!("{label} graph {i}: {e}"));
                out.failed += 1;
                continue;
            }
        };
        out.timed(trace, t, timed_mark);
        times.push(setup_s, &run);
        let checks = check_closeness(&run.snapshot.closeness, &graph, plan.corrupt_oracle)
            .and_then(|()| run.engine.check_invariants());
        if let Err(e) = checks {
            out.errors.push(format!("{label} graph {i}: {e}"));
            out.failed += 1;
        }
        ledger.add(&run.engine);
    }
    let m = &mut out.metrics;
    times.emit(m);
    let converged = times.converge_s.len();
    let p50_ms = median(&times.converge_s) * 1e3;
    put_ops(m, converged, out.timed_s, p50_ms, converged);
    ledger.emit(m);
    static_span_metrics(m, &trace.since(mark));
    out
}

/// A converged engine over a fresh graph, as set-up for churn and serving.
struct Converged {
    graph: Graph,
    run: StaticRun,
}

fn converge_fresh(trace: &Trace, scale: u32, seed: u64) -> Result<Converged, String> {
    let graph = trace.span("graph.gen", || gen::base_graph(scale, seed));
    let run = static_run(trace, graph.clone(), engine_config(seed, BackendKind::Sim))?;
    Ok(Converged { graph, run })
}

/// What a churn workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct ChurnPlan {
    pub scale: u32,
    /// Updates in all, split evenly over the sessions.
    pub updates: usize,
    /// Fresh graphs the schedule is spread over. What an update costs
    /// depends on which hub pairs the seed made hot (9 % to 14 % of single
    /// updates take 100 ms, not 20), so one graph per run would make the
    /// run's throughput a property of its seed.
    pub sessions: usize,
}

/// Samples and counters pooled over a churn workload's sessions.
#[derive(Debug, Default)]
struct ChurnTally {
    builds: BuildTimes,
    latency_ms: Vec<f64>,
    wall_s: f64,
    refused: u64,
    apply_s: f64,
    steps: usize,
    flushes: u64,
    raw_in: u64,
    actions_out: u64,
    shed: u64,
    ledger: LedgerSum,
}

/// `churn_single`: per session a converged engine (set-up), then a frozen
/// churn schedule through an `IngestPipeline` at `SizeTriggered(1)`: every
/// update is applied and reconverged alone, so exact closeness always
/// reflects what was pushed.
pub fn run_churn(trace: &Trace, label: &'static str, seed: u64, plan: ChurnPlan) -> PhaseOut {
    let mut out = PhaseOut {
        label,
        attempted: plan.updates as u64,
        ..Default::default()
    };
    let mark = trace.mark();
    let mut tally = ChurnTally::default();
    let sessions = plan.sessions.clamp(1, plan.updates.max(1));
    for session in 0..sessions {
        // The first sessions take the remainder, one update each.
        let updates = plan.updates / sessions + usize::from(session < plan.updates % sessions);
        let sseed = seed.wrapping_add(1000 * session as u64);
        if let Err(e) = churn_session(trace, label, sseed, plan, updates, &mut out, &mut tally) {
            out.fail(format!("{label} session {session}: {e}"));
            return out;
        }
    }
    out.failed += tally.refused;

    let m = &mut out.metrics;
    let t = &tally;
    t.builds.emit(m);
    let n = t.latency_ms.len();
    put_ops(
        m,
        plan.updates,
        t.wall_s,
        percentile(&t.latency_ms, 0.50),
        n,
    );
    put(
        m,
        "core.update_ms_p95",
        percentile(&t.latency_ms, 0.95),
        "ms",
        n,
    );
    t.ledger.emit(m);
    put(m, "core.apply_s", t.apply_s, "s", t.flushes as usize);
    put(m, "core.reconverge_steps", t.steps as f64, "count", 1);
    put(m, "ingest.flushes", t.flushes as f64, "count", 1);
    let absorbed = if t.raw_in == 0 {
        0.0
    } else {
        1.0 - t.actions_out as f64 / t.raw_in as f64
    };
    put(m, "ingest.coalesce_ratio", absorbed, "ratio", 1);
    put(m, "ingest.shed", (t.shed + t.refused) as f64, "count", 1);
    let spans = trace.since(mark);
    if !spans.is_empty() {
        let setup: Vec<Span> = spans
            .iter()
            .filter(|s| s.phase == "setup")
            .cloned()
            .collect();
        static_span_metrics(m, &setup);
        let timed: Vec<Span> = spans.into_iter().filter(|s| s.phase == label).collect();
        let names = trace::by_name(&timed);
        let pushes = trace::durations(&timed, "ingest.push");
        put(
            m,
            "ingest.push_us_p50",
            median(&pushes) * 1e6,
            "us",
            pushes.len(),
        );
        let flush = names.get("ingest.flush").copied().unwrap_or_default();
        put(
            m,
            "ingest.flush_s",
            flush.total_s,
            "s",
            flush.count as usize,
        );
        let rec = names.get("core.reconverge").copied().unwrap_or_default();
        put(m, "core.reconverge_s", rec.total_s, "s", rec.count as usize);
    }
    out
}

fn churn_session(
    trace: &Trace,
    label: &'static str,
    seed: u64,
    plan: ChurnPlan,
    updates: usize,
    out: &mut PhaseOut,
    tally: &mut ChurnTally,
) -> Result<(), String> {
    trace.set_phase("setup");
    let t = Instant::now();
    let conv = converge_fresh(trace, plan.scale, seed)?;
    let (ops, shadow) = trace.span("bench.generator", || {
        gen::churn_schedule(&conv.graph, updates, seed)
    });
    let cap = ops.len().max(16);
    let mut pipeline = IngestPipeline::new(IngestConfig {
        queue_cap: cap,
        high_watermark: cap,
        policy: DrainPolicy::SizeTriggered(1),
        ..Default::default()
    })?;
    tally.builds.push(t.elapsed().as_secs_f64(), &conv.run);
    tally.ledger.add(&conv.run.engine);
    let mut engine = conv.run.engine;

    trace.set_phase(label);
    let mark = trace.mark();
    let t0 = Instant::now();
    for (i, op) in ops.into_iter().enumerate() {
        trace.set_index(i);
        let t = Instant::now();
        let pushed = trace.span("ingest.push", || pipeline.push(&engine, op))?;
        if !(pushed.enqueued && pushed.admission.is_admitted()) {
            tally.refused += 1;
        }
        let tf = Instant::now();
        let flushed = trace.span("ingest.flush", || pipeline.maybe_flush(&mut engine))?;
        if flushed.is_some() {
            tally.apply_s += tf.elapsed().as_secs_f64();
            tally.steps += trace.span("core.reconverge", || engine.run_to_convergence(STEP_LIMIT));
        }
        tally.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let tf = Instant::now();
    if trace
        .span("ingest.flush", || pipeline.flush(&mut engine))?
        .is_some()
    {
        tally.apply_s += tf.elapsed().as_secs_f64();
        tally.steps += trace.span("core.reconverge", || engine.run_to_convergence(STEP_LIMIT));
    }
    tally.wall_s += t0.elapsed().as_secs_f64();
    out.timed(trace, t0, mark);

    if !engine.is_converged() {
        return Err("engine did not reconverge after the last flush".to_string());
    }
    let snapshot = engine.snapshot();
    check_closeness(&snapshot.closeness, &shadow, false)?;
    if sorted_edges(engine.graph()) != sorted_edges(&shadow) {
        return Err("engine graph differs from the schedule's shadow graph".to_string());
    }
    let stats = pipeline.stats();
    tally.flushes += stats.flushes;
    tally.raw_in += stats.raw_in;
    tally.actions_out += stats.actions_out;
    tally.shed += stats.shed;
    Ok(())
}

/// What a serving workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    pub scale: u32,
    pub mix: ServeMix,
    /// Attach a real on-disk WAL, crash without `shutdown()`, then recover.
    pub durable: bool,
    pub setup_reps: usize,
}

/// `aa_durable::recover` + reconvergence on the directory a crashed run
/// left is repeated, because one restart is one noisy sample: at least 3
/// times, and up to 9 while the repeats fit in this many seconds.
const RECOVER_REPS: std::ops::RangeInclusive<usize> = 3..=9;
const RECOVER_BUDGET_S: f64 = 1.2;

/// `serve_durable`, `serve_reads`: one closed-loop client submits a turn's
/// requests, then calls `Server::turn()`; the server has no thread of its
/// own, so a read's latency is the turn it waited for.
pub fn run_serve(
    trace: &Trace,
    label: &'static str,
    seed: u64,
    plan: ServePlan,
    wal_dir: &Path,
) -> PhaseOut {
    let mut out = PhaseOut {
        label,
        attempted: (plan.mix.turns * plan.mix.per_turn) as u64,
        ..Default::default()
    };
    if let Err(e) = serve_inner(trace, label, seed, plan, wal_dir, &mut out) {
        out.fail(format!("{label}: {e}"));
    }
    out
}

/// Handle on the decorator's counters; `None` when tracing is off.
type SharedStorageStats = Option<Rc<RefCell<StorageStats>>>;

fn open_storage(
    trace: &Trace,
    dir: &Path,
) -> Result<(Box<dyn Storage>, SharedStorageStats), String> {
    let disk = DiskStorage::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    Ok(if trace.is_on() {
        let (timed, stats) = TimedStorage::new(disk, trace.clone());
        (Box::new(timed), Some(stats))
    } else {
        (Box::new(disk), None)
    })
}

fn serve_inner(
    trace: &Trace,
    label: &'static str,
    seed: u64,
    plan: ServePlan,
    wal_dir: &Path,
    out: &mut PhaseOut,
) -> Result<(), String> {
    let serve_config = ServeConfig::default();
    trace.set_phase("setup");
    let mark = trace.mark();
    // Set up `setup_reps` times for a steady `setup_s`; serve the last one.
    let mut times = BuildTimes::default();
    let mut built = None;
    for _ in 0..plan.setup_reps.max(1) {
        drop(built.take());
        let t = Instant::now();
        let c = converge_fresh(trace, plan.scale, seed)?;
        let (schedule, shadow) = trace.span("bench.generator", || {
            gen::serve_schedule(&c.graph, plan.mix, seed)
        });
        let server = trace.span("serve.new", || Server::new(c.run.engine, serve_config))?;
        times.setup_s.push(t.elapsed().as_secs_f64());
        times.first_frame_s.push(c.run.first_frame_s);
        times.converge_s.push(c.run.converge_s);
        built = Some((c.graph, server, schedule, shadow));
    }
    let (base, mut server, schedule, shadow) = built.ok_or("no set-up ran")?;
    times.emit(&mut out.metrics);
    static_span_metrics(&mut out.metrics, &trace.since(mark));
    let mut ledger = LedgerSum::default();
    ledger.add(server.engine());
    ledger.emit(&mut out.metrics);
    let mut storage_stats = None;
    if plan.durable {
        let _ = std::fs::remove_dir_all(wal_dir);
        let (mut storage, stats) = open_storage(trace, wal_dir)?;
        storage_stats = stats;
        let durability = DurabilityConfig {
            checkpoint_every_turns: CHECKPOINT_EVERY,
            ..Default::default()
        };
        let log = DurableLog::open(storage.as_mut(), 1, durability)
            .map_err(|e| format!("open WAL: {e}"))?;
        server.attach_durability(storage, log);
    }

    trace.set_phase(label);
    let mark = trace.mark();
    let mut turn_ms: Vec<(f64, u64)> = Vec::with_capacity(schedule.len());
    let (mut reads, mut served, mut shed, mut writes, mut writes_failed) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut topk, mut topk_exact, mut depth_max) = (0u64, 0u64, 0usize);
    let mut last_logged = 0u64;
    let mut tally = |outcomes: &[ReadOutcome], served: &mut u64, shed: &mut u64| {
        for o in outcomes {
            match o {
                ReadOutcome::Served { value, .. } => {
                    *served += 1;
                    if let ReadValue::TopK(answer) = value {
                        topk += 1;
                        topk_exact += u64::from(answer.is_exact());
                    }
                }
                ReadOutcome::Shed { .. } => *shed += 1,
            }
        }
    };
    let t0 = Instant::now();
    for (i, ops) in schedule.into_iter().enumerate() {
        trace.set_index(i);
        let t = Instant::now();
        for op in ops {
            match op {
                ClientOp::Read(kind) => {
                    reads += 1;
                    let ticket = trace.span("serve.submit_read", || server.submit_read(kind));
                    if !ticket.admission.is_admitted() {
                        shed += 1;
                    }
                }
                ClientOp::Write(op) => {
                    writes += 1;
                    let outcome = trace.span("serve.submit_write", || server.submit_write(op));
                    if !outcome.is_admitted() {
                        writes_failed += 1;
                    }
                    if let Some(seq) = outcome.logged_seq() {
                        last_logged = last_logged.max(seq);
                    }
                }
            }
        }
        depth_max = depth_max.max(server.read_queue_depth());
        let report = trace.span("serve.turn", || server.turn())?;
        let (mut s, mut d) = (0, 0);
        tally(&report.served, &mut s, &mut d);
        turn_ms.push((t.elapsed().as_secs_f64() * 1e3, s));
        served += s;
        shed += d;
        if let Some(e) = report.commit_error {
            return Err(e);
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    out.timed(trace, t0, mark);
    let served_in_loop = served;

    // Every write committed and applied, every queued read resolved.
    let drained = server.drain(STEP_LIMIT)?;
    tally(&drained, &mut served, &mut shed);
    let stats = server.stats();
    writes_failed += stats.writes_aborted;
    out.failed += shed + writes_failed;
    let stats_shed = stats.reads_shed_capacity + stats.reads_shed_deadline;
    if stats.reads_submitted != reads || stats.reads_served + stats_shed != reads {
        return Err(format!(
            "reads do not add up: {reads} submitted, server counts {} submitted = {} served + {} shed",
            stats.reads_submitted, stats.reads_served, stats_shed
        ));
    }
    if served != stats.reads_served {
        return Err(format!(
            "client saw {served} reads served, server counts {}",
            stats.reads_served
        ));
    }
    if !server.engine().is_converged() {
        return Err("server did not drain to a converged engine".to_string());
    }
    let live_closeness = server.frame().snapshot.closeness.clone();
    check_closeness(&live_closeness, &shadow, false)?;
    if sorted_edges(server.engine().graph()) != sorted_edges(&shadow) {
        return Err("server graph differs from the schedule's shadow graph".to_string());
    }
    let live = server.engine().distances_dense();
    let durable_seq = server.durable_committed_seq();
    let ingest = server.ingest_stats();
    // Crash: no shutdown(), so no final checkpoint.
    drop(server);

    let m = &mut out.metrics;
    let p50_ms = weighted_percentile(&turn_ms, 0.50);
    put_ops(m, served_in_loop as usize, wall, p50_ms, turn_ms.len());
    put(
        m,
        "serve.read_ms_p90",
        weighted_percentile(&turn_ms, 0.90),
        "ms",
        turn_ms.len(),
    );
    put(m, "serve.queue_depth_max", depth_max as f64, "count", 1);
    put(m, "serve.reads_shed", shed as f64, "count", 1);
    let writes_shed = stats.writes_shed_queue + stats.writes_shed_budget;
    put(m, "serve.writes_shed", writes_shed as f64, "count", 1);
    put(
        m,
        "serve.degraded_turns",
        stats.degraded_turns as f64,
        "count",
        1,
    );
    let exact_frac = if topk == 0 {
        0.0
    } else {
        topk_exact as f64 / topk as f64
    };
    put(
        m,
        "serve.topk_exact_frac",
        exact_frac,
        "ratio",
        topk as usize,
    );
    if writes > 0 {
        put(m, "ingest.flushes", ingest.flushes as f64, "count", 1);
        put(
            m,
            "ingest.coalesce_ratio",
            ingest.coalesce_ratio(),
            "ratio",
            1,
        );
        put(m, "ingest.shed", ingest.shed as f64, "count", 1);
    }
    let spans = trace.since(mark);
    let mut turn_total_s = 0.0;
    if !spans.is_empty() {
        let turns: Vec<f64> = trace::durations(&spans, "serve.turn");
        turn_total_s = turns.iter().sum();
        let ms: Vec<f64> = turns.iter().map(|s| s * 1e3).collect();
        put(
            m,
            "serve.turn_ms_p50",
            percentile(&ms, 0.50),
            "ms",
            ms.len(),
        );
        put(
            m,
            "serve.turn_ms_p90",
            percentile(&ms, 0.90),
            "ms",
            ms.len(),
        );
        let r = trace::durations(&spans, "serve.submit_read");
        put(
            m,
            "serve.submit_read_us_p50",
            median(&r) * 1e6,
            "us",
            r.len(),
        );
        let w = trace::durations(&spans, "serve.submit_write");
        if !w.is_empty() {
            put(
                m,
                "serve.submit_write_us_p50",
                median(&w) * 1e6,
                "us",
                w.len(),
            );
        }
    }

    if !plan.durable {
        return Ok(());
    }
    let durable_seq = durable_seq.ok_or("durable server reports no committed sequence")?;
    if last_logged > durable_seq {
        return Err(format!(
            "write logged as seq {last_logged} but only {durable_seq} is durable after drain"
        ));
    }
    if let Some(stats) = &storage_stats {
        // Taken before recovery adds its reads: the serving path's share.
        storage_metrics(m, &stats.borrow(), turn_total_s);
    }
    time_recovery(trace, m, wal_dir, &base, seed, &live)
}

/// `durable.*` from what the storage decorator saw while serving.
fn storage_metrics(m: &mut Metrics, st: &StorageStats, turn_total_s: f64) {
    let calls = |op: &crate::storage::OpStats| op.calls as usize;
    put(m, "durable.sync_s", st.sync.seconds, "s", calls(&st.sync));
    put(m, "durable.syncs", st.sync.calls as f64, "count", 1);
    let appended = st.append.bytes as f64;
    put(m, "durable.append_bytes", appended, "B", calls(&st.append));
    let ck = &st.checkpoint;
    put(m, "durable.checkpoint_s", ck.seconds, "s", calls(ck));
    put(
        m,
        "durable.checkpoint_bytes",
        ck.bytes as f64,
        "B",
        calls(ck),
    );
    let in_storage = st.append.seconds + st.sync.seconds + st.write_atomic.seconds;
    let share = if turn_total_s > 0.0 {
        in_storage / turn_total_s
    } else {
        0.0
    };
    put(m, "durable.share_of_turn", share, "ratio", 1);
}

/// Restarts from the directory a crashed server left: a fresh engine over
/// the base graph, `aa_durable::recover`, reconvergence. The recovered
/// distances must equal `live`, captured from the server before the crash.
fn time_recovery(
    trace: &Trace,
    m: &mut Metrics,
    wal_dir: &Path,
    base: &Graph,
    seed: u64,
    live: &[Vec<Weight>],
) -> Result<(), String> {
    trace.set_phase("recover");
    let mut recover_s: Vec<f64> = Vec::new();
    for rep in 0..*RECOVER_REPS.end() {
        let spent: f64 = recover_s.iter().sum();
        if rep >= *RECOVER_REPS.start() && spent + spent / rep as f64 > RECOVER_BUDGET_S {
            break;
        }
        trace.set_index(rep);
        let (mut storage, _) = open_storage(trace, wal_dir)?;
        let fresh = AnytimeEngine::new(base.clone(), engine_config(seed, BackendKind::Sim));
        let t = Instant::now();
        let recovered = trace.span("durable.recover", || {
            aa_durable::recover(storage.as_mut(), fresh, ServeConfig::default().ingest)
        })?;
        let mut engine = recovered.engine;
        trace.span("core.reconverge", || engine.run_to_convergence(STEP_LIMIT));
        recover_s.push(t.elapsed().as_secs_f64());
        if !engine.is_converged() || engine.distances_dense() != live {
            return Err("recovered engine differs from the live engine it replaces".to_string());
        }
        let replayed = recovered.report.records_replayed;
        put(m, "durable.recover_replayed", replayed as f64, "count", 1);
    }
    put(
        m,
        "durable.recover_s",
        median(&recover_s),
        "s",
        recover_s.len(),
    );
    Ok(())
}

/// `aa_core::dv::relax_row` streamed once over at least 64 MiB of distinct
/// row pairs of `n` entries. Bytes are computed, not measured: 12 B per
/// entry (read dst, read src, write dst) for one add, one compare and one
/// select — 0.25 op/B, so the kernel is bound by memory traffic. No
/// roofline ratio is claimed: the reported last-level cache (260 MB) is
/// larger than any working set this sandbox can stream four times over.
pub fn relax_probe(trace: &Trace, m: &mut Metrics, n: usize, seed: u64) {
    const PAIR_BYTES: usize = 64 << 20;
    let rows = PAIR_BYTES.div_ceil(8 * n).max(1);
    let mut rng = crate::rng::Rng::new(seed, 0x7E);
    let mut dst: Vec<Weight> = (0..rows * n).map(|_| rng.range(1, 1 << 20)).collect();
    let src: Vec<Weight> = (0..rows * n).map(|_| rng.range(1, 1 << 20)).collect();
    trace.set_phase("probe.relax");
    let t = Instant::now();
    let changed = trace.span("core.relax_row", || {
        let mut changed = 0usize;
        for (d, s) in dst.chunks_exact_mut(n).zip(src.chunks_exact(n)) {
            changed += usize::from(aa_core::dv::relax_row(d, s, 1));
        }
        changed
    });
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box((changed, &dst));
    let entries = (rows * n) as f64;
    put(
        m,
        "core.relax_ns_per_entry",
        secs * 1e9 / entries,
        "ns",
        rows * n,
    );
    put(
        m,
        "core.relax_gbps",
        12.0 * entries / secs / 1e9,
        "GB/s",
        rows * n,
    );
}

/// The configured partitioner called standalone on the workload's graph.
pub fn partition_probe(trace: &Trace, m: &mut Metrics, graph: &Graph, seed: u64) {
    trace.set_phase("probe.partition");
    let partitioner = EngineConfig::default().partitioner.build(seed);
    let t = Instant::now();
    let parts = trace.span("partition.dd", || partitioner.partition(graph, PROCS));
    put(m, "partition.dd_s", t.elapsed().as_secs_f64(), "s", 1);
    let cut = aa_partition::quality::edge_cut(graph, &parts);
    put(m, "partition.cut_edges", cut as f64, "count", 1);
    put(
        m,
        "partition.imbalance",
        aa_partition::quality::balance(&parts),
        "ratio",
        1,
    );
}

/// A standalone `TopKTracker` driven over one static convergence, observing
/// every published frame. Traced pass only; the engine's bound feed is
/// enabled here and nowhere else, so the timed workloads never pay for it.
pub fn query_probe(trace: &Trace, m: &mut Metrics, graph: Graph, seed: u64) -> Result<(), String> {
    use aa_query::{TopKConfig, TopKTracker};
    trace.set_phase("probe.query");
    let mark = trace.mark();
    let mut engine = AnytimeEngine::new(graph, engine_config(seed, BackendKind::Sim));
    engine.enable_bound_feed();
    engine.initialize();
    let mut tracker = TopKTracker::new(TopKConfig {
        k: gen::TOP_K,
        ..Default::default()
    });
    let mut pruned = Vec::new();
    for step in 0..STEP_LIMIT {
        trace.set_index(step);
        let frame = engine.publish_snapshot();
        let deltas = engine.drain_bound_deltas();
        trace.span("query.observe", || {
            tracker.observe(&frame, engine.graph(), &deltas)
        });
        let answer = trace.span("query.answer", || tracker.answer(gen::TOP_K));
        pruned.push(tracker.pruned_fraction());
        if engine.is_converged() {
            if !answer.is_some_and(|a| a.is_exact()) {
                return Err("top-k answer not exact on a converged engine".to_string());
            }
            break;
        }
        engine.rc_step();
    }
    let spans = trace.since(mark);
    let observe: f64 = trace::durations(&spans, "query.observe").iter().sum();
    let answers = trace::durations(&spans, "query.answer");
    put(m, "query.observe_s", observe, "s", pruned.len());
    put(
        m,
        "query.answer_us_p50",
        median(&answers) * 1e6,
        "us",
        answers.len(),
    );
    put(m, "query.pruned_frac", mean(&pruned), "ratio", pruned.len());
    let exact_at = tracker.resolution_step().unwrap_or(0);
    put(m, "query.steps_to_exact", exact_at as f64, "count", 1);
    Ok(())
}
