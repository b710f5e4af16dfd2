//! Subcommand implementations for the `aa` binary: each parses its options,
//! drives one [`Session`] (or a [`Server`] over one) and prints.

use crate::{load_graph, save_graph, Format};
use aa_core::{AdditionStrategy, AnytimeEngine, EngineConfig};
use aa_durable::atomic_write_file;
use aa_ingest::{DrainPolicy, IngestConfig};
use aa_partition::{
    quality, BfsGrowPartitioner, HashPartitioner, MultilevelKWay, Partitioner,
    RoundRobinPartitioner,
};
use aa_query::TopKConfig;
use aa_runtime::BackendKind;
use aa_serve::{Server, Session};
use std::path::{Path, PathBuf};

/// Validates the backend options every engine-building subcommand shares
/// and assembles the engine configuration from them.
fn engine_config(
    procs: usize,
    backend: BackendKind,
    threads: usize,
) -> Result<EngineConfig, String> {
    backend.check(threads)?;
    Ok(EngineConfig {
        num_procs: procs,
        backend,
        threads,
        ..Default::default()
    })
}

/// The tracker configuration behind `--top-k`.
fn topk_config(top_k: Option<usize>) -> Result<Option<TopKConfig>, String> {
    match top_k {
        Some(0) => Err("--top-k must be at least 1".to_string()),
        Some(k) => Ok(Some(TopKConfig {
            k,
            max_pivots: 16.max(k),
        })),
        None => Ok(None),
    }
}

/// Runs the static analysis to convergence and reports it.
fn converge_static(session: &mut Session, budget: usize, out: &mut String) {
    let steps = session.converge(budget);
    let graph = session.engine().graph();
    out.push_str(&format!(
        "graph: {} vertices, {} edges — converged in {steps} RC steps\n",
        graph.vertex_count(),
        graph.edge_count()
    ));
}

/// Appends the closeness ranking and, with a tracker attached, the anytime
/// top-k section with its confidence.
fn push_ranking(out: &mut String, session: &mut Session, top: usize) {
    let snap = session.engine_mut().snapshot();
    out.push_str(&format!(
        "\ntop-{top} closeness (cluster time {:.1} ms over {} RC steps):\n",
        snap.makespan_us / 1000.0,
        session.engine().rc_steps()
    ));
    for (v, c) in snap.top_k(top) {
        out.push_str(&format!("  vertex {v:>8}  closeness {c:.6e}\n"));
    }
    let Some(k) = session.tracker().map(|t| t.config().k) else {
        return;
    };
    let ans = session.top_k(k);
    if let (Some(ans), Some(t)) = (ans, session.tracker()) {
        out.push_str(&format!(
            "\nanytime top-{k} ({} pivots, {:.1}% of non-member candidates pruned):\n",
            t.pivots().len(),
            t.pruned_fraction() * 100.0
        ));
        for (v, c) in &ans.members {
            out.push_str(&format!("  vertex {v:>8}  closeness {c:.6e}\n"));
        }
        out.push_str(&format!("  {}\n", crate::stream::confidence_line(t, &ans)));
    }
}

/// Publishes an output file atomically — a crash mid-write must never leave
/// a torn file where a good one (or nothing) should be — and reports it as
/// "`what` written to `path`".
fn write_out(out: &mut String, path: &Path, bytes: &[u8], what: &str) -> Result<(), String> {
    atomic_write_file(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.push_str(&format!("{what} written to {}\n", path.display()));
    Ok(())
}

/// Options shared by the analysis subcommands.
#[derive(Debug, Clone)]
pub struct AnalyzeOpts {
    /// Graph file.
    pub input: PathBuf,
    /// Explicit input format (otherwise guessed from the extension).
    pub format: Option<Format>,
    /// Virtual processors.
    pub procs: usize,
    /// Ranking size to print.
    pub top: usize,
    /// Run the anytime top-k tracker alongside the computation: sound
    /// closeness bounds observed every superstep, bound-based candidate
    /// pruning, and an exact/anytime confidence in the report.
    pub top_k: Option<usize>,
    /// Vertex-addition strategy for `av` stream commands.
    pub strategy: AdditionStrategy,
    /// Optional update stream file to apply after the static analysis.
    pub stream: Option<PathBuf>,
    /// Optional checkpoint file to write at the end.
    pub save_checkpoint: Option<PathBuf>,
    /// Optional checkpoint file to resume from (skips loading `input`).
    pub resume: Option<PathBuf>,
    /// Optional CSV file to dump the communication trace to.
    pub trace: Option<PathBuf>,
    /// Optional JSON file to dump the metrics registry to.
    pub metrics_out: Option<PathBuf>,
    /// Optional JSONL file to dump anytime progress samples to (enables the
    /// progress probe, which computes an exact oracle — expensive on large
    /// graphs).
    pub progress_out: Option<PathBuf>,
    /// Optional JSONL file to dump phase spans to.
    pub spans_out: Option<PathBuf>,
    /// Execution backend (`--backend sim|threads`).
    pub backend: BackendKind,
    /// Worker-thread cap for the threads backend (`--threads`, 0 = one per rank).
    pub threads: usize,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        AnalyzeOpts {
            input: PathBuf::new(),
            format: None,
            procs: 8,
            top: 10,
            top_k: None,
            strategy: AdditionStrategy::CutEdgePs,
            stream: None,
            save_checkpoint: None,
            resume: None,
            trace: None,
            metrics_out: None,
            progress_out: None,
            spans_out: None,
            backend: BackendKind::Sim,
            threads: 0,
        }
    }
}

/// `aa analyze`: run the pipeline (or resume a checkpoint), apply an optional
/// update stream, print the ranking and cost ledger. Returns the printed
/// report (also printed to stdout by the binary).
pub fn analyze(opts: &AnalyzeOpts) -> Result<String, String> {
    let topk = topk_config(opts.top_k)?;
    let config = engine_config(opts.procs, opts.backend, opts.threads)?;
    let engine = if let Some(ckpt) = &opts.resume {
        let mut file = std::fs::File::open(ckpt)
            .map_err(|e| format!("cannot open checkpoint {}: {e}", ckpt.display()))?;
        AnytimeEngine::restore_checkpoint(&mut file, config)
            .map_err(|e| format!("cannot restore checkpoint: {e}"))?
    } else {
        AnytimeEngine::new(load_graph(&opts.input, opts.format)?, config)
    };
    // Stream replay goes through the same ingest path as `aa stream`; a
    // batch target of 1 keeps per-command semantics (every op is applied as
    // it is pushed, so warnings and effects land in command order).
    let ingest = IngestConfig {
        policy: DrainPolicy::SizeTriggered(1),
        strategy: opts.strategy,
        ..Default::default()
    };
    let mut session = Session::new(engine, ingest, topk)?;
    if opts.trace.is_some() {
        session.engine_mut().cluster_mut().enable_trace();
    }
    if opts.progress_out.is_some() {
        session.engine_mut().enable_progress_probe();
    }
    let mut out = String::new();
    let budget = 16 * opts.procs + 64;
    converge_static(&mut session, budget, &mut out);

    if let Some(stream_path) = &opts.stream {
        let text = std::fs::read_to_string(stream_path)
            .map_err(|e| format!("cannot read stream {}: {e}", stream_path.display()))?;
        let cmds = crate::stream::parse_stream(&text)?;
        out.push_str(&format!("applying {} stream commands…\n", cmds.len()));
        for line in crate::stream::apply_batch(&mut session, &cmds)? {
            out.push_str(&line);
            out.push('\n');
        }
        session.converge(budget);
    }

    push_ranking(&mut out, &mut session, opts.top);
    let engine = session.engine_mut();
    out.push_str(&format!("\n{}", engine.cluster().ledger().report()));

    if let Some(path) = &opts.trace {
        use std::io::Write;
        let events = engine.cluster_mut().take_trace();
        #[expect(
            clippy::disallowed_methods,
            reason = "streamed diagnostic trace — overwritten on every run and never read back by recovery; a torn file cannot corrupt a restart"
        )]
        let raw = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut file = std::io::BufWriter::new(raw);
        writeln!(file, "src,dst,bytes,phase,makespan_us")
            .map_err(|e| format!("trace write failed: {e}"))?;
        for ev in &events {
            writeln!(
                file,
                "{},{},{},{},{:.3}",
                ev.src, ev.dst, ev.bytes, ev.phase, ev.makespan_us
            )
            .map_err(|e| format!("trace write failed: {e}"))?;
        }
        out.push_str(&format!(
            "communication trace ({} events) written to {}\n",
            events.len(),
            path.display()
        ));
    }

    let engine = session.engine();
    if let Some(path) = &opts.metrics_out {
        write_out(
            &mut out,
            path,
            session.metrics_registry().to_json().as_bytes(),
            "metrics",
        )?;
    }
    if let Some(path) = &opts.progress_out {
        let samples = engine.progress_samples();
        let what = format!("progress probe ({} samples)", samples.len());
        write_out(
            &mut out,
            path,
            aa_core::encode_jsonl(samples).as_bytes(),
            &what,
        )?;
    }
    if let Some(path) = &opts.spans_out {
        let spans = engine.spans();
        let what = format!("phase spans ({} records)", spans.len());
        write_out(&mut out, path, spans.to_jsonl().as_bytes(), &what)?;
    }
    if let Some(path) = &opts.save_checkpoint {
        let mut bytes = Vec::new();
        engine
            .save_checkpoint(&mut bytes)
            .map_err(|e| format!("cannot encode checkpoint: {e}"))?;
        write_out(&mut out, path, &bytes, "checkpoint")?;
    }
    Ok(out)
}

/// Options for the `aa stream` subcommand.
#[derive(Debug, Clone)]
pub struct StreamOpts {
    /// Graph file.
    pub input: PathBuf,
    /// Explicit input format (otherwise guessed from the extension).
    pub format: Option<Format>,
    /// Update stream file to serve.
    pub updates: PathBuf,
    /// Virtual processors.
    pub procs: usize,
    /// Ranking size to print after the stream drains.
    pub top: usize,
    /// Keep an anytime top-k tracker current across batched ingest flushes
    /// and report its confidence alongside the final ranking.
    pub top_k: Option<usize>,
    /// Vertex-addition strategy for flushed vertex batches.
    pub strategy: AdditionStrategy,
    /// Batch target for the size-triggered drain policy (`--batch`).
    pub batch: usize,
    /// Hard ingest queue capacity (`--queue-cap`); ops beyond it are shed.
    pub queue_cap: usize,
    /// Drain policy spec (`--drain-policy size|steps:K`).
    pub drain_policy: String,
    /// Optional JSON file for the merged engine + ingest metrics registry.
    pub metrics_out: Option<PathBuf>,
    /// Execution backend (`--backend sim|threads`).
    pub backend: BackendKind,
    /// Worker-thread cap for the threads backend (`--threads`, 0 = one per rank).
    pub threads: usize,
}

impl Default for StreamOpts {
    fn default() -> Self {
        StreamOpts {
            input: PathBuf::new(),
            format: None,
            updates: PathBuf::new(),
            procs: 8,
            top: 10,
            top_k: None,
            strategy: AdditionStrategy::CutEdgePs,
            batch: 64,
            queue_cap: 4096,
            drain_policy: "size".to_string(),
            metrics_out: None,
            backend: BackendKind::Sim,
            threads: 0,
        }
    }
}

/// Parses a `--drain-policy` spec. `size` drains at the `--batch` target;
/// `steps:K` drains every K RC steps (driven by `step`/`converge` commands
/// in the stream).
pub fn parse_drain_policy(spec: &str, batch: usize) -> Result<DrainPolicy, String> {
    let lower = spec.to_ascii_lowercase();
    if lower == "size" {
        return Ok(DrainPolicy::SizeTriggered(batch));
    }
    if let Some(k) = lower.strip_prefix("steps:") {
        return k
            .parse()
            .ok()
            .filter(|&k: &usize| k > 0)
            .map(DrainPolicy::RcStepInterleaved)
            .ok_or_else(|| format!("invalid --drain-policy {spec:?} (expected steps:K, K >= 1)"));
    }
    Err(format!(
        "unknown --drain-policy {spec:?} (expected size, with --batch N, or steps:K)"
    ))
}

/// `aa stream`: serve an update stream through the ingestion pipeline —
/// bounded admission queue, coalescing buffer, policy-driven batch flushes —
/// then report the post-convergence ranking plus ingest statistics.
pub fn stream_serve(opts: &StreamOpts) -> Result<String, String> {
    let policy = parse_drain_policy(&opts.drain_policy, opts.batch)?;
    let topk = topk_config(opts.top_k)?;
    let config = engine_config(opts.procs, opts.backend, opts.threads)?;
    let ingest = IngestConfig {
        queue_cap: opts.queue_cap,
        high_watermark: opts.queue_cap - opts.queue_cap / 4,
        policy,
        strategy: opts.strategy,
    };
    let graph = load_graph(&opts.input, opts.format)?;
    let mut session = Session::new(AnytimeEngine::new(graph, config), ingest, topk)?;
    let budget = 16 * opts.procs + 64;
    let mut out = String::new();
    converge_static(&mut session, budget, &mut out);

    let text = std::fs::read_to_string(&opts.updates)
        .map_err(|e| format!("cannot read stream {}: {e}", opts.updates.display()))?;
    let cmds = crate::stream::parse_stream(&text)?;
    out.push_str(&format!(
        "serving {} stream commands (drain {policy}, queue cap {})…\n",
        cmds.len(),
        opts.queue_cap
    ));
    for line in crate::stream::apply_batch(&mut session, &cmds)? {
        out.push_str(&line);
        out.push('\n');
    }
    session.converge(budget);

    let stats = session.ingest_stats();
    out.push_str(&format!(
        "ingest: {} accepted, {} throttled, {} shed, {} no-ops, {} rejected\n",
        stats.accepted, stats.throttled, stats.shed, stats.noops, stats.rejected
    ));
    out.push_str(&format!(
        "coalescing: {} raw ops → {} engine actions in {} flushes (ratio {:.2})\n",
        stats.raw_in,
        stats.actions_out,
        stats.flushes,
        stats.coalesce_ratio()
    ));
    push_ranking(&mut out, &mut session, opts.top);
    if let Some(path) = &opts.metrics_out {
        write_out(
            &mut out,
            path,
            session.metrics_registry().to_json().as_bytes(),
            "metrics",
        )?;
    }
    Ok(out)
}

/// Options for the `aa serve` subcommand.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Graph file.
    pub input: PathBuf,
    /// Explicit input format (otherwise guessed from the extension).
    pub format: Option<Format>,
    /// Virtual processors.
    pub procs: usize,
    /// Ranking size to print when the run drains.
    pub top: usize,
    /// Serving turns to drive with offered load.
    pub turns: usize,
    /// Requests offered per turn.
    pub offered: usize,
    /// Fraction of offered requests that are reads.
    pub read_fraction: f64,
    /// Fraction of reads that are top-k queries (the rest are single-vertex
    /// lookups).
    pub topk_read_mix: f64,
    /// Workload seed.
    pub seed: u64,
    /// Optional JSON file for the merged engine + ingest + serve metrics.
    pub metrics_out: Option<PathBuf>,
    /// Durability directory: recover from it on startup, WAL every accepted
    /// write, checkpoint periodically and on shutdown. `None` = in-memory.
    pub data_dir: Option<PathBuf>,
    /// Take a durable checkpoint every N turns (0 = only on shutdown).
    pub checkpoint_every: usize,
    /// After shutdown, re-run recovery against the data dir and verify the
    /// restarted engine reproduces the served ranking exactly.
    pub verify_recovery: bool,
    /// Execution backend (`--backend sim|threads`).
    pub backend: BackendKind,
    /// Worker-thread cap for the threads backend (`--threads`, 0 = one per rank).
    pub threads: usize,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            input: PathBuf::new(),
            format: None,
            procs: 8,
            top: 10,
            turns: 64,
            offered: 32,
            read_fraction: 0.8,
            topk_read_mix: 0.7,
            seed: 42,
            metrics_out: None,
            data_dir: None,
            checkpoint_every: 16,
            verify_recovery: false,
            backend: BackendKind::Sim,
            threads: 0,
        }
    }
}

/// `aa serve`: run the resident server under a deterministic mixed
/// read/write workload — snapshot-isolated reads served every turn,
/// budget-admitted writes — then report latency quantiles, outcome totals,
/// and the final ranking.
pub fn serve_cmd(opts: &ServeOpts) -> Result<String, String> {
    if !(0.0..=1.0).contains(&opts.read_fraction) {
        return Err(format!(
            "read fraction {} must lie in [0, 1]",
            opts.read_fraction
        ));
    }
    if !(0.0..=1.0).contains(&opts.topk_read_mix) {
        return Err(format!(
            "top-k read mix {} must lie in [0, 1]",
            opts.topk_read_mix
        ));
    }
    if opts.verify_recovery && opts.data_dir.is_none() {
        return Err("--verify-recovery requires --data-dir".to_string());
    }
    let config = engine_config(opts.procs, opts.backend, opts.threads)?;
    let serve_config = aa_serve::ServeConfig::default();
    // Left uninitialized: a restart that loads a checkpoint never needs the
    // base's domain decomposition or initial approximation.
    let base = AnytimeEngine::new(load_graph(&opts.input, opts.format)?, config.clone());
    let mut out = String::new();
    let mut recovery_metrics = None;
    let mut server = if let Some(dir) = &opts.data_dir {
        // Recover whatever a previous (possibly killed) run left behind,
        // then reopen the WAL at the recovered sequence.
        let t0 = aa_obs::Stopwatch::start();
        let storage = aa_durable::DiskStorage::open(dir)
            .map_err(|e| format!("cannot open data dir {}: {e}", dir.display()))?;
        let durability = aa_durable::DurabilityConfig {
            checkpoint_every_turns: opts.checkpoint_every,
        };
        let (server, recovery) =
            Server::open_durable(Box::new(storage), base, serve_config, durability)
                .map_err(|e| format!("data dir {}: {e}", dir.display()))?;
        let r = &recovery.report;
        out.push_str(&format!(
            "recovery: checkpoint seq {} ({}), {} records replayed, {} uncommitted dropped, \
             {} frames quarantined ({} B), next seq {}\n",
            r.checkpoint_seq,
            if r.used_checkpoint {
                "loaded"
            } else {
                "none — cold start"
            },
            r.records_replayed,
            r.records_uncommitted,
            r.frames_quarantined,
            r.bytes_quarantined,
            recovery.next_seq
        ));
        for note in &r.notes {
            out.push_str(&format!("  recovery note: {note}\n"));
        }
        let mut metrics = recovery.metrics;
        metrics.set_gauge(
            "aa_recovery_duration_us",
            &[],
            t0.elapsed().as_micros() as f64,
        );
        recovery_metrics = Some(metrics);
        server
    } else {
        Server::new(base, serve_config)?
    };
    let mut gen = aa_serve::LoadGen::new(aa_serve::WorkloadConfig {
        seed: opts.seed,
        offered_per_turn: opts.offered,
        read_fraction: opts.read_fraction,
        topk_read_mix: opts.topk_read_mix,
        top_k: opts.top,
    });

    out.push_str(&format!(
        "graph: {} vertices, {} edges — serving {} turns × {} offered ({}% reads)\n",
        server.engine().graph().vertex_count(),
        server.engine().graph().edge_count(),
        opts.turns,
        opts.offered,
        (opts.read_fraction * 100.0).round()
    ));
    for _ in 0..opts.turns {
        gen.offer(&mut server);
        server.turn()?;
    }
    // Resolve everything still queued; nothing may hang. A durable server
    // additionally commits stragglers and takes a final covering checkpoint.
    let drain_turns = 16 * opts.procs + 256;
    let (_, final_ckpt) = server.shutdown(drain_turns)?;

    let stats = server.stats();
    out.push_str(&format!(
        "reads:  {} submitted, {} served, {} shed\n",
        stats.reads_submitted, stats.reads_served, stats.reads_shed_capacity
    ));
    if stats.topk_exact + stats.topk_anytime > 0 {
        out.push_str(&format!(
            "top-k reads: {} exact, {} anytime ({} resident pivots)\n",
            stats.topk_exact,
            stats.topk_anytime,
            server.topk_tracker().map_or(0, |t| t.pivots().len())
        ));
    }
    out.push_str(&format!(
        "writes: {} submitted, {} accepted, {} throttled, {} shed (queue {}, budget {}), {} rejected\n",
        stats.writes_submitted,
        stats.writes_accepted,
        stats.writes_throttled,
        stats.writes_shed_queue + stats.writes_shed_budget,
        stats.writes_shed_queue,
        stats.writes_shed_budget,
        stats.writes_rejected
    ));
    if server.is_durable() {
        out.push_str(&format!(
            "durability: {} logged, {} aborted, {} commit errors; committed seq {}, \
             {} checkpoints (final covers {})\n",
            stats.writes_logged,
            stats.writes_aborted,
            stats.wal_commit_errors,
            server.durable_committed_seq().unwrap_or(0),
            stats.checkpoints_taken,
            final_ckpt.map_or("none".to_string(), |s| s.to_string())
        ));
    }
    if let Some((p50, p99)) = server.latency_quantiles() {
        out.push_str(&format!(
            "read latency: p50 {:.1} µs, p99 {:.1} µs (virtual); shed rate {:.4}\n",
            p50,
            p99,
            stats.read_shed_rate()
        ));
    }
    let frame = server.frame();
    out.push_str(&format!(
        "final frame: epoch {}, converged {}, quiescent rows {:.2}, bound {:.1}\n",
        frame.meta.epoch,
        frame.meta.converged,
        frame.meta.quiescent_row_fraction,
        frame.meta.max_overestimate_bound
    ));
    out.push_str(&format!("\ntop-{} closeness:\n", opts.top));
    for (v, c) in frame.snapshot.top_k(opts.top) {
        out.push_str(&format!("  vertex {v:>8}  closeness {c:.6e}\n"));
    }
    if opts.verify_recovery {
        let dir = opts
            .data_dir
            .as_ref()
            .ok_or("--verify-recovery requires --data-dir")?;
        // Simulated restart: recover a fresh engine from disk alone and
        // check it reproduces the ranking the live server ended on.
        let base = AnytimeEngine::new(load_graph(&opts.input, opts.format)?, config);
        let mut storage = aa_durable::DiskStorage::open(dir)
            .map_err(|e| format!("cannot reopen data dir {}: {e}", dir.display()))?;
        let recovered = aa_durable::recover(&mut storage, base, server.config().ingest)?;
        let mut eng = recovered.engine;
        eng.run_to_convergence(16 * opts.procs + 256);
        let got = eng.snapshot();
        let max_diff = frame
            .snapshot
            .closeness
            .iter()
            .zip(got.closeness.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        if frame.snapshot.closeness.len() != got.closeness.len() || max_diff > 1e-9 {
            return Err(format!(
                "recovery verification FAILED: restarted engine diverges (max |Δ| {max_diff:.3e}, \
                 {} vs {} vertices)",
                frame.snapshot.closeness.len(),
                got.closeness.len()
            ));
        }
        out.push_str(&format!(
            "recovery verified: restart from {} reproduces the served ranking (max |Δ| {max_diff:.3e})\n",
            dir.display()
        ));
    }
    if let Some(path) = &opts.metrics_out {
        let mut registry = server.metrics_registry();
        if let Some(rm) = &recovery_metrics {
            registry.merge(rm);
        }
        write_out(&mut out, path, registry.to_json().as_bytes(), "metrics")?;
    }
    Ok(out)
}

/// `aa partition`: compare all partitioners on a graph file.
pub fn partition_report(path: &Path, format: Option<Format>, k: usize) -> Result<String, String> {
    let g = load_graph(path, format)?;
    let mut out = format!(
        "{} vertices, {} edges, k = {k}\n{:<18} {:>9} {:>9} {:>10}\n",
        g.vertex_count(),
        g.edge_count(),
        "partitioner",
        "cut",
        "balance",
        "max part"
    );
    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(MultilevelKWay::default()),
        Box::new(BfsGrowPartitioner),
        Box::new(RoundRobinPartitioner),
        Box::new(HashPartitioner),
    ];
    for p in partitioners {
        let part = p.partition(&g, k);
        part.validate(&g)
            .map_err(|e| format!("{}: {e}", p.name()))?;
        out.push_str(&format!(
            "{:<18} {:>9} {:>9.3} {:>10}\n",
            p.name(),
            quality::edge_cut(&g, &part),
            quality::balance(&part),
            part.part_sizes().into_iter().max().unwrap_or(0),
        ));
    }
    Ok(out)
}

/// `aa convert`: read one format, write another.
pub fn convert(
    input: &Path,
    in_format: Option<Format>,
    output: &Path,
    out_format: Option<Format>,
) -> Result<String, String> {
    let g = load_graph(input, in_format)?;
    save_graph(&g, output, out_format)?;
    Ok(format!(
        "converted {} ({} vertices, {} edges) -> {}\n",
        input.display(),
        g.vertex_count(),
        g.edge_count(),
        output.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_graph::generators;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aa_cli_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_test_graph(dir: &Path) -> PathBuf {
        let g = generators::barabasi_albert(50, 2, 1, 7);
        let path = dir.join("g.txt");
        save_graph(&g, &path, Some(Format::EdgeList)).unwrap();
        path
    }

    #[test]
    fn analyze_produces_ranking_and_ledger() {
        let dir = temp_dir("analyze");
        let input = write_test_graph(&dir);
        let report = analyze(&AnalyzeOpts {
            input,
            procs: 4,
            top: 5,
            ..Default::default()
        })
        .unwrap();
        assert!(report.contains("converged"));
        assert!(report.contains("top-5 closeness"));
        assert!(report.contains("recombination"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_top_k_reports_anytime_section_with_exact_confidence() {
        let dir = temp_dir("analyze_topk");
        let input = write_test_graph(&dir);
        let report = analyze(&AnalyzeOpts {
            input,
            procs: 4,
            top: 5,
            top_k: Some(3),
            ..Default::default()
        })
        .unwrap();
        assert!(report.contains("anytime top-3"), "report:\n{report}");
        assert!(
            report.contains("top-3 confidence: exact"),
            "converged batch run must resolve to exact confidence:\n{report}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_rejects_zero_top_k() {
        let dir = temp_dir("analyze_topk0");
        let input = write_test_graph(&dir);
        let err = analyze(&AnalyzeOpts {
            input,
            top_k: Some(0),
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.contains("--top-k"), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_with_stream_and_checkpoint_roundtrip() {
        let dir = temp_dir("stream_ckpt");
        let input = write_test_graph(&dir);
        let stream = dir.join("updates.txt");
        std::fs::write(&stream, "ae 0 30 1\nav 1,2\nconverge\nsnapshot 3\n").unwrap();
        let ckpt = dir.join("state.aacp");
        let report = analyze(&AnalyzeOpts {
            input,
            procs: 4,
            top: 3,
            stream: Some(stream),
            save_checkpoint: Some(ckpt.clone()),
            ..Default::default()
        })
        .unwrap();
        assert!(report.contains("added vertex 50"));
        assert!(report.contains("checkpoint written"));

        // Resume from the checkpoint without the input graph.
        let resumed = analyze(&AnalyzeOpts {
            procs: 4,
            top: 3,
            resume: Some(ckpt),
            ..Default::default()
        })
        .unwrap();
        assert!(resumed.contains("51 vertices"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_serve_batches_and_reports_ingest_stats() {
        let dir = temp_dir("stream_serve");
        let input = write_test_graph(&dir);
        let stream = dir.join("updates.txt");
        // The add/delete pair cancels in the coalescer; av/dv exercise the
        // vertex path; the snapshot is a barrier mid-stream.
        std::fs::write(
            &stream,
            "ae 0 30 2\nde 0 30\nae 1 40 3\nav 1,2\nsnapshot 3\ndv 5\nconverge\n",
        )
        .unwrap();
        let metrics = dir.join("metrics.json");
        let report = stream_serve(&StreamOpts {
            input,
            updates: stream,
            procs: 4,
            top: 3,
            batch: 4,
            metrics_out: Some(metrics.clone()),
            ..Default::default()
        })
        .unwrap();
        assert!(report.contains("added vertex 50"), "{report}");
        assert!(report.contains("ingest:"), "{report}");
        assert!(report.contains("coalescing:"), "{report}");
        assert!(report.contains("top-3 closeness"), "{report}");
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("aa_ingest_batch_size"), "merged registry");
        assert!(json.contains("aa_rc_steps_total"), "engine series present");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_serve_rejects_bad_drain_policies() {
        let parse = |spec: &str| parse_drain_policy(spec, 64);
        assert_eq!(parse("size"), Ok(DrainPolicy::SizeTriggered(64)));
        assert_eq!(parse("steps:3"), Ok(DrainPolicy::RcStepInterleaved(3)));
        assert!(parse("steps:0").is_err());
        assert!(parse("sometimes").is_err());
        // The policy that flushed on a retransmit queue left with it.
        for spec in ["adaptive", "adaptive:0:256"] {
            let err = parse(spec).unwrap_err();
            assert!(
                err.contains("size, with --batch N") && err.contains("steps:K"),
                "{err}"
            );
        }
    }

    #[test]
    fn analyze_writes_a_trace_csv() {
        let dir = temp_dir("trace");
        let input = write_test_graph(&dir);
        let trace = dir.join("trace.csv");
        let report = analyze(&AnalyzeOpts {
            input,
            procs: 4,
            trace: Some(trace.clone()),
            ..Default::default()
        })
        .unwrap();
        assert!(report.contains("communication trace"));
        let csv = std::fs::read_to_string(&trace).unwrap();
        assert!(csv.starts_with("src,dst,bytes,phase,makespan_us\n"));
        assert!(csv.lines().count() > 10, "trace should have many events");
        assert!(csv.contains(",recombination,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_writes_metrics_progress_and_spans() {
        let dir = temp_dir("obs_out");
        let input = write_test_graph(&dir);
        let metrics = dir.join("m.json");
        let progress = dir.join("p.jsonl");
        let spans = dir.join("s.jsonl");
        let report = analyze(&AnalyzeOpts {
            input,
            procs: 4,
            metrics_out: Some(metrics.clone()),
            progress_out: Some(progress.clone()),
            spans_out: Some(spans.clone()),
            ..Default::default()
        })
        .unwrap();
        assert!(report.contains("metrics written"));
        assert!(report.contains("progress probe"));
        assert!(report.contains("phase spans"));

        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"aa_rc_steps_total\""));
        assert!(json.contains("\"aa_converged\""));

        let samples = aa_core::decode_jsonl(&std::fs::read_to_string(&progress).unwrap()).unwrap();
        assert!(!samples.is_empty());
        let last = samples.last().unwrap();
        assert!(last.converged_row_fraction >= 0.999);
        assert!(last.max_overestimate <= 1e-9);

        let log = aa_core::SpanLog::from_jsonl(&std::fs::read_to_string(&spans).unwrap()).unwrap();
        assert!(log.iter().any(|s| s.name == "domain-decomposition"));
        assert!(log.iter().any(|s| s.name == "recombination"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partition_report_lists_all_partitioners() {
        let dir = temp_dir("partition");
        let input = write_test_graph(&dir);
        let report = partition_report(&input, None, 4).unwrap();
        for name in ["multilevel-kway", "bfs-grow", "round-robin", "hash"] {
            assert!(report.contains(name), "missing {name} in:\n{report}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_between_formats() {
        let dir = temp_dir("convert");
        let input = write_test_graph(&dir);
        let out = dir.join("g.net");
        let msg = convert(&input, None, &out, None).unwrap();
        assert!(msg.contains("converted"));
        let g = load_graph(&out, None).unwrap();
        assert_eq!(g.vertex_count(), 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_reports_latency_and_final_ranking() {
        let dir = temp_dir("serve");
        let input = write_test_graph(&dir);
        let metrics = dir.join("serve_metrics.json");
        let report = serve_cmd(&ServeOpts {
            input,
            procs: 4,
            top: 3,
            turns: 24,
            offered: 16,
            metrics_out: Some(metrics.clone()),
            ..Default::default()
        })
        .unwrap();
        assert!(
            report.contains("read latency: p50"),
            "no quantiles in:\n{report}"
        );
        assert!(
            report.contains("top-3 closeness"),
            "no ranking in:\n{report}"
        );
        assert!(
            report.contains("converged true"),
            "drain must end converged:\n{report}"
        );
        // "reads:  N submitted, N served, 0 shed": every read answered.
        let reads = report.lines().find(|l| l.starts_with("reads:")).unwrap();
        let words: Vec<&str> = reads.split_whitespace().collect();
        assert_eq!(words[1], words[3], "{reads}");
        assert_eq!(words[5], "0", "{reads}");
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("aa_serve_requests_total"));
        assert!(json.contains("aa_snapshot_publications_total"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_durable_recovers_across_runs_and_verifies() {
        let dir = temp_dir("serve_durable");
        let input = write_test_graph(&dir);
        let data = dir.join("data");
        // A prior aborted run may have left durable state behind; the first
        // run below must observe a cold start.
        std::fs::remove_dir_all(&data).ok();
        let opts = ServeOpts {
            input,
            procs: 4,
            top: 3,
            turns: 12,
            offered: 16,
            read_fraction: 0.5,
            data_dir: Some(data.clone()),
            checkpoint_every: 4,
            verify_recovery: true,
            ..Default::default()
        };
        let first = serve_cmd(&opts).unwrap();
        assert!(
            first.contains("recovery: checkpoint seq 0 (none — cold start)"),
            "first run must cold-start:\n{first}"
        );
        assert!(first.contains("durability:"), "{first}");
        assert!(
            first.contains("recovery verified"),
            "verification missing:\n{first}"
        );
        // Second run recovers the first run's state (its final checkpoint),
        // keeps serving, and still verifies.
        let metrics = dir.join("durable_metrics.json");
        let second = serve_cmd(&ServeOpts {
            seed: 43,
            metrics_out: Some(metrics.clone()),
            ..opts
        })
        .unwrap();
        assert!(
            second.contains("(loaded)"),
            "second run must load the first run's checkpoint:\n{second}"
        );
        assert!(second.contains("recovery verified"), "{second}");
        // The merged registry reaches the file: one series from each layer,
        // the recovery's own included.
        let json = std::fs::read_to_string(&metrics).unwrap();
        for name in [
            "aa_rc_steps_total",
            "aa_ingest_flushes_total",
            "aa_wal_commits_total",
            "aa_checkpoint_writes_total",
            "aa_recoveries_total",
            "aa_recovery_duration_us",
            "aa_serve_requests_total",
            "aa_topk_observes_total",
        ] {
            assert!(
                json.contains(&format!("\"{name}\"")) || json.contains(&format!("\"{name}{{")),
                "{name} missing from:\n{json}"
            );
        }
        assert!(json.contains("\"aa_recoveries_total\": 1"), "{json}");
        let wal_files = std::fs::read_dir(&data)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".aawl"))
            .count();
        assert!(wal_files >= 1, "a WAL segment must exist");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_bad_rates() {
        let err = serve_cmd(&ServeOpts {
            input: PathBuf::from("/nope.txt"),
            read_fraction: 1.5,
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.contains("read fraction"), "{err}");
        let err = serve_cmd(&ServeOpts {
            input: PathBuf::from("/nope.txt"),
            topk_read_mix: -0.1,
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.contains("top-k read mix"), "{err}");
    }

    #[test]
    fn sim_backend_with_threads_fails_loudly_everywhere() {
        // The simulator is single-threaded, so asking it for parallelism must
        // be a hard CLI error — on every subcommand that builds an engine,
        // and before any file I/O happens.
        let err = analyze(&AnalyzeOpts {
            input: PathBuf::from("/nope.txt"),
            threads: 8,
            ..Default::default()
        })
        .unwrap_err();
        assert!(
            err.contains("single-threaded") && err.contains("--backend threads"),
            "unhelpful error: {err}"
        );
        let err = stream_serve(&StreamOpts {
            input: PathBuf::from("/nope.txt"),
            threads: 2,
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.contains("incompatible with --backend sim"), "{err}");
        let err = serve_cmd(&ServeOpts {
            input: PathBuf::from("/nope.txt"),
            threads: 4,
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.contains("incompatible with --backend sim"), "{err}");
        // threads <= 1 is the sequential contract the sim satisfies.
        for threads in [0, 1] {
            assert!(BackendKind::Sim.check(threads).is_ok());
        }
    }

    #[test]
    fn bad_flags_fail_before_the_graph_is_loaded() {
        // The input does not exist: reaching `load_graph` would report
        // "cannot open" instead of the flag.
        let input = PathBuf::from("/nope.txt");
        let err = analyze(&AnalyzeOpts {
            input: input.clone(),
            top_k: Some(0),
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.contains("--top-k"), "{err}");
        let err = stream_serve(&StreamOpts {
            input: input.clone(),
            drain_policy: "adaptive".to_string(),
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.contains("--drain-policy"), "{err}");
        let err = stream_serve(&StreamOpts {
            input: input.clone(),
            top_k: Some(0),
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.contains("--top-k"), "{err}");
        let err = serve_cmd(&ServeOpts {
            input,
            verify_recovery: true,
            ..Default::default()
        })
        .unwrap_err();
        assert!(
            err.contains("--verify-recovery requires --data-dir"),
            "{err}"
        );
    }

    #[test]
    fn analyze_on_threads_backend_matches_sim() {
        let dir = temp_dir("backend_threads");
        let input = write_test_graph(&dir);
        let sim = analyze(&AnalyzeOpts {
            input: input.clone(),
            procs: 4,
            top: 5,
            ..Default::default()
        })
        .unwrap();
        let threads = analyze(&AnalyzeOpts {
            input,
            procs: 4,
            top: 5,
            backend: BackendKind::Threads,
            threads: 4,
            ..Default::default()
        })
        .unwrap();
        // The ranking is part of the cross-backend determinism contract;
        // cluster time is measured-compute-derived and is not, so compare the
        // deterministic report lines only.
        let deterministic = |report: &str| -> Vec<String> {
            report
                .lines()
                .filter(|l| l.starts_with("  vertex"))
                .map(str::to_string)
                .collect()
        };
        assert!(threads.contains("converged"), "{threads}");
        assert_eq!(
            deterministic(&sim),
            deterministic(&threads),
            "threads backend diverged from the sim oracle"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_missing_input_fails_cleanly() {
        let err = analyze(&AnalyzeOpts {
            input: PathBuf::from("/nope.txt"),
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.contains("cannot open"));
    }
}
