//! Figure-reproduction harness.
//!
//! Regenerates the data series of every figure in the papers' evaluation
//! section. Usage:
//!
//! ```text
//! figures [fig4|fig5|fig6|fig7|fig8|all] [--n N] [--procs P] [--seed S]
//! ```
//!
//! Times are simulated-cluster minutes (LogP makespan); batch sizes are
//! scaled from the papers' 50 000-vertex setup to the chosen `--n` at the
//! same fraction of |V| (the paper-scale size is shown alongside).

#![expect(
    clippy::exit,
    reason = "a harness entry point: a usage or I/O error exits non-zero, the shell contract"
)]

use aa_bench::backend::{backend_rows_to_json, backend_sweep, host_parallelism, speedup_at};
use aa_bench::experiments::{self, AnytimeRow, Fig4Row, Fig8Row, ScalingRow, SingleStepRow};
use aa_bench::ingest::{
    durable_overhead, ingest_throughput, overhead_to_json, rows_to_json, IngestRow,
};
use aa_bench::serve::{serve_load, serve_rows_to_json, serve_topk_mix, ServeRow};
use aa_bench::topk::{topk_rows_to_json, topk_sweep, TopkRow};
use aa_bench::workload::ExperimentParams;

fn parse_args() -> (Vec<String>, ExperimentParams, Option<String>) {
    let mut params = ExperimentParams::default();
    let mut figs = Vec::new();
    let mut json_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--n" => params.n = args.next().expect("--n N").parse().expect("invalid N"),
            "--procs" => params.procs = args.next().expect("--procs P").parse().expect("invalid P"),
            "--seed" => params.seed = args.next().expect("--seed S").parse().expect("invalid S"),
            "--compute-scale" => {
                params.compute_scale = args
                    .next()
                    .expect("--compute-scale X")
                    .parse()
                    .expect("invalid scale")
            }
            "--json" => json_out = Some(args.next().expect("--json PATH")),
            "all" => figs.extend(["fig4", "fig5", "fig6", "fig7", "fig8"].map(String::from)),
            f @ ("fig4" | "fig5" | "fig6" | "fig7" | "fig8" | "scaling" | "anytime" | "ingest"
            | "serve" | "backend" | "topk") => figs.push(f.to_string()),
            "replay" => {
                let path = args.next().expect("replay <progress.jsonl>");
                figs.push(format!("replay:{path}"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: figures [fig4|fig5|fig6|fig7|fig8|scaling|anytime|ingest|serve|backend|topk|replay FILE|all] [--n N] [--procs P] [--seed S] [--compute-scale X] [--json PATH]");
                std::process::exit(2);
            }
        }
    }
    if figs.is_empty() {
        figs.push("all".into());
        figs = vec![
            "fig4".into(),
            "fig5".into(),
            "fig6".into(),
            "fig7".into(),
            "fig8".into(),
        ];
    }
    figs.dedup();
    (figs, params, json_out)
}

fn print_header(params: &ExperimentParams, title: &str) {
    println!();
    println!("=== {title} ===");
    println!(
        "    n = {} vertices, P = {} processors, seed = {}, compute x{} (paper: n = 50000, P = 16)",
        params.n, params.procs, params.seed, params.compute_scale
    );
}

fn print_fig4(rows: &[Fig4Row]) {
    println!(
        "{:<10} {:>28} {:>18}",
        "inject at", "Anytime Anywhere (RR-PS)", "Baseline Restart"
    );
    for r in rows {
        println!(
            "RC{:<9} {:>24.3} min {:>14.3} min",
            r.inject_step, r.anytime_minutes, r.restart_minutes
        );
    }
}

fn print_single_step(rows: &[SingleStepRow], metric_cut: bool) {
    let strategies = experiments::SWEEP_STRATEGIES;
    print!("{:<22}", "vertices added (paper)");
    for s in strategies {
        print!(" {:>16}", s.to_string());
    }
    println!();
    for chunk in rows.chunks(strategies.len()) {
        print!("{:<10} ({:>6})  ", chunk[0].batch, chunk[0].paper_batch);
        for r in chunk {
            if metric_cut {
                print!(" {:>16}", r.new_cut_edges);
            } else {
                print!(" {:>12.3} min", r.minutes);
            }
        }
        println!();
    }
}

fn print_fig8(rows: &[Fig8Row]) {
    let strategies = experiments::FIG8_STRATEGIES;
    print!("{:<26}", "per-step (paper, cumul.)");
    for s in strategies {
        print!(" {:>17}", s.to_string());
    }
    println!();
    for chunk in rows.chunks(strategies.len()) {
        print!(
            "{:<6} ({:>4}, {:>5})     ",
            chunk[0].per_step, chunk[0].paper_per_step, chunk[0].cumulative
        );
        for r in chunk {
            print!(" {:>13.3} min", r.minutes);
        }
        println!();
    }
}

fn print_anytime(rows: &[AnytimeRow]) {
    println!(
        "{:<8} {:>12} {:>18} {:>14} {:>10} {:>8} {:>10}",
        "RC step", "minutes", "mean |error|", "top-25 overlap", "max over", "tau", "conv rows"
    );
    for r in rows {
        println!(
            "{:<8} {:>12.4} {:>18.3e} {:>13.0}% {:>10.1} {:>8.3} {:>9.0}%",
            r.rc_step,
            r.minutes,
            r.mean_abs_error,
            r.top25_overlap * 100.0,
            r.max_overestimate,
            r.kendall_tau,
            r.converged_rows * 100.0
        );
    }
}

/// `figures replay <progress.jsonl>`: renders a progress file written by
/// `aa analyze --progress-out` as the same anytime-quality table, without
/// re-running anything.
fn print_replay(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let samples = match aa_core::decode_jsonl(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot decode {path}: {e}");
            std::process::exit(1);
        }
    };
    println!();
    println!("=== Replay: {path} ({} samples) ===", samples.len());
    println!(
        "{:<8} {:>14} {:>10} {:>10} {:>8} {:>10} {:>10}",
        "RC step", "cluster ms", "max over", "mean over", "tau", "conv rows", "dirty"
    );
    for s in &samples {
        println!(
            "{:<8} {:>14.1} {:>10.1} {:>10.3} {:>8.3} {:>9.0}% {:>10}",
            s.rc_step,
            s.makespan_us / 1000.0,
            s.max_overestimate,
            s.mean_overestimate,
            s.kendall_tau,
            s.converged_row_fraction * 100.0,
            s.dirty_rows
        );
    }
}

fn print_scaling(rows: &[ScalingRow]) {
    println!(
        "{:<8} {:>14} {:>10} {:>14} {:>10}",
        "procs", "minutes", "RC steps", "bytes moved", "speedup"
    );
    let base = rows[0].minutes;
    for r in rows {
        println!(
            "{:<8} {:>14.4} {:>10} {:>14} {:>9.2}x",
            r.procs,
            r.minutes,
            r.rc_steps,
            r.bytes,
            base / r.minutes
        );
    }
}

fn print_ingest(rows: &[IngestRow]) {
    println!(
        "{:<8} {:>9} {:>14} {:>12} {:>10} {:>9} {:>6}",
        "batch", "updates", "updates/sec", "speedup", "coalesce", "flushes", "shed"
    );
    for r in rows {
        let baseline = rows
            .iter()
            .find(|b| b.batch == 1)
            .map_or(r.updates_per_cluster_sec, |b| b.updates_per_cluster_sec);
        println!(
            "{:<8} {:>9} {:>14.1} {:>11.2}x {:>9.1}% {:>9} {:>6}",
            r.batch,
            r.updates,
            r.updates_per_cluster_sec,
            r.updates_per_cluster_sec / baseline,
            r.coalesce_ratio * 100.0,
            r.flushes,
            r.shed
        );
    }
}

fn print_serve(rows: &[ServeRow]) {
    println!(
        "{:<9} {:>6} {:>6} {:>9} {:>8} {:>9} {:>7} {:>12} {:>12} {:>9} {:>8} {:>8} {:>9}",
        "offered",
        "reads",
        "topk",
        "served",
        "shed",
        "throttle",
        "w.shed",
        "p50 (us)",
        "p99 (us)",
        "shed%",
        "tk.exct",
        "tk.any",
        "degraded"
    );
    for r in rows {
        println!(
            "{:<9} {:>5.0}% {:>5.0}% {:>9} {:>8} {:>9} {:>7} {:>12.1} {:>12.1} {:>8.2}% {:>8} {:>8} {:>9}",
            r.offered_per_turn,
            r.read_fraction * 100.0,
            r.topk_read_mix * 100.0,
            r.reads_served,
            r.reads_shed,
            r.reads_throttled,
            r.writes_shed,
            r.p50_us,
            r.p99_us,
            r.shed_rate * 100.0,
            r.topk_exact,
            r.topk_anytime,
            r.degraded_turns
        );
    }
}

fn run_serve(params: &ExperimentParams, json_out: Option<&str>) {
    let mut rows = match serve_load(params, &[16, 64, 256], &[0.5, 0.8, 0.95], 32) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("serve experiment failed: {e}");
            std::process::exit(1);
        }
    };
    // Top-k read-mix sweep at moderate load: how the latency quantiles and
    // the exact/anytime confidence split move as reads shift from vertex
    // lookups to ranking queries.
    match serve_topk_mix(params, 64, &[0.0, 0.5, 1.0], 32) {
        Ok(mix_rows) => rows.extend(mix_rows),
        Err(e) => {
            eprintln!("serve top-k mix sweep failed: {e}");
            std::process::exit(1);
        }
    }
    print_serve(&rows);
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(path, serve_rows_to_json(&rows)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

fn print_topk(rows: &[TopkRow]) {
    println!(
        "{:<7} {:>9} {:>9} {:>4} {:>7} {:>12} {:>12} {:>12} {:>11} {:>7}",
        "scale",
        "vertices",
        "edges",
        "k",
        "pivots",
        "exact@step",
        "converge@",
        "pruned@exct",
        "peak prune",
        "oracle"
    );
    for r in rows {
        println!(
            "{:<7} {:>9} {:>9} {:>4} {:>7} {:>12} {:>12} {:>11.1}% {:>10.1}% {:>7}",
            r.scale,
            r.vertices,
            r.edges,
            r.k,
            r.pivots,
            r.steps_to_exact
                .map_or("never".to_string(), |s| s.to_string()),
            r.steps_to_converge,
            r.pruned_at_exact * 100.0,
            r.peak_pruned * 100.0,
            if r.oracle_match { "exact" } else { "FAIL" }
        );
    }
}

fn run_topk(params: &ExperimentParams, json_out: Option<&str>) {
    let rows = match topk_sweep(params, &[9, 10, 12], 10, 64) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("top-k sweep failed: {e}");
            std::process::exit(1);
        }
    };
    print_topk(&rows);
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(path, topk_rows_to_json(&rows)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

fn run_ingest(params: &ExperimentParams, json_out: Option<&str>) {
    let updates = (params.n / 2).clamp(128, 512);
    let rows = match ingest_throughput(params, &[1, 8, 64, 256], updates) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("ingest experiment failed: {e}");
            std::process::exit(1);
        }
    };
    print_ingest(&rows);
    // Durability tax: the same schedule at batch 64 with a real on-disk WAL
    // (group commit per flush + final checkpoint) vs plain. The 2x budget
    // is the durability layer's acceptance bar.
    let tax = match durable_overhead(params, 64, updates) {
        Ok(row) => row,
        Err(e) => {
            eprintln!("durable overhead experiment failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "durable WAL @batch=64: plain {:.3}s, durable {:.3}s -> {:.2}x tax \
         ({} commits, {} B on disk)",
        tax.plain_wall_s, tax.durable_wall_s, tax.overhead, tax.commits, tax.disk_bytes
    );
    assert!(
        tax.overhead <= 2.0,
        "durability tax {:.2}x exceeds the 2x budget",
        tax.overhead
    );
    if let Some(path) = json_out {
        let json = format!(
            "{{\n\"sweep\": {},\n\"durable_overhead\": {}\n}}",
            rows_to_json(&rows),
            overhead_to_json(&tax)
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

fn run_backend(params: &ExperimentParams, json_out: Option<&str>) {
    let scales = [8u32, 9, 10];
    let rows = match backend_sweep(params, &scales, &[2, 8]) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("backend sweep failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:<9} {:>8} {:>7} {:>9} {:>9} {:>9} {:>12} {:>14} {:>8}",
        "backend",
        "threads",
        "scale",
        "vertices",
        "edges",
        "RC steps",
        "wall (s)",
        "cluster (min)",
        "speedup"
    );
    for r in &rows {
        let base = rows
            .iter()
            .find(|b| b.scale == r.scale && b.backend == "sim")
            .map_or(r.wall_s, |b| b.wall_s);
        println!(
            "{:<9} {:>8} {:>7} {:>9} {:>9} {:>9} {:>12.4} {:>14.4} {:>7.2}x",
            r.backend,
            r.threads,
            r.scale,
            r.vertices,
            r.edges,
            r.rc_steps,
            r.wall_s,
            r.cluster_minutes,
            base / r.wall_s
        );
    }
    let hp = host_parallelism();
    let speedup = speedup_at(&rows, 8);
    match speedup {
        Some(s) if hp >= 8 => {
            println!("8-thread speedup at largest scale: {s:.2}x ({hp} cores available)");
            // The acceptance bar for the threaded backend: with enough cores
            // it must actually be faster, not merely equivalent. Release
            // builds enforce it; a debug sweep only reports.
            if !cfg!(debug_assertions) {
                assert!(
                    s >= 2.0,
                    "threads backend speedup {s:.2}x at 8 threads is below the 2x bar \
                     on a {hp}-core host"
                );
            }
        }
        Some(s) => println!(
            "8-thread speedup at largest scale: {s:.2}x — host has only {hp} core(s), \
             so the 2x bar is not enforceable here (exactness still is, and held)"
        ),
        None => println!("no 8-thread row at the largest scale; speedup not computed"),
    }
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(path, backend_rows_to_json(&rows)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

fn main() {
    let (figs, params, json_out) = parse_args();
    for f in figs {
        match f.as_str() {
            "fig4" => {
                print_header(
                    &params,
                    "Figure 4: anytime-anywhere vs baseline restart (512 paper-scale additions)",
                );
                print_fig4(&experiments::fig4(&params));
            }
            "fig5" => {
                print_header(
                    &params,
                    "Figure 5: vertex additions at RC0 — time per strategy",
                );
                print_single_step(&experiments::fig5(&params), false);
            }
            "fig6" => {
                print_header(
                    &params,
                    "Figure 6: vertex additions at RC8 — time per strategy",
                );
                print_single_step(&experiments::fig6(&params), false);
            }
            "fig7" => {
                print_header(&params, "Figure 7: new cut edges per strategy (RC0 sweep)");
                print_single_step(&experiments::fig7(&params), true);
            }
            "fig8" => {
                print_header(
                    &params,
                    "Figure 8: incremental vertex additions over 10 RC steps",
                );
                print_fig8(&experiments::fig8(&params));
            }
            "anytime" => {
                print_header(
                    &params,
                    "Anytime quality: closeness error per RC step (beyond-paper)",
                );
                print_anytime(&experiments::anytime_quality(&params));
            }
            "scaling" => {
                print_header(
                    &params,
                    "Strong scaling of the static analysis (beyond-paper ablation)",
                );
                print_scaling(&experiments::scaling(&params));
            }
            "ingest" => {
                print_header(
                    &params,
                    "Ingest throughput: coalesced batching vs one-at-a-time (beyond-paper)",
                );
                run_ingest(&params, json_out.as_deref());
            }
            "serve" => {
                print_header(
                    &params,
                    "Serving under load: latency and shed rate vs offered load (beyond-paper)",
                );
                run_serve(&params, json_out.as_deref());
            }
            "backend" => {
                print_header(
                    &params,
                    "Execution backends: sim oracle vs real threads on R-MAT (beyond-paper)",
                );
                run_backend(&params, json_out.as_deref());
            }
            "topk" => {
                print_header(
                    &params,
                    "Anytime top-k: bound-based pruning vs full convergence on R-MAT (beyond-paper)",
                );
                run_topk(&params, json_out.as_deref());
            }
            replay if replay.starts_with("replay:") => {
                print_replay(&replay["replay:".len()..]);
            }
            _ => unreachable!(),
        }
    }
}
