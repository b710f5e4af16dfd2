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

use aa_bench::experiments::{self, AnytimeRow, Fig4Row, Fig8Row, ScalingRow, SingleStepRow};
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
            f @ ("fig4" | "fig5" | "fig6" | "fig7" | "fig8" | "scaling" | "anytime" | "topk") => {
                figs.push(f.to_string())
            }
            "replay" => {
                let path = args.next().expect("replay <progress.jsonl>");
                figs.push(format!("replay:{path}"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: figures [fig4|fig5|fig6|fig7|fig8|scaling|anytime|topk|replay FILE|all] [--n N] [--procs P] [--seed S] [--compute-scale X] [--json PATH]");
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
