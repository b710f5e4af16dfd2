//! `perf` — the repository's wall-clock benchmark.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1      one run (what BENCHMARK.json names)
//! perf --seed N [--workload NAME]... [--seconds S] [--reps R] [--json PATH] [--spans DIR]
//!                                                            every workload, untraced then traced
//! perf --check A.json B.json [--benchmark BENCHMARK.json]    compare two result files
//! ```
//!
//! Every (workload, pass) runs in a fresh child process — a re-exec of this
//! binary with `--child` — so `peak_rss_mb` belongs to that run alone.
//! See `README.md` beside this crate for the workloads and metrics.

mod check;
mod gen;
mod json;
mod phases;
mod report;
mod rng;
mod stats;
mod storage;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{RunSpec, Workload};

/// Where runs may write (WAL segments, checkpoints, hand-off files): beside
/// the executable, which is inside the build directory of the checkout.
pub fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("perf-scratch")))
        .unwrap_or_else(|| PathBuf::from("perf-scratch"))
}

#[derive(Debug, Default)]
struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: f64,
    /// `None` = both passes.
    trace: Option<bool>,
    /// Fresh child processes per (workload, pass); `--check` takes medians.
    reps: usize,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
    check: Option<(PathBuf, PathBuf)>,
    benchmark: PathBuf,
    /// Child mode: the directory to run in and leave `result.json` in.
    child: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seconds: workloads::RUN_SECONDS,
        reps: 1,
        benchmark: PathBuf::from("BENCHMARK.json"),
        ..Default::default()
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                let w = Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload '{name}' (expected one of {})",
                        known.join(", ")
                    )
                })?;
                args.workloads.push(w);
            }
            "--seed" => {
                let v = value(&mut it, flag)?;
                args.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a u64"))?);
            }
            "--seconds" => {
                let v = value(&mut it, flag)?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.1..=60.0).contains(s))
                    .ok_or_else(|| format!("--seconds {v}: expected 0.1 to 60"))?;
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--reps" => {
                let v = value(&mut it, flag)?;
                args.reps = v
                    .parse()
                    .ok()
                    .filter(|r| (1..=100).contains(r))
                    .ok_or_else(|| format!("--reps {v}: expected 1 to 100"))?;
            }
            "--json" => args.json = Some(value(&mut it, flag)?.into()),
            "--spans" => args.spans = Some(value(&mut it, flag)?.into()),
            "--benchmark" => args.benchmark = value(&mut it, flag)?.into(),
            "--check" => {
                let a = value(&mut it, flag)?.into();
                let b = value(&mut it, flag)?.into();
                args.check = Some((a, b));
            }
            "--child" => args.child = Some(value(&mut it, flag)?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Child mode: run one (workload, pass) in this process.
fn child_main(args: &Args, dir: &std::path::Path) -> Result<bool, String> {
    let (&[workload], Some(seed), Some(traced)) = (&args.workloads[..], args.seed, args.trace)
    else {
        return Err("--child needs one --workload, --seed and --trace".to_string());
    };
    let spec = RunSpec {
        workload,
        seed,
        seconds: args.seconds,
        traced,
        max_scale: None,
        corrupt_oracle: false,
    };
    let result = workloads::run(&spec, dir);
    if let Some(spans_dir) = &args.spans {
        std::fs::create_dir_all(spans_dir).map_err(|e| format!("{}: {e}", spans_dir.display()))?;
        let path = spans_dir.join(format!("{}.spans.jsonl", workload.name()));
        std::fs::write(&path, trace::to_jsonl(workload.name(), &result.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", report::table(&spec, &result));
    for e in &result.errors {
        println!("FAILED CHECK: {e}");
    }
    std::fs::write(dir.join("result.json"), report::result_json(&spec, &result))
        .map_err(|e| format!("write result: {e}"))?;
    println!("{}", report::contract_line(&spec, &result));
    Ok(result.correct())
}

/// Parent mode: one child per (workload, pass); the scratch directory is
/// removed whether or not the child succeeded.
fn parent_main(args: &Args) -> Result<bool, String> {
    let seed = args.seed.ok_or("--seed is required")?;
    let workloads = if args.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        args.workloads.clone()
    };
    let passes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut results = Vec::new();
    // Repetitions are the outer loop: a slow stretch of the host then costs
    // every workload one repetition, not one workload all of its.
    let runs = (0..args.reps)
        .flat_map(|_| workloads.iter())
        .flat_map(|&w| passes.iter().map(move |&traced| (w, traced)));
    for (workload, traced) in runs {
        let dir = scratch_root().join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut cmd = Command::new(&exe);
        cmd.arg("--child").arg(&dir);
        cmd.args(["--workload", workload.name()]);
        cmd.args(["--seed", &seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if traced { "1" } else { "0" }]);
        if let (true, Some(spans)) = (traced, &args.spans) {
            cmd.arg("--spans").arg(spans);
        }
        // stdout is inherited: the child's last line is the run's result.
        let status = cmd.status();
        let result = std::fs::read_to_string(dir.join("result.json"));
        let _ = std::fs::remove_dir_all(&dir);
        let ok = matches!(&status, Ok(s) if s.success());
        all_ok &= ok;
        match result {
            Ok(text) => results.push(text),
            Err(_) => {
                // The child died before reporting: its operations count
                // as attempted and failed, not as missing.
                let why = match status {
                    Ok(s) => format!("child exited with {s}"),
                    Err(e) => format!("child did not start: {e}"),
                };
                eprintln!("{} (trace {}): {why}", workload.name(), u8::from(traced));
                results.push(report::dead_child_json(workload, seed, traced, &why));
                println!("{}", report::dead_child_line());
            }
        }
    }
    if let Some(path) = &args.json {
        let body = format!(
            "{{\"host\": {}, \"runs\": [\n{}\n]}}\n",
            report::host_json(),
            results.join(",\n")
        );
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.check {
            check::run(a, b, &args.benchmark)
        } else if let Some(dir) = &args.child {
            child_main(&args, dir)
        } else {
            parent_main(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
